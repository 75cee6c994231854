"""Monte Carlo sampler: determinism, moments, topology, and the CSV wire
format."""

import io

import numpy as np
import pytest

import passiveqkd as pq


def _sample_se(z):
    """Standard error of the sample mean of z."""
    return float(np.std(z, ddof=1) / np.sqrt(z.shape[0]))


@pytest.fixture(scope="module")
def small_config(alice_detector, bob_detector):
    return pq.SystemConfig(
        source=pq.SourceParams(mean_photon_number=40.0, mode_overlap=0.9),
        alice_attenuation=0.5,
        channel=pq.ChannelParams(transmittance=0.6),
        alice_detector=alice_detector,
        bob_detector=bob_detector,
    )


def test_determinism_across_calls(small_config):
    """The same seed twice gives bit-identical columns, for a batch that
    spans a chunk boundary."""
    run = pq.RunSpec(n_samples=pq.CHUNK_SIZE + 123, seed=11, n_blocks=10)
    first = pq.simulate_batch(small_config, run)
    again = pq.simulate_batch(small_config, run)
    for name in first.column_names():
        assert np.array_equal(getattr(first, name), getattr(again, name))


def test_different_seeds_differ(small_config):
    run_a = pq.RunSpec(n_samples=1000, seed=11, n_blocks=10)
    run_b = pq.RunSpec(n_samples=1000, seed=12, n_blocks=10)
    a = pq.simulate_batch(small_config, run_a)
    b = pq.simulate_batch(small_config, run_b)
    assert not np.array_equal(a.x1, b.x1)


def test_moments_match_model(bench_config):
    """Sample second moments agree with the closed forms on both
    quadrature chains."""
    run = pq.RunSpec(n_samples=200_000, seed=7, n_blocks=10)
    batch = pq.simulate_batch(bench_config, run)
    n0 = bench_config.source.mean_photon_number
    a = bench_config.source.mode_overlap
    for alice, bob, out, ax, bx in (
            (batch.x2, batch.x3, batch.x1,
             bench_config.alice_detector.x, bench_config.bob_detector.x),
            (batch.p2, batch.p3, batch.p1,
             bench_config.alice_detector.p, bench_config.bob_detector.p)):
        model = pq.quadrature_second_moments(n0, ax, bx, a)
        assert abs(np.mean(out * out) - (n0 + 1.0)) <= 3.0 * _sample_se(out * out)
        assert abs(np.mean(alice * alice) - model.alice_var) <= \
            3.0 * _sample_se(alice * alice)
        assert abs(np.mean(bob * bob) - model.bob_var) <= 3.0 * _sample_se(bob * bob)
        assert abs(np.mean(alice * bob) - model.cross) <= 3.0 * _sample_se(alice * bob)


def test_tap_topology(small_config):
    """Enabling the eavesdropper tap adds x4/p4 without disturbing the
    other columns, and the tap variance matches its closed form."""
    run = pq.RunSpec(n_samples=150_000, seed=13, n_blocks=10)
    plain = pq.simulate_batch(small_config, run)
    tapped_config = small_config.replace(eavesdropper_tap=True)
    tapped = pq.simulate_batch(tapped_config, run)
    assert plain.x4 is None and plain.p4 is None
    assert tapped.x4 is not None and tapped.p4 is not None
    assert plain.column_names() == ["x1", "x2", "x3", "p1", "p2", "p3"]
    assert tapped.column_names() == ["x1", "x2", "x3", "x4", "p1", "p2", "p3", "p4"]
    for name in ("x1", "x2", "x3", "p1", "p2", "p3"):
        assert np.array_equal(getattr(plain, name), getattr(tapped, name))
    e0 = small_config.alice_attenuation
    t = small_config.channel.transmittance
    n0 = small_config.source.mean_photon_number
    tap_var = e0 * n0 * (1.0 - t) / 2.0 + 1.0
    for tap in (tapped.x4, tapped.p4):
        assert abs(np.mean(tap * tap) - tap_var) <= 3.0 * _sample_se(tap * tap)


def test_quadrature_symmetry(bench_config):
    """Swapping the X and P parameter sets swaps the statistics: the P
    correlations of the original ensemble and the X correlations of the
    swapped one estimate the same number."""
    swapped = bench_config.replace(
        alice_detector=pq.ConjugateDetector(x=bench_config.alice_detector.p,
                                            p=bench_config.alice_detector.x),
        bob_detector=pq.ConjugateDetector(x=bench_config.bob_detector.p,
                                          p=bench_config.bob_detector.x))
    p_corrs, x_corrs = [], []
    for seed in range(20, 28):
        run = pq.RunSpec(n_samples=50_000, seed=seed, n_blocks=10)
        p_corrs.append(pq.blocked_correlation(
            *(getattr(pq.simulate_batch(bench_config, run), c)
              for c in ("p2", "p3")), 10).mean_corr)
        x_corrs.append(pq.blocked_correlation(
            *(getattr(pq.simulate_batch(swapped, run), c)
              for c in ("x2", "x3")), 10).mean_corr)
    p_arr, x_arr = np.array(p_corrs), np.array(x_corrs)
    pooled_se = np.sqrt((p_arr.var(ddof=1) + x_arr.var(ddof=1)) / p_arr.shape[0])
    assert abs(p_arr.mean() - x_arr.mean()) <= 4.0 * pooled_se


def test_empirical_conditional_variance(bench_config, alice_x):
    """The residual variance at the optimal gain matches 1 + eps."""
    run = pq.RunSpec(n_samples=200_000, seed=17, n_blocks=10)
    batch = pq.simulate_batch(bench_config, run)
    gain = pq.optimal_estimator_gain(880.0, 0.96, 1.0, alice_x)
    delta = pq.empirical_conditional_variance(batch, gain)
    expected = pq.conditional_uncertainty(880.0, 1.0, alice_x, 0.96)
    assert delta == pytest.approx(expected, rel=0.02)
    with pytest.raises(pq.ParameterError):
        pq.empirical_conditional_variance(batch, float("nan"))


def test_thermal_quadratures():
    rng = np.random.default_rng(3)
    draws = pq.thermal_quadratures(rng, 12.0, 200_000)
    assert draws.shape == (200_000,)
    assert abs(np.mean(draws)) <= 4.0 * np.std(draws) / np.sqrt(draws.shape[0])
    assert np.var(draws) == pytest.approx(25.0, rel=0.02)
    with pytest.raises(pq.ParameterError):
        pq.thermal_quadratures(rng, -1.0, 10)


def test_derive_point_seed():
    seeds = [pq.derive_point_seed(1, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**64 for s in seeds)
    assert pq.derive_point_seed(1, 3) == pq.derive_point_seed(1, 3)
    assert pq.derive_point_seed(1, 3) != pq.derive_point_seed(2, 3)


def test_run_spec_validation():
    with pytest.raises(pq.ParameterError):
        pq.RunSpec(n_samples=0, seed=1)
    with pytest.raises(pq.ParameterError):
        pq.RunSpec(n_samples=10, seed=-1)
    with pytest.raises(pq.ParameterError):
        pq.RunSpec(n_samples=10, seed=2**64)
    with pytest.raises(pq.ParameterError):
        pq.RunSpec(n_samples=10, seed=1, n_blocks=0)


def test_run_spec_numpy_integers(small_config):
    run = pq.RunSpec(n_samples=np.int64(10), seed=np.uint64(3), n_blocks=np.int32(2))
    assert run == pq.RunSpec(n_samples=10, seed=3, n_blocks=2)
    assert all(type(v) is int for v in (run.n_samples, run.seed, run.n_blocks))
    np.testing.assert_array_equal(pq.simulate_batch(small_config, run).x3,
                                  pq.simulate_batch(small_config, pq.RunSpec(10, 3)).x3)
    with pytest.raises(pq.ParameterError):
        pq.RunSpec(n_samples=10, seed=True)


def test_batch_size_precheck(small_config):
    run = pq.RunSpec(n_samples=10_000, seed=1, n_blocks=10)
    with pytest.raises(pq.BatchSizeError):
        pq.simulate_batch(small_config, run, memory_limit_bytes=1000)


def test_simulate_batch_input_types(small_config):
    run = pq.RunSpec(n_samples=10, seed=1)
    with pytest.raises(pq.ParameterError):
        pq.simulate_batch("not a config", run)
    with pytest.raises(pq.ParameterError):
        pq.simulate_batch(small_config, "not a run")


def test_sample_csv_round_trip(small_config, tmp_path):
    """An open file and a path (parsed by one kernel) both read back the
    written columns bit for bit, as views of one parsed matrix."""
    run = pq.RunSpec(n_samples=500, seed=19, n_blocks=5)
    batch = pq.simulate_batch(small_config.replace(eavesdropper_tap=True), run)
    buf = io.StringIO()
    pq.write_sample_csv(buf, batch)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# schema: passiveqkd/samples v1"
    assert lines[1] == "x1,x2,x3,x4,p1,p2,p3,p4"
    assert len(lines) == 2 + 500
    path = tmp_path / "samples.csv"
    pq.write_sample_csv(path, batch)
    assert path.read_text(encoding="utf-8") == text
    for source in (io.StringIO(text), path):
        back = pq.read_sample_csv(source)
        for name in batch.column_names():
            assert np.array_equal(getattr(batch, name), getattr(back, name))
        # Interleaved columns share a buffer but no element, so the test is
        # on buffer bounds: copied-out columns would lie in separate ones.
        assert np.may_share_memory(back.x1, back.p4)


def test_sample_batch_layout_is_checked_at_construction(small_config):
    """x4 and p4 come together and every column has one length, so a batch
    never writes a header the reader refuses; both layouts round-trip."""
    c = np.zeros(3)
    pair = "the tap columns come as a pair"
    for tap, missing in (({"x4": c}, "x4 but no p4"), ({"p4": c}, "p4 but no x4")):
        with pytest.raises(pq.ParameterError) as err:
            pq.SampleBatch(c, c, c, c, c, c, **tap)
        assert err.value.violations == [f"SampleBatch has {missing}: {pair}"]
    with pytest.raises(pq.ParameterError) as err:
        pq.SampleBatch(c, c, c, c, c, np.zeros(2), x4=c, p4=c)
    assert err.value.violations == [
        "SampleBatch columns differ in length: x1 3, x2 3, x3 3, x4 3, p1 3, p2 3, p3 2, p4 3"]
    with pytest.raises(pq.ParameterError) as err:
        pq.SampleBatch(c, np.zeros(4), c, c, c, c, x4=c)
    assert err.value.violations == [
        f"SampleBatch has x4 but no p4: {pair}",
        "SampleBatch columns differ in length: x1 3, x2 4, x3 3, x4 3, p1 3, p2 3, p3 3"]
    run = pq.RunSpec(n_samples=300, seed=5)
    for tap in (False, True):
        batch = pq.simulate_batch(small_config.replace(eavesdropper_tap=tap), run)
        buf = io.StringIO()
        pq.write_sample_csv(buf, batch)
        back = pq.read_sample_csv(io.StringIO(buf.getvalue()))
        assert back.column_names() == batch.column_names()
        for name in batch.column_names():
            assert np.array_equal(getattr(back, name), getattr(batch, name))


def test_sample_csv_errors():
    """The header is one of the two layouts the writer produces; unknown,
    missing, reordered, half-tapped and repeated columns are all refused."""
    layouts = "x1,x2,x3,p1,p2,p3 or x1,x2,x3,x4,p1,p2,p3,p4"
    for header in ("x1,x2,bogus", "x1,x2,x3", "x1,x2,x3,p2,p1,p3",
                   "x1,x2,x3,x4,p1,p2,p3", "x1,x2,x3,p1,p2,p3,p4",
                   "x1,x2,x3,p1,p2,p3,x4,p4"):
        with pytest.raises(pq.ParameterError) as err:
            pq.read_sample_csv(io.StringIO(f"{header}\n{','.join('1' * 8)}\n"))
        assert err.value.violations == [
            f"sample CSV header must be {layouts}, got {header}"]
    with pytest.raises(pq.ParameterError, match="^sample CSV header repeats column 'x1'$"):
        pq.read_sample_csv(io.StringIO("x1,x2,x3,p1,p2,p3,x1\n1,2,3,4,5,6,7\n"))
    with pytest.raises(pq.ParameterError):
        pq.read_sample_csv(io.StringIO("# schema: passiveqkd/samples v1\n"))
    with pytest.raises(pq.ParameterError):
        pq.read_sample_csv(io.StringIO("x1,x2,x3,p1,p2,p3\n"))
    header = "# schema: passiveqkd/samples v1\nx1,x2,x3,p1,p2,p3\n"
    for body, problem in (("1,2,3,4,5,6\n1,2,3\n", "number of columns"),
                          ("1,2,3,4,5,6,7\n", "7 fields"),
                          ("1,2,3,four,5,6\n", "four")):
        with pytest.raises(pq.ParameterError, match=f"sample CSV.*{problem}"):
            pq.read_sample_csv(io.StringIO(header + body))
