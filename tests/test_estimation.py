"""Estimation pipeline: blocked correlations, the overlap fit, and the
information error bars."""

import io
import math

import numpy as np
import pytest

import passiveqkd as pq


def _bivariate(rng, rho, n):
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return x, y


def test_blocked_correlation_recovers_truth():
    rng = np.random.default_rng(31)
    x, y = _bivariate(rng, 0.7, 40_000)
    est = pq.blocked_correlation(x, y, 10)
    assert est.n_blocks == 10
    assert est.block_size == 4000
    assert est.n_dropped == 0
    assert est.std_dev > 0.0
    assert abs(est.mean_corr - 0.7) <= 3.0 * est.std_dev


def test_blocked_correlation_coverage():
    """The 3-sigma interval covers the true correlation in at least 99
    of 100 seeded runs."""
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x, y = _bivariate(rng, 0.6, 20_000)
        est = pq.blocked_correlation(x, y, 10)
        if abs(est.mean_corr - 0.6) <= 3.0 * est.std_dev:
            hits += 1
    assert hits >= 99


def test_blocked_correlation_drops_remainder():
    rng = np.random.default_rng(32)
    x, y = _bivariate(rng, 0.5, 4003)
    est = pq.blocked_correlation(x, y, 4)
    assert est.block_size == 1000
    assert est.n_dropped == 3
    trimmed = pq.blocked_correlation(x[:4000], y[:4000], 4)
    assert est.mean_corr == trimmed.mean_corr
    assert est.std_dev == trimmed.std_dev


def test_blocked_correlation_validation():
    x = np.arange(100.0)
    with pytest.raises(pq.ParameterError):
        pq.blocked_correlation(x, x[:50], 10)
    with pytest.raises(pq.ParameterError):
        pq.blocked_correlation(x, x, 1)
    with pytest.raises(pq.ParameterError):
        pq.blocked_correlation(x[:10], x[:10], 10)
    with pytest.raises(pq.ParameterError):
        pq.blocked_correlation(x.reshape(10, 10), x.reshape(10, 10), 2)


def test_blocked_correlation_degenerate_block():
    rng = np.random.default_rng(33)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    x[:500] = 3.14  # first block is constant
    with pytest.raises(pq.DegenerateDataError):
        pq.blocked_correlation(x, y, 2)


def test_corr_estimate_validation():
    with pytest.raises(pq.ParameterError):
        pq.CorrEstimate(mean_corr=1.5, std_dev=0.1, n_blocks=10, block_size=100)
    with pytest.raises(pq.ParameterError):
        pq.CorrEstimate(mean_corr=0.5, std_dev=-0.1, n_blocks=10, block_size=100)
    with pytest.raises(pq.ParameterError):
        pq.CorrEstimate(mean_corr=0.5, std_dev=0.1, n_blocks=1, block_size=100)
    with pytest.raises(pq.ParameterError):
        pq.CorrEstimate(mean_corr=0.5, std_dev=0.1, n_blocks=10, block_size=100,
                        n_dropped=-1)


def test_numpy_scalar_inputs(alice_x, bob_x, bench_config):
    est = pq.CorrEstimate(np.float32(0.5), np.float64(0.01), np.int64(10), np.int32(100))
    assert est.n_blocks == 10
    rng = np.random.default_rng(5)
    x, y = _bivariate(rng, 0.5, 1000)
    assert pq.blocked_correlation(x, y, np.int64(10)) == pq.blocked_correlation(x, y, 10)
    points = [(n0, (pq.correlation_coefficient(n0, 0.82, alice_x, bob_x), 1e-4))
              for n0 in (10.0, 100.0, 880.0)]
    floor = np.float32(1e-3)
    fit = pq.fit_mode_overlap(points, alice_x, bob_x, std_floor=floor)
    assert fit == pq.fit_mode_overlap(points, alice_x, bob_x, std_floor=float(floor))
    assert [type(value) for value in vars(fit).values()] == [float, float, float, int,
                                                             bool]
    batch = pq.simulate_batch(bench_config, pq.RunSpec(1000, 5, 2))
    gain = np.float32(0.3)
    assert pq.empirical_conditional_variance(batch, gain) == \
        pq.empirical_conditional_variance(batch, float(gain))


def test_block_std_scaling():
    """Doubling the sample count at fixed blocks shrinks the block
    standard deviation by about sqrt(2)."""
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        x, y = _bivariate(rng, 0.6, 40_000)
        small = pq.blocked_correlation(x[:20_000], y[:20_000], 10)
        rng2 = np.random.default_rng(3000 + seed)
        x2, y2 = _bivariate(rng2, 0.6, 40_000)
        big = pq.blocked_correlation(x2, y2, 10)
        ratios.append(small.std_dev / big.std_dev)
    mean_ratio = float(np.mean(ratios))
    assert math.sqrt(2.0) * 0.8 <= mean_ratio <= math.sqrt(2.0) * 1.2


def test_fit_exact_recovery(alice_x, bob_x):
    a_true = 0.87
    points = []
    for n0 in (10.0, 50.0, 200.0, 880.0):
        corr = pq.correlation_coefficient(n0, a_true, alice_x, bob_x)
        points.append((n0, (corr, 1e-3)))
    fit = pq.fit_mode_overlap(points, alice_x, bob_x)
    assert fit.mode_overlap == pytest.approx(a_true, rel=1e-12)
    assert not fit.clamped
    assert fit.n_points == 4
    assert fit.residual_norm < 1e-12
    assert fit.std_err > 0.0


def test_fit_accepts_corr_estimates(alice_x, bob_x):
    corr = pq.correlation_coefficient(100.0, 0.9, alice_x, bob_x)
    est = pq.CorrEstimate(mean_corr=corr, std_dev=0.01, n_blocks=10,
                          block_size=1000)
    fit = pq.fit_mode_overlap([(100.0, est)], alice_x, bob_x)
    assert fit.mode_overlap == pytest.approx(0.9, rel=1e-12)


def test_fit_weights_down_noisy_point(alice_x, bob_x):
    a_true = 0.9
    good = pq.correlation_coefficient(400.0, a_true, alice_x, bob_x)
    bad = 0.2  # wildly off, but with a huge error bar
    fit = pq.fit_mode_overlap([(400.0, (good, 1e-4)), (400.0, (bad, 0.5))],
                              alice_x, bob_x)
    assert abs(fit.mode_overlap - a_true) < 1e-3


def test_fit_path_transmittance(alice_x, bob_x):
    """The fit must model the same lossy path the data came from."""
    a_true = 0.96
    eta_tot = 0.01
    points = [(n0, (pq.correlation_coefficient(n0, a_true, alice_x, bob_x, eta_tot),
                    1e-3)) for n0 in (100.0, 400.0, 880.0)]
    fit = pq.fit_mode_overlap(points, alice_x, bob_x, path_transmittance=eta_tot)
    assert fit.mode_overlap == pytest.approx(a_true, rel=1e-12)


def test_fit_clamps_and_flags(alice_x, bob_x):
    high = [(n0, (1.3 * pq.correlation_coefficient(n0, 1.0, alice_x, bob_x), 0.01))
            for n0 in (5.0, 10.0)]
    fit = pq.fit_mode_overlap(high, alice_x, bob_x)
    assert fit.mode_overlap == 1.0
    assert fit.clamped
    low = [(n0, (-0.5 * pq.correlation_coefficient(n0, 1.0, alice_x, bob_x), 0.01))
           for n0 in (5.0, 10.0)]
    fit = pq.fit_mode_overlap(low, alice_x, bob_x)
    assert fit.mode_overlap == 0.0
    assert fit.clamped


def test_fit_unidentifiable(alice_x, bob_x):
    with pytest.raises(pq.UnidentifiableFitError):
        pq.fit_mode_overlap([(0.0, (0.0, 0.01)), (0.0, (0.1, 0.01))],
                            alice_x, bob_x)


def test_fit_input_validation(alice_x, bob_x):
    with pytest.raises(pq.ParameterError):
        pq.fit_mode_overlap([], alice_x, bob_x)
    with pytest.raises(pq.ParameterError):
        pq.fit_mode_overlap([(100.0, (0.5, 0.01))], alice_x, bob_x, std_floor=0.0)
    with pytest.raises(pq.ParameterError):
        pq.fit_mode_overlap([(100.0, (1.5, 0.01))], alice_x, bob_x)


def test_fit_consistency_with_sample_size(bench_config):
    """More Monte Carlo samples bring the fitted overlap closer to the
    generating value, in the median over seeds."""
    grid = (50.0, 200.0, 880.0)
    medians = []
    for size in (2_000, 20_000, 200_000):
        errors = []
        for seed in range(10):
            points = []
            for i, n0 in enumerate(grid):
                config = bench_config.replace(
                    source=pq.SourceParams(n0, bench_config.source.mode_overlap))
                run = pq.RunSpec(size, pq.derive_point_seed(4000 + seed, i), 10)
                batch = pq.simulate_batch(config, run)
                points.append((n0, pq.blocked_correlation(batch.x2, batch.x3, 10)))
            fit = pq.fit_mode_overlap(points, bench_config.alice_detector.x,
                                      bench_config.bob_detector.x)
            errors.append(abs(fit.mode_overlap - 0.96))
        medians.append(float(np.median(errors)))
    assert medians[2] < medians[1] < medians[0]


def test_empirical_mutual_info_paths():
    est = pq.CorrEstimate(mean_corr=0.9546, std_dev=0.001, n_blocks=10,
                          block_size=50_000)
    from_estimate = pq.empirical_mutual_info(est)
    from_pair = pq.empirical_mutual_info((0.9546, 0.001))
    assert from_estimate == from_pair
    assert from_estimate.bits == pytest.approx(3.4942904954985532, rel=1e-15)
    assert from_estimate.lower < from_estimate.bits < from_estimate.upper


def test_empirical_mutual_info_endpoints():
    mi = pq.empirical_mutual_info((0.5, 0.1))
    assert mi.lower == pq.mutual_information_from_correlation(0.4)
    assert mi.upper == pq.mutual_information_from_correlation(0.6)
    assert mi.bits == pq.mutual_information_from_correlation(0.5)


def test_empirical_mutual_info_edge_cases():
    exact = pq.empirical_mutual_info((0.5, 0.0))
    assert exact.lower == exact.bits == exact.upper
    negative = pq.empirical_mutual_info((-0.5, 0.01))
    assert negative == pq.empirical_mutual_info((0.5, 0.01))
    nearly_one = pq.empirical_mutual_info((0.999, 0.01))
    assert math.isfinite(nearly_one.upper)
    with pytest.raises(pq.ParameterError):
        pq.empirical_mutual_info((1.0, 0.01))
    with pytest.raises(pq.ParameterError):
        pq.empirical_mutual_info((0.5, -0.01))


def test_read_points_csv_variants():
    sweep_style = ("# schema: passiveqkd/sweep-n0 v1\n"
                   "n0,corr_mc,corr_std,corr_model\n"
                   "100,0.5,0.01,0.51\n"
                   "400,0.8,0.02,0.79\n")
    points = pq.read_points_csv(io.StringIO(sweep_style))
    assert points == [(100.0, (0.5, 0.01)), (400.0, (0.8, 0.02))]
    report_style = ("n0,corr_mean,corr_std\n100,0.5,0.01\n")
    assert pq.read_points_csv(io.StringIO(report_style)) == [(100.0, (0.5, 0.01))]
    labelled = ("label,n0,corr_mean,corr_std\n"
                "first,100,0.5,0.01\n"
                "second,400,0.8,0.02\n")
    assert pq.read_points_csv(io.StringIO(labelled)) == points


def test_read_points_csv_errors():
    with pytest.raises(pq.ParameterError):
        pq.read_points_csv(io.StringIO("n0,corr_std\n100,0.01\n"))
    with pytest.raises(pq.ParameterError):
        pq.read_points_csv(io.StringIO("n0,corr_mean,corr_std\n"))
    with pytest.raises(pq.ParameterError):
        pq.read_points_csv(io.StringIO(""))
    with pytest.raises(pq.ParameterError, match="missing columns: corr_std"):
        pq.read_points_csv(io.StringIO("n0,corr_mean\n100,0.5\n"))
    for body in ("100,0.5,0.01\n400,0.8\n", "100,0.5,abc\n"):
        with pytest.raises(pq.ParameterError, match="points CSV has a malformed row"):
            pq.read_points_csv(io.StringIO("n0,corr_mean,corr_std\n" + body))


def test_write_fit_report_format(alice_x, bob_x):
    points = [(n0, (pq.correlation_coefficient(n0, 0.9, alice_x, bob_x), 0.01))
              for n0 in (100.0, 400.0)]
    fit = pq.fit_mode_overlap(points, alice_x, bob_x)
    buf = io.StringIO()
    pq.write_fit_report(buf, points, fit, alice_x, bob_x)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# schema: passiveqkd/fit-report v1"
    assert lines[1] == "n0,corr_mean,corr_std,model_corr"
    assert len(lines) == 2 + len(points) + 1
    row = lines[2].split(",")
    model_corr = fit.mode_overlap * pq.correlation_coefficient(
        100.0, 1.0, alice_x, bob_x)
    assert float(row[3]) == pytest.approx(model_corr, rel=1e-15)
    summary = lines[-1]
    assert summary.startswith("# a_hat=")
    for token in ("std_err=", "residual_norm=", "n_points=2", "clamped=false"):
        assert token in summary
    back = pq.read_points_csv(io.StringIO(buf.getvalue()))
    assert back[0][0] == 100.0
    assert back[0][1][0] == pytest.approx(points[0][1][0], rel=1e-15)
