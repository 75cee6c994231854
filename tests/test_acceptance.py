"""Acceptance gate: one test per shipped guarantee, full pipeline each.

Every test below exercises the production code path end to end at the
stated tolerance and shows up as a single pass/fail line under
``pytest -v``. Statistical checks run the same deterministic seed
derivation the command line uses, so reruns are bit-identical; the
3-sigma margins were sized so a fresh seed passes with high
probability, not tuned to the pinned one.
"""

import math
import random
import time

import numpy as np
import pytest

import oracles
import passiveqkd as pq


def _x_only(config):
    """Narrow a two-quadrature config to its X arms for analytic calls."""
    return config.alice_detector.x, config.bob_detector.x


def test_criterion_1_lossless_correlation_and_overlap_recovery(
        bench_config, alice_x, bob_x):
    """Back-to-back bench: sampled correlation sits on the analytic value
    at the largest photon number, and the overlap fit over the default
    photon-number grid recovers the configured 0.96, inside a minute."""
    start = time.perf_counter()
    points = []
    top_estimate = None
    for index, n0 in enumerate(pq.DEFAULT_N0_GRID):
        config = bench_config.replace(source=pq.SourceParams(float(n0), 0.96))
        run = pq.RunSpec(500_000, pq.derive_point_seed(1, index), n_blocks=10)
        batch = pq.simulate_batch(config, run)
        estimate = pq.blocked_correlation(batch.x2, batch.x3, 10)
        points.append((float(n0), estimate))
        if n0 == 880:
            top_estimate = estimate

    model = pq.correlation_coefficient(880.0, 0.96, alice_x, bob_x)
    assert model == pytest.approx(0.9545578005916622, rel=1e-13)
    assert model == pytest.approx(0.9546, abs=5e-5)
    assert abs(top_estimate.mean_corr - model) <= 3.0 * top_estimate.std_dev

    fit = pq.fit_mode_overlap(points, alice_x, bob_x)
    assert not fit.clamped
    assert abs(fit.mode_overlap - 0.96) <= 3.0 * fit.std_err

    assert time.perf_counter() - start < 60.0


def test_criterion_2_attenuation_sweep_tracks_model(bench_config, alice_x,
                                                    bob_x):
    """Sampled correlation follows the analytic decay over 42 dB of
    combined attenuation, every point within 3 block standard
    deviations, in under two minutes."""
    start = time.perf_counter()
    source = pq.SourceParams(900.0, 0.96)
    for index, db in enumerate((0.0, -10.0, -20.0, -32.1, -42.2)):
        eta_tot = pq.linear_from_db(db)
        config = bench_config.replace(source=source,
                                      alice_attenuation=eta_tot)
        run = pq.RunSpec(500_000, pq.derive_point_seed(1, index), n_blocks=10)
        batch = pq.simulate_batch(config, run)
        estimate = pq.blocked_correlation(batch.x2, batch.x3, 10)
        model = pq.correlation_coefficient(900.0, 0.96, alice_x, bob_x,
                                           eta_tot)
        assert abs(estimate.mean_corr - model) <= 3.0 * estimate.std_dev
        if db == -42.2:
            assert model == pytest.approx(0.103, abs=5e-4)
    assert time.perf_counter() - start < 120.0


def test_criterion_3_distance_curve_and_measured_points(link_config):
    """Optimised key rate over distance: positive at 80 km, a single
    zero crossing, every curve value equal to the high-precision
    reference chain to 1e-10, and both measured operating points
    positive with the analytic prediction inside their interval."""
    alice_x, bob_x = _x_only(link_config)
    grid = [5.0 * k for k in range(25)]
    results = []
    for length in grid:
        res = pq.optimize_attenuation(link_config, length_km=length)
        results.append(res)
        ref = oracles.key_rate(900.0, 0.96, res.alice_attenuation,
                               res.transmittance, alice_x.efficiency,
                               alice_x.noise_variance, bob_x.efficiency,
                               bob_x.noise_variance, 0.95)
        for got, want in ((res.budget.prep_excess_noise, ref["eps"]),
                          (res.mutual_info, ref["i_ab"]),
                          (res.holevo_info, ref["chi_be"]),
                          (res.rate, ref["rate"])):
            # mixed tolerance: relative above unit scale, absolute below,
            # so near-zero rates past the crossing stay comparable
            assert abs(got - float(want)) <= 1e-10 * max(1.0, abs(float(want)))

    assert results[grid.index(80.0)].rate > 0.0
    signs = [res.rate > 0.0 for res in results]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    cutoff = pq.distance_cutoff(link_config, hi_km=200.0)
    assert 80.0 < cutoff < 85.0
    assert pq.optimize_attenuation(link_config, length_km=cutoff - 0.5).rate > 0.0
    assert pq.optimize_attenuation(link_config, length_km=cutoff + 0.5).rate < 0.0

    for index, (e0, t) in enumerate(((0.0009, 0.69), (0.0004, 0.15))):
        eta_tot = e0 * t
        bench = link_config.replace(alice_attenuation=eta_tot,
                                    channel=pq.ChannelParams(1.0))
        run = pq.RunSpec(500_000, pq.derive_point_seed(1, index), n_blocks=10)
        batch = pq.simulate_batch(bench, run)
        estimate = pq.blocked_correlation(batch.x2, batch.x3, 10)
        declared = link_config.replace(alice_attenuation=e0,
                                       channel=pq.ChannelParams(t))
        measured = pq.key_rate_from_measurement(estimate, declared, eta_tot)
        assert measured.result.rate > 0.0
        assert measured.rate_lower <= measured.predicted_rate <= measured.rate_upper


def test_criterion_4_threshold_equalises_conditional_variances():
    """Bob's variance conditioned on Alice meets the one conditioned on
    the tapped mode exactly at the threshold attenuation, and beats it
    strictly anywhere below, across random channels and detectors."""
    rng = random.Random(4)
    checked = 0
    while checked < 100:
        t = rng.uniform(0.01, 0.95)
        ax = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        bx = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        threshold = pq.attenuation_security_threshold(t, ax)
        if threshold >= 1.0:
            continue
        checked += 1
        n0 = rng.uniform(10.0, 2000.0)
        at = pq.beamsplit_attack_variances(threshold * n0, threshold, t,
                                           ax, bx)
        assert at.conditional_on_alice == pytest.approx(
            at.conditional_on_eve, rel=1e-9)
        for scale in (0.01, 0.2, 0.8):
            below = pq.beamsplit_attack_variances(
                scale * threshold * n0, scale * threshold, t, ax, bx)
            assert below.conditional_on_alice < below.conditional_on_eve


def test_criterion_5_information_and_noise_identities(alice_x):
    """Internal consistency: the variance and correlation routes to the
    mutual information agree to 1e-12, the preparation noise collapses
    to its unit-overlap form, and it vanishes with the attenuator."""
    rng = random.Random(5)
    checked = 0
    while checked < 10_000:
        n0 = rng.uniform(50.0, 2000.0)
        e0 = 10.0 ** rng.uniform(-4.0, 0.0)
        t = rng.uniform(0.01, 1.0)
        ax = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        bx = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        corr = pq.correlation_coefficient(n0, 1.0, ax, bx, e0 * t)
        if corr < 0.1:
            continue  # the log ratio has no significant digits down there
        checked += 1
        attack = pq.beamsplit_attack_variances(e0 * n0, e0, t, ax, bx)
        i_var = pq.mutual_information_from_variances(
            attack.total, attack.conditional_on_alice)
        i_corr = pq.mutual_information_from_correlation(corr)
        assert i_var == pytest.approx(i_corr, rel=1e-12)

    rng = random.Random(55)
    for _ in range(10_000):
        n0 = rng.uniform(1.0, 2000.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        ch = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.preparation_excess_noise(e0 * n0, e0, ch, 1.0)
        want = float(oracles.excess_noise_unit_overlap(
            n0, e0, ch.efficiency, ch.noise_variance))
        assert got == pytest.approx(want, rel=1e-12)

    values = [pq.preparation_excess_noise(10.0 ** -k * 900.0, 10.0 ** -k,
                                          alice_x, 0.96) for k in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_criterion_6_physical_spectra_across_random_configs():
    """Every symplectic eigenvalue stays at or above 1, the bound on the
    leaked information stays nonnegative, and the pure ancilla mode
    contributes exactly 1, over a broad random configuration sweep."""
    rng = random.Random(6)
    for _ in range(10_000):
        config = pq.SystemConfig(
            source=pq.SourceParams(rng.uniform(1.0, 2000.0),
                                   rng.uniform(0.5, 1.0)),
            alice_attenuation=10.0 ** rng.uniform(-6.0, 0.0),
            channel=pq.ChannelParams(rng.uniform(0.01, 1.0)),
            alice_detector=pq.ConjugateDetector(
                x=pq.DetectorChannel(rng.uniform(0.05, 1.0),
                                     rng.uniform(0.0, 1.0)),
                p=pq.DetectorChannel(rng.uniform(0.05, 1.0),
                                     rng.uniform(0.0, 1.0))),
            bob_detector=pq.ConjugateDetector(
                x=pq.DetectorChannel(rng.uniform(0.05, 1.0),
                                     rng.uniform(0.0, 1.0)),
                p=pq.DetectorChannel(rng.uniform(0.05, 1.0),
                                     rng.uniform(0.0, 1.0))),
        )
        res = pq.key_rate_point(config)
        assert res.holevo_info >= 0.0
        assert res.eigenvalues[4] == 1.0
        for eigenvalue in res.eigenvalues:
            assert eigenvalue >= 1.0 - 1e-9


def test_criterion_7_sampled_moments_match_analytic_forms():
    """Monte Carlo second moments reproduce the analytic variances and
    cross moment, and the retained mode carries the modulation variance
    plus shot noise, within 3 standard errors on random configs."""
    master = np.random.default_rng(7)
    for _ in range(20):
        n0 = float(master.uniform(5.0, 1500.0))
        a = float(master.uniform(0.5, 1.0))
        e0 = 10.0 ** float(master.uniform(-2.0, 0.0))
        t = float(master.uniform(0.05, 1.0))
        ax = pq.DetectorChannel(float(master.uniform(0.2, 1.0)),
                                float(master.uniform(0.0, 0.5)))
        bx = pq.DetectorChannel(float(master.uniform(0.2, 1.0)),
                                float(master.uniform(0.0, 0.5)))
        config = pq.SystemConfig(
            source=pq.SourceParams(n0, a),
            alice_attenuation=e0,
            channel=pq.ChannelParams(t),
            alice_detector=pq.ConjugateDetector(x=ax, p=ax),
            bob_detector=pq.ConjugateDetector(x=bx, p=bx),
        )
        seed = int(master.integers(0, 2 ** 63))
        batch = pq.simulate_batch(config, pq.RunSpec(100_000, seed))
        moments = pq.quadrature_second_moments(n0, ax, bx, a, e0 * t)
        retained = pq.modulation_variance(e0, n0) + 1.0
        gates = ((batch.x1 * batch.x1, retained),
                 (batch.x2 * batch.x2, moments.alice_var),
                 (batch.x3 * batch.x3, moments.bob_var),
                 (batch.x2 * batch.x3, moments.cross))
        for z, want in gates:
            se = float(np.std(z, ddof=1)) / math.sqrt(z.size)
            assert abs(float(np.mean(z)) - want) <= 3.0 * se
