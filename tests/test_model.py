"""Closed-form model layer: frozen values, reductions, and domain checks.

Frozen constants were computed once with the 50-digit reference
implementations in ``oracles`` and are asserted here at double
precision.
"""

import math
import random

import numpy as np
import pytest

import passiveqkd as pq

import oracles


def test_thermal_quadrature_variance():
    assert pq.thermal_quadrature_variance(0.0) == 1.0
    assert pq.thermal_quadrature_variance(900.0) == 1801.0
    with pytest.raises(pq.ParameterError):
        pq.thermal_quadrature_variance(-1.0)


def test_modulation_variance():
    assert pq.modulation_variance(0.0009, 900.0) == pytest.approx(0.81, rel=1e-15)
    assert pq.modulation_variance(1.0, 880.0) == 880.0
    with pytest.raises(pq.ParameterError):
        pq.modulation_variance(0.0, 900.0)
    with pytest.raises(pq.ParameterError):
        pq.modulation_variance(1.5, 900.0)


def test_estimator_gain_frozen(alice_x):
    gain = pq.optimal_estimator_gain(880.0, 0.96, 1.0, alice_x)
    assert gain == pytest.approx(2.0576647856791434, rel=1e-15)


def test_estimator_gain_matches_reference():
    rng = random.Random(71)
    for _ in range(200):
        n0 = rng.uniform(1.0, 2000.0)
        a = rng.uniform(0.0, 1.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        ch = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.optimal_estimator_gain(n0, a, e0, ch)
        want = float(oracles.estimator_gain(n0, a, e0, ch.efficiency,
                                            ch.noise_variance))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_estimator_gain_zero_overlap(alice_x):
    assert pq.optimal_estimator_gain(880.0, 0.0, 1.0, alice_x) == 0.0


def test_excess_noise_frozen(alice_x):
    eps1 = pq.preparation_excess_noise(0.81, 0.0009, alice_x, 0.96)
    assert eps1 == pytest.approx(0.06799056865464632, rel=1e-15)
    eps2 = pq.preparation_excess_noise(0.36, 0.0004, alice_x, 0.96)
    assert eps2 == pytest.approx(0.030218030513176144, rel=1e-15)


def test_excess_noise_matches_reference():
    rng = random.Random(72)
    for _ in range(200):
        n0 = rng.uniform(1.0, 2000.0)
        a = rng.uniform(0.0, 1.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        ch = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.preparation_excess_noise(e0 * n0, e0, ch, a)
        want = float(oracles.excess_noise(n0, a, e0, ch.efficiency,
                                          ch.noise_variance))
        assert got == pytest.approx(want, rel=1e-13)


def test_excess_noise_unit_overlap_reduction(alice_x):
    """At perfect overlap the general formula collapses to the simpler
    closed form with no mode-mismatch term."""
    rng = random.Random(73)
    for _ in range(500):
        n0 = rng.uniform(1.0, 2000.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        ch = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.preparation_excess_noise(e0 * n0, e0, ch, 1.0)
        want = float(oracles.excess_noise_unit_overlap(n0, e0, ch.efficiency,
                                                       ch.noise_variance))
        assert got == pytest.approx(want, rel=1e-12)


def test_excess_noise_increasing_in_attenuation(alice_x):
    """At fixed modulation variance and perfect overlap, a more open
    attenuator leaks more estimate noise into the channel."""
    grid = [10.0 ** (-k / 2.0) for k in range(12, -1, -1)]
    values = [pq.preparation_excess_noise(0.81, e0, alice_x, 1.0) for e0 in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_excess_noise_vanishes_at_closed_attenuator(alice_x):
    values = [pq.preparation_excess_noise(0.81, 10.0 ** -k, alice_x, 1.0)
              for k in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_excess_noise_mode_mismatch_floor(alice_x):
    """For a < 1 the noise does not vanish: it approaches V_A*(1-a^2)."""
    va, a = 0.81, 0.96
    eps = pq.preparation_excess_noise(va, 1e-9, alice_x, a)
    assert eps == pytest.approx(va * (1.0 - a * a), rel=1e-6)


def test_conditional_uncertainty_floor(alice_x):
    rng = random.Random(74)
    for _ in range(100):
        va = rng.uniform(0.0, 1000.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        a = rng.uniform(0.0, 1.0)
        delta = pq.conditional_uncertainty(va, e0, alice_x, a)
        assert delta >= 1.0
        assert delta == 1.0 + pq.preparation_excess_noise(va, e0, alice_x, a)


def test_second_moments_frozen(alice_x, bob_x):
    m = pq.quadrature_second_moments(880.0, alice_x, bob_x, 0.96)
    assert m.alice_var == pytest.approx(190.37, rel=1e-14)
    assert m.bob_var == pytest.approx(238.84, rel=1e-14)
    assert m.cross == pytest.approx(203.54245913813658, rel=1e-15)


def test_second_moments_match_reference():
    rng = random.Random(75)
    for _ in range(200):
        n0 = rng.uniform(0.0, 2000.0)
        a = rng.uniform(0.0, 1.0)
        eta_tot = 10.0 ** rng.uniform(-5.0, 0.0)
        ax = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        bx = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.quadrature_second_moments(n0, ax, bx, a, eta_tot)
        want = oracles.second_moments(n0, a, ax.efficiency, ax.noise_variance,
                                      bx.efficiency, bx.noise_variance, eta_tot)
        assert got.alice_var == pytest.approx(float(want[0]), rel=1e-13)
        assert got.bob_var == pytest.approx(float(want[1]), rel=1e-13)
        assert got.cross == pytest.approx(float(want[2]), rel=1e-13, abs=1e-300)


def test_correlation_frozen(alice_x, bob_x):
    assert pq.correlation_coefficient(880.0, 0.96, alice_x, bob_x) == pytest.approx(
        0.9545578005916622, rel=1e-15)
    assert pq.correlation_coefficient(900.0, 0.96, alice_x, bob_x) == pytest.approx(
        0.9546780655413479, rel=1e-15)


def test_correlation_at_deployed_splits_frozen(alice_x, bob_x):
    c1 = pq.correlation_coefficient(900.0, 0.96, alice_x, bob_x, 0.0009 * 0.69)
    assert c1 == pytest.approx(0.315255533506761, rel=1e-14)
    c2 = pq.correlation_coefficient(900.0, 0.96, alice_x, bob_x, 0.0004 * 0.15)
    assert c2 == pytest.approx(0.10317911187372944, rel=1e-14)


def test_correlation_bounded_by_overlap(alice_x, bob_x):
    """corr lies in [0, a] and climbs monotonically to a with n0."""
    a = 0.96
    grid = [1.0, 10.0, 1e2, 1e3, 1e6, 1e9]
    values = [pq.correlation_coefficient(n0, a, alice_x, bob_x) for n0 in grid]
    assert all(0.0 <= v < a for v in values)
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] == pytest.approx(a, abs=1e-6)
    assert pq.correlation_coefficient(0.0, a, alice_x, bob_x) == 0.0


def test_mutual_information_from_variances():
    assert pq.mutual_information_from_variances(8.0, 2.0) == 2.0
    with pytest.raises(pq.ModelInconsistencyError):
        pq.mutual_information_from_variances(2.0, 8.0)
    with pytest.raises(pq.ParameterError):
        pq.mutual_information_from_variances(0.0, 1.0)
    with pytest.raises(pq.ParameterError):
        pq.mutual_information_from_variances(1.0, -1.0)


def test_mutual_information_from_correlation():
    assert pq.mutual_information_from_correlation(0.0) == 0.0
    assert pq.mutual_information_from_correlation(0.9546) == pytest.approx(
        3.4942904954985532, rel=1e-15)
    assert pq.mutual_information_from_correlation(-0.5) == \
        pq.mutual_information_from_correlation(0.5)
    with pytest.raises(pq.ParameterError):
        pq.mutual_information_from_correlation(1.0)
    with pytest.raises(pq.ParameterError):
        pq.mutual_information_from_correlation(-1.0)


def test_information_identity_variances_vs_correlation():
    """log2(V_B/V_B|A) equals log2(1/(1-corr^2)) when both sides come
    from the same analytic perfect-overlap second moments."""
    rng = random.Random(76)
    checked = 0
    while checked < 300:
        n0 = rng.uniform(50.0, 2000.0)
        e0 = 10.0 ** rng.uniform(-4.0, 0.0)
        t = rng.uniform(0.01, 1.0)
        ax = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        bx = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        corr = pq.correlation_coefficient(n0, 1.0, ax, bx, e0 * t)
        if corr < 0.1:
            continue  # the log ratio has no significant digits down there
        checked += 1
        av = pq.beamsplit_attack_variances(e0 * n0, e0, t, ax, bx)
        i_var = pq.mutual_information_from_variances(av.total,
                                                     av.conditional_on_alice)
        i_corr = pq.mutual_information_from_correlation(corr)
        assert i_var == pytest.approx(i_corr, rel=1e-12)


def test_attack_variances_match_reference():
    rng = random.Random(77)
    for _ in range(200):
        n0 = rng.uniform(1.0, 2000.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        t = rng.uniform(0.01, 0.99)
        ax = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        bx = pq.DetectorChannel(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        got = pq.beamsplit_attack_variances(e0 * n0, e0, t, ax, bx)
        want = oracles.attack_variances(n0, e0, t, ax.efficiency, ax.noise_variance,
                                        bx.efficiency, bx.noise_variance)
        assert got.conditional_on_alice == pytest.approx(float(want[0]), rel=1e-13)
        assert got.total == pytest.approx(float(want[1]), rel=1e-13)
        assert got.conditional_on_eve == pytest.approx(float(want[2]), rel=1e-13)


def test_attenuation_security_threshold(alice_x, bob_x):
    thr = pq.attenuation_security_threshold(0.5, alice_x)
    assert thr == pytest.approx(0.43 / (1.17 * 0.5), rel=1e-15)
    assert pq.attenuation_security_threshold(1.0, alice_x) == math.inf
    with pytest.raises(pq.ParameterError):
        pq.attenuation_security_threshold(0.0, alice_x)


def test_security_boundary_sign_flip(alice_x, bob_x):
    """Alice's conditional variance crosses the eavesdropper's exactly at
    the threshold attenuation and beats it strictly below."""
    t = 0.5
    thr = pq.attenuation_security_threshold(t, alice_x)
    n0 = 500.0
    at_thr = pq.beamsplit_attack_variances(thr * n0, thr, t, alice_x, bob_x)
    assert at_thr.conditional_on_alice == pytest.approx(
        at_thr.conditional_on_eve, rel=1e-12)
    for s in (0.05, 0.3, 0.9):
        below = pq.beamsplit_attack_variances(s * thr * n0, s * thr, t,
                                              alice_x, bob_x)
        assert below.conditional_on_alice < below.conditional_on_eve
    above = pq.beamsplit_attack_variances(0.99 * n0, 0.99, t, alice_x, bob_x)
    assert above.conditional_on_alice > above.conditional_on_eve


def test_detector_channel_validation_collects_everything():
    with pytest.raises(pq.ParameterError) as err:
        pq.DetectorChannel(efficiency=1.5, noise_variance=-1.0)
    assert len(err.value.violations) == 2


def test_source_params_validation():
    with pytest.raises(pq.ParameterError):
        pq.SourceParams(mean_photon_number=-1.0, mode_overlap=0.9)
    with pytest.raises(pq.ParameterError):
        pq.SourceParams(mean_photon_number=10.0, mode_overlap=1.2)
    src = pq.SourceParams(mean_photon_number=10.0, mode_overlap=0.6)
    assert src.orthogonal_weight == pytest.approx(0.8, rel=1e-15)
    assert pq.SourceParams(10.0, 1.0).orthogonal_weight == 0.0


def test_channel_params_validation():
    with pytest.raises(pq.ParameterError):
        pq.ChannelParams(transmittance=0.0)
    with pytest.raises(pq.ParameterError):
        pq.ChannelParams(transmittance=1.1)
    fibre = pq.ChannelParams.from_fiber(80.0)
    assert fibre.transmittance == pytest.approx(10.0 ** -1.6, rel=1e-15)
    assert fibre.length_km == 80.0
    assert fibre.attenuation_db_per_km == 0.2


def test_system_config_helpers(bench_config):
    assert bench_config.path_transmittance == 1.0
    moved = bench_config.replace(alice_attenuation=0.0009,
                                 channel=pq.ChannelParams(0.69))
    assert moved.path_transmittance == pytest.approx(0.000621, rel=1e-15)
    assert moved.source is bench_config.source
    with pytest.raises(pq.ParameterError):
        bench_config.replace(alice_attenuation=0.0)


def test_outgoing_and_tap_variances_closed_forms():
    rng = random.Random(17)
    for _ in range(50):
        e0, n0 = rng.uniform(1e-6, 1.0), rng.uniform(0.0, 2000.0)
        t = rng.uniform(0.01, 1.0)
        assert pq.outgoing_quadrature_variance(e0, n0) == e0 * n0 + 1.0
        assert pq.tap_quadrature_variance(e0, n0, t) == e0 * n0 * (1.0 - t) / 2.0 + 1.0
    assert pq.tap_quadrature_variance(0.5, 900.0, 1.0) == 1.0
    with pytest.raises(pq.ParameterError):
        pq.outgoing_quadrature_variance(0.0, 900.0)
    with pytest.raises(pq.ParameterError):
        pq.tap_quadrature_variance(0.5, 900.0, 0.0)


def test_numpy_scalar_inputs(alice_x, bob_x):
    """Numpy scalars are accepted and computed with as the Python numbers
    they equal; bools are rejected."""
    eff = np.float32(0.43)
    channel = pq.DetectorChannel(eff, np.float64(0.17))
    assert type(channel.efficiency) is float and channel.efficiency == float(eff)
    assert pq.SourceParams(np.int64(900), np.float32(0.96)).mean_photon_number == 900.0
    assert pq.ChannelParams.from_fiber(np.int64(40)) == pq.ChannelParams.from_fiber(40)
    assert pq.modulation_variance(np.float32(0.5), np.int64(900)) == 450.0
    n0 = np.float32(880.3)
    assert pq.correlation_coefficient(n0, 0.96, alice_x, bob_x, 0.1) == \
        pq.correlation_coefficient(float(n0), 0.96, alice_x, bob_x, 0.1)
    corr = np.float32(0.3)
    assert pq.mutual_information_from_correlation(corr) == \
        pq.mutual_information_from_correlation(float(corr))
    gamma = np.float32(0.23)
    assert pq.transmittance_from_length(np.float32(40.5), gamma) == \
        pq.transmittance_from_length(40.5, float(gamma))
    total = np.float32(3.7)
    info = pq.mutual_information_from_variances(total, np.int64(2))
    assert type(info) is float
    assert info == pq.mutual_information_from_variances(float(total), 2.0)
    with pytest.raises(pq.ParameterError):
        pq.DetectorChannel(True, 0.1)
    with pytest.raises(pq.ParameterError):  # |corr| = 1 exactly
        pq.mutual_information_from_correlation(np.float32(-1.0))
