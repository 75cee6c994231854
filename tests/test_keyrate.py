"""Key-rate chain: noise terms, the Holevo bound, optimisation, and the
measured-correlation path.

Frozen constants were computed once with the 50-digit reference
implementations in ``oracles``.
"""

import contextlib
import hashlib
import json
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import passiveqkd as pq
from passiveqkd.cli import main

import oracles

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def split_80km(link_config):
    """Deployed configuration evaluated at 80 km of fibre."""
    t = pq.transmittance_from_length(80.0)
    return link_config, t


def test_transmittance_from_length():
    assert pq.transmittance_from_length(0.0) == 1.0
    assert pq.transmittance_from_length(80.0) == pytest.approx(10.0 ** -1.6,
                                                               rel=1e-15)
    assert pq.transmittance_from_length(50.0, 0.4) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(pq.ParameterError):
        pq.transmittance_from_length(-1.0)


def test_detector_added_noise(bob_x):
    ideal = pq.DetectorChannel(efficiency=1.0, noise_variance=0.0)
    assert pq.detector_added_noise(ideal) == 1.0
    assert pq.detector_added_noise(bob_x) == pytest.approx(3.5925925925925926,
                                                           rel=1e-15)


def test_channel_added_noise():
    assert pq.channel_added_noise(1.0, 0.0) == 0.0
    assert pq.channel_added_noise(0.1, 0.05) == pytest.approx(9.05, rel=1e-15)
    with pytest.raises(pq.ParameterError):
        pq.channel_added_noise(0.0, 0.05)
    with pytest.raises(pq.ParameterError):
        pq.channel_added_noise(0.5, -0.1)


def test_total_added_noise():
    assert pq.total_added_noise(1.05, 2.0, 0.5) == pytest.approx(5.05, rel=1e-15)
    with pytest.raises(pq.ParameterError):
        pq.total_added_noise(-1.0, 2.0, 0.5)


def test_mutual_information_bits():
    assert pq.mutual_information_bits(1.0, 3.0) == 0.0
    assert pq.mutual_information_bits(901.0, 1.0) == pytest.approx(
        math.log2(451.0), rel=1e-15)
    assert pq.mutual_information_bits(16.0, 0.0) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(pq.ParameterError):
        pq.mutual_information_bits(0.5, 1.0)


def test_bosonic_entropy_properties():
    assert pq.bosonic_entropy(0.0) == 0.0
    assert pq.bosonic_entropy(-1e-9) == 0.0
    with pytest.raises(pq.ParameterError):
        pq.bosonic_entropy(-0.1)
    grid = [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3]
    values = [pq.bosonic_entropy(x) for x in grid]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert pq.bosonic_entropy(3.7) == pytest.approx(float(oracles.entropy_g(3.7)),
                                                    rel=1e-14)
    # No digits cancel at large x, and 1/x must not overflow at subnormal x;
    # 400 digits carry both x + 1 and x log x for each of these.
    for x in (1e9, 1e300, 1e-310, 5e-324):
        with mp.workdps(400):
            want = float(oracles.entropy_g(x))
        assert pq.bosonic_entropy(x) == pytest.approx(want, rel=1e-14, abs=2.0 ** -1074)


@pytest.mark.parametrize("n0, e0, length_km, chi_rel, rate_rel", [
    (1e9, 1.0, 600.0, 5e-12, 1e-9),
    (1e8, 0.1, 700.0, 1e-6, 1e-5),
])
def test_bright_source_far_out_matches_oracle(alice_x, bob_x, n0, e0, length_km,
                                              chi_rel, rate_rel):
    """A bright source at a long distance puts large arguments into G; chi_BE
    and the sign of R still follow the 200-digit reference chain."""
    t = pq.transmittance_from_length(length_km)
    config = pq.SystemConfig(
        source=pq.SourceParams(n0, 1.0), alice_attenuation=e0,
        channel=pq.ChannelParams(t),
        alice_detector=pq.ConjugateDetector(x=alice_x, p=alice_x),
        bob_detector=pq.ConjugateDetector(x=bob_x, p=bob_x))
    res = pq.key_rate_point(config)
    with mp.workdps(200):
        ref = oracles.key_rate(n0, 1.0, e0, t, alice_x.efficiency, alice_x.noise_variance,
                               bob_x.efficiency, bob_x.noise_variance, 0.95)
        chi, rate = float(ref["chi_be"]), float(ref["rate"])
    assert res.holevo_info == pytest.approx(chi, rel=chi_rel)
    assert res.rate == pytest.approx(rate, rel=rate_rel)
    assert res.has_key is (rate > 0.0)


def test_holevo_frozen_generic_point():
    v, t, eps = 20.0, 0.5, 0.05
    chi_det = pq.detector_added_noise(pq.DetectorChannel(0.6, 0.25))
    chi_line = pq.channel_added_noise(t, eps)
    chi_tot = pq.total_added_noise(chi_line, chi_det, t)
    hol = pq.holevo_bound(v, t, chi_line, chi_det, chi_tot)
    assert hol.chi == pytest.approx(1.518471654982527, rel=1e-12)
    expected = (10.520570659260528, 1.0455706592605282,
                3.9386118961662056, 1.0168224865496506)
    for got, want in zip(hol.eigenvalues, expected):
        assert got == pytest.approx(want, rel=1e-12)
    assert hol.eigenvalues[4] == 1.0
    assert len(hol.eigenvalues) == 5
    assert len(hol.intermediates) == 4


def test_holevo_pure_state_limits():
    """A lossless, noiseless channel leaks nothing, for any modulation."""
    ideal = pq.DetectorChannel(1.0, 0.0)
    chi_det = pq.detector_added_noise(ideal)
    for v in (1.0, 5.0, 901.0):
        hol = pq.holevo_bound(v, 1.0, 0.0, chi_det, chi_det)
        assert hol.chi == pytest.approx(0.0, abs=1e-12)


def test_holevo_validation():
    with pytest.raises(pq.ParameterError):
        pq.holevo_bound(0.5, 0.5, 1.0, 1.0, 3.0)
    # channel noise below the pure-loss floor 1/T - 1
    with pytest.raises(pq.ParameterError):
        pq.holevo_bound(10.0, 0.5, 0.3, 1.0, 2.3)
    # inconsistent total
    with pytest.raises(pq.ParameterError):
        pq.holevo_bound(10.0, 0.5, 1.05, 1.0, 2.0)


def test_secure_key_rate():
    assert pq.secure_key_rate(0.95, 0.0, 0.0) == (0.0, False)
    rate, has_key = pq.secure_key_rate(1.0, 1.0, 2.0)
    assert rate == -1.0 and not has_key
    rate, has_key = pq.secure_key_rate(0.9, 2.0, 1.0)
    assert rate == pytest.approx(0.8, rel=1e-15) and has_key
    with pytest.raises(pq.ParameterError):
        pq.secure_key_rate(0.0, 1.0, 1.0)
    with pytest.raises(pq.ParameterError):
        pq.secure_key_rate(0.95, -1.0, 1.0)


def test_noise_budget_composition(link_config):
    budget = pq.noise_budget(link_config, transmittance=0.25)
    assert budget.modulation_var == pytest.approx(0.81, rel=1e-15)
    assert budget.v == budget.modulation_var + 1.0
    eps = pq.preparation_excess_noise(budget.modulation_var, 0.0009,
                                      link_config.alice_detector.x, 0.96)
    assert budget.prep_excess_noise == eps
    assert budget.channel_noise == pq.channel_added_noise(0.25, eps)
    assert budget.detector_noise == pq.detector_added_noise(
        link_config.bob_detector.x)
    assert budget.total_noise == pq.total_added_noise(
        budget.channel_noise, budget.detector_noise, 0.25)


def test_key_rate_point_frozen_80km(split_80km):
    config, t = split_80km
    res = pq.key_rate_point(config, transmittance=t, length_km=80.0)
    assert res.budget.prep_excess_noise == pytest.approx(0.06799056865464632,
                                                         rel=1e-13)
    assert res.mutual_info == pytest.approx(0.006375001323433399, rel=1e-12)
    assert res.holevo_info == pytest.approx(0.007144149464439797, rel=1e-12)
    assert res.rate == pytest.approx(-0.001087898207178068, rel=1e-11)
    assert not res.has_key
    assert res.length_km == 80.0
    expected_lambdas = (1.7896661683657195, 1.0017202943296894,
                        1.7861878152262877, 1.0009676992893628, 1.0)
    for got, want in zip(res.eigenvalues, expected_lambdas):
        assert got == pytest.approx(want, rel=1e-12)
    expected_abcd = (4.206348542264795, 3.213934351510258,
                     4.192403246283499, 3.196644724075331)
    for got, want in zip(res.intermediates, expected_abcd):
        assert got == pytest.approx(want, rel=1e-12)


def test_key_rate_point_resolves_bare_length(split_80km):
    """A distance alone sets the channel: same physics as the explicit
    transmittance, not the config channel's lossless default."""
    config, t = split_80km
    via_length = pq.key_rate_point(config, length_km=80.0)
    via_t = pq.key_rate_point(config, transmittance=t, length_km=80.0)
    assert via_length.rate == via_t.rate
    assert via_length.transmittance == pytest.approx(t, rel=1e-15)
    assert via_length.rate != pq.key_rate_point(config).rate
    opt = pq.optimize_attenuation(config, length_km=80.0)
    assert opt.rate == pytest.approx(
        pq.optimize_attenuation(config, transmittance=t).rate, rel=1e-12)


def test_underflowing_transmittance_is_a_parameter_error(link_config):
    """A distance whose T underflows to 0.0 is rejected like T = 0 itself,
    before anything divides by T."""
    with pytest.raises(pq.ParameterError) as at_zero:
        pq.key_rate_point(link_config, transmittance=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pq.ParameterError) as far:
            pq.key_rate_point(link_config, length_km=20000.0)
    assert far.value.violations == at_zero.value.violations == [
        "transmittance must be > 0, got 0.0"]


@pytest.mark.parametrize("t", [1e-300, 1e-308, 5e-324])
@pytest.mark.parametrize("v", [1.81, 901.0, 1.0 + 1e-6])
def test_holevo_core_holds_at_underflowing_transmittance(v, t):
    """Nothing in the output-referred core divides by T: as T -> 0 the
    eigenvalues reach their limit (V, 1, V, 1) with no overflow, division
    by zero or invalid operation. T*eps may underflow, harmlessly."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        _, lambdas, _ = pq.keyrate._holevo(np.float64(v), np.float64(t),
                                          np.float64(0.068), np.float64(3.59))
    for got, want in zip(lambdas, (v, 1.0, v, 1.0)):
        assert got == pytest.approx(want, rel=1e-12)


def test_chain_mutual_info_at_underflowing_transmittance(link_config, monkeypatch):
    """The chain's I_AB at T = 1e-300 is log2(1 + T*V_A/(1 + T*eps + chi_det))
    to 1e-12. The rate's chi_BE >= 0 check is bypassed: at such a T chi_BE
    is rounding noise of either sign, which says nothing about I_AB."""
    monkeypatch.setattr(pq.keyrate, "_secure_rate", lambda f, mutual, chi: f * mutual - chi)
    t, e0 = 1e-300, link_config.alice_attenuation
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        core = pq.keyrate._chain(link_config, 0.95, np.float64(e0), np.float64(t))
    v_mod = e0 * link_config.source.mean_photon_number
    chi_det = pq.detector_added_noise(link_config.bob_detector.x)
    with mp.workdps(50):
        t_ = mp.mpf(t)
        want = mp.log1p(t_ * v_mod / (1 + t_ * float(core.eps) + chi_det)) / mp.log(2)
    assert float(core.mutual) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("args", [(10.0, 0.5, -0.9, 1.0), (1.5, 0.9, -0.2, 0.0)])
def test_holevo_eigenvalue_rule_names_the_pass_inputs(args):
    """An eigenvalue below 1 (here from a negative eps, which no caller
    passes) fails the core's one eigenvalue rule, which names the inputs
    of the pass rather than an entropy argument no caller gave."""
    with pytest.raises(pq.NumericalDomainError) as err:
        pq.keyrate._holevo(*(np.float64(x) for x in args))
    text = str(err.value)
    assert text.startswith("symplectic eigenvalue below 1 from ")
    for name in ("v=", "T=", "eps=", "chi_det="):
        assert name in text
    assert "mean_photons" not in text


@pytest.mark.parametrize("mutual, chi, text", [
    ([0.2, 0.3], [0.1, -1e-15], "holevo_info must be finite and >= 0, got -1e-15"),
    ([math.nan, 0.3], [0.1, 0.1], "mutual_info must be finite and >= 0, got nan"),
    ([0.2, -1.0], [-2.0, 0.1], "holevo_info must be finite and >= 0, got -2.0"),
])
def test_secure_rate_names_the_first_bad_element(mutual, chi, text):
    """The information rule is one mask over both arrays; a failure names
    the offender at the first element that breaks it."""
    with pytest.raises(pq.NumericalDomainError) as err:
        pq.keyrate._secure_rate(0.95, np.array(mutual), np.array(chi))
    assert str(err.value) == text


def test_secure_rate_of_valid_informations():
    """On valid arrays the rate is exactly f*I_AB - chi_BE."""
    mutual, chi = np.array([0.0, 0.3, 2.5]), np.array([[0.0], [0.1], [3.0]])
    assert np.array_equal(pq.keyrate._secure_rate(0.95, mutual, chi), 0.95 * mutual - chi)


def test_chain_eps_is_the_model_excess_noise(link_config):
    """The chain takes eps once, from the model's closed form, unchanged."""
    grid = np.geomspace(*pq.ATTENUATION_BOUNDS, 241)
    core = pq.keyrate._chain(link_config, 0.95, grid, np.float64(0.5))
    alice, src = link_config.alice_detector.x, link_config.source
    want = pq.model._excess_noise(grid * src.mean_photon_number, grid, alice.efficiency,
                                  alice.noise_variance, src.mode_overlap)
    assert np.array_equal(core.eps, want)


def test_core_rounding_is_not_a_configuration_error(link_config):
    """Far out, chi_BE of the paper configuration can round below zero. That
    is a numerical artefact of a valid configuration: it may be reported as
    a NumericalDomainError, never as a ParameterError."""
    for length_km in range(500, 1001, 50):
        with contextlib.suppress(pq.NumericalDomainError):
            pq.optimize_attenuation(link_config, length_km=float(length_km))


def test_oracle_parity_random_tuples(alice_x, bob_x):
    """Production chain vs the independent high-precision transcription,
    to 1e-10 relative, on random operating points."""
    rng = random.Random(91)
    for _ in range(1000):
        n0 = rng.uniform(1.0, 2000.0)
        a = rng.uniform(0.5, 1.0)
        e0 = 10.0 ** rng.uniform(-6.0, 0.0)
        t = rng.uniform(0.01, 1.0)
        config = pq.SystemConfig(
            source=pq.SourceParams(n0, a),
            alice_attenuation=e0,
            channel=pq.ChannelParams(t),
            alice_detector=pq.ConjugateDetector(x=alice_x, p=alice_x),
            bob_detector=pq.ConjugateDetector(x=bob_x, p=bob_x),
        )
        res = pq.key_rate_point(config)
        ref = oracles.key_rate(n0, a, e0, t, alice_x.efficiency,
                               alice_x.noise_variance, bob_x.efficiency,
                               bob_x.noise_variance, 0.95)
        assert res.budget.prep_excess_noise == pytest.approx(
            float(ref["eps"]), rel=1e-10)
        assert res.mutual_info == pytest.approx(float(ref["i_ab"]), rel=1e-10)
        assert res.holevo_info == pytest.approx(float(ref["chi_be"]), rel=1e-10)
        assert res.rate == pytest.approx(float(ref["rate"]), rel=1e-10)
        for got, want in zip(res.eigenvalues, ref["lambdas"]):
            assert got == pytest.approx(float(want), rel=1e-10)


def test_rate_non_increasing_in_excess_noise(bob_x):
    """More preparation noise never helps: R falls monotonically."""
    v, t = 10.0, 0.25
    chi_det = pq.detector_added_noise(bob_x)
    rates = []
    for eps in np.linspace(0.0, 0.5, 21):
        chi_line = pq.channel_added_noise(t, float(eps))
        chi_tot = pq.total_added_noise(chi_line, chi_det, t)
        mutual = pq.mutual_information_bits(v, chi_tot)
        hol = pq.holevo_bound(v, t, chi_line, chi_det, chi_tot)
        rate, _ = pq.secure_key_rate(0.95, mutual, hol.chi)
        rates.append(rate)
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_optimize_attenuation(link_config):
    t = pq.transmittance_from_length(80.0)
    best = pq.optimize_attenuation(link_config, transmittance=t, length_km=80.0)
    assert best.rate == pytest.approx(7.325963949318562e-06, rel=1e-9)
    assert 8e-5 < best.alice_attenuation < 1.1e-4
    assert best.has_key
    fixed = pq.key_rate_point(link_config, transmittance=t)
    assert best.rate > fixed.rate
    again = pq.optimize_attenuation(link_config, transmittance=t, length_km=80.0)
    assert again.rate == best.rate
    assert again.alice_attenuation == best.alice_attenuation
    with pytest.raises(pq.ParameterError):
        pq.optimize_attenuation(link_config, bounds=(0.5, 0.1))


def test_optimize_attenuation_boundary(link_config):
    """Far beyond the cutoff the best the optimiser can do is pin the
    attenuator at the lower search bound; the rate stays negative."""
    t = pq.transmittance_from_length(120.0)
    best = pq.optimize_attenuation(link_config, transmittance=t)
    assert best.alice_attenuation == pq.ATTENUATION_BOUNDS[0]
    assert best.rate < 0.0


def test_optimize_attenuation_finds_a_narrow_interior_peak(link_config):
    """At n0 = 120 just before the cutoff the interior peak is narrower
    than one coarse cell and both its coarse neighbours rate below the
    eta0 = 1e-8 bound; the optimiser still finds the peak's key."""
    config = link_config.replace(source=pq.SourceParams(120.0, 0.95))
    best = pq.optimize_attenuation(config, length_km=17.651)
    at_peak = pq.key_rate_point(config.replace(alice_attenuation=1.3992e-3),
                                length_km=17.651)
    assert best.rate > 0.0
    assert best.rate >= at_peak.rate


def _dense_scan(config, length_km, points=100_001):
    """(eta0, rate, noise) at the best of a dense log eta0 scan over the
    search window, with noise the search's rounding bound there."""
    grid = np.geomspace(*pq.ATTENUATION_BOUNDS, points)
    core = pq.keyrate._chain(config, 0.95, grid,
                             np.float64(pq.transmittance_from_length(length_km)))
    k = int(np.argmax(core.rate))
    lam = core.lambdas[:, k]
    ulp = np.finfo(float).eps
    noise = ulp * np.sum(lam * np.log2((lam + 1.0) / np.maximum(lam - 1.0, ulp)))
    return float(grid[k]), float(core.rate[k]), float(noise)


def test_optimize_attenuation_matches_a_dense_scan_near_low_n0_cutoffs(link_config):
    """At low-n0 points, a little before the cutoff, the optimiser's rate
    is at least the best of a dense eta0 scan less its rounding bound.
    The cutoff is located without the optimiser: eta0 is held at the
    scan's optimum 1 m before the optimised cutoff, where the fixed-eta0
    rate touches the optimised one, and the fixed-split cutoff is taken."""
    rng = random.Random(7)
    for _ in range(6):
        config = link_config.replace(source=pq.SourceParams(
            10 ** rng.uniform(2.0, 2.3), rng.uniform(0.95, 0.97)))
        e0 = _dense_scan(config, pq.distance_cutoff(config) - 1e-3)[0]
        cutoff = pq.distance_cutoff(config.replace(alice_attenuation=e0),
                                    optimize=False, xtol_km=1e-6)
        for length_km in cutoff - np.array([1e-4, 1e-3, 1e-2]):
            _, scan, noise = _dense_scan(config, length_km)
            best = pq.optimize_attenuation(config, length_km=length_km)
            assert best.rate >= scan - noise, (config.source, length_km)


def test_key_rate_from_measurement_frozen(link_config):
    splits = [
        (0.0009, 0.69, 0.151019272758746, 0.12369820477124255,
         0.019770104349566146),
        (0.0004, 0.15, 0.015441168568359331, 0.014532312745762268,
         0.00013679739417909717),
    ]
    for e0, t, i_ab, chi_be, rate in splits:
        config = link_config.replace(alice_attenuation=e0,
                                     channel=pq.ChannelParams(t))
        corr = pq.correlation_coefficient(
            900.0, 0.96, config.alice_detector.x, config.bob_detector.x, e0 * t)
        measured = pq.key_rate_from_measurement((corr, 0.0), config, e0 * t)
        assert measured.result.mutual_info == pytest.approx(i_ab, rel=1e-12)
        assert measured.result.holevo_info == pytest.approx(chi_be, rel=1e-12)
        assert measured.result.rate == pytest.approx(rate, rel=1e-11)
        assert measured.result.has_key
        # with the estimate pinned at the model value, the measured and
        # predicted rates coincide
        assert measured.predicted_correlation == pytest.approx(corr, rel=1e-15)
        assert measured.predicted_rate == pytest.approx(measured.result.rate,
                                                        rel=1e-12)
        assert measured.rate_lower == measured.result.rate == measured.rate_upper


def test_key_rate_from_measurement_interval(link_config):
    config = link_config.replace(alice_attenuation=0.0009,
                                 channel=pq.ChannelParams(0.69))
    measured = pq.key_rate_from_measurement((0.31, 0.005), config, 0.000621)
    assert measured.rate_lower < measured.result.rate < measured.rate_upper
    zero = pq.key_rate_from_measurement((0.0, 0.01), config, 0.000621)
    assert zero.result.rate == pytest.approx(-zero.result.holevo_info, rel=1e-12)
    assert not zero.result.has_key


def test_key_rate_from_measurement_split_mismatch(link_config):
    config = link_config.replace(alice_attenuation=0.0009,
                                 channel=pq.ChannelParams(0.69))
    with pytest.raises(pq.ParameterError):
        pq.key_rate_from_measurement((0.3, 0.01), config, 0.001)


def test_distance_cutoff_paper_config(link_config):
    """The optimised-preparation cutoff of the paper configuration."""
    assert pq.distance_cutoff(link_config) == pytest.approx(83.07874374146564,
                                                            abs=1e-3)


def test_distance_cutoff_fixed_split(link_config):
    """With the attenuator held at the deployed split the rate crosses
    zero once, and the cutoff lies between key and no key."""
    cutoff = pq.distance_cutoff(link_config, optimize=False, hi_km=150.0,
                                xtol_km=0.01)
    assert 0.0 < cutoff < 80.0
    before = pq.key_rate_point(
        link_config, transmittance=pq.transmittance_from_length(cutoff - 1.0))
    after = pq.key_rate_point(
        link_config, transmittance=pq.transmittance_from_length(cutoff + 1.0))
    assert before.rate > 0.0 > after.rate


def test_distance_cutoff_ends_below_float_resolution(link_config):
    """An xtol_km finer than the float spacing of the bracket still ends."""
    coarse = pq.distance_cutoff(link_config, optimize=False, hi_km=150.0, xtol_km=0.01)
    fine = pq.distance_cutoff(link_config, optimize=False, hi_km=150.0, xtol_km=1e-300)
    assert abs(fine - coarse) <= 0.01


def test_optimised_cutoff_ends_below_float_resolution(link_config):
    """With the attenuator re-optimised at every probe, an xtol_km finer
    than the float spacing of the bracket still ends, at the same cutoff."""
    fine = pq.distance_cutoff(link_config, xtol_km=1e-300)
    assert abs(fine - pq.distance_cutoff(link_config)) <= 1e-3


def _sources(link_config, seed, top):
    """Twelve configs with n0 = 10^U(2, top) and a = U(0.95, 0.97)."""
    rng = random.Random(seed)
    return [link_config.replace(source=pq.SourceParams(
        10 ** rng.uniform(2.0, top), rng.uniform(0.95, 0.97))) for _ in range(12)]


@pytest.fixture(scope="module")
def seeded_cutoffs(link_config):
    """Twelve seeded operating points near the paper's, each with its
    optimised-preparation cutoff: (config, cutoff) pairs."""
    return [(config, pq.distance_cutoff(config))
            for config in _sources(link_config, 5, 3.7)]


@pytest.fixture(scope="module")
def low_n0_cutoffs(link_config):
    """Twelve seeded low-n0 points, whose optimum is narrow near the
    cutoff: (config, cutoff) pairs."""
    return [(config, pq.distance_cutoff(config))
            for config in _sources(link_config, 23, 2.3)]


def test_rate_changes_sign_once_over_the_bracket(link_config):
    """On a 401-row grid over [0, 200] km the rate goes from key to no key
    exactly once, optimised and with eta0 held at the optimum for half
    the cutoff, so the cutoff's first pass may rate the bracket ends alone."""
    t = np.array([pq.transmittance_from_length(x) for x in np.linspace(0.0, 200.0, 401)])
    for config in _sources(link_config, 23, 3.7):
        half = pq.optimize_attenuation(config, length_km=pq.distance_cutoff(config) / 2)
        split = config.replace(alice_attenuation=half.alice_attenuation)
        for cfg, optimize in ((config, True), (split, False)):
            keyed = pq.keyrate._curve(cfg, 0.95, t, optimize)[1].rate > 0.0
            assert keyed[0] and np.count_nonzero(np.diff(keyed)) == 1, (
                cfg.source, optimize)


def test_cutoff_brackets_the_optimised_sign_change(seeded_cutoffs):
    """optimize_attenuation finds key xtol_km before each cutoff and none
    xtol_km after it."""
    for config, cutoff in seeded_cutoffs:
        before, after = (pq.optimize_attenuation(config, length_km=cutoff + d).rate
                         for d in (-1e-3, 1e-3))
        assert before > 0.0 >= after, (config.source, cutoff)


def test_cutoff_brackets_the_fixed_split_sign_change(seeded_cutoffs):
    """With eta0 held at the optimum for half the optimised cutoff,
    key_rate_point finds key xtol_km before the fixed-split cutoff and
    none xtol_km after it."""
    for config, cutoff in seeded_cutoffs:
        half = pq.optimize_attenuation(config, length_km=cutoff / 2)
        split = config.replace(alice_attenuation=half.alice_attenuation)
        cutoff = pq.distance_cutoff(split, optimize=False)
        before, after = (pq.key_rate_point(split, length_km=cutoff + d).rate
                         for d in (-1e-3, 1e-3))
        assert before > 0.0 >= after, (split.source, split.alice_attenuation, cutoff)


def _record_calls(monkeypatch, name):
    """The argument tuples of every later call to ``keyrate.<name>``."""
    calls = []
    wrapped = getattr(pq.keyrate, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(pq.keyrate, name, recorded)
    return calls


def test_cutoff_takes_two_rate_passes(link_config, seeded_cutoffs, low_n0_cutoffs,
                                     monkeypatch):
    """The cutoff's cost, counted rather than timed: one pass rating the
    bracket ends and one of at most three edges whose predicted pair
    closes the cell, optimised and with eta0 held, on the paper config
    and at every seeded and low-n0 point; the predictor converges before
    its step cap."""
    calls = _record_calls(monkeypatch, "_curve")
    chains = _record_calls(monkeypatch, "_chain")
    steps = []
    predict = pq.keyrate._predict_cutoff

    def stepped(*args, **kwargs):
        start = len(chains)
        x = predict(*args, **kwargs)
        steps.append(len(chains) - start)  # one _chain pass per Newton step
        return x

    monkeypatch.setattr(pq.keyrate, "_predict_cutoff", stepped)
    for config, cutoff in [(link_config, 83.079)] + seeded_cutoffs + low_n0_cutoffs:
        half = pq.optimize_attenuation(config, length_km=cutoff / 2)
        split = config.replace(alice_attenuation=half.alice_attenuation)
        for cfg, optimize in ((config, True), (split, False)):
            calls.clear()
            steps.clear()
            pq.distance_cutoff(cfg, optimize=optimize)
            where = (cfg.source, optimize)
            assert len(calls) <= 2, (where, len(calls))
            sizes = [np.size(args[2]) for args in calls]
            assert sizes[0] == 2 and max(sizes[1:], default=0) <= 3, (where, sizes)
            assert max(steps) < pq.keyrate._NEWTON_STEPS, (where, steps)


@pytest.mark.parametrize("end", [0, 1])
def test_cutoff_halves_the_cell_when_the_prediction_misses(link_config, monkeypatch,
                                                           end):
    """A predictor that always returns a cell end leaves the cell midpoint
    as the only search: the cutoff still lands within xtol_km, in at most
    1 + ceil(log2((hi_km - lo_km)/xtol_km)) passes."""
    want = pq.distance_cutoff(link_config)
    calls = _record_calls(monkeypatch, "_curve")
    monkeypatch.setattr(pq.keyrate, "_predict_cutoff",
                        lambda config, efficiency, gamma, cell, *args, **kwargs: cell[end])
    assert abs(pq.distance_cutoff(link_config) - want) <= 1e-3
    assert len(calls) <= 1 + math.ceil(math.log2(200.0 / 1e-3))


@pytest.mark.parametrize("fixed", [True, False])
@pytest.mark.parametrize("level", [0.0, 0.5])
def test_flat_stencil_ends_the_newton_steps(link_config, monkeypatch, fixed, level):
    """A stencil whose rate is flat (r_l = 0, and det = 0 when optimised)
    ends the steps after its one pass: the predictor returns a point in
    the cell and raises and warns nothing. A fixed split rates the one
    eta0 column of its stencil, an optimised one all three."""
    passes = []

    def flat(config, efficiency, e0, t):
        passes.append(np.shape(e0))
        return SimpleNamespace(rate=np.full(np.broadcast_shapes(np.shape(e0), np.shape(t)),
                                            level))

    monkeypatch.setattr(pq.keyrate, "_chain", flat)
    cell = (80.0, 90.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pq.keyrate._predict_cutoff(link_config, 0.95, 0.2, cell, 1e-3, 1e-6, fixed)
    assert cell[0] <= x <= cell[1]
    assert passes == [(1,) if fixed else (3,)]


def test_cutoff_from_a_nonzero_lo_km(link_config):
    """A bracket that starts past 0 km finds the same cutoff."""
    assert abs(pq.distance_cutoff(link_config, lo_km=50.0, hi_km=120.0)
               - pq.distance_cutoff(link_config)) <= 1e-3


def test_distance_cutoff_requires_bracket(link_config):
    with pytest.raises(pq.ModelInconsistencyError):
        pq.distance_cutoff(link_config, optimize=False, lo_km=0.0, hi_km=5.0)
    with pytest.raises(pq.ParameterError):
        pq.distance_cutoff(link_config, lo_km=10.0, hi_km=5.0)


def test_attenuation_bounds_constant():
    assert pq.ATTENUATION_BOUNDS == (1e-8, 1.0)


@pytest.fixture(scope="module")
def paper_curve():
    """The shipped distance-curve scenario: (config, efficiency, transmittances)."""
    scenario = pq.load_scenario(SCENARIOS / "keyrate_vs_distance.json")
    gamma = scenario.keyrate.attenuation_db_per_km
    ts = [pq.transmittance_from_length(x, gamma) for x in scenario.sweep.values]
    return scenario.system_config(alice_attenuation=1.0), scenario.efficiency, ts


def _close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_array_core_matches_key_rate_point(paper_curve):
    """One vectorised pass over the distances x coarse eta0 grid agrees
    with the scalar entry point at every one of its points."""
    config, efficiency, ts = paper_curve
    grid = np.geomspace(*pq.ATTENUATION_BOUNDS, 241)
    core = pq.keyrate._chain(config, efficiency, grid, np.array(ts)[:, None])
    eps = np.broadcast_to(core.eps, core.rate.shape)
    for i, t in enumerate(ts):
        for j, e0 in enumerate(grid):
            res = pq.key_rate_point(config.replace(alice_attenuation=float(e0)),
                                    efficiency=efficiency, transmittance=t)
            assert _close(core.rate[i, j], res.rate)
            assert _close(core.mutual[i, j], res.mutual_info)
            assert _close(core.chi[i, j], res.holevo_info)
            assert _close(eps[i, j], res.budget.prep_excess_noise)
            for k in range(4):
                assert _close(core.lambdas[k, i, j], res.eigenvalues[k])


def test_curve_optimum_matches_single_distance_search(paper_curve):
    """The whole-curve search returns, per distance, an eta0 inside the
    search window and the rate optimize_attenuation finds there alone."""
    config, efficiency, ts = paper_curve
    lo, hi = pq.ATTENUATION_BOUNDS
    eta0, rate = pq.keyrate._best_attenuation(config, efficiency, ts)
    assert np.all((lo <= eta0) & (eta0 <= hi))
    for t, e0, r in zip(ts, eta0, rate):
        single = pq.optimize_attenuation(config, efficiency=efficiency, transmittance=t)
        assert _close(single.rate, r)
        assert single.alice_attenuation == pytest.approx(e0, rel=1e-6)
    # A source too weak for any key pins every distance at the lower bound.
    weak = config.replace(source=pq.SourceParams(1.0, 1.0))
    eta0, rate = pq.keyrate._best_attenuation(weak, efficiency, ts)
    assert np.all(eta0 == lo) and np.all(rate < 0.0)


def test_zoom_rates_one_candidate_per_row(paper_curve, monkeypatch):
    """The search rates the coarse grid once, then one block of probes per
    zoom round with a single candidate per distance."""
    config, efficiency, ts = paper_curve
    chains = _record_calls(monkeypatch, "_chain")
    pq.keyrate._best_attenuation(config, efficiency, ts)
    shapes = [np.shape(args[2]) for args in chains]
    zoom = (len(ts), pq.keyrate._PROBES)
    assert shapes == [(241,)] + [zoom] * pq.keyrate._ZOOM_ROUNDS


def test_curve_search_matches_a_fine_grid(paper_curve):
    """At every interior optimum of the shipped curve the search's rate is
    at least the best of a 2001-point log grid over the two coarse cells
    around it, to within rounding."""
    config, efficiency, ts = paper_curve
    lo, hi = pq.ATTENUATION_BOUNDS
    coarse = np.geomspace(lo, hi, 241)
    eta0, rate = pq.keyrate._best_attenuation(config, efficiency, ts)
    interior = (lo < eta0) & (eta0 < hi)
    assert interior.sum() >= 10
    for t, r in zip(np.array(ts)[interior], rate[interior]):
        best = np.argmax(pq.keyrate._chain(config, efficiency, coarse, t).rate)
        cells = coarse[max(best - 1, 0)], coarse[min(best + 1, len(coarse) - 1)]
        fine = np.geomspace(*cells, 2001)
        assert r >= pq.keyrate._chain(config, efficiency, fine, t).rate.max() - 1e-15


def test_import_does_not_load_scipy():
    code = ("import sys, passiveqkd, passiveqkd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_numpy_scalar_inputs(link_config):
    """Numpy integers and floats of any width are taken as the Python
    numbers they equal; bools are still rejected."""
    assert pq.transmittance_from_length(np.int64(40)) == pq.transmittance_from_length(40)
    length = np.float32(40.3)
    assert (pq.transmittance_from_length(length)
            == pq.transmittance_from_length(float(length)))
    t = np.float32(0.25)
    via_numpy = pq.key_rate_point(link_config, transmittance=t,
                                  efficiency=np.float32(0.95))
    via_float = pq.key_rate_point(link_config, transmittance=float(t),
                                  efficiency=float(np.float32(0.95)))
    assert via_numpy == via_float
    assert pq.bosonic_entropy(np.float32(3.7)) == pq.bosonic_entropy(
        float(np.float32(3.7)))
    with pytest.raises(pq.ParameterError):
        pq.transmittance_from_length(True)
    v = np.float32(12.5)
    assert pq.mutual_information_bits(v, np.int64(3)) == \
        pq.mutual_information_bits(12.5, 3.0)
    assert pq.holevo_bound(v, np.float32(0.5), np.float32(1.25), np.int64(2),
                           np.float32(5.25)) == pq.holevo_bound(12.5, 0.5, 1.25, 2.0, 5.25)
    f = np.float32(0.95)
    rate, has_key = pq.secure_key_rate(f, np.float32(1.5), np.int64(1))
    assert type(rate) is float and type(has_key) is bool
    assert (rate, has_key) == pq.secure_key_rate(float(f), 1.5, 1.0)
    split = link_config.replace(alice_attenuation=0.0009, channel=pq.ChannelParams(0.69))
    measured = pq.key_rate_from_measurement(
        (np.float32(0.31), np.float32(0.005)), split, np.float64(split.path_transmittance),
        efficiency=f)
    assert all(type(x) is float for x in (measured.rate_lower, measured.rate_upper,
                                          measured.predicted_rate))
    lo = np.float32(1e-6)
    assert pq.optimize_attenuation(link_config, transmittance=0.25,
                                   bounds=(lo, np.int64(1))) == \
        pq.optimize_attenuation(link_config, transmittance=0.25, bounds=(float(lo), 1.0))
    cutoff = pq.distance_cutoff(link_config, lo_km=np.float32(0), hi_km=np.float32(200))
    assert type(cutoff) is float
    assert cutoff == pq.distance_cutoff(link_config, lo_km=0.0, hi_km=200.0)
    gamma, xtol = np.float32(0.21), np.float32(1e-2)
    assert pq.distance_cutoff(link_config, efficiency=f, attenuation_db_per_km=gamma,
                              hi_km=np.int64(150), xtol_km=xtol) == \
        pq.distance_cutoff(link_config, efficiency=float(f),
                           attenuation_db_per_km=float(gamma), hi_km=150.0,
                           xtol_km=float(xtol))


@pytest.mark.parametrize("call, violations", [
    pytest.param(lambda config: pq.transmittance_from_length(-1.0, -0.2), [
        "length_km must be finite and >= 0, got -1.0",
        "attenuation_db_per_km must be finite and >= 0, got -0.2"],
        id="transmittance_from_length"),
    pytest.param(lambda config: pq.mutual_information_from_variances(0.0, math.inf), [
        "total_variance must be finite and > 0, got 0.0",
        "conditional_variance must be finite and > 0, got inf"],
        id="mutual_information_from_variances"),
    pytest.param(lambda config: pq.mutual_information_from_correlation(-1.0), [
        "corr must satisfy |corr| < 1, got -1.0"],
        id="mutual_information_from_correlation"),
    pytest.param(lambda config: pq.mutual_information_bits(0.5, -1.0), [
        "v must be >= 1, got 0.5", "total_noise must be finite and >= 0, got -1.0"],
        id="mutual_information_bits"),
    pytest.param(lambda config: pq.holevo_bound(math.nan, 0.5, 1.0, 1.0, 3.0), [
        "v must be >= 1, got nan"], id="holevo_bound"),
    pytest.param(lambda config: pq.secure_key_rate(0.95, -1.0, math.nan), [
        "mutual_info must be finite and >= 0, got -1.0",
        "holevo_info must be finite and >= 0, got nan"], id="secure_key_rate"),
    pytest.param(lambda config: pq.optimize_attenuation(
        config, transmittance=0.5, bounds=(0.0, 1.5)), [
        "bounds[0] must be > 0, got 0.0", "bounds[1] must be <= 1, got 1.5"],
        id="optimize_attenuation"),
    pytest.param(lambda config: pq.optimize_attenuation(
        config, transmittance=0.5, bounds=(0.5, 0.5)), [
        "bounds must satisfy lo < hi, got (0.5, 0.5)"], id="optimize_attenuation-order"),
    pytest.param(lambda config: pq.distance_cutoff(
        config, efficiency=0.0, attenuation_db_per_km=-0.2, lo_km=-1.0,
        hi_km=math.inf, xtol_km=0.0), [
        "efficiency must be > 0, got 0.0",
        "attenuation_db_per_km must be finite and >= 0, got -0.2",
        "lo_km must be finite and >= 0, got -1.0", "hi_km must be finite and >= 0, got inf",
        "xtol_km must be finite and > 0, got 0.0"], id="distance_cutoff"),
    pytest.param(lambda config: pq.distance_cutoff(config, lo_km=5, hi_km=5), [
        "need lo_km < hi_km, got (5.0, 5.0)"], id="distance_cutoff-order"),
    pytest.param(lambda config: pq.distance_cutoff(config, hi_km=20000), [
        "transmittance at hi_km=20000.0 must be > 0, got 0.0"], id="distance_cutoff-far-end"),
    pytest.param(lambda config: pq.bosonic_entropy(-0.1), [
        "mean_photons must be >= 0, got -0.1"], id="bosonic_entropy"),
    pytest.param(lambda config: pq.bosonic_entropy(math.nan), [
        "mean_photons must be >= 0, got nan"], id="bosonic_entropy-nan"),
    pytest.param(lambda config: pq.blocked_correlation([0.0] * 4, [1.0] * 4, 1), [
        "n_blocks must be >= 2, got 1"], id="blocked_correlation"),
    pytest.param(lambda config: pq.fit_mode_overlap(
        [(10.0, (0.5, 0.1))], config.alice_detector.x, config.bob_detector.x,
        std_floor=0.0), [
        "std_floor must be finite and > 0, got 0.0"], id="fit_mode_overlap"),
    pytest.param(lambda config: pq.empirical_conditional_variance(
        pq.simulate_batch(config, pq.RunSpec(10, 1, 2)), math.inf), [
        "gain must be a finite number, got inf"], id="empirical_conditional_variance"),
])
def test_argument_violation_texts(link_config, call, violations):
    """The exact violations of each argument rule, so that a rewording is
    deliberate."""
    with pytest.raises(pq.ParameterError) as err:
        call(link_config)
    assert err.value.violations == violations


# Golden digests of the key-rate core's output bits, recorded before the
# core's fixed-cost rewrite: a change of any bit of any result fails here.
# Pinned with numpy 2.4 on x86-64; a numpy whose log, log1p or sqrt rounds
# differently moves them.
GOLDEN_CHAIN = "ca1055708c186c62d3fe815acc07d92e40eff9db849c6ee32dcd881d301c69d8"
GOLDEN_KEYRATE_CSV = {
    False: "14a793ba2a052feffa18ed4336a82e5a8199f80662ef0783da51e8f005fcd1a2",
    True: "10ea420307edf4da5975bb9081a9d8b2a04b2fa0f1f4251a48457b7c75745fbd",
}
GOLDEN_CUTOFFS = "f7e033416be7bfe9ffd6ca8e9d89c0797e6d68065a3d9f0d50abd7c179b16284"


def _chain_cases(link_config):
    """(config, efficiency, e0, t) at the shapes the core's callers use: a
    0-d point, a fixed-split cutoff pass (3,), a Newton stencil 3x3, a zoom
    round 25x17 and a coarse grid 25x241, six of each, each from its own seed."""
    shapes = [((), ()), ((), (3,)), ((3,), (3, 1)), ((25, 17), (25, 1)),
              ((241,), (25, 1))]
    cases = []
    for seed, (e0_shape, t_shape) in enumerate(shapes * 6):
        rng = random.Random(seed)
        config = link_config.replace(source=pq.SourceParams(
            10 ** rng.uniform(2.0, 3.7), rng.uniform(0.95, 0.97)))

        def draw(shape, value):
            return np.array([value() for _ in range(math.prod(shape))]).reshape(shape)[()]

        e0 = draw(e0_shape, lambda: 10 ** rng.uniform(-8.0, 0.0))
        t = draw(t_shape, lambda: 10 ** (-0.02 * rng.uniform(0.0, 150.0)))
        cases.append((config, rng.uniform(0.9, 1.0), e0, t))
    return cases


def _digest(arrays):
    """SHA-256 of the float64 bytes of ``arrays``, shapes included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_chain_golden_bits(link_config):
    """eps, I_AB, chi_BE, the four eigenvalues, (A, B, C, D) and R of
    seeded _chain passes from 0-d to 25x241 keep every bit."""
    arrays = []
    for config, efficiency, e0, t in _chain_cases(link_config):
        c = pq.keyrate._chain(config, efficiency, e0, t)
        shape = np.shape(c.rate)
        arrays += [np.broadcast_to(x, shape) for x in (c.eps, c.mutual, c.chi, *c.abcd)]
        arrays += [c.lambdas, c.rate]
    assert _digest(arrays) == GOLDEN_CHAIN


@pytest.mark.parametrize("optimize", [False, True])
def test_keyrate_csv_golden_bytes(tmp_path, optimize):
    """The keyrate curve and points CSVs of the shipped distance scenario,
    optimised and at the deployed split, keep every byte. The measured
    points carry their correlations, so nothing is sampled."""
    doc = json.loads((SCENARIOS / "keyrate_vs_distance.json").read_text())
    for point, corr in zip(doc["measured_points"], (0.315, 0.1)):
        point.update(corr_mean=corr, corr_std=0.004)
    doc["keyrate"]["optimize_alice_attenuation"] = optimize
    doc["system"]["alice_attenuation"] = 0.0009
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rate.csv"
    assert main(["keyrate", "--scenario", str(path), "--out", str(out)]) == 0
    data = out.read_bytes() + (tmp_path / "rate.points.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_KEYRATE_CSV[optimize]


def test_distance_cutoff_golden_reprs(link_config):
    """The reprs of the paper config's cutoffs, optimised and at the
    deployed split, and of three seeded low-n0 points keep every digit."""
    cutoffs = [pq.distance_cutoff(link_config),
               pq.distance_cutoff(link_config, optimize=False, hi_km=150.0)]
    cutoffs += [pq.distance_cutoff(config) for config in _sources(link_config, 23, 2.3)[:3]]
    text = " ".join(repr(x) for x in cutoffs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CUTOFFS, text
