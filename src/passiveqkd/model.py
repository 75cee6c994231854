"""Closed-form model of a passively encoded CV-QKD link.

All variances are in shot-noise units: the vacuum quadrature variance
equals 1 and a thermal mode with mean photon number n has quadrature
variance 2n + 1.

The link prepares Gaussian-modulated states without active modulators.
A broadband thermal source is split on a balanced beam splitter; the
sender (Alice) measures one output with a conjugate detector (both
quadratures at once) while the other output passes through a strong
attenuator of transmittance eta0 and becomes the transmitted signal.
Alice's detector record, multiplied by a fixed gain, is her best
estimate of the outgoing quadrature and plays the role of modulation
data. The receiver (Bob) measures the signal after a channel of
transmittance T with his own conjugate detector.

Two imperfections are modelled explicitly:

* Detector channels have sub-unit efficiency and additive electronic
  noise (``DetectorChannel``).
* Alice's detector may analyse a slightly different spectral-temporal
  mode than Bob's. The amplitude overlap ``a`` between the two modes is
  a number in [0, 1]; the mismatched fraction of the light Alice
  measures carries no information about the transmitted mode and so
  acts as preparation excess noise.

The X and P quadrature chains are structurally identical, each with its
own efficiency/noise pair, so every formula here is written once and
applied per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import (
    ModelInconsistencyError,
    check_args,
    check_fraction,
    check_nonneg,
    check_positive,
    check_record,
    optional,
    rule,
)

__all__ = [
    "DetectorChannel",
    "ConjugateDetector",
    "SourceParams",
    "ChannelParams",
    "SystemConfig",
    "SecondMoments",
    "AttackVariances",
    "thermal_quadrature_variance",
    "modulation_variance",
    "outgoing_quadrature_variance",
    "tap_quadrature_variance",
    "optimal_estimator_gain",
    "preparation_excess_noise",
    "conditional_uncertainty",
    "quadrature_second_moments",
    "correlation_coefficient",
    "beamsplit_attack_variances",
    "mutual_information_from_variances",
    "mutual_information_from_correlation",
    "attenuation_security_threshold",
]

# Largest |corr| accepted before the mutual information diverges.
_CORR_LIMIT = 1.0 - 1e-15
_FIBRE_DB_PER_KM = 0.2  # fibre loss of a length given without one


def transmittance_from_length(length_km, attenuation_db_per_km=_FIBRE_DB_PER_KM):
    """Fibre transmittance T = 10^(-gamma * L / 10)."""
    return _fibre_transmittance(*check_args(
        _ARGS, length_km=length_km, attenuation_db_per_km=attenuation_db_per_km))


def _fibre_transmittance(length, gamma):
    """``transmittance_from_length`` without checks."""
    return 10.0 ** (-gamma * length / 10.0)


@dataclass(frozen=True)
class DetectorChannel:
    """One quadrature arm of a conjugate detector.

    Parameters
    ----------
    efficiency : float
        Optical/electrical efficiency of the arm, in (0, 1].
    noise_variance : float
        Additive electronic noise variance in shot-noise units, >= 0.
    """

    efficiency: float
    noise_variance: float

    _CHECKS = {"efficiency": check_fraction, "noise_variance": check_nonneg}
    __post_init__ = check_record


@dataclass(frozen=True)
class ConjugateDetector:
    """Simultaneous X/P detector: one ``DetectorChannel`` per quadrature."""

    x: DetectorChannel
    p: DetectorChannel


@dataclass(frozen=True)
class SourceParams:
    """Thermal source and mode-matching description.

    Parameters
    ----------
    mean_photon_number : float
        Mean photon number n0 of the thermal source per analysed mode.
    mode_overlap : float
        Amplitude overlap in [0, 1] between the mode Alice's detector
        analyses and the mode Bob's detector analyses.
    """

    mean_photon_number: float
    mode_overlap: float

    _CHECKS = {"mean_photon_number": check_nonneg,
               "mode_overlap": partial(check_fraction, allow_zero=True)}
    __post_init__ = check_record

    @property
    def orthogonal_weight(self):
        """Amplitude sqrt(1 - a^2) of the mismatched mode component."""
        return math.sqrt(max(1.0 - self.mode_overlap**2, 0.0))


@dataclass(frozen=True)
class ChannelParams:
    """Optical channel between Alice's attenuator output and Bob.

    ``length_km`` and ``attenuation_db_per_km`` are optional bookkeeping
    for fibre channels; ``transmittance`` is always the authoritative
    value used in calculations.
    """

    transmittance: float
    length_km: float | None = None
    attenuation_db_per_km: float | None = None

    _CHECKS = {"transmittance": check_fraction, "length_km": optional(check_nonneg),
               "attenuation_db_per_km": optional(check_nonneg)}
    __post_init__ = check_record

    @classmethod
    def from_fiber(cls, length_km, attenuation_db_per_km=_FIBRE_DB_PER_KM):
        """Build a fibre channel with T = 10^(-gamma*L/10)."""
        t = transmittance_from_length(length_km, attenuation_db_per_km)
        return cls(transmittance=t, length_km=length_km,
                   attenuation_db_per_km=attenuation_db_per_km)


@dataclass(frozen=True)
class SystemConfig:
    """Complete physical description of one link configuration.

    ``eavesdropper_tap`` switches the simulated topology: when True the
    lossy channel is modelled as a beam splitter whose tapped output is
    measured by an ideal conjugate detector (the beam-splitting attack),
    and the sampler records those outcomes as extra columns.
    """

    source: SourceParams
    alice_attenuation: float
    channel: ChannelParams
    alice_detector: ConjugateDetector
    bob_detector: ConjugateDetector
    eavesdropper_tap: bool = False

    _CHECKS = {"alice_attenuation": check_fraction}
    __post_init__ = check_record

    @property
    def path_transmittance(self):
        """Combined transmittance eta0 * T from source splitter to Bob."""
        return self.alice_attenuation * self.channel.transmittance

    def replace(self, **kwargs):
        """Return a copy with the given top-level fields replaced."""
        from dataclasses import replace as _replace
        return _replace(self, **kwargs)


# The rule of each ranged argument of this module's functions: that of
# the record field of the same name, or of a quantity no record holds.
_ARGS = {**SourceParams._CHECKS, **SystemConfig._CHECKS,
         "transmittance": ChannelParams._CHECKS["transmittance"],
         "length_km": check_nonneg, "attenuation_db_per_km": check_nonneg,
         "path_transmittance": check_fraction, "modulation_var": check_nonneg,
         "total_variance": check_positive, "conditional_variance": check_positive,
         "corr": rule(lambda corr: abs(corr) <= _CORR_LIMIT, "satisfy |corr| < 1")}


class SecondMoments(NamedTuple):
    """Analytic second moments of one measured quadrature pair."""

    alice_var: float
    bob_var: float
    cross: float


class AttackVariances(NamedTuple):
    """Bob-quadrature variances under the beam-splitting attack."""

    conditional_on_alice: float
    total: float
    conditional_on_eve: float


def thermal_quadrature_variance(mean_photon_number):
    """Quadrature variance 2*n0 + 1 of a thermal mode, in shot-noise units."""
    [n0] = check_args(_ARGS, mean_photon_number=mean_photon_number)
    return 2.0 * n0 + 1.0


def modulation_variance(alice_attenuation, mean_photon_number):
    """Effective Gaussian modulation variance V_A = eta0 * n0.

    This is the variance of the outgoing mode's quadrature above shot
    noise after the attenuator, i.e. the quantity playing the role of
    the modulation variance of an actively modulated protocol.
    """
    e0, n0 = check_args(_ARGS, alice_attenuation=alice_attenuation,
                        mean_photon_number=mean_photon_number)
    return e0 * n0


def outgoing_quadrature_variance(alice_attenuation, mean_photon_number):
    """Quadrature variance V_A + 1 = eta0 * n0 + 1 of the outgoing mode at
    the attenuator output."""
    return modulation_variance(alice_attenuation, mean_photon_number) + 1.0


def tap_quadrature_variance(alice_attenuation, mean_photon_number, transmittance):
    """Quadrature variance V_A * (1 - T) / 2 + 1 of the eavesdropper's ideal
    conjugate reading of the channel's tapped port."""
    [t] = check_args(_ARGS, transmittance=transmittance)
    v = modulation_variance(alice_attenuation, mean_photon_number)
    return v * (1.0 - t) / 2.0 + 1.0


def optimal_estimator_gain(mean_photon_number, mode_overlap, alice_attenuation,
                           alice_channel):
    """Gain that maps Alice's detector reading to her minimum-variance
    estimate of the outgoing quadrature.

    The gain minimises <(x_out - g * x_alice)^2> over g for the linear
    source/detector model and evaluates to

        g = n0 * a * sqrt(2 * eta0 * eta) / (n0 * eta + 2 * nu + 2)

    with detector efficiency eta and noise variance nu.
    """
    n0, a, e0 = check_args(_ARGS, mean_photon_number=mean_photon_number,
                           mode_overlap=mode_overlap, alice_attenuation=alice_attenuation)
    eta = alice_channel.efficiency
    nu = alice_channel.noise_variance
    return n0 * a * math.sqrt(2.0 * e0 * eta) / (
        n0 * eta + 2.0 * nu + 2.0)


def preparation_excess_noise(modulation_var, alice_attenuation, alice_channel,
                             mode_overlap):
    """Excess noise of the passive preparation, referred to the channel input.

    Combines the residual uncertainty of Alice's quadrature estimate
    (suppressed by a small attenuator transmittance) with the noise
    floor contributed by imperfect mode overlap:

        eps = (2*V_A*eta0*(nu+1) + V_A^2*eta*(1-a^2))
              / (V_A*eta + 2*eta0*(nu+1))

    For perfect overlap (a=1) this vanishes as eta0 -> 0; for a < 1 it
    approaches the floor V_A*(1-a^2).
    """
    v, e0, a = check_args(_ARGS, modulation_var=modulation_var,
                          alice_attenuation=alice_attenuation, mode_overlap=mode_overlap)
    return _excess_noise(v, e0, alice_channel.efficiency, alice_channel.noise_variance, a)


def _excess_noise(v, e0, eta, nu, a):
    """``preparation_excess_noise`` without checks; broadcasts over arrays."""
    num = 2.0 * v * e0 * (nu + 1.0) + v * v * eta * (1.0 - a**2)
    den = v * eta + 2.0 * e0 * (nu + 1.0)
    return num / den


def conditional_uncertainty(modulation_var, alice_attenuation, alice_channel,
                            mode_overlap):
    """Variance of the outgoing quadrature conditioned on Alice's estimate.

    Equals ``preparation_excess_noise(...) + 1``; the +1 is the vacuum
    limit no local measurement can beat.
    """
    return 1.0 + preparation_excess_noise(modulation_var, alice_attenuation,
                                          alice_channel, mode_overlap)


def quadrature_second_moments(mean_photon_number, alice_channel, bob_channel,
                              mode_overlap, path_transmittance=1.0):
    """Analytic second moments of the (Alice, Bob) quadrature readings.

    ``path_transmittance`` is the combined optical transmittance
    eta0 * T between the source splitter output and Bob's detector; it
    multiplies Bob's detector efficiency everywhere.

    Returns
    -------
    SecondMoments
        (alice_var, bob_var, cross) with
        alice_var = eta_a * n0 / 2 + nu_a + 1,
        bob_var   = eta_b' * n0 / 2 + nu_b + 1,
        cross     = sqrt(eta_a * eta_b') * n0 * a / 2,
        where eta_b' = path_transmittance * eta_b.
    """
    n0, a, eta_path = check_args(_ARGS, mean_photon_number=mean_photon_number,
                                 mode_overlap=mode_overlap,
                                 path_transmittance=path_transmittance)
    eta_a = alice_channel.efficiency
    nu_a = alice_channel.noise_variance
    eta_b = eta_path * bob_channel.efficiency
    nu_b = bob_channel.noise_variance
    alice_var = eta_a * n0 / 2.0 + nu_a + 1.0
    bob_var = eta_b * n0 / 2.0 + nu_b + 1.0
    cross = math.sqrt(eta_a * eta_b) * n0 * a / 2.0
    return SecondMoments(alice_var, bob_var, cross)


def correlation_coefficient(mean_photon_number, mode_overlap, alice_channel,
                            bob_channel, path_transmittance=1.0):
    """Pearson correlation between Alice's and Bob's quadrature readings.

    Evaluates cross / sqrt(alice_var * bob_var) from
    ``quadrature_second_moments``. The value lies in [0, mode_overlap]
    and approaches mode_overlap as n0 grows.
    """
    m = quadrature_second_moments(mean_photon_number, alice_channel, bob_channel,
                                  mode_overlap, path_transmittance)
    return m.cross / math.sqrt(m.alice_var * m.bob_var)


def beamsplit_attack_variances(modulation_var, alice_attenuation, transmittance,
                               alice_channel, bob_channel):
    """Bob's quadrature variances in the beam-splitting attack model.

    The lossy channel of transmittance T is replaced by a beam splitter;
    the eavesdropper measures the tapped output with ideal conjugate
    detection. Perfect mode overlap is assumed in this analytic path.

    Returns
    -------
    AttackVariances
        conditional_on_alice : variance of Bob's reading given Alice's
            estimate (noisy, mode-matched detector),
        total : unconditioned variance of Bob's reading,
        conditional_on_eve : variance of Bob's reading given the
            eavesdropper's ideal measurement of the tapped mode.
    """
    v, e0, t = check_args(_ARGS, modulation_var=modulation_var,
                          alice_attenuation=alice_attenuation, transmittance=transmittance)
    eta_a = alice_channel.efficiency
    nu_a = alice_channel.noise_variance
    eta_b = bob_channel.efficiency
    nu_b = bob_channel.noise_variance
    v_given_alice = (v * t * eta_b * (nu_a + 1.0)
                     / ((eta_a / e0) * v + 2.0 * nu_a + 2.0) + nu_b + 1.0)
    v_total = v * t * eta_b / 2.0 + nu_b + 1.0
    v_given_eve = v * t * eta_b / (v * (1.0 - t) + 2.0) + nu_b + 1.0
    return AttackVariances(v_given_alice, v_total, v_given_eve)


def mutual_information_from_variances(total_variance, conditional_variance):
    """Mutual information log2(total/conditional) of jointly Gaussian data,
    in bits per channel use."""
    total, conditional = check_args(_ARGS, total_variance=total_variance,
                                    conditional_variance=conditional_variance)
    if conditional > total:
        raise ModelInconsistencyError(
            f"conditional variance {conditional_variance!r} exceeds total "
            f"variance {total_variance!r}; mutual information would be negative")
    return math.log2(total / conditional)


def mutual_information_from_correlation(corr):
    """Mutual information log2(1/(1-corr^2)) of a bivariate Gaussian pair,
    in bits per channel use."""
    [corr] = check_args(_ARGS, corr=corr)
    # -log1p(-r^2)/ln 2 keeps precision for small correlations.
    return -math.log1p(-corr * corr) / math.log(2.0)


def attenuation_security_threshold(transmittance, alice_channel):
    """Largest attenuator transmittance eta0 for which Alice's conditional
    knowledge of Bob's reading beats the beam-splitting eavesdropper's.

    Returns eta / ((nu + 1) * (1 - T)) where (eta, nu) describe Alice's
    detector channel. For a lossless channel (T = 1) no beam-splitting
    attack exists and the threshold is infinite (``math.inf``).
    """
    [t] = check_args(_ARGS, transmittance=transmittance)
    if t == 1.0:
        return math.inf
    eta = alice_channel.efficiency
    nu = alice_channel.noise_variance
    return eta / ((nu + 1.0) * (1.0 - t))
