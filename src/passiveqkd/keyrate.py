"""Asymptotic secure key rate against collective attacks.

Reverse reconciliation with conjugate (heterodyne-style) detection on
Bob's side. The channel of transmittance T adds the usual loss noise
1/T - 1 plus the preparation excess noise of the passive source; Bob's
detector adds (1 + (1 - eta) + 2*nu)/eta referred to its input. The
rate in bits per channel use is

    R = f * I_AB - chi_BE,

with I_AB the Shannon information of the Gaussian channel between the
modulation data and Bob's outcome, and chi_BE the Holevo bound on the
eavesdropper's information about Bob's outcome, computed from the
symplectic spectra of the shared state before and after Bob's
measurement. Negative rates are returned as-is (no secure key); the
boolean ``has_key`` carries the security verdict.

Numerical care: the eigenvalue discriminants A^2 - 4B and C^2 - 4D
suffer catastrophic cancellation near degeneracy (weak modulation,
strong attenuation), so both are evaluated through exact algebraic
factorizations,

    A - 2*sqrt(B) = ((1-T)*V_A - T*eps)^2            (= W^2)
    (C - 2*sqrt(D)) * (T*(V+chi_tot))^2 = (chi_det*W + M)^2,
    M = (1-T)*V_A + V*T*eps,

which are nonnegative perfect squares, and the small root of each pair
uses the product form lambda_small^2 = product / lambda_big^2. This
keeps absolute eigenvalue errors at machine level across the whole
valid domain, including the near-vacuum corner where the naive forms
lose ten digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ModelInconsistencyError,
    NumericalDomainError,
    ParameterError,
    check_args,
    check_fraction,
    check_nonneg,
    check_positive,
    check_real,
    raise_violations,
    rule,
)
from .estimation import empirical_mutual_info
from .model import (
    _ARGS as _MODEL_ARGS,
    _excess_noise,
    _fibre_transmittance,
    correlation_coefficient,
    mutual_information_from_correlation,
    transmittance_from_length,
)

__all__ = [
    "ATTENUATION_BOUNDS",
    "NoiseBudget",
    "KeyRateResult",
    "MeasuredKeyRate",
    "HolevoResult",
    "transmittance_from_length",
    "detector_added_noise",
    "channel_added_noise",
    "total_added_noise",
    "mutual_information_bits",
    "bosonic_entropy",
    "holevo_bound",
    "secure_key_rate",
    "noise_budget",
    "key_rate_point",
    "optimize_attenuation",
    "key_rate_from_measurement",
    "distance_cutoff",
]

_LN2 = math.log(2.0)

# Argument rules of the public functions: the model's, plus those of the
# quantities only this module takes. Each end of optimize_attenuation's
# bounds is a value of alice_attenuation.
_ARGS = {**_MODEL_ARGS, "efficiency": check_fraction,
         "v": rule(lambda v: v >= 1.0, "be >= 1"), "mean_photons": check_real,
         "excess_noise": check_nonneg, "channel_noise": check_nonneg,
         "detector_noise": check_nonneg, "total_noise": check_nonneg,
         "mutual_info": check_nonneg, "holevo_info": check_nonneg,
         "bounds[0]": _MODEL_ARGS["alice_attenuation"],
         "bounds[1]": _MODEL_ARGS["alice_attenuation"],
         "lo_km": check_nonneg, "hi_km": check_nonneg, "xtol_km": check_positive}

# Attenuator search window for optimised-preparation rates.
ATTENUATION_BOUNDS = (1e-8, 1.0)
_COARSE_POINTS = 241
# Zoom rounds after the coarse grid: each probes evenly spaced log eta0
# points across the two cells around each row's best point, which
# shrinks the bracket 8x; seven take the two coarse cells (0.15 in log
# eta0) to about 7e-8, where the rate is flat to its rounding noise.
_ZOOM_PROBES = 17
_ZOOM_ROUNDS = 7
# Distances probed per round by distance_cutoff: three rounds bracket a
# 200 km search to 1e-3 km.
_CUTOFF_PROBES = 64


@dataclass(frozen=True)
class NoiseBudget:
    """All noise contributions of one link configuration, shot-noise units.

    ``modulation_var`` is V_A = eta0 * n0; ``v`` (property) the total
    variance V_A + 1 of the effective modulated mode. ``channel_noise``
    is referred to the channel input and includes the preparation
    excess noise; ``detector_noise`` is referred to Bob's detector
    input; ``total_noise`` refers both to the channel input.
    """

    modulation_var: float
    prep_excess_noise: float
    channel_noise: float
    detector_noise: float
    total_noise: float

    @property
    def v(self):
        return self.modulation_var + 1.0


@dataclass(frozen=True)
class KeyRateResult:
    """One evaluated key-rate point.

    ``eigenvalues`` holds the five symplectic eigenvalues entering the
    Holevo bound (the fifth is identically 1); ``intermediates`` the
    (A, B, C, D) quadratic-form coefficients, useful for debugging and
    oracle comparisons.
    """

    rate: float
    has_key: bool
    mutual_info: float
    holevo_info: float
    efficiency: float
    transmittance: float
    alice_attenuation: float
    budget: NoiseBudget
    eigenvalues: tuple
    intermediates: tuple
    length_km: float | None = None


@dataclass(frozen=True)
class MeasuredKeyRate:
    """Key rate evaluated from a measured correlation, with interval.

    The central value replaces the model mutual information with the
    measured one; ``rate_lower``/``rate_upper`` map the one-standard-
    deviation correlation interval through the same pipeline. The
    ``predicted_*`` fields give the analytic values at the same
    combined transmittance for comparison.
    """

    result: KeyRateResult
    rate_lower: float
    rate_upper: float
    predicted_correlation: float
    predicted_rate: float


class HolevoResult(NamedTuple):
    chi: float
    eigenvalues: tuple
    intermediates: tuple


def detector_added_noise(channel):
    """Conjugate-detector added noise (1 + (1 - eta) + 2*nu)/eta, referred
    to the detector input. The leading 1 is the extra vacuum unit of
    measuring both quadratures at once."""
    eta = channel.efficiency
    nu = channel.noise_variance
    return (1.0 + (1.0 - eta) + 2.0 * nu) / eta


def channel_added_noise(transmittance, excess_noise):
    """Channel added noise 1/T - 1 + eps, referred to the channel input."""
    t, eps = check_args(_ARGS, transmittance=transmittance, excess_noise=excess_noise)
    return _channel_noise(t, eps)


def total_added_noise(channel_noise, detector_noise, transmittance):
    """Total added noise referred to the channel input:
    channel_noise + detector_noise / T."""
    chi_line, chi_det, t = check_args(_ARGS, channel_noise=channel_noise,
                                      detector_noise=detector_noise,
                                      transmittance=transmittance)
    return _total_noise(chi_line, chi_det, t)


def mutual_information_bits(v, total_noise):
    """Shannon information log2((V + chi_tot) / (1 + chi_tot)) between the
    modulation data and Bob's outcome, bits per channel use."""
    v, chi_tot = check_args(_ARGS, v=v, total_noise=total_noise)
    return float(_mutual_info(v, chi_tot))


def bosonic_entropy(mean_photons):
    """Von Neumann entropy G(x) = (x+1) log2(x+1) - x log2(x) of a thermal
    state with mean photon number x; G(0) = 0.

    Evaluated as (log1p(x) + x*log1p(1/x))/ln 2, a sum of two positive
    terms, which keeps full relative precision from subnormal x up to
    the largest float. Arguments down to -1e-6 are treated as zero so
    that eigenvalues equal to 1 up to floating error are handled cleanly.
    """
    [x] = check_args(_ARGS, mean_photons=mean_photons)
    return float(_entropy(np.float64(x)))


def holevo_bound(v, transmittance, channel_noise, detector_noise, total_noise):
    """Holevo bound chi_BE on Eve's information about Bob's outcomes.

    Computes the symplectic spectra of the equivalent two-mode state
    shared before Bob's measurement (eigenvalues 1, 2) and of the state
    conditioned on Bob's conjugate measurement (eigenvalues 3, 4; the
    fifth eigenvalue is identically 1), then

        chi_BE = G((l1-1)/2) + G((l2-1)/2)
                 - G((l3-1)/2) - G((l4-1)/2) - G((l5-1)/2).

    ``channel_noise`` must carry at least the pure-loss part 1/T - 1;
    the preparation excess noise is recovered from the difference.

    Returns
    -------
    HolevoResult
        (chi, eigenvalues, intermediates) with intermediates = (A, B, C, D).
    """
    args = [np.float64(x) for x in check_args(
        _ARGS, v=v, transmittance=transmittance, channel_noise=channel_noise,
        detector_noise=detector_noise, total_noise=total_noise)]
    v, t, chi_line, chi_det, chi_tot = args
    violations = []
    loss_floor = 1.0 / t - 1.0
    if chi_line < loss_floor - 1e-9 * max(1.0, loss_floor):
        violations.append(f"channel_noise {channel_noise!r} is below the pure-loss "
                          f"floor 1/T - 1 = {float(loss_floor)!r}")
    consistent = chi_line + chi_det / t
    if abs(chi_tot - consistent) > 1e-9 * max(1.0, abs(consistent)):
        violations.append(f"total_noise {total_noise!r} does not equal channel_noise + "
                          f"detector_noise/transmittance = {float(consistent)!r}")
    raise_violations(violations)
    return _holevo_result(*_holevo(*args))


def secure_key_rate(efficiency, mutual_info, holevo_info):
    """Asymptotic rate R = f * I_AB - chi_BE, bits per channel use.

    Returns (rate, has_key); a nonpositive rate means no secure key and
    is reported as-is rather than truncated, so that sweeps can locate
    the crossing.
    """
    f, mutual, chi = check_args(_ARGS, efficiency=efficiency, mutual_info=mutual_info,
                                holevo_info=holevo_info)
    rate = _secure_rate(f, mutual, chi)
    return rate, rate > 0.0


# The key-rate core: the chain below runs over numpy arrays broadcast
# against each other (one element per (eta0, T) pair) and checks every
# element. Arguments are validated once, by the public functions above
# and below, before they reach it.

def _channel_noise(t, eps):
    return 1.0 / t - 1.0 + eps


def _total_noise(chi_line, chi_det, t):
    return chi_line + chi_det / t


def _mutual_info(v, chi_tot):
    # log2((v + chi)/(1 + chi)) via log1p for precision when v - 1 is tiny.
    return np.log1p((v - 1.0) / (1.0 + chi_tot)) / _LN2


def _first(bad, *arrays):
    """The values of ``arrays`` at the first element where ``bad`` holds."""
    i = np.unravel_index(np.argmax(bad), np.shape(bad))
    return [float(np.broadcast_to(a, np.shape(bad))[i]) for a in arrays]


def _entropy(x):
    bad = x < -1e-6
    if bad.any():
        raise ParameterError([f"mean_photons must be >= 0, got {_first(bad, x)[0]!r}"])
    # G = log1p(y) + y*log1p(1/y) in nats: two positive terms, so no digits
    # cancel at large y, and G(0) = 0. Below 2**-1000 the second term is
    # -y*log(y) to rounding, and 1/y would overflow for a subnormal y.
    y = np.maximum(x, 0.0)
    tail = y * np.log1p(1.0 / np.maximum(y, 2.0 ** -1000))
    tiny = (y > 0.0) & (y < 2.0 ** -1000)
    if tiny.any():
        tail = np.where(tiny, -y * np.log(np.where(tiny, y, 1.0)), tail)
    return (np.log1p(y) + tail) / _LN2


def _holevo(v, t, chi_line, chi_det, chi_tot):
    """Holevo bound over arrays: (chi, [l1, l2, l3, l4], (A, B, C, D)), the
    four eigenvalues stacked along a new first axis."""
    v_mod = v - 1.0
    eps = np.maximum(chi_line - (1.0 / t - 1.0), 0.0)

    a_coef = v * v * (1.0 - 2.0 * t) + 2.0 * t + (t * (v + chi_line)) ** 2
    sqrt_b = t * (v * chi_line + 1.0)
    b_coef = sqrt_b * sqrt_b
    # A - 2*sqrt(B) = W^2 exactly, so the discriminant (A - 2rB)(A + 2rB)
    # never cancels and never goes negative.
    w = (1.0 - t) * v_mod - t * eps
    l1_sq = (a_coef + np.abs(w) * np.sqrt(a_coef + 2.0 * sqrt_b)) / 2.0
    l2_sq = b_coef / l1_sq

    den_root = t * (v + chi_tot)
    sqrt_d = (v + sqrt_b * chi_det) / den_root
    d_coef = sqrt_d * sqrt_d
    # Likewise (C - 2*sqrt(D)) * den = (chi_det*W + M)^2 exactly.
    m = (1.0 - t) * v_mod + v * t * eps
    cd_root = (chi_det * w + m) / den_root
    c_coef = cd_root * cd_root + 2.0 * sqrt_d
    l3_sq = (c_coef + np.abs(cd_root) * np.sqrt(c_coef + 2.0 * sqrt_d)) / 2.0
    l4_sq = d_coef / l3_sq

    squares = np.stack(np.broadcast_arrays(l1_sq, l2_sq, l3_sq, l4_sq))
    bad = ~(squares > 0.0).all(axis=0)
    if bad.any():
        v_, t_, line_, det_ = _first(bad, v, t, chi_line, chi_det)
        raise NumericalDomainError(
            f"nonpositive squared eigenvalue from v={v_!r}, T={t_!r}, "
            f"chi_line={line_!r}, chi_det={det_!r}")
    lambdas = np.sqrt(squares)
    g = _entropy((lambdas - 1.0) / 2.0)
    # The fifth eigenvalue is 1 and contributes G(0) = 0.
    return g[0] + g[1] - g[2] - g[3], lambdas, (a_coef, b_coef, c_coef, d_coef)


def _holevo_result(chi, lambdas, abcd):
    return HolevoResult(float(chi), tuple(float(lam) for lam in lambdas) + (1.0,),
                        tuple(float(x) for x in abcd))


def _secure_rate(efficiency, mutual, chi):
    for name, x in (("mutual_info", mutual), ("holevo_info", chi)):
        bad = ~(np.isfinite(x) & (x >= 0.0))
        if bad.any():
            raise ParameterError(
                [f"{name} must be finite and >= 0, got {_first(bad, x)[0]!r}"])
    return efficiency * mutual - chi


class _Chain(NamedTuple):
    budget: NoiseBudget
    mutual: np.ndarray
    chi: np.ndarray
    lambdas: np.ndarray
    abcd: tuple
    rate: np.ndarray


def _budget(config, e0, t):
    """Noise budget for broadcast arrays ``e0`` (the attenuator
    transmittance) and ``t`` (the channel's)."""
    src, alice = config.source, config.alice_detector.x
    v_mod = e0 * src.mean_photon_number
    eps = _excess_noise(v_mod, e0, alice.efficiency, alice.noise_variance,
                        src.mode_overlap)
    chi_det = detector_added_noise(config.bob_detector.x)
    chi_line = _channel_noise(t, eps)
    return NoiseBudget(v_mod, eps, chi_line, chi_det,
                       _total_noise(chi_line, chi_det, t))


def _chain(config, efficiency, e0, t):
    """Noise budget, I_AB, chi_BE and R over broadcast arrays ``e0`` and ``t``."""
    budget = _budget(config, e0, t)
    mutual = _mutual_info(budget.v, budget.total_noise)
    chi, lambdas, abcd = _holevo(budget.v, t, budget.channel_noise,
                                 budget.detector_noise, budget.total_noise)
    return _Chain(budget, mutual, chi, lambdas, abcd,
                  _secure_rate(efficiency, mutual, chi))


def _point_args(config, efficiency, transmittance, length_km):
    """Validated (efficiency, T) of one key-rate evaluation; T comes from
    ``transmittance``, else ``length_km`` at 0.2 dB/km, else the config."""
    if transmittance is None:
        transmittance = (config.channel.transmittance if length_km is None
                         else transmittance_from_length(length_km))
    return check_args(_ARGS, efficiency=efficiency, transmittance=transmittance)


def noise_budget(config, transmittance=None):
    """Evaluate every noise contribution for ``config``.

    ``transmittance`` overrides the config's channel transmittance,
    which is convenient for distance sweeps.
    """
    _, t = _point_args(config, 1.0, transmittance, None)
    return _float_budget(_budget(config, config.alice_attenuation, t))


def _float_budget(budget):
    return NoiseBudget(*(float(getattr(budget, f.name)) for f in fields(budget)))


def key_rate_point(config, *, efficiency=0.95, transmittance=None,
                   length_km=None):
    """Evaluate the model key rate for one configuration.

    The channel transmittance is taken from ``transmittance`` when
    given, else derived from ``length_km`` at 0.2 dB/km, else read off
    the config's channel. Passing both pins the physics to
    ``transmittance`` and keeps ``length_km`` as the label, which lets
    callers with a non-default fibre attenuation convert themselves.

    The security analysis uses the X-arm detector calibrations; the P
    arm is structurally symmetric.
    """
    return _point(config, efficiency, transmittance, length_km, optimize=False)


def _point(config, efficiency, transmittance, length_km, optimize,
           bounds=ATTENUATION_BOUNDS):
    """The KeyRateResult of one transmittance, from one ``_curve`` call."""
    efficiency, t = _point_args(config, efficiency, transmittance, length_km)
    e0, c = _curve(config, efficiency, t, optimize, bounds)
    hol = _holevo_result(c.chi, c.lambdas, c.abcd)
    rate = float(c.rate)
    return KeyRateResult(
        rate=rate, has_key=rate > 0.0, mutual_info=float(c.mutual), holevo_info=hol.chi,
        efficiency=efficiency, transmittance=t, alice_attenuation=float(e0),
        budget=_float_budget(c.budget), eigenvalues=hol.eigenvalues,
        intermediates=hol.intermediates, length_km=length_km)


def _best_attenuation(config, efficiency, t, bounds=ATTENUATION_BOUNDS):
    """Rate-maximising attenuator transmittance for each element of ``t``.

    Returns the arrays (eta0, rate). All transmittances are searched
    together, each step one ``_chain`` pass over every row: the rate on a
    coarse log grid over ``bounds``, then zoom rounds, each of which
    probes evenly spaced log(eta0) points across the two cells around a
    row's best point so far and keeps the best probe. A refined point
    replaces the coarse optimum only if it beats it by more than the
    rounding noise of the rate, so a boundary optimum comes back as the
    exact bound.
    """
    lo, hi = bounds
    t = np.asarray(t, dtype=float)[:, None]
    grid = np.geomspace(lo, hi, _COARSE_POINTS)
    coarse = _chain(config, efficiency, grid, t)
    best = np.argmax(coarse.rate, axis=1)
    rows = np.arange(len(best))
    e_best, r_best = grid[best], coarse.rate[rows, best]
    # Each eigenvalue carries about one ulp of absolute rounding error,
    # which G((lam - 1)/2) scales by log2((lam + 1)/(lam - 1))/2; twice the
    # sum bounds the noise of a difference of two rates.
    ulp = np.finfo(float).eps
    lam = coarse.lambdas[:, rows, best]
    noise = ulp * np.sum(lam * np.log2((lam + 1.0) / np.maximum(lam - 1.0, ulp)),
                         axis=0)
    # The first zoom round spans the two coarse cells around each optimum.
    half = math.log(hi / lo) / (_COARSE_POINTS - 1)
    steps = np.linspace(-1.0, 1.0, _ZOOM_PROBES)
    e_ref = e_best
    for _ in range(_ZOOM_ROUNDS):
        probes = np.clip(np.exp(np.log(e_ref)[:, None] + half * steps), lo, hi)
        rate = _chain(config, efficiency, probes, t).rate
        k = np.argmax(rate, axis=1)
        e_ref, r_ref = probes[rows, k], rate[rows, k]
        half /= (_ZOOM_PROBES - 1) / 2
    refined = r_ref > r_best + noise
    return np.where(refined, e_ref, e_best), np.where(refined, r_ref, r_best)


def _curve(config, efficiency, t, optimize, bounds=ATTENUATION_BOUNDS):
    """(eta0, chain) at the transmittances ``t``, an array of any shape:
    eta0 is the rate-maximising attenuator over ``bounds`` per element
    when ``optimize``, else the config's, and the chain is evaluated once
    at those (eta0, T) pairs."""
    t = np.asarray(t, dtype=float)[()]  # 0-d: a numpy scalar, cheaper to compute with
    if optimize:
        e0 = _best_attenuation(config, efficiency, t.ravel(), bounds)[0].reshape(t.shape)
    else:
        e0 = np.float64(config.alice_attenuation)
    return e0, _chain(config, efficiency, e0, t)


def optimize_attenuation(config, *, efficiency=0.95, transmittance=None,
                         length_km=None, bounds=ATTENUATION_BOUNDS):
    """Key rate with the attenuator transmittance optimised over
    ``bounds`` by the deterministic log-scale search of
    ``_best_attenuation``."""
    lo, hi = bounds
    lo, hi = check_args(_ARGS, **{"bounds[0]": lo, "bounds[1]": hi})
    if not lo < hi:
        raise ParameterError([f"bounds must satisfy lo < hi, got {bounds!r}"])
    return _point(config, efficiency, transmittance, length_km, optimize=True,
                  bounds=(lo, hi))


def key_rate_from_measurement(estimate, config, path_transmittance, *,
                              efficiency=0.95):
    """Key rate from a measured correlation estimate.

    The declared split (``config.alice_attenuation``,
    ``config.channel.transmittance``) must multiply to the combined
    transmittance ``path_transmittance`` at which the correlation was
    measured; the split determines the noise budget and Holevo bound,
    while the measured correlation replaces the model mutual
    information via I = log2(1/(1 - r^2)).

    ``estimate`` is a ``CorrEstimate`` or a plain (mean, std) pair.

    Returns
    -------
    MeasuredKeyRate
        Central rate plus the one-standard-deviation interval obtained
        by mapping the correlation interval endpoints, and the analytic
        (model-correlation) prediction at the same path transmittance.
    """
    path_t, f = check_args(_ARGS, path_transmittance=path_transmittance,
                           efficiency=efficiency)
    declared = config.path_transmittance
    if abs(declared - path_t) > 1e-9 * max(declared, path_t):
        raise ParameterError(
            [f"declared split eta0*T = {declared!r} does not match the measured "
             f"path transmittance {path_transmittance!r}"])

    model = key_rate_point(config, efficiency=f)
    mi = empirical_mutual_info(estimate)
    pred_corr = correlation_coefficient(
        config.source.mean_photon_number, config.source.mode_overlap,
        config.alice_detector.x, config.bob_detector.x, path_t)
    infos = [mi.bits, mi.lower, mi.upper, mutual_information_from_correlation(pred_corr)]
    rate, rate_lower, rate_upper, pred_rate = _secure_rate(
        f, np.array(infos), model.holevo_info).tolist()
    return MeasuredKeyRate(
        result=replace(model, rate=rate, has_key=rate > 0.0, mutual_info=mi.bits),
        rate_lower=rate_lower,
        rate_upper=rate_upper,
        predicted_correlation=pred_corr,
        predicted_rate=pred_rate,
    )


def distance_cutoff(config, *, efficiency=0.95, attenuation_db_per_km=0.2,
                    lo_km=0.0, hi_km=200.0, optimize=True, xtol_km=1e-3):
    """Locate the distance where the key rate crosses zero.

    With ``optimize`` the attenuator is re-optimised at every probed
    distance (the preparation that maximises the rate there); otherwise
    the config's attenuation is used as-is. Requires a sign change over
    [lo_km, hi_km]. Each round evaluates evenly spaced distances across
    the bracket in one vectorised pass and keeps the cell holding the
    first sign change, until the bracket is at most ``xtol_km`` wide.
    """
    f, gamma, lo_km, hi_km, xtol_km = check_args(
        _ARGS, efficiency=efficiency, attenuation_db_per_km=attenuation_db_per_km,
        lo_km=lo_km, hi_km=hi_km, xtol_km=xtol_km)
    if not lo_km < hi_km:
        raise ParameterError([f"need lo_km < hi_km, got ({lo_km!r}, {hi_km!r})"])

    def rates(lengths):
        return _curve(config, f, _fibre_transmittance(lengths, gamma), optimize)[1].rate

    edges = np.linspace(lo_km, hi_km, _CUTOFF_PROBES + 2)
    r = rates(edges)
    if not (r[0] > 0.0 > r[-1]):
        raise ModelInconsistencyError(
            f"no zero crossing bracketed on [{lo_km}, {hi_km}] km: "
            f"R({lo_km}) = {float(r[0])!r}, R({hi_km}) = {float(r[-1])!r}")
    while True:
        j = int(np.argmax(r <= 0.0))  # the first keyless edge; r[0] > 0
        cell = (float(edges[j - 1]), float(edges[j]))
        # Stop at xtol_km, or once floats cannot split the bracket further.
        if cell[1] - cell[0] <= xtol_km or cell == (edges[0], edges[-1]):
            return 0.5 * (cell[0] + cell[1])
        edges = np.linspace(*cell, _CUTOFF_PROBES + 2)
        r = np.concatenate(([r[j - 1]], rates(edges[1:-1]), [r[j]]))
