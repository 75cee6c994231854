"""Asymptotic secure key rate against collective attacks.

Reverse reconciliation with conjugate (heterodyne-style) detection on
Bob's side. The public noise functions refer noise to the channel input:
loss 1/T - 1, the preparation excess noise eps of the passive source, and
chi_det/T from Bob's detector, chi_det = (1 + (1 - eta) + 2*nu)/eta. The
core refers it to Bob's detector input, where the channel leaves
n_out = 1 - T + T*eps, so it never divides by T. The rate is

    R = f * I_AB - chi_BE,    I_AB = log2(1 + T*V_A / (1 + T*eps + chi_det)),

in bits per channel use, with I_AB the Shannon information of the
Gaussian channel between the modulation data and Bob's outcome, and
chi_BE the Holevo bound on the eavesdropper's information about Bob's
outcome, computed from the symplectic spectra of the shared state before
and after Bob's measurement. Negative rates are returned as-is (no
secure key); the boolean ``has_key`` carries the security verdict.

Numerical care: the eigenvalue discriminants A^2 - 4B and C^2 - 4D
suffer catastrophic cancellation near degeneracy (weak modulation,
strong attenuation), so both are evaluated through exact algebraic
factorizations,

    A - 2*sqrt(B) = ((1-T)*V_A - T*eps)^2            (= W^2)
    (C - 2*sqrt(D)) * (T*V + n_out + chi_det)^2 = (chi_det*W + M)^2,
    M = (1-T)*V_A + V*T*eps,

which are nonnegative perfect squares, and the small root of each pair
uses the product form lambda_small^2 = product / lambda_big^2. This
keeps absolute eigenvalue errors at machine level across the whole
valid domain, including the near-vacuum corner where the naive forms
lose ten digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    raise_violations,
    rule,
)
from .estimation import empirical_mutual_info
from .model import (
    _ARGS as _MODEL_ARGS,
    _FIBRE_DB_PER_KM,
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
_EFFICIENCY = 0.95  # reconciliation efficiency f of a rate given none
_ENTROPY_TOL = 1e-6  # an entropy argument (lambda - 1)/2 down to -this counts as 0

# Argument rules of the public functions: the model's, plus those of the
# quantities only this module takes. Each end of optimize_attenuation's
# bounds is a value of alice_attenuation.
_ARGS = {**_MODEL_ARGS, "efficiency": check_fraction,
         "v": rule(lambda v: v >= 1.0, "be >= 1"),
         "mean_photons": rule(lambda x: x >= -_ENTROPY_TOL, "be >= 0"),
         "excess_noise": check_nonneg, "channel_noise": check_nonneg,
         "detector_noise": check_nonneg, "total_noise": check_nonneg,
         "mutual_info": check_nonneg, "holevo_info": check_nonneg,
         "bounds[0]": _MODEL_ARGS["alice_attenuation"],
         "bounds[1]": _MODEL_ARGS["alice_attenuation"],
         "lo_km": check_nonneg, "hi_km": check_nonneg, "xtol_km": check_positive}

# Attenuator search window for optimised-preparation rates.
ATTENUATION_BOUNDS = (1e-8, 1.0)
_COARSE_POINTS = 241
# Points per zoom round of the attenuation search: this many log eta0
# points across the two cells around each row's best point (8x shrink).
# A rate pass this small costs mostly fixed overhead. Seven zoom rounds
# take the two coarse cells (0.15 in log eta0) to 7e-8, where the rate
# is flat to its rounding noise.
_PROBES = 17
_ZOOM_ROUNDS = 7
_STEPS = np.linspace(-1.0, 1.0, _PROBES)  # zoom probe offsets, in half-widths


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
    return float(_mutual_info((v - 1.0) / (1.0 + chi_tot)))


def bosonic_entropy(mean_photons):
    """Von Neumann entropy G(x) = (x+1) log2(x+1) - x log2(x) of a thermal
    state with mean photon number x; G(0) = 0.

    Evaluated as (log1p(x) + x*log1p(1/x))/ln 2, a sum of two positive
    terms, which keeps full relative precision from subnormal x up to
    the largest float. Arguments down to -1e-6 are treated as zero so
    that eigenvalues equal to 1 up to floating error are handled cleanly;
    the key-rate core holds its eigenvalues to the same tolerance.
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
    v, t, chi_line, chi_det, chi_tot = [np.float64(x) for x in check_args(
        _ARGS, v=v, transmittance=transmittance, channel_noise=channel_noise,
        detector_noise=detector_noise, total_noise=total_noise)]
    violations = []
    loss_floor = 1.0 / t - 1.0
    if chi_line < loss_floor - 1e-9 * max(1.0, loss_floor):
        violations.append(f"channel_noise {channel_noise!r} is below the pure-loss "
                          f"floor 1/T - 1 = {float(loss_floor)!r}")
    consistent = _total_noise(chi_line, chi_det, t)
    if abs(chi_tot - consistent) > 1e-9 * max(1.0, abs(consistent)):
        violations.append(f"total_noise {total_noise!r} does not equal channel_noise + "
                          f"detector_noise/transmittance = {float(consistent)!r}")
    raise_violations(violations)
    eps = np.maximum(chi_line - loss_floor, 0.0)
    return _holevo_result(*_holevo(v, t, eps, chi_det))


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
# and below, so a failed core check is a NumericalDomainError.

def _channel_noise(t, eps):
    return 1.0 / t - 1.0 + eps


def _total_noise(chi_line, chi_det, t):
    return chi_line + chi_det / t


def _mutual_info(snr):
    return np.log1p(snr) / _LN2  # log2(1 + snr), precise for a tiny snr


def _first(bad, *arrays):
    """The values of ``arrays`` at the first element where ``bad`` holds."""
    i = np.unravel_index(np.argmax(bad), np.shape(bad))
    return [float(np.broadcast_to(a, np.shape(bad))[i]) for a in arrays]


def _entropy(x):
    """G(x) over an array checked >= -_ENTROPY_TOL; x < 0 counts as 0."""
    # G = log1p(y) + y*log1p(1/y) in nats: two positive terms, so no digits
    # cancel at large y, and G(0) = 0. Below 2**-1000 the second term is
    # -y*log(y) to rounding, and 1/y would overflow for a subnormal y.
    y = np.maximum(x, 0.0)
    tail = y * np.log1p(1.0 / np.maximum(y, 2.0 ** -1000))
    if (small := y < 2.0 ** -1000).any():  # y = 0 too, which keeps its tail
        tiny = small & (y > 0.0)
        tail = np.where(tiny, -y * np.log(np.where(tiny, y, 1.0)), tail)
    return (np.log1p(y) + tail) / _LN2


def _holevo(v, t, eps, chi_det):
    """Holevo bound over arrays: (chi, [l1, l2, l3, l4], (A, B, C, D)), the
    four eigenvalues stacked along a new first axis."""
    squares, abcd = _squared_eigenvalues(v, t, eps, chi_det)
    # The eigenvalue rule, lambda >= 1 - 2*_ENTROPY_TOL, puts every entropy
    # argument in its domain; checked before sqrt (NaN fails), masked on failure.
    floor = (1.0 - 2.0 * _ENTROPY_TOL) ** 2
    if not (squares >= floor).all():
        bad = ~(squares >= floor).all(axis=0)
        v_, t_, eps_, det_ = _first(bad, v, t, eps, chi_det)
        raise NumericalDomainError(
            f"symplectic eigenvalue below 1 from v={v_!r}, T={t_!r}, "
            f"eps={eps_!r}, chi_det={det_!r}")
    lambdas = np.sqrt(squares)
    g = _entropy((lambdas - 1.0) / 2.0)
    # The fifth eigenvalue is 1 and contributes G(0) = 0.
    return g[0] + g[1] - g[2] - g[3], lambdas, abcd


def _squared_eigenvalues(v, t, eps, chi_det):
    """(l1^2 to l4^2 stacked along a new first axis, (A, B, C, D)), from
    shared subexpressions computed once; each square is written into its row
    of one array (``squares[k, ...]`` is a view even of a 0-d row, where
    ``squares[k]`` is a copy). The temporaries die before the entropies."""
    one_t, two_t, t_eps, t_v = 1.0 - t, 2.0 * t, t * eps, t * v
    n_out, lossy_mod = one_t + t_eps, one_t * (v - 1.0)
    tv_out = t_v + n_out

    a_coef = v * v * (1.0 - two_t) + two_t + tv_out ** 2
    sqrt_b = v * n_out + t
    b_coef = sqrt_b * sqrt_b
    squares = np.empty((4,) + a_coef.shape)
    # A - 2*sqrt(B) = W^2 exactly, so the discriminant (A - 2rB)(A + 2rB)
    # never cancels and never goes negative.
    w = lossy_mod - t_eps
    np.divide(a_coef + np.abs(w) * np.sqrt(a_coef + 2.0 * sqrt_b), 2.0,
              out=squares[0, ...])
    np.divide(b_coef, squares[0, ...], out=squares[1, ...])

    den_root = tv_out + chi_det
    sqrt_d = (v + sqrt_b * chi_det) / den_root
    d_coef = sqrt_d * sqrt_d
    two_sqrt_d = 2.0 * sqrt_d
    # Likewise (C - 2*sqrt(D)) * den = (chi_det*W + M)^2 exactly.
    m = lossy_mod + t_v * eps
    cd_root = (chi_det * w + m) / den_root
    c_coef = cd_root * cd_root + two_sqrt_d
    np.divide(c_coef + np.abs(cd_root) * np.sqrt(c_coef + two_sqrt_d), 2.0,
              out=squares[2, ...])
    np.divide(d_coef, squares[2, ...], out=squares[3, ...])
    return squares, (a_coef, b_coef, c_coef, d_coef)


def _holevo_result(chi, lambdas, abcd):
    return HolevoResult(float(chi), tuple(float(lam) for lam in lambdas) + (1.0,),
                        tuple(float(x) for x in abcd))


def _secure_rate(efficiency, mutual, chi):
    """f*I_AB - chi_BE, both finite and >= 0; one mask, read only on failure."""
    rate = efficiency * mutual - chi
    ok = np.isfinite(rate) & (np.minimum(mutual, chi) >= 0.0)
    if not ok.all():
        i_ab, chi_be = _first(~ok, mutual, chi)
        name, x = ("mutual_info", i_ab) if not 0 <= i_ab < math.inf else ("holevo_info", chi_be)
        raise NumericalDomainError(f"{name} must be finite and >= 0, got {x!r}")
    return rate


class _Chain(NamedTuple):
    eps: np.ndarray
    mutual: np.ndarray
    chi: np.ndarray
    lambdas: np.ndarray
    abcd: tuple
    rate: np.ndarray


def _noise(config, e0):
    """(V_A, eps, chi_det) at attenuator transmittances ``e0``, any shape."""
    src, alice = config.source, config.alice_detector.x
    v_mod = e0 * src.mean_photon_number
    eps = _excess_noise(v_mod, e0, alice.efficiency, alice.noise_variance,
                        src.mode_overlap)
    return v_mod, eps, detector_added_noise(config.bob_detector.x)


def _chain(config, efficiency, e0, t):
    """eps, I_AB, chi_BE and R over broadcast arrays ``e0`` and ``t``."""
    v_mod, eps, chi_det = _noise(config, e0)
    mutual = _mutual_info(t * v_mod / (1.0 + t * eps + chi_det))
    chi, lambdas, abcd = _holevo(v_mod + 1.0, t, eps, chi_det)
    return _Chain(eps, mutual, chi, lambdas, abcd, _secure_rate(efficiency, mutual, chi))


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
    return _budget(config, config.alice_attenuation, t)


def _budget(config, e0, t):
    """The NoiseBudget of one (eta0, T) pair, in Python floats."""
    v_mod, eps, chi_det = (float(x) for x in _noise(config, e0))
    chi_line = _channel_noise(t, eps)
    return NoiseBudget(v_mod, eps, chi_line, chi_det, _total_noise(chi_line, chi_det, t))


def key_rate_point(config, *, efficiency=_EFFICIENCY, transmittance=None,
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
        budget=_budget(config, e0, t), eigenvalues=hol.eigenvalues,
        intermediates=hol.intermediates, length_km=length_km)


def _best_attenuation(config, efficiency, t, bounds=ATTENUATION_BOUNDS):
    """Rate-maximising attenuator transmittance for each element of ``t``.

    Returns the arrays (eta0, rate). All transmittances are searched
    together, each step one ``_chain`` pass over every row: the rate on a
    coarse log grid over ``bounds``, then zoom rounds, each of which
    probes evenly spaced log(eta0) points across the two cells around a
    row's best point so far and keeps the best probe. Each row zooms one
    candidate: its best interior local maximum, or its coarse argmax where
    it has none. A refined point replaces the coarse optimum only if it
    beats it by more than the rounding noise of the rate, so a boundary
    optimum comes back as the exact bound.
    """
    lo, hi = bounds
    t = np.asarray(t, dtype=float)[:, None]
    grid = np.geomspace(lo, hi, _COARSE_POINTS)
    coarse = _chain(config, efficiency, grid, t)
    best = np.argmax(coarse.rate, axis=1)
    rows = np.arange(len(best))
    e_best, r_best = grid[best], coarse.rate[rows, best]
    # At low n0 near the cutoff the interior peak can be narrower than a
    # coarse cell, so it rates below the eta0 bound and the argmax lands on
    # the bound. Each row therefore zooms its best interior local maximum,
    # which is the argmax whenever the argmax is interior, or its argmax
    # where no interior point is a local maximum.
    inner = coarse.rate[:, 1:-1]
    peak = (inner >= coarse.rate[:, :-2]) & (inner >= coarse.rate[:, 2:])
    local = 1 + np.argmax(np.where(peak, inner, -np.inf), axis=1)
    local = np.where(peak.any(axis=1), local, best)
    # Each eigenvalue carries about one ulp of absolute rounding error,
    # which G((lam - 1)/2) scales by log2((lam + 1)/(lam - 1))/2; twice the
    # sum bounds the noise of a difference of two rates.
    ulp = np.finfo(float).eps
    lam = coarse.lambdas[:, rows, best]
    noise = ulp * np.sum(lam * np.log2((lam + 1.0) / np.maximum(lam - 1.0, ulp)),
                         axis=0)
    # The first zoom round spans the two coarse cells around each optimum.
    half = math.log(hi / lo) / (_COARSE_POINTS - 1)
    e_ref = grid[local]
    for _ in range(_ZOOM_ROUNDS):
        probes = np.clip(np.exp(np.log(e_ref)[:, None] + half * _STEPS), lo, hi)
        rate = _chain(config, efficiency, probes, t).rate
        at = rows, rate.argmax(axis=1)
        e_ref, r_ref = probes[at], rate[at]
        half /= (_PROBES - 1) / 2
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


def optimize_attenuation(config, *, efficiency=_EFFICIENCY, transmittance=None,
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
                              efficiency=_EFFICIENCY):
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


def distance_cutoff(config, *, efficiency=_EFFICIENCY,
                    attenuation_db_per_km=_FIBRE_DB_PER_KM, lo_km=0.0, hi_km=200.0,
                    optimize=True, xtol_km=1e-3):
    """Locate the distance where the key rate crosses zero.

    With ``optimize`` the attenuator is re-optimised at every probed
    distance (the preparation that maximises the rate there); otherwise
    the config's attenuation is used as-is. Requires a sign change over
    [lo_km, hi_km] and T > 0 at hi_km. The first ``_curve`` pass rates
    the bracket ends alone. Each later pass rates three edges in the
    first sign-change cell: a pair ``xtol_km`` apart around the zero
    that ``_predict_cutoff`` predicts, which normally closes the cell at
    once, and the cell midpoint, so a missed pair still halves the cell.
    The result is the midpoint of a cell at most ``xtol_km`` wide whose
    ends ``_curve`` rated keyed and keyless.
    """
    f, gamma, lo_km, hi_km, xtol_km = check_args(
        _ARGS, efficiency=efficiency, attenuation_db_per_km=attenuation_db_per_km,
        lo_km=lo_km, hi_km=hi_km, xtol_km=xtol_km)
    violations = [] if lo_km < hi_km else [f"need lo_km < hi_km, got ({lo_km!r}, {hi_km!r})"]
    _ARGS["transmittance"](_fibre_transmittance(hi_km, gamma),
                           f"transmittance at hi_km={hi_km!r}", violations)
    raise_violations(violations)

    def rated(lengths):
        """Rows (L, eta0, R) of the edges ``lengths``, from one ``_curve`` pass."""
        e0, c = _curve(config, f, _fibre_transmittance(lengths, gamma), optimize)
        rows = np.empty((3, len(lengths)))
        rows[0], rows[1], rows[2] = lengths, e0, c.rate
        return rows

    edges = rated(np.array([lo_km, hi_km]))
    r = edges[2]
    if not (r[0] > 0.0 > r[-1]):
        raise ModelInconsistencyError(
            f"no zero crossing bracketed on [{lo_km}, {hi_km}] km: "
            f"R({lo_km}) = {float(r[0])!r}, R({hi_km}) = {float(r[-1])!r}")
    last = None
    while True:
        j = int(np.argmax(edges[2] <= 0.0))  # the first keyless edge; R > 0 at edge 0
        cell = (float(edges[0, j - 1]), float(edges[0, j]))
        mid = 0.5 * (cell[0] + cell[1])
        # Stop at xtol_km, or once a round leaves the cell as it was: then
        # floats cannot split it further.
        if cell[1] - cell[0] <= xtol_km or cell == last:
            return mid
        last = cell
        # Steps end at a thousandth of xtol_km, far inside the pair's reach.
        x = _predict_cutoff(config, f, gamma, cell, float(edges[1, j - 1]),
                            1e-3 * xtol_km, fixed=not optimize)
        # The pair's rounded ends lie at most xtol_km apart.
        half = max(xtol_km - 2.0 * math.ulp(cell[1]), 0.0) / 2.0
        new = np.sort(np.clip([x - half, x + half, mid], *cell))
        edges = np.concatenate((edges[:, j - 1:j], rated(new), edges[:, j:j + 1]), axis=1)


# The zero predictor of distance_cutoff: at most this many Newton steps,
# each one _chain pass over a 3x3 central-difference stencil (3x1 with a
# fixed split) with these half-widths in L (km; at most a quarter of the
# cell) and ln(eta0). Started at lo_km, it converges in 7-19 steps on
# seeded points with n0 from 100 to 5000.
_NEWTON_STEPS = 24
_STENCIL_KM = 1e-2
_STENCIL_LN = 1e-3
_STENCIL = np.array([-1.0, 0.0, 1.0])


def _predict_cutoff(config, efficiency, gamma, cell, e0, tol, fixed):
    """Predicted zero, in ``cell``, of the rate on its interior optimum.

    Newton steps in (L, u = ln eta0) solve R = 0 and dR/du = 0, starting
    at the keyed edge cell[0] and its optimum ``e0``; with ``fixed``, eta0
    stays at ``e0`` and only R = 0 is solved. The optimised rate has a
    kink at the crossing, where the optimum jumps to the eta0 bound, but
    by the envelope theorem the interior branch is smooth across it. The
    stencil stays in the cell, so every T it rates is one the bracket
    allows, and an optimised eta0 stays in the search window. Steps stop
    once one moves L by at most ``tol``. The stencil arithmetic runs on
    Python floats, where a flat or singular stencil (r_l = 0, or det = 0)
    raises ``ZeroDivisionError``: that ends the steps, as a step that is
    not finite does.
    """
    a, b = cell
    h_l = min(_STENCIL_KM, (b - a) / 4.0)
    h_u = 0.0 if fixed else _STENCIL_LN
    c = 0 if fixed else 1  # the eta0 column at u: a fixed split rates that one alone
    u_lo, u_hi = (math.log(x) for x in ATTENUATION_BOUNDS)
    l_offsets, u_offsets = h_l * _STENCIL[:, None], h_u * _STENCIL[1 - c:2 + c]
    x, u = a, math.log(e0)
    for _ in range(_NEWTON_STEPS):
        at = min(max(x, a + h_l), b - h_l)
        if not fixed:
            u = min(max(u, u_lo + h_u), u_hi - h_u)
        r = _chain(config, efficiency, np.exp(u + u_offsets),
                   _fibre_transmittance(at + l_offsets, gamma)).rate.tolist()
        try:
            r_l = (r[2][c] - r[0][c]) / (2.0 * h_l)
            if fixed:
                dx, du = -r[1][c] / r_l, 0.0
            else:
                r_u = (r[1][2] - r[1][0]) / (2.0 * h_u)
                r_uu = (r[1][2] - 2.0 * r[1][1] + r[1][0]) / (h_u * h_u)
                r_lu = (r[2][2] - r[2][0] - r[0][2] + r[0][0]) / (4.0 * h_l * h_u)
                det = r_l * r_uu - r_u * r_lu
                dx = (r_u * r_u - r[1][1] * r_uu) / det
                du = (r[1][1] * r_lu - r_l * r_u) / det
        except ZeroDivisionError:
            break
        if not math.isfinite(dx + du):
            break
        x, u = at + dx, u + du
        if abs(dx) <= tol:
            break
    return min(max(x, a), b)
