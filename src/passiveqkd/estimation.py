"""Parameter estimation mirroring the experimental data pipeline.

The measured record is split into fixed-size blocks; each block yields
one Pearson correlation between Alice's and Bob's readings, and the
block ensemble gives the reported mean and its one-standard-deviation
error bar. The mode overlap is then recovered from correlation
measurements at several source photon numbers by weighted least
squares, exploiting that the predicted correlation is linear in the
overlap. Mutual-information error bars map the correlation interval
endpoints through the (monotone) information formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import tables
from .errors import (
    DegenerateDataError,
    ParameterError,
    UnidentifiableFitError,
    check_args,
    check_corr,
    check_integer,
    check_nonneg,
    check_positive,
    check_record,
)
from .model import (
    _CORR_LIMIT,
    correlation_coefficient,
    mutual_information_from_correlation,
)

__all__ = [
    "CorrEstimate",
    "FitResult",
    "MutualInfoEstimate",
    "blocked_correlation",
    "fit_mode_overlap",
    "empirical_mutual_info",
    "read_points_csv",
    "write_fit_report",
]


@dataclass(frozen=True)
class CorrEstimate:
    """Blocked correlation estimate.

    ``mean_corr`` and ``std_dev`` are the mean and sample standard
    deviation of the per-block Pearson correlations. ``n_dropped``
    counts trailing samples that did not fill a complete block and were
    excluded.
    """

    mean_corr: float
    std_dev: float
    n_blocks: int
    block_size: int
    n_dropped: int = 0

    _CHECKS = {"mean_corr": check_corr, "std_dev": check_nonneg,
               "n_blocks": partial(check_integer, minimum=2),
               "block_size": partial(check_integer, minimum=2),
               "n_dropped": check_integer}
    __post_init__ = check_record


# Argument rules: those of CorrEstimate's fields, and of fit_mode_overlap's
# weight floor.
_ARGS = {**CorrEstimate._CHECKS, "std_floor": check_positive}


@dataclass(frozen=True)
class FitResult:
    """Weighted-least-squares mode-overlap fit.

    ``mode_overlap`` is clamped to [0, 1]; ``clamped`` records whether
    clamping fired. ``std_err`` is the propagated standard error
    1/sqrt(sum w g^2) of the unclamped estimate, and ``residual_norm``
    the weighted sum of squared residuals at the reported value.
    """

    mode_overlap: float
    std_err: float
    residual_norm: float
    n_points: int
    clamped: bool


class MutualInfoEstimate(NamedTuple):
    """Mutual information with a one-standard-deviation interval, bits."""

    bits: float
    lower: float
    upper: float


def _blocking(n_samples, n_blocks):
    """(n_blocks, block_size): ``n_samples`` in equal blocks of >= 2 samples."""
    [n_blocks] = check_args(_ARGS, n_blocks=n_blocks)
    block_size = n_samples // n_blocks
    if block_size < 2:
        raise ParameterError(
            [f"{n_samples} samples cannot fill {n_blocks} blocks of >= 2 samples"])
    return n_blocks, block_size


def blocked_correlation(x_alice, x_bob, n_blocks):
    """Blocked Pearson correlation between two sample columns.

    The first ``n_blocks * (len // n_blocks)`` samples are divided into
    ``n_blocks`` equal consecutive blocks; the remainder is dropped and
    reported via ``CorrEstimate.n_dropped``. Each block must have
    nonzero variance in both columns, otherwise the correlation is
    undefined and ``DegenerateDataError`` is raised.
    """
    x = np.asarray(x_alice, dtype=float)
    y = np.asarray(x_bob, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ParameterError(["x_alice and x_bob must be one-dimensional columns"])
    if x.shape[0] != y.shape[0]:
        raise ParameterError([f"column lengths differ: {x.shape[0]} vs {y.shape[0]}"])
    n_blocks, block_size = _blocking(x.shape[0], n_blocks)
    n_used = n_blocks * block_size
    n_dropped = x.shape[0] - n_used

    xb = x[:n_used].reshape(n_blocks, block_size)
    yb = y[:n_used].reshape(n_blocks, block_size)
    xc = xb - xb.mean(axis=1, keepdims=True)
    yc = yb - yb.mean(axis=1, keepdims=True)
    sx = np.einsum("ij,ij->i", xc, xc)
    sy = np.einsum("ij,ij->i", yc, yc)
    bad = (sx == 0) | (sy == 0)
    if np.any(bad):
        raise DegenerateDataError(
            f"block {int(np.flatnonzero(bad)[0])} has zero variance; "
            "Pearson correlation undefined")
    rs = np.einsum("ij,ij->i", xc, yc) / np.sqrt(sx * sy)
    return CorrEstimate(
        mean_corr=float(np.mean(rs)),
        std_dev=float(np.std(rs, ddof=1)),
        n_blocks=n_blocks,
        block_size=block_size,
        n_dropped=n_dropped,
    )


def _as_mean_std(value):
    """Accept a CorrEstimate or a plain (mean, std) pair."""
    if isinstance(value, CorrEstimate):
        return value.mean_corr, value.std_dev
    mean, std = value
    return tuple(check_args(_ARGS, mean_corr=mean, std_dev=std))


def fit_mode_overlap(points, alice_channel, bob_channel, path_transmittance=1.0,
                     *, std_floor=1e-12):
    """Recover the mode overlap from correlations at several photon numbers.

    The model correlation is linear in the overlap,
    corr(n0) = a * g(n0), with g the unit-overlap prediction, so the
    weighted-least-squares solution is closed form:

        a_hat = sum(w g r) / sum(w g^2),   w = 1 / std^2.

    Points reporting a standard deviation below ``std_floor`` (e.g.
    exact synthetic data) are weighted as if their deviation were the
    floor. The estimate is clamped to the physical range [0, 1] with
    ``clamped`` flagging when that fired.

    Parameters
    ----------
    points : sequence of (n0, estimate)
        ``estimate`` is a ``CorrEstimate`` or a plain (mean, std) pair.
    alice_channel, bob_channel : DetectorChannel
        X- or P-arm parameters matching the measured columns.
    path_transmittance : float
        Combined transmittance between source splitter and Bob.
    """
    pts = list(points)
    if not pts:
        raise ParameterError(["points must contain at least one (n0, estimate)"])
    [std_floor] = check_args(_ARGS, std_floor=std_floor)
    num = 0.0
    den = 0.0
    gs = []
    for n0, est in pts:
        mean, std = _as_mean_std(est)
        g = correlation_coefficient(n0, 1.0, alice_channel, bob_channel,
                                    path_transmittance)
        w = 1.0 / max(std, std_floor) ** 2
        num += w * g * mean
        den += w * g * g
        gs.append((g, w, mean))
    if den == 0.0:
        raise UnidentifiableFitError(
            "all model correlations are zero; the overlap is unidentifiable")
    raw = num / den
    clamped = raw < 0.0 or raw > 1.0
    a_hat = min(max(raw, 0.0), 1.0)
    residual = sum(w * (r - a_hat * g) ** 2 for g, w, r in gs)
    return FitResult(
        mode_overlap=a_hat,
        std_err=1.0 / math.sqrt(den),
        residual_norm=residual,
        n_points=len(pts),
        clamped=clamped,
    )


def empirical_mutual_info(estimate):
    """Mutual information of the measured pair, with an error interval.

    The central value is log2(1/(1 - r^2)) at the measured mean
    correlation. Interval endpoints map r -+ std through the same
    monotone formula, clipped into [0, 1); the magnitude of r is used
    since the information depends only on r^2.

    ``estimate`` is a ``CorrEstimate`` or a plain (mean, std) pair.
    """
    mean, std = _as_mean_std(estimate)
    m = abs(mean)
    if m >= 1.0:
        raise ParameterError([f"|mean_corr| must be < 1, got {mean!r}"])
    # Interval endpoints are clipped just inside |r| = 1, where the
    # information diverges.
    lo = min(max(m - std, 0.0), _CORR_LIMIT)
    hi = min(m + std, _CORR_LIMIT)
    return MutualInfoEstimate(
        bits=mutual_information_from_correlation(m),
        lower=mutual_information_from_correlation(lo),
        upper=mutual_information_from_correlation(hi),
    )


def _point_columns(names):
    corr = "corr_mean" if "corr_mean" in names else "corr_mc"
    wanted = ["n0", corr, "corr_std"]
    missing = [c for c in wanted if c not in names]
    if missing:
        raise ParameterError([f"points CSV is missing columns: {', '.join(missing)}"])
    return wanted


def read_points_csv(file_or_path):
    """Read (n0, (corr_mean, corr_std)) points from a sweep or report CSV.

    Accepts any CSV whose header contains ``n0``, a correlation column
    named ``corr_mean`` or ``corr_mc``, and ``corr_std``; other columns
    are ignored. Comment lines starting with ``#`` are skipped. The
    result feeds directly into ``fit_mode_overlap``. Malformed input
    raises ``ParameterError``.
    """
    cols = tables.read_table(file_or_path, "points CSV", _point_columns)
    n0, mean, std = (col.tolist() for col in cols.values())
    return [(n, (m, s)) for n, m, s in zip(n0, mean, std)]


def write_fit_report(file_or_path, points, fit, alice_channel, bob_channel,
                     path_transmittance=1.0):
    """Write the fit-report CSV: one row per point plus a summary line.

    Rows carry (n0, corr_mean, corr_std, model_corr) with model_corr the
    fitted-overlap prediction at that photon number; the trailing
    comment line records the fit summary.
    """
    rows = []
    for n0, est in points:
        mean, std = _as_mean_std(est)
        g = correlation_coefficient(n0, 1.0, alice_channel, bob_channel,
                                    path_transmittance)
        rows.append((n0, mean, std, fit.mode_overlap * g))
    summary = (("a_hat", fit.mode_overlap), ("std_err", fit.std_err),
               ("residual_norm", fit.residual_norm), ("n_points", fit.n_points),
               ("clamped", fit.clamped))
    tables.write_table(file_or_path, "fit-report",
                       ("n0", "corr_mean", "corr_std", "model_corr"), rows, summary)
