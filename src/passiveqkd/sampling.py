"""Monte Carlo sampler for the passively encoded CV-QKD link.

Every trial draws one temporal mode of the broadband source per
quadrature and propagates it through the linear optical train:

* balanced source splitter (adds the retained/transmitted split),
* Alice's conjugate detector (its own splitter, efficiency modelled as
  a beam splitter against vacuum, plus additive electronic noise),
* Alice's strong attenuator,
* the channel (a beam splitter of transmittance T whose tapped port is
  the eavesdropper's mode in the attack topology),
* Bob's conjugate detector.

Mode mismatch is sampled explicitly: Alice's detector sees the matched
source mode with amplitude ``a`` and an independent thermal mode with
amplitude ``sqrt(1-a^2)``, so the mismatch mechanism is visible in the
samples rather than folded into an effective variance.

Reproducibility contract: all randomness derives from counter-based
Philox streams keyed by ``(seed, chunk_index, term_index)``, where a
chunk is a fixed-size range of trial indices and a term is one physical
noise source. Each (chunk, quadrature) is one job on the thread pool of
``tables.ordered_map``; a job draws its streams in blocks of
``_DRAW_BLOCK`` rows, which continue each stream as one whole-chunk draw
would, into the rows of its chunk alone. Results are therefore
bit-identical for a given ``(SystemConfig, RunSpec)``, whatever the
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tables
from .errors import (
    BatchSizeError,
    ParameterError,
    check_args,
    check_integer,
    check_real,
    check_record,
)
from .model import SourceParams, SystemConfig

__all__ = [
    "CHUNK_SIZE",
    "DEFAULT_MEMORY_LIMIT",
    "RunSpec",
    "SampleBatch",
    "thermal_quadratures",
    "simulate_batch",
    "empirical_conditional_variance",
    "derive_point_seed",
    "write_sample_csv",
    "read_sample_csv",
]

# Trials per RNG chunk. Fixed so that the substream layout, and hence
# every sample, is independent of batch size.
CHUNK_SIZE = 1 << 16

# Rows a sampler job draws from each of its streams at a time. On a 2-core
# host 8192 rows made the sweeps' points (4 threads, each sampling in its own
# thread) slower than the whole-chunk draws before the pool, through the
# per-call cost of more numpy calls; 32768 rows raised the simulate-io
# benchmark's peak RSS by 3 MB.
_DRAW_BLOCK = 16384

# Refuse batches whose column storage would exceed this many bytes.
DEFAULT_MEMORY_LIMIT = 8 << 30

# One RNG substream per physical noise source and quadrature. The X
# list comes first; the P list mirrors it with independent draws.
_TERMS_PER_QUAD = 13
(_T_THERMAL, _T_THERMAL_ORTH, _T_VAC_SPLIT, _T_VAC_SPLIT_ORTH, _T_VAC_ALICE_SPLIT,
 _T_VAC_ATTEN, _T_VAC_CHANNEL, _T_VAC_BOB_SPLIT, _T_VAC_ALICE_DET, _T_VAC_BOB_DET,
 _T_ALICE_ELEC, _T_BOB_ELEC, _T_VAC_EVE_SPLIT) = range(_TERMS_PER_QUAD)

# A batch's columns in wire order, keyed by ``eavesdropper_tap``.
_LAYOUTS = {False: ("x1", "x2", "x3", "p1", "p2", "p3"),
            True: ("x1", "x2", "x3", "x4", "p1", "p2", "p3", "p4")}

# Argument rules: the source's photon number, and the estimator gain.
_ARGS = {**SourceParams._CHECKS, "gain": check_real}


@dataclass(frozen=True)
class RunSpec:
    """Size, seed, and blocking of one Monte Carlo batch."""

    n_samples: int
    seed: int
    n_blocks: int = 10

    _CHECKS = {"n_samples": partial(check_integer, minimum=1),
               "seed": partial(check_integer, bits=64),
               "n_blocks": partial(check_integer, minimum=1)}
    __post_init__ = check_record


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Columnar record of one batch of simulated detector outcomes.

    Columns (one value per trial, shot-noise units):

    * ``x1``/``p1``: quadratures of the outgoing (transmitted) mode at
      the attenuator output, before the channel.
    * ``x2``/``p2``: Alice's conjugate-detector readings.
    * ``x3``/``p3``: Bob's conjugate-detector readings.
    * ``x4``/``p4``: the eavesdropper's ideal readings of the channel
      tap; present only when the config enables ``eavesdropper_tap``.
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    x4: np.ndarray | None = None
    p4: np.ndarray | None = None

    def __post_init__(self):
        """A batch is one of the two wire layouts, with one length."""
        violations = []
        if (self.x4 is None) != (self.p4 is None):
            given, missing = ("x4", "p4") if self.p4 is None else ("p4", "x4")
            violations.append(f"SampleBatch has {given} but no {missing}: "
                              "the tap columns come as a pair")
        lengths = {name: len(col) for name, col in zip(self.column_names(),
                                                      self.columns())}
        if len(set(lengths.values())) > 1:
            violations.append("SampleBatch columns differ in length: "
                              + ", ".join(f"{n} {k}" for n, k in lengths.items()))
        if violations:
            raise ParameterError(violations)

    @property
    def n_samples(self):
        return self.x1.shape[0]

    def column_names(self):
        """Column names in wire order, absent columns omitted."""
        return [name for name in _LAYOUTS[True] if getattr(self, name) is not None]

    def columns(self):
        """The column arrays, ordered as in ``column_names``."""
        return [getattr(self, name) for name in self.column_names()]


def thermal_quadratures(rng, mean_photon_number, size):
    """Draw ``size`` independent quadrature samples of a thermal mode.

    Samples are zero-mean Gaussians with variance 2*n0 + 1 (shot-noise
    units). Successive calls, and calls on independent generators, give
    independent draws.
    """
    [n0] = check_args(_ARGS, mean_photon_number=mean_photon_number)
    scale = math.sqrt(2.0 * n0 + 1.0)
    return scale * rng.standard_normal(size)


def derive_point_seed(seed, index):
    """Derive the sampler seed for sweep point ``index`` from a base seed.

    Sweep commands give every grid point its own statistically
    independent seed via ``SeedSequence(seed, spawn_key=(index,))`` so
    that points can be generated in parallel and in any order without
    changing results.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _substream(seed, chunk_index, term_index):
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(chunk_index), int(term_index)))
    return np.random.Generator(np.random.Philox(ss))


def _quadrature_job(config, seed, n, cols, job):
    """Fill chunk ``chunk_index`` of quadrature ``quad``'s columns
    (1, 2, 3[, 4]) in ``cols``, ``job`` being (chunk_index, quad), from
    ``_DRAW_BLOCK`` rows of each stream at a time."""
    chunk_index, quad = job
    n0 = config.source.mean_photon_number
    a = config.source.mode_overlap
    b = config.source.orthogonal_weight
    e0 = config.alice_attenuation
    t = config.channel.transmittance
    alice_ch = getattr(config.alice_detector, quad)
    bob_ch = getattr(config.bob_detector, quad)
    eta_a = alice_ch.efficiency
    nu_a = alice_ch.noise_variance
    eta_b = bob_ch.efficiency
    nu_b = bob_ch.noise_variance
    term_base = "xp".index(quad) * _TERMS_PER_QUAD
    n_terms = _TERMS_PER_QUAD if config.eavesdropper_tap else _T_VAC_EVE_SPLIT
    streams = [_substream(seed, chunk_index, term_base + term) for term in range(n_terms)]
    targets = [cols[quad + mode] for mode in "1234"[:len(cols) // 2]]
    thermal = math.sqrt(2.0 * n0 + 1.0)  # the std of a thermal quadrature

    start = chunk_index * CHUNK_SIZE
    stop = min(start + CHUNK_SIZE, n)
    for lo in range(start, stop, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, stop)
        draws = [stream.standard_normal(hi - lo) for stream in streams]
        q_in = thermal * draws[_T_THERMAL]
        q_orth = thermal * draws[_T_THERMAL_ORTH]
        v_split = draws[_T_VAC_SPLIT]
        v_split_orth = draws[_T_VAC_SPLIT_ORTH]
        v_alice_split = draws[_T_VAC_ALICE_SPLIT]
        v_atten = draws[_T_VAC_ATTEN]
        v_channel = draws[_T_VAC_CHANNEL]
        v_bob_split = draws[_T_VAC_BOB_SPLIT]
        v_alice_det = draws[_T_VAC_ALICE_DET]
        v_bob_det = draws[_T_VAC_BOB_DET]
        e_alice = math.sqrt(nu_a) * draws[_T_ALICE_ELEC]
        e_bob = math.sqrt(nu_b) * draws[_T_BOB_ELEC]

        # Outgoing mode after the source splitter and the attenuator.
        out = (math.sqrt(e0 / 2.0) * (q_in - v_split)
               - math.sqrt(1.0 - e0) * v_atten)
        # Alice's conjugate-detector reading of the retained mode; the
        # mismatched mode component enters with amplitude b.
        alice = ((math.sqrt(eta_a) / 2.0)
                 * (a * (q_in + v_split) + b * (q_orth + v_split_orth))
                 + math.sqrt(eta_a / 2.0) * v_alice_split
                 - math.sqrt(1.0 - eta_a) * v_alice_det
                 + e_alice)
        # Bob's reading after channel loss and his detector.
        bob = (math.sqrt(e0 * t * eta_b) / 2.0 * (q_in - v_split)
               - math.sqrt((1.0 - e0) * t * eta_b / 2.0) * v_atten
               - math.sqrt((1.0 - t) * eta_b / 2.0) * v_channel
               + math.sqrt(eta_b / 2.0) * v_bob_split
               - math.sqrt(1.0 - eta_b) * v_bob_det
               + e_bob)
        columns = [out, alice, bob]
        if config.eavesdropper_tap:
            # Ideal conjugate detection of the channel's tapped port.
            columns.append(math.sqrt(e0 * (1.0 - t)) / 2.0 * (q_in - v_split)
                           - math.sqrt((1.0 - e0) * (1.0 - t) / 2.0) * v_atten
                           + math.sqrt(t / 2.0) * v_channel
                           + math.sqrt(0.5) * draws[_T_VAC_EVE_SPLIT])
        for target, values in zip(targets, columns):
            target[lo:hi] = values


def simulate_batch(config: SystemConfig, run: RunSpec, *,
                   memory_limit_bytes=DEFAULT_MEMORY_LIMIT):
    """Generate one batch of simulated trials for ``config``.

    Parameters
    ----------
    config : SystemConfig
        Physical description; ``config.eavesdropper_tap`` controls
        whether the x4/p4 columns are produced.
    run : RunSpec
        Batch size and seed. ``run.n_blocks`` is carried for the
        estimation stage and does not influence sampling.
    memory_limit_bytes : int
        Refuse (with ``BatchSizeError``) batches whose column storage,
        plus the draws of the pool's running jobs, would exceed this
        limit, before any sampling starts.

    Returns
    -------
    SampleBatch
    """
    if not isinstance(config, SystemConfig):
        raise ParameterError([f"config must be a SystemConfig, got {type(config).__name__}"])
    if not isinstance(run, RunSpec):
        raise ParameterError([f"run must be a RunSpec, got {type(run).__name__}"])

    n = run.n_samples
    names = _LAYOUTS[config.eavesdropper_tap]
    # Each running job holds one block of draws from each of its streams.
    workspace = tables._WORKERS * _TERMS_PER_QUAD * min(_DRAW_BLOCK, n) * 8
    needed = len(names) * n * 8 + workspace
    if needed > memory_limit_bytes:
        raise BatchSizeError(
            f"batch of {n} samples x {len(names)} columns needs about {needed} bytes, "
            f"over the limit of {memory_limit_bytes}")

    cols = {name: np.empty(n) for name in names}
    jobs = [(chunk_index, quad) for chunk_index in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE)
            for quad in "xp"]
    for _ in tables.ordered_map(partial(_quadrature_job, config, run.seed, n, cols), jobs):
        pass
    return SampleBatch(**cols)


def empirical_conditional_variance(batch, gain):
    """Sample variance of (x1 - gain * x2): the residual uncertainty of
    Alice's scaled estimate of the outgoing quadrature."""
    [gain] = check_args(_ARGS, gain=gain)
    if batch.n_samples == 0:
        raise ParameterError(["batch is empty"])
    resid = batch.x1 - gain * batch.x2
    return float(np.mean(resid * resid))


def write_sample_csv(file_or_path, batch):
    """Write a batch in the columnar CSV wire format.

    Layout: one comment line ``# schema: ...``, a header naming the
    present columns in wire order, then one trial per row. Floats are
    ``%.17g`` text: 17 significant digits, which read back bit-identical
    (not ``repr``: 0.1 is written 0.10000000000000001). Lines end with LF.
    """
    tables.write_table(file_or_path, "samples", batch.column_names(),
                       tuple(batch.columns()))


def _sample_columns(names):
    if tuple(names) not in _LAYOUTS.values():
        layouts = " or ".join(map(",".join, _LAYOUTS.values()))
        raise ParameterError([f"sample CSV header must be {layouts}, got {','.join(names)}"])
    return names


def read_sample_csv(file_or_path):
    """Read a batch written by ``write_sample_csv``. The header must be one
    of the two wire layouts; x4/p4 stay None when the batch has no tap.
    Malformed input raises ``ParameterError``."""
    return SampleBatch(**tables.read_table(file_or_path, "sample CSV", _sample_columns))
