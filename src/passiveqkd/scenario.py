"""Scenario files: the JSON configuration boundary of the CLI.

A scenario is a single JSON document describing the physical system,
the Monte Carlo run, and optional sweep/key-rate sections. Two rules
guard against the classic unit mistake in this domain:

* Quantities are linear (fractions, shot-noise units) unless the key
  carries an explicit ``_db`` suffix; dB keys convert at this boundary
  and nowhere else.
* All eight detector parameters (two arms, two parties, efficiency and
  noise each) must be named explicitly; there are no defaults.

Validation is collect-then-fail: every violated constraint in the file
is reported in one ``ParameterError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ParameterError, is_integer, is_real
from .model import (
    ChannelParams,
    ConjugateDetector,
    DetectorChannel,
    SourceParams,
    SystemConfig,
)
from .sampling import RunSpec

__all__ = [
    "Sweep",
    "MeasuredPointSpec",
    "KeyRateOptions",
    "Scenario",
    "linear_from_db",
    "db_from_linear",
    "parse_scenario",
    "load_scenario",
    "DEFAULT_N0_GRID",
    "DEFAULT_ETA_TOT_DB_GRID",
    "DEFAULT_LENGTH_KM_GRID",
]

SWEEP_VARIABLES = ("n0", "eta_tot_db", "length_km")

# Default figure-reproduction grids, used when a scenario has no sweep
# section; chosen to bracket the plotted ranges of the source study.
DEFAULT_N0_GRID = (10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 880.0)
DEFAULT_ETA_TOT_DB_GRID = tuple(float(-5 * k) for k in range(10))
DEFAULT_LENGTH_KM_GRID = tuple(float(5 * k) for k in range(25))

# Run size when the scenario has no run section or leaves a field out.
_DEFAULT_N_SAMPLES = 500_000
_DEFAULT_N_BLOCKS = 10


def linear_from_db(db):
    """Convert a dB attenuation/transmittance value to linear: 10^(db/10)."""
    if not is_real(db):
        raise ParameterError([f"dB value must be a finite number, got {db!r}"])
    return 10.0 ** (float(db) / 10.0)


def db_from_linear(value):
    """Convert a linear transmittance to dB: 10 * log10(value)."""
    if not (is_real(value) and value > 0):
        raise ParameterError([f"linear value must be > 0, got {value!r}"])
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class Sweep:
    """One sweep axis: which variable, and its grid values in order."""

    variable: str
    values: tuple


@dataclass(frozen=True)
class MeasuredPointSpec:
    """One measured key-rate point: the declared attenuator/channel split,
    plus either an inline correlation estimate or (when absent) a
    request to obtain one by simulation."""

    alice_attenuation: float
    transmittance: float
    corr_mean: float | None = None
    corr_std: float | None = None

    @property
    def path_transmittance(self):
        return self.alice_attenuation * self.transmittance


@dataclass(frozen=True)
class KeyRateOptions:
    optimize_alice_attenuation: bool = False
    attenuation_db_per_km: float = 0.2


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario document.

    ``alice_attenuation``, ``channel``, and ``run`` stay optional at
    parse time; each CLI command states which of them it requires.
    """

    source: SourceParams
    alice_detector: ConjugateDetector
    bob_detector: ConjugateDetector
    alice_attenuation: float | None = None
    channel: ChannelParams | None = None
    eavesdropper_tap: bool = False
    run: RunSpec | None = None
    efficiency: float = 0.95
    sweep: Sweep | None = None
    keyrate: KeyRateOptions = field(default_factory=KeyRateOptions)
    measured_points: tuple = ()

    def system_config(self, **overrides):
        """Build the SystemConfig, with optional field overrides.

        Raises if ``alice_attenuation`` is unset and not overridden;
        a missing channel section defaults to a lossless channel.
        """
        values = dict(
            source=self.source,
            alice_attenuation=self.alice_attenuation,
            channel=self.channel if self.channel is not None else ChannelParams(1.0),
            alice_detector=self.alice_detector,
            bob_detector=self.bob_detector,
            eavesdropper_tap=self.eavesdropper_tap,
        )
        values.update(overrides)
        if values["alice_attenuation"] is None:
            raise ParameterError(
                ["system.alice_attenuation is required for this operation"])
        return SystemConfig(**values)

    def run_spec(self, *, seed=None, n_samples=None, n_blocks=None):
        """Build the RunSpec, applying CLI overrides over scenario values."""
        base_samples = self.run.n_samples if self.run else _DEFAULT_N_SAMPLES
        base_blocks = self.run.n_blocks if self.run else _DEFAULT_N_BLOCKS
        base_seed = self.run.seed if self.run else None
        seed = base_seed if seed is None else seed
        if seed is None:
            raise ParameterError(
                ["a seed is required: set run.seed in the scenario or pass --seed"])
        return RunSpec(
            n_samples=base_samples if n_samples is None else n_samples,
            seed=seed,
            n_blocks=base_blocks if n_blocks is None else n_blocks,
        )


def _expect_mapping(node, where, violations):
    if not isinstance(node, dict):
        violations.append(f"{where} must be a JSON object, got {type(node).__name__}")
        return False
    return True


def _reject_unknown(node, allowed, where, violations):
    for key in node:
        if key not in allowed:
            violations.append(f"unknown key '{key}' in {where}")


def _number(node, key, where, violations, *, required=True, default=None,
            minimum=None, maximum=None, exclusive_min=False):
    if key not in node:
        if required:
            violations.append(f"{where}.{key} is required")
        return default
    value = node[key]
    if not is_real(value):
        violations.append(f"{where}.{key} must be a finite number, got {value!r}")
        return default
    if minimum is not None and (value <= minimum if exclusive_min else value < minimum):
        op = ">" if exclusive_min else ">="
        violations.append(f"{where}.{key} must be {op} {minimum}, got {value!r}")
        return default
    if maximum is not None and value > maximum:
        violations.append(f"{where}.{key} must be <= {maximum}, got {value!r}")
        return default
    return float(value)


def _integer(node, key, where, violations, *, required=True, default=None, minimum=0):
    if key not in node:
        if required:
            violations.append(f"{where}.{key} is required")
        return default
    value = node[key]
    if not is_integer(value):
        violations.append(f"{where}.{key} must be an integer, got {value!r}")
        return default
    if value < minimum:
        violations.append(f"{where}.{key} must be >= {minimum}, got {value!r}")
        return default
    return value


def _boolean(node, key, where, violations, *, default=False):
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, bool):
        violations.append(f"{where}.{key} must be true or false, got {value!r}")
        return default
    return value


def _transmittance_pair(node, key, where, violations, *, required):
    """Resolve a linear/dB key pair like transmittance / transmittance_db."""
    db_key = key + "_db"
    has_lin = key in node
    has_db = db_key in node
    if has_lin and has_db:
        violations.append(f"{where} must set exactly one of '{key}' and '{db_key}'")
        return None
    if not has_lin and not has_db:
        if required:
            violations.append(f"{where} must set '{key}' or '{db_key}'")
        return None
    if has_lin:
        return _number(node, key, where, violations, minimum=0.0,
                       exclusive_min=True, maximum=1.0)
    db = _number(node, db_key, where, violations, maximum=0.0)
    return None if db is None else linear_from_db(db)


def _parse_detector_channel(node, where, violations):
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"efficiency", "noise_variance"}, where, violations)
    eff = _number(node, "efficiency", where, violations, minimum=0.0,
                  exclusive_min=True, maximum=1.0)
    noise = _number(node, "noise_variance", where, violations, minimum=0.0)
    if eff is None or noise is None:
        return None
    return DetectorChannel(efficiency=eff, noise_variance=noise)


def _parse_detector(node, where, violations):
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"x", "p"}, where, violations)
    arms = {}
    for arm in ("x", "p"):
        if arm not in node:
            violations.append(f"{where}.{arm} is required (no detector defaults)")
            continue
        parsed = _parse_detector_channel(node[arm], f"{where}.{arm}", violations)
        if parsed is not None:
            arms[arm] = parsed
    if len(arms) != 2:
        return None
    return ConjugateDetector(x=arms["x"], p=arms["p"])


def _parse_channel(node, where, violations):
    if not _expect_mapping(node, where, violations):
        return None
    allowed = {"transmittance", "transmittance_db", "length_km", "attenuation_db_per_km"}
    _reject_unknown(node, allowed, where, violations)
    has_direct = "transmittance" in node or "transmittance_db" in node
    has_fiber = "length_km" in node
    if has_direct and has_fiber:
        violations.append(
            f"{where} must describe the channel by transmittance or by fibre "
            "length, not both")
        return None
    if has_fiber:
        length = _number(node, "length_km", where, violations, minimum=0.0)
        gamma = _number(node, "attenuation_db_per_km", where, violations,
                        required=False, default=0.2, minimum=0.0)
        if length is None or gamma is None:
            return None
        return ChannelParams.from_fiber(length, gamma)
    if "attenuation_db_per_km" in node:
        violations.append(f"{where}.attenuation_db_per_km requires length_km")
    t = _transmittance_pair(node, "transmittance", where, violations, required=True)
    if t is None:
        return None
    return ChannelParams(transmittance=t)


def _parse_source(node, where, violations):
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"mean_photon_number", "mode_overlap"}, where, violations)
    n0 = _number(node, "mean_photon_number", where, violations, minimum=0.0)
    overlap = _number(node, "mode_overlap", where, violations, minimum=0.0, maximum=1.0)
    if n0 is None or overlap is None:
        return None
    return SourceParams(mean_photon_number=n0, mode_overlap=overlap)


def _parse_system(node, violations):
    where = "system"
    if not _expect_mapping(node, where, violations):
        return None
    allowed = {"source", "alice_attenuation", "alice_attenuation_db", "channel",
               "alice_detector", "bob_detector", "eavesdropper_tap"}
    _reject_unknown(node, allowed, where, violations)

    source = None
    if "source" in node:
        source = _parse_source(node["source"], f"{where}.source", violations)
    else:
        violations.append(f"{where}.source is required")

    detectors = {}
    for party in ("alice_detector", "bob_detector"):
        if party not in node:
            violations.append(f"{where}.{party} is required")
            continue
        parsed = _parse_detector(node[party], f"{where}.{party}", violations)
        if parsed is not None:
            detectors[party] = parsed

    attenuation = _transmittance_pair(node, "alice_attenuation", where, violations,
                                      required=False)
    channel = None
    if "channel" in node:
        channel = _parse_channel(node["channel"], f"{where}.channel", violations)
    tap = _boolean(node, "eavesdropper_tap", where, violations)
    if source is None or len(detectors) != 2:
        return None
    return dict(source=source, alice_detector=detectors["alice_detector"],
                bob_detector=detectors["bob_detector"],
                alice_attenuation=attenuation, channel=channel,
                eavesdropper_tap=tap)


def _parse_run(node, violations):
    where = "run"
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"n_samples", "seed", "n_blocks"}, where, violations)
    n_samples = _integer(node, "n_samples", where, violations, required=False,
                         default=_DEFAULT_N_SAMPLES, minimum=1)
    seed = _integer(node, "seed", where, violations, minimum=0)
    n_blocks = _integer(node, "n_blocks", where, violations, required=False,
                        default=_DEFAULT_N_BLOCKS, minimum=1)
    if seed is None or n_samples is None or n_blocks is None:
        return None
    if seed >= 2**64:
        violations.append(f"{where}.seed must be < 2^64, got {seed!r}")
        return None
    return RunSpec(n_samples=n_samples, seed=seed, n_blocks=n_blocks)


def _parse_sweep(node, violations):
    where = "sweep"
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"variable", "values"}, where, violations)
    variable = node.get("variable")
    if variable not in SWEEP_VARIABLES:
        violations.append(
            f"{where}.variable must be one of {', '.join(SWEEP_VARIABLES)}, "
            f"got {variable!r}")
        return None
    values = node.get("values")
    if not isinstance(values, list) or not values:
        violations.append(f"{where}.values must be a non-empty list of numbers")
        return None
    cleaned = []
    for i, value in enumerate(values):
        if not is_real(value):
            violations.append(f"{where}.values[{i}] must be a finite number, got {value!r}")
            continue
        cleaned.append(float(value))
    if len(cleaned) != len(values):
        return None
    return Sweep(variable=variable, values=tuple(cleaned))


def _parse_keyrate(node, violations):
    where = "keyrate"
    if not _expect_mapping(node, where, violations):
        return None
    _reject_unknown(node, {"optimize_alice_attenuation", "attenuation_db_per_km"},
                    where, violations)
    optimize = _boolean(node, "optimize_alice_attenuation", where, violations)
    gamma = _number(node, "attenuation_db_per_km", where, violations,
                    required=False, default=0.2, minimum=0.0)
    if gamma is None:
        return None
    return KeyRateOptions(optimize_alice_attenuation=optimize,
                          attenuation_db_per_km=gamma)


def _parse_measured_point(node, where, violations):
    if not _expect_mapping(node, where, violations):
        return None
    allowed = {"alice_attenuation", "alice_attenuation_db", "transmittance",
               "transmittance_db", "corr_mean", "corr_std"}
    _reject_unknown(node, allowed, where, violations)
    attenuation = _transmittance_pair(node, "alice_attenuation", where, violations,
                                      required=True)
    t = _transmittance_pair(node, "transmittance", where, violations, required=True)
    corr_mean = _number(node, "corr_mean", where, violations, required=False,
                        minimum=-1.0, maximum=1.0)
    corr_std = _number(node, "corr_std", where, violations, required=False,
                       minimum=0.0)
    if (corr_mean is None) != (corr_std is None):
        violations.append(f"{where} must set corr_mean and corr_std together")
        return None
    if attenuation is None or t is None:
        return None
    return MeasuredPointSpec(alice_attenuation=attenuation, transmittance=t,
                             corr_mean=corr_mean, corr_std=corr_std)


def parse_scenario(document):
    """Parse and validate a scenario dictionary into a ``Scenario``.

    Raises ``ParameterError`` listing every violated constraint.
    """
    violations = []
    if not isinstance(document, dict):
        raise ParameterError(
            [f"scenario must be a JSON object, got {type(document).__name__}"])
    allowed = {"system", "run", "reconciliation_efficiency", "sweep", "keyrate",
               "measured_points"}
    _reject_unknown(document, allowed, "scenario", violations)

    system = None
    if "system" in document:
        system = _parse_system(document["system"], violations)
    else:
        violations.append("scenario.system is required")

    run = None
    if "run" in document:
        run = _parse_run(document["run"], violations)

    efficiency = _number(document, "reconciliation_efficiency", "scenario",
                         violations, required=False, default=0.95,
                         minimum=0.0, exclusive_min=True, maximum=1.0)

    sweep = None
    if "sweep" in document:
        sweep = _parse_sweep(document["sweep"], violations)

    keyrate = KeyRateOptions()
    if "keyrate" in document:
        parsed = _parse_keyrate(document["keyrate"], violations)
        if parsed is not None:
            keyrate = parsed

    points = []
    if "measured_points" in document:
        node = document["measured_points"]
        if not isinstance(node, list):
            violations.append("scenario.measured_points must be a list")
        else:
            for i, entry in enumerate(node):
                parsed = _parse_measured_point(entry, f"measured_points[{i}]",
                                               violations)
                if parsed is not None:
                    points.append(parsed)

    if violations or system is None:
        raise ParameterError(violations or ["scenario.system is required"])
    return Scenario(
        source=system["source"],
        alice_detector=system["alice_detector"],
        bob_detector=system["bob_detector"],
        alice_attenuation=system["alice_attenuation"],
        channel=system["channel"],
        eavesdropper_tap=system["eavesdropper_tap"],
        run=run,
        efficiency=efficiency,
        sweep=sweep,
        keyrate=keyrate,
        measured_points=tuple(points),
    )


def load_scenario(path):
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParameterError([f"scenario file is not valid JSON: {exc}"]) from exc
    return parse_scenario(document)
