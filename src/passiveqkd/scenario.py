"""Scenario files: the JSON configuration boundary of the CLI.

A scenario is a single JSON document describing the physical system,
the Monte Carlo run, and optional sweep/key-rate sections. Two rules
guard against the classic unit mistake in this domain:

* Quantities are linear (fractions, shot-noise units) unless the key
  carries an explicit ``_db`` suffix; dB keys must be <= 0 and convert
  at this boundary and nowhere else.
* All eight detector parameters (two arms, two parties, efficiency and
  noise each) must be named explicitly; there are no defaults.

The parser checks shape and units only: JSON objects, unknown and
required keys, keys that exclude each other, value types and the dB
sign. Value ranges live once, in the ``_CHECKS`` of the record each value
belongs to; the parser runs those rules on every value present under its
dotted path (``system.source.mode_overlap must be <= 1, got 1.5``) and
reports every violation in the file in one ``ParameterError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

from .errors import (
    ParameterError,
    check_args,
    check_corr,
    check_fields,
    check_fraction,
    check_nonneg,
    check_positive,
    check_real,
    check_record,
    is_integer,
    is_real,
    optional,
    raise_violations,
)
from .keyrate import _EFFICIENCY
from .model import (
    _FIBRE_DB_PER_KM,
    ChannelParams,
    ConjugateDetector,
    DetectorChannel,
    SourceParams,
    SystemConfig,
    transmittance_from_length,
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

# Samples per run when the scenario does not say; n_blocks defaults to RunSpec's.
_DEFAULT_N_SAMPLES = 500_000

# Argument rules of the dB conversions.
_ARGS = {"db": check_real, "value": check_positive}


def linear_from_db(db):
    """Convert a dB attenuation/transmittance value to linear: 10^(db/10)."""
    [x] = check_args(_ARGS, db=db)
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ParameterError([f"dB value {db!r} overflows a linear float"]) from None


def db_from_linear(value):
    """Convert a linear transmittance to dB: 10 * log10(value)."""
    [x] = check_args(_ARGS, value=value)
    return 10.0 * math.log10(x)


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

    _CHECKS = {"alice_attenuation": check_fraction, "transmittance": check_fraction,
               "corr_mean": optional(check_corr), "corr_std": optional(check_nonneg)}
    __post_init__ = check_record

    @property
    def path_transmittance(self):
        return self.alice_attenuation * self.transmittance


@dataclass(frozen=True)
class KeyRateOptions:
    optimize_alice_attenuation: bool = False
    attenuation_db_per_km: float = _FIBRE_DB_PER_KM

    _CHECKS = {"attenuation_db_per_km": check_nonneg}
    __post_init__ = check_record


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario document.

    ``alice_attenuation``, ``channel``, and ``run`` stay optional at
    parse time; each CLI command states which of them it requires.
    ``efficiency`` is the scenario's ``reconciliation_efficiency``.
    """

    source: SourceParams
    alice_detector: ConjugateDetector
    bob_detector: ConjugateDetector
    alice_attenuation: float | None = None
    channel: ChannelParams | None = None
    eavesdropper_tap: bool = False
    run: RunSpec | None = None
    efficiency: float = _EFFICIENCY
    sweep: Sweep | None = None
    keyrate: KeyRateOptions = field(default_factory=KeyRateOptions)
    measured_points: tuple = ()

    _CHECKS = {"efficiency": check_fraction}
    __post_init__ = check_record

    def system_config(self, **overrides):
        """Build the SystemConfig, with optional field overrides.

        Raises if ``alice_attenuation`` is unset and not overridden;
        a missing channel section defaults to a lossless channel.
        """
        values = {f.name: getattr(self, f.name) for f in fields(SystemConfig)}
        if values["channel"] is None:
            values["channel"] = ChannelParams(1.0)
        values.update(overrides)
        if values["alice_attenuation"] is None:
            raise ParameterError(
                ["system.alice_attenuation is required for this operation"])
        return SystemConfig(**values)

    def run_spec(self, *, seed=None, n_samples=None, n_blocks=None):
        """Build the RunSpec, applying CLI overrides over scenario values."""
        values = asdict(self.run) if self.run else {"n_samples": _DEFAULT_N_SAMPLES}
        given = {"n_samples": n_samples, "seed": seed, "n_blocks": n_blocks}
        values.update((key, value) for key, value in given.items() if value is not None)
        if "seed" not in values:
            raise ParameterError(
                ["a seed is required: set run.seed in the scenario or pass --seed"])
        return RunSpec(**values)


# JSON value types by annotation text (the record modules postpone
# annotations): a test, and how a violation names the type.
_KINDS = {"float": (is_real, "a finite number"), "int": (is_integer, "an integer"),
          "bool": (lambda value: isinstance(value, bool), "true or false")}


def _object(node, allowed, where, violations):
    """True if ``node`` is a JSON object; each key not ``allowed`` is a violation."""
    if not isinstance(node, dict):
        violations.append(f"{where} must be a JSON object, got {type(node).__name__}")
        return False
    violations.extend(f"unknown key '{key}' in {where}" for key in node
                      if key not in allowed)
    return True


def _get(node, key, where, violations, *, kind="float", required=True):
    """``node[key]`` if it is of JSON type ``kind``, else None; a wrong type
    and a missing required key are violations."""
    if key not in node:
        if required:
            violations.append(f"{where}.{key} is required")
        return None
    is_kind, name = _KINDS[kind]
    if not is_kind(node[key]):
        violations.append(f"{where}.{key} must be {name}, got {node[key]!r}")
        return None
    return node[key]


def _record(cls, values, where, violations, start):
    """Run ``cls``'s field rules on the values read (None: absent) under
    their dotted paths, then build the record from them; None if any
    violation was added since ``start``."""
    present = {key: value for key, value in values.items() if value is not None}
    checked = check_fields(cls._CHECKS, present, violations, where)
    return cls(**checked) if len(violations) == start else None


def _parse_record(cls, node, where, violations, **defaults):
    """``cls`` from a JSON object of its fields, each of the JSON type of its
    annotation, and required unless the record or ``defaults`` has a default."""
    start = len(violations)
    if not _object(node, [f.name for f in fields(cls)], where, violations):
        return None
    values = {f.name: _get(node, f.name, where, violations, kind=f.type,
                           required=f.default is MISSING and f.name not in defaults)
              for f in fields(cls)}
    for key, default in defaults.items():
        if values[key] is None:
            values[key] = default
    return _record(cls, values, where, violations, start)


def _transmittance_pair(node, key, where, violations, *, required):
    """The linear value of a key pair like transmittance / transmittance_db."""
    db_key = key + "_db"
    if key in node and db_key in node:
        violations.append(f"{where} must set exactly one of '{key}' and '{db_key}'")
    elif key in node:
        return _get(node, key, where, violations)
    elif db_key not in node:
        if required:
            violations.append(f"{where} must set '{key}' or '{db_key}'")
    else:
        db = _get(node, db_key, where, violations)
        if db is not None and db > 0:
            violations.append(f"{where}.{db_key} must be <= 0, got {db!r}")
        elif db is not None:
            return linear_from_db(db)
    return None


def _parse_detector(node, where, violations):
    start = len(violations)
    if not _object(node, ("x", "p"), where, violations):
        return None
    arms = {}
    for arm in ("x", "p"):
        if arm not in node:
            violations.append(f"{where}.{arm} is required (no detector defaults)")
            continue
        arms[arm] = _parse_record(DetectorChannel, node[arm], f"{where}.{arm}",
                                  violations)
    return ConjugateDetector(**arms) if len(violations) == start else None


def _parse_channel(node, where, violations):
    start = len(violations)
    allowed = ("transmittance", "transmittance_db", "length_km", "attenuation_db_per_km")
    if not _object(node, allowed, where, violations):
        return None
    if "length_km" not in node:
        if "attenuation_db_per_km" in node:
            violations.append(f"{where}.attenuation_db_per_km requires length_km")
        t = _transmittance_pair(node, "transmittance", where, violations, required=True)
        return _record(ChannelParams, {"transmittance": t}, where, violations, start)
    if "transmittance" in node or "transmittance_db" in node:
        violations.append(
            f"{where} must describe the channel by transmittance or by fibre "
            "length, not both")
        return None
    fibre = {"length_km": _get(node, "length_km", where, violations),
             "attenuation_db_per_km": _get(node, "attenuation_db_per_km", where,
                                           violations, required=False)}
    if fibre["attenuation_db_per_km"] is None:
        fibre["attenuation_db_per_km"] = _FIBRE_DB_PER_KM
    fibre = check_fields(ChannelParams._CHECKS, fibre, violations, where)
    if len(violations) > start:
        return None
    fibre["transmittance"] = transmittance_from_length(**fibre)
    return _record(ChannelParams, fibre, where, violations, start)


def _parse_system(node, where, violations):
    start = len(violations)
    allowed = ("source", "alice_attenuation", "alice_attenuation_db", "channel",
               "alice_detector", "bob_detector", "eavesdropper_tap")
    if not _object(node, allowed, where, violations):
        return None
    system = {}
    for key, parse in (("source", partial(_parse_record, SourceParams)),
                       ("alice_detector", _parse_detector),
                       ("bob_detector", _parse_detector)):
        if key not in node:
            violations.append(f"{where}.{key} is required")
            continue
        system[key] = parse(node[key], f"{where}.{key}", violations)
    system["alice_attenuation"] = _transmittance_pair(
        node, "alice_attenuation", where, violations, required=False)
    if "channel" in node:
        system["channel"] = _parse_channel(node["channel"], f"{where}.channel",
                                           violations)
    system["eavesdropper_tap"] = _get(node, "eavesdropper_tap", where, violations,
                                      kind="bool", required=False)
    system = {key: value for key, value in system.items() if value is not None}
    system = check_fields(SystemConfig._CHECKS, system, violations, where)
    return system if len(violations) == start else None


def _parse_sweep(node, where, violations):
    if not _object(node, ("variable", "values"), where, violations):
        return None
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
    bad = [f"{where}.values[{i}] must be a finite number, got {value!r}"
           for i, value in enumerate(values) if not is_real(value)]
    violations.extend(bad)
    return None if bad else Sweep(variable, tuple(float(value) for value in values))


def _parse_measured_point(node, where, violations):
    start = len(violations)
    allowed = ("alice_attenuation", "alice_attenuation_db", "transmittance",
               "transmittance_db", "corr_mean", "corr_std")
    if not _object(node, allowed, where, violations):
        return None
    values = {key: _transmittance_pair(node, key, where, violations, required=True)
              for key in ("alice_attenuation", "transmittance")}
    for key in ("corr_mean", "corr_std"):
        values[key] = _get(node, key, where, violations, required=False)
    if ("corr_mean" in node) != ("corr_std" in node):
        violations.append(f"{where} must set corr_mean and corr_std together")
    return _record(MeasuredPointSpec, values, where, violations, start)


def _parse_measured_points(node, where, violations):
    if not isinstance(node, list):
        violations.append(f"scenario.{where} must be a list")
        return None
    return tuple(_parse_measured_point(entry, f"{where}[{i}]", violations)
                 for i, entry in enumerate(node))


def parse_scenario(document):
    """Parse and validate a scenario dictionary into a ``Scenario``.

    Raises ``ParameterError`` listing every violated constraint.
    """
    violations = []
    sections = {"system": _parse_system,
                "run": partial(_parse_record, RunSpec, n_samples=_DEFAULT_N_SAMPLES),
                "sweep": _parse_sweep,
                "keyrate": partial(_parse_record, KeyRateOptions),
                "measured_points": _parse_measured_points}
    if not _object(document, {*sections, "reconciliation_efficiency"}, "scenario",
                   violations):
        raise ParameterError(violations)
    parsed = {}
    for key, parse in sections.items():
        if key in document:
            parsed[key] = parse(document[key], key, violations)
        elif key == "system":
            violations.append("scenario.system is required")
    efficiency = _get(document, "reconciliation_efficiency", "scenario", violations,
                      required=False)
    if efficiency is not None:
        parsed["efficiency"] = Scenario._CHECKS["efficiency"](
            efficiency, "scenario.reconciliation_efficiency", violations)
    raise_violations(violations)
    return Scenario(**parsed.pop("system"), **parsed)


def load_scenario(path):
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except (ValueError, RecursionError) as exc:
            # bad JSON, an integer too long to convert, or nesting too deep
            raise ParameterError([f"scenario file is not valid JSON: {exc}"]) from exc
    return parse_scenario(document)
