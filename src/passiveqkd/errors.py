"""Exception types shared across the package, and the argument rules.

The library is strict-fail: invalid parameters raise instead of being
clamped, because silently repaired inputs would corrupt parameter-sweep
studies. ``ParameterError`` collects every violated constraint it can
find so a bad configuration is reported in one pass.

The argument checks below are shared by every module. ``is_real`` and
``is_integer`` pass Python and numpy numbers but not ``bool``. A
``check_*`` rule appends a message starting with the name it is given for
a bad value, and returns a good one as a Python number, so numpy scalars
of any precision are computed with exactly as the Python numbers they
equal. ``rule`` builds one from a test of the value as a Python float;
the generic ones are ``check_real``, ``check_positive``, ``check_nonneg``
and ``check_corr``, besides ``check_fraction`` and ``check_integer``. Each
record states its fields' rules once, in ``_CHECKS``, which
``check_record`` runs; each module states its functions' argument rules
once, in ``_ARGS``, which ``check_args`` runs; ``check_fields`` runs the
same rules under dotted paths on scenario values. Checks that relate two
arguments are written out where they apply.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "PassiveQkdError",
    "ParameterError",
    "ModelInconsistencyError",
    "NumericalDomainError",
    "DegenerateDataError",
    "UnidentifiableFitError",
    "BatchSizeError",
]


def is_real(value):
    """True for a finite real number (int, float or numpy scalar), not a bool."""
    try:
        return ((type(value) is float  # the common case, ahead of the abstract check
                 or isinstance(value, numbers.Real) and not isinstance(value, bool))
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def is_integer(value):
    """True for an integer (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_fraction(value, name, violations, *, allow_zero=False):
    """A number in (0, 1], or in [0, 1] with ``allow_zero``."""
    if not is_real(value):
        violations.append(f"{name} must be a finite number, got {value!r}")
    elif value > 1:
        violations.append(f"{name} must be <= 1, got {value!r}")
    elif value < 0 or (value == 0 and not allow_zero):
        violations.append(f"{name} must be {'>=' if allow_zero else '>'} 0, got {value!r}")
    else:
        return float(value)
    return value


def rule(holds, requirement):
    """The check that a value is a finite real number ``x`` for which
    ``holds(x)`` is true, with ``x`` a Python float; a violation reads
    "<name> must <requirement>, got <value>"."""
    def check(value, name, violations):
        if is_real(value) and holds(float(value)):
            return float(value)
        violations.append(f"{name} must {requirement}, got {value!r}")
        return value
    return check


check_real = rule(lambda x: True, "be a finite number")
check_positive = rule(lambda x: x > 0, "be finite and > 0")
check_nonneg = rule(lambda x: x >= 0, "be finite and >= 0")
check_corr = rule(lambda x: abs(x) <= 1, "lie in [-1, 1]")


def check_integer(value, name, violations, *, minimum=0, bits=None):
    """An integer >= ``minimum``, and < 2^``bits`` if given, returned as a
    Python int."""
    if not is_integer(value):
        violations.append(f"{name} must be an integer, got {value!r}")
    elif value < minimum:
        violations.append(f"{name} must be >= {minimum}, got {value!r}")
    elif bits is not None and value >= 2**bits:
        violations.append(f"{name} must be < 2^{bits}, got {value!r}")
    else:
        return int(value)
    return value


def optional(check):
    """``check`` for a value that may also be None."""
    return lambda value, name, violations: (
        value if value is None else check(value, name, violations))


def check_fields(checks, values, violations, where=None):
    """Run the rule ``checks[field]`` on each value of ``values`` that has
    one, naming it ``where.field`` (or the bare field); returns ``values``
    with those values checked."""
    return {field: checks[field](value, f"{where}.{field}" if where else field,
                                 violations) if field in checks else value
            for field, value in values.items()}


def check_args(checks, **args):
    """The keyword arguments checked by their rules in ``checks``, in order;
    raises every violation together."""
    violations = []
    checked = check_fields(checks, args, violations)
    raise_violations(violations)
    return list(checked.values())


def check_record(record):
    """``__post_init__`` of a frozen record whose class maps each checked
    field to its rule in ``_CHECKS``: raise every violation together, and
    keep the checked values as Python numbers."""
    checked = check_args(record._CHECKS, **{field: getattr(record, field)
                                           for field in record._CHECKS})
    for field, value in zip(record._CHECKS, checked):
        object.__setattr__(record, field, value)


def raise_violations(violations):
    if violations:
        raise ParameterError(violations)


class PassiveQkdError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PassiveQkdError, ValueError):
    """One or more input parameters lie outside their valid domain.

    Attributes
    ----------
    violations : list of str
        Human-readable description of every violated constraint.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ModelInconsistencyError(PassiveQkdError):
    """Inputs that are individually valid describe an impossible state,
    e.g. a conditional variance exceeding the corresponding total."""


class NumericalDomainError(PassiveQkdError, ArithmeticError):
    """A numerical intermediate left its mathematically allowed domain
    by more than the configured tolerance (e.g. an eigenvalue
    discriminant that should be nonnegative)."""


class DegenerateDataError(PassiveQkdError):
    """Sample data admits no well-defined estimate (e.g. a zero-variance
    block makes the Pearson correlation undefined)."""


class UnidentifiableFitError(PassiveQkdError):
    """The fit design carries no information about the parameter
    (all model basis values are zero)."""


class BatchSizeError(PassiveQkdError):
    """A requested batch cannot be generated under the stated resource
    or shape constraints; raised before any sampling starts."""
