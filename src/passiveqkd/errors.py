"""Exception types shared across the package.

The library is strict-fail: invalid parameters raise instead of being
clamped, because silently repaired inputs would corrupt parameter-sweep
studies. ``ParameterError`` collects every violated constraint it can
find so a bad configuration is reported in one pass.

The argument checks below are shared by every module. ``is_real`` and
``is_integer`` pass Python and numpy numbers but not ``bool``; the
``check_*`` helpers append a message for a bad value and return a good
one as a Python float, so numpy scalars of any precision are computed
with exactly as the Python numbers they equal.
"""

from __future__ import annotations

import math
import numbers


def is_real(value):
    """True for a finite real number (int, float or numpy scalar), not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def is_integer(value):
    """True for an integer (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_fraction(value, name, violations, *, allow_zero=False):
    if not (is_real(value) and (value > 0 or (allow_zero and value == 0)) and value <= 1):
        low = "0 <= " if allow_zero else "0 < "
        violations.append(f"{name} must satisfy {low}{name} <= 1, got {value!r}")
        return value
    return float(value)


def check_nonneg(value, name, violations):
    if not (is_real(value) and value >= 0):
        violations.append(f"{name} must be finite and >= 0, got {value!r}")
        return value
    return float(value)


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
