"""Semantic exception hierarchy and the integer-argument check. Public functions raise these, never bare ValueError."""

import numpy as np


class SteintailError(Exception):
    """Base error for this package."""


class DomainError(SteintailError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidCoefficientsError(DomainError):
    """Quadratic-kernel coefficients violate the admissibility constraints."""


class MomentDoesNotExistError(DomainError):
    """Requested moment order is infinite for this law."""


class InvalidProbabilityError(DomainError):
    """Probability argument outside (0, 1)."""


class ThresholdOutOfRangeError(DomainError):
    """Indicator threshold z outside (0, b)."""


class EvaluationAtKinkError(DomainError):
    """Derivative requested exactly at a non-differentiability point."""


class InvalidConstantError(DomainError):
    """Comparison constant violates its admissibility condition (e.g. c <= 2)."""


class ThirdMomentError(DomainError):
    """Upper-bound constant requires a third moment (quadratic coefficient < 1/2)."""


class UnsupportedCaseError(DomainError):
    """Operation defined only for laws with right-unbounded support."""


class OutsideSupportError(DomainError):
    """Evaluation point outside the support of the law."""


class InsufficientRangeError(DomainError):
    """Fit grid spans less than one decade."""


class UncertifiedHypothesisError(SteintailError):
    """Scenario dominance hypothesis could not be certified."""


class InverseTableError(SteintailError):
    """The sampler's inverse table misses its accuracy bound for this law."""


def as_int(value, what: str) -> int:
    """value as an int where it is an integer-valued number (2.0 is 2); anything else, a bool
    included, raises DomainError."""
    try:
        if int(value) == value and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")
