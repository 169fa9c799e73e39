"""Semantic exception hierarchy and the argument checks of every module; never a bare ValueError."""

import contextlib
import math

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


class DensityUnderflowError(DomainError):
    """A bound divides by a density that underflows at its point, so it exceeds every double."""


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


def as_float(value, what: str, *, arrays: bool = False):
    """value as a float where it is a real number, an int or a float but not a bool; with arrays, also an
    array of them, as doubles of its shape.  Anything else, a string or None included, raises DomainError."""
    try:
        x = np.asarray(value)
    except ValueError:  # a ragged sequence, refused below as an object
        x = np.asarray(None)
    if x.dtype.kind in "iuf" and (arrays or not x.ndim):
        return x.astype(float, copy=False) if arrays else float(x)
    raise DomainError(f"{what} must be a real number{' or an array of them' if arrays else ''}, got {value!r}")


@contextlib.contextmanager
def reading(what: str):
    """Reads input inside the block: text that is not JSON, a missing key or a value of the wrong kind
    raises DomainError, which says what was read; a DomainError from inside passes as it is."""
    try:
        yield
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what} ({type(exc).__name__}: {exc})") from None


def pointwise(rows, law, x, *args):
    """rows(law, x as 1-d doubles, *args) at x, a number or an array of any shape: the one entry of every
    pointwise evaluator.  A NaN point raises DomainError; a number gives a float, an array an array of x's
    shape, and a tuple of rows a tuple of either."""
    x = as_float(x, "the evaluation point", arrays=True)
    if math.isnan(x) if x.ndim == 0 else np.isnan(x).any():  # a scalar skips the ufunc's microsecond
        raise DomainError("evaluation point is NaN")
    val = rows(law, x.reshape(-1), *args)
    shaped = (lambda v: float(v[0])) if x.ndim == 0 else (lambda v: v.reshape(x.shape))
    return tuple(map(shaped, val)) if isinstance(val, tuple) else shaped(val)
