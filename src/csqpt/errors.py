"""Exception and warning types shared across the package, and the typed
readers every loaded JSON value and every number a library caller passes
go through: each returns its value converted or raises ``error`` naming
``what``; none takes a boolean or a string for a number, or vice versa.
"""

import json
import numbers
import reprlib
import sys

import numpy as np


class CsqptError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(CsqptError):
    """Objects with incompatible Fock dimensions were combined."""


class ValidationError(CsqptError):
    """An argument violates a documented precondition."""


class NotAChannelError(CsqptError):
    """A Kraus set or Choi matrix fails the CPTP requirements."""


class DataQualityError(CsqptError):
    """A dataset is malformed or fails a quality gate."""


class NumericalConsistencyError(CsqptError):
    """Two redundant computations of the same quantity disagree."""


class RetractionError(CsqptError):
    """The Stiefel retraction could not produce an isometry."""


class TruncationWarning(UserWarning):
    """A state or operator lost non-negligible weight to Fock truncation."""


def read_json(path, what, error=ValidationError):
    """The JSON value in the file at ``path``: one that cannot be opened,
    decoded or parsed raises ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_int(value, what, low=None, error=ValidationError, high=None):
    """int(value) for an integer >= ``low`` and <= ``high`` (None: no
    bound), a whole float such as 30.0 included."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if (isinstance(value, bool) or not whole or low is not None and value < low
            or high is not None and value > high):
        bound = " and".join(f" {op} {b}" for op, b in ((">=", low), ("<=", high))
                            if b is not None)
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def read_real(value, what, low=None, error=ValidationError, finite=True):
    """float(value) for a real number >= ``low`` (any for None), finite
    unless ``finite`` is false; an integer too large for a float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            finite and not abs(value) <= sys.float_info.max
            or low is not None and not value >= low):
        kind = f"{'finite ' * finite}number" + ("" if low is None else f" >= {low}")
        raise error(f"{what} must be a {kind}, got {value!r}")
    return float(value)


def read_numbers(value, what, dtype=float, error=ValidationError, finite=True,
                 shape=None):
    """A number or array of numbers as a ``dtype`` ndarray of ``shape`` (None:
    any; a None axis: any length); ``error`` for a bool, string or other
    object, ragged input, another shape, complex input for a real ``dtype``,
    an integer too large for a float and, if ``finite``, NaN or inf."""
    number = numbers.Complex if np.dtype(dtype).kind == "c" else numbers.Real
    # a list is read leaf by leaf: numpy would take its bools for numbers
    arr = np.asarray(value, object if isinstance(value, (list, tuple)) else None)
    types = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    odd = shape is not None and (len(shape) != arr.ndim or any(
        n not in (None, m) for n, m in zip(shape, arr.shape))) or not all(
        issubclass(t, number) and t is not bool for t in types)
    try:
        arr = arr if odd else arr.astype(dtype, copy=False)
    except OverflowError:  # an integer too large for a float
        odd = True
    if odd:
        kind = "number" if number is numbers.Complex else "real number"
        form = f"a {kind}" if shape == () else f"{kind}s" + (
            f" of shape {shape}" if shape else "")
        raise error(f"{what} must be {form}, got {reprlib.repr(value)}")
    if finite and not np.isfinite(arr).all():
        raise error(f"{what} has a non-finite entry")
    return arr


def read_bool(value, what, error=ValidationError):
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def read_str(value, what, error=ValidationError):
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    return value
