"""Exception and warning types shared across the package, and the typed
readers every value csqpt loads from JSON passes through: each returns its
value converted or raises ``error`` naming ``what``, and none takes a
boolean or a string for a number, or a number for either.
"""

import json
import numbers
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


def read_bool(value, what, error=ValidationError):
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def read_str(value, what, error=ValidationError):
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    return value


def read_array(value, shape, what, error=ValidationError):
    """The float array of nested lists of ``shape`` (None: any length on
    that axis) whose entries are finite JSON numbers, walked one level per
    axis with the leaves' types checked in one pass."""
    level, dims = [value], []
    for n in shape:
        sizes = {len(x) if isinstance(x, (list, tuple)) else -1 for x in level}
        if len(sizes) != 1 or -1 in sizes or n not in (None, *sizes):
            raise error(f"{what} must be nested lists of shape {shape}")
        dims.append(sizes.pop())
        level = [x for row in level for x in row]
    if not set(map(type, level)) <= {int, float}:
        raise error(f"{what} must hold numbers only")
    try:
        arr = np.array(level, dtype=float).reshape(dims)
        finite = np.isfinite(arr).all()
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise error(f"{what} has a non-finite entry")
    return arr
