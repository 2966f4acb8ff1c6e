"""Exception types shared across the library, and the one check per kind of
argument: a count, a finite real setting, a data matrix, a label vector.

Every public entry point checks its arguments through these helpers, so each
rule and its message are written once and a bad argument is a DataError that
names it.
"""

import math
import numbers

import numpy as np

__all__ = ["DataError", "NumericalError"]


class DataError(ValueError):
    """Malformed or inconsistent input: bad CSV cells, ragged rows,
    negative entries where non-negativity is required, shape mismatches."""


class NumericalError(ArithmeticError):
    """A computation left the representable regime: a non-finite objective
    or an undefined divergence."""


def _check_number(name, value, kind):
    # bool is an Integral, but a true or false setting is a mistake.
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if kind is numbers.Integral else "a real number"
        raise DataError(f"{name} must be {expected}, got {value!r}")


def _check_count(name, value, low):
    # A rank, size, repeat count or seed: an integer (numpy's included) no
    # smaller than low. A float such as 2.0 is refused, never truncated.
    _check_number(name, value, numbers.Integral)
    if value < low:
        raise DataError(f"{name} must be >= {low}, got {value}")


def _check_real(name, value, low=None):
    # A real-valued setting (numpy's included) that is finite, checked
    # first since NaN passes every bound, and no smaller than low if given.
    _check_number(name, value, numbers.Real)
    if not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value!r}")
    if low is not None and value < low:
        raise DataError(f"{name} must be >= {low}, got {value!r}")


def _check_shape(name, shape):
    # A data matrix's shape, for callers that read nothing else of it.
    if len(shape) != 2 or 0 in shape:
        raise DataError(f"{name} must be 2-D with at least one row and one column, got shape {shape}")


def _float_array(values, name) -> np.ndarray:
    # values as a float64 C-order array, not copied when it is one already.
    # What numpy cannot read as numbers, such as text or ragged rows, is a
    # DataError, not numpy's own TypeError or ValueError.
    try:
        return np.ascontiguousarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must be an array of numbers: {exc}") from None


def _check_matrix(values, name, nonneg=False) -> np.ndarray:
    # A data matrix as a float64 C-order array; finite, and non-negative
    # when the method needs it.
    m = _float_array(values, name)
    _check_shape(name, m.shape)
    if not np.all(np.isfinite(m)):
        raise DataError(f"{name} contains NaN or Inf entries")
    if nonneg and np.any(m < 0):
        raise DataError(f"{name} has negative entries")
    return m


def _check_labels(values, name) -> np.ndarray:
    # A flat, non-empty label vector as int64. Floats are accepted when they
    # are whole numbers within int64, never truncated.
    y = np.asarray(values)
    if y.ndim != 1 or y.shape[0] < 1:
        raise DataError(f"{name} must be a non-empty flat vector, got shape {y.shape}")
    if y.dtype.kind in "biu":
        if y.dtype.kind == "u" and y.max() > np.iinfo(np.int64).max:
            raise DataError(f"{name} must hold integers within int64, got {int(y.max())}")
        return np.ascontiguousarray(y, dtype=np.int64)
    f = np.asarray(y, dtype=np.float64)
    whole = (f == np.round(f)) & (np.abs(f) < 2.0**63)
    if not np.all(whole):
        raise DataError(f"{name} must hold integers within int64, got {float(f[~whole][0])!r}")
    return f.astype(np.int64)
