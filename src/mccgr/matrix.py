"""Dense matrix I/O.

Matrices are float64 numpy arrays in C order. Data matrices are laid out
features x samples: column n is one sample. Labels are a flat int64 vector
aligned with the columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "LabeledDataset",
    "load_csv",
    "load_labels",
    "read_matrix",
    "save_csv",
    "save_labels",
]

# Bit pattern of 1.0; save_csv tests bits, so -0.0 does not pass for 0.0.
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _as_matrix(values, name: str = "matrix") -> np.ndarray:
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DataError(f"{name} must be 2-D with at least one row and one column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{name} contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class LabeledDataset:
    """Non-negative data matrix with optional per-column integer labels."""

    matrix: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        m = _as_matrix(self.matrix, "data matrix")
        if np.any(m < 0):
            raise DataError("data matrix has negative entries")
        object.__setattr__(self, "matrix", m)
        if self.labels is not None:
            y = np.ascontiguousarray(self.labels, dtype=np.int64)
            if y.ndim != 1:
                raise DataError(f"labels must be a flat vector, got shape {y.shape}")
            if y.shape[0] != m.shape[1]:
                raise DataError(
                    f"label count {y.shape[0]} does not match sample count {m.shape[1]}"
                )
            object.__setattr__(self, "labels", y)


def read_matrix(path, allow_negative: bool = False) -> np.ndarray:
    """Read a headerless comma-separated matrix of floats.

    Errors carry 1-based row/column positions. Negative entries are
    rejected unless `allow_negative` is set (most consumers here are
    non-negative by construction; Laplacians and the like opt out).

    The file is parsed in C by np.loadtxt first. When that parse fails, or
    finds no rows, a non-finite entry or a disallowed negative one, the file
    is scanned again cell by cell with float(), which either pins the error
    to its row and column or accepts what float() accepts and numpy does not
    (whitespace-only lines, underscores in digits, non-ASCII digits). Both
    parsers round every cell through the same string-to-double routine, so
    the two paths return the same array. A pipe, which cannot be read twice,
    is scanned cell by cell from the start. The path is opened as plain
    text: a name ending in .gz is not decompressed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.seekable():
            try:
                # loadtxt warns on input with no rows; the scan below reports it.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    m = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except ValueError:
                pass
            else:
                if m.size and np.all(np.isfinite(m)) and (allow_negative or not np.any(m < 0)):
                    return m
            fh.seek(0)
        return _scan_cells(fh, path, allow_negative)


def _scan_cells(fh, path, allow_negative: bool) -> np.ndarray:
    rows: list[list[float]] = []
    width = -1
    for i, line in enumerate(fh):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width < 0:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(
                f"{path}: row {i + 1} has {len(cells)} cells, expected {width}"
            )
        parsed = []
        for j, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell.strip()!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: non-finite cell at row {i + 1}, column {j + 1}"
                )
            if v < 0 and not allow_negative:
                raise DataError(
                    f"{path}: negative entry at row {i + 1}, column {j + 1}: {cell.strip()!r}"
                )
            parsed.append(v)
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)


def load_labels(path) -> np.ndarray:
    """Read a single-column CSV of integer labels."""
    values: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if "," in line:
                raise DataError(f"{path}: labels must be a single column (row {i + 1})")
            try:
                values.append(int(line))
            except ValueError:
                raise DataError(
                    f"{path}: non-integer label at row {i + 1}: {line!r}"
                ) from None
    if not values:
        raise DataError(f"{path}: empty label file")
    return np.array(values, dtype=np.int64)


def load_csv(path, labels_path=None) -> LabeledDataset:
    """Load a features x samples CSV, optionally with a label column file."""
    matrix = read_matrix(path)
    labels = load_labels(labels_path) if labels_path is not None else None
    return LabeledDataset(matrix=matrix, labels=labels)


def save_csv(matrix, path) -> None:
    """Write a matrix as headerless CSV.

    %.17g preserves float64 exactly, so read_matrix(save_csv(m)) == m.
    A matrix whose entries are all +0.0 or 1.0, such as a binary affinity,
    is written as one byte buffer holding the bytes np.savetxt would write
    for it ("0"/"1" cells); -0.0, which %.17g writes as "-0", takes the
    general path. The file is always plain text, whatever its extension.
    """
    m = _as_matrix(matrix)
    bits = m.view(np.uint64)
    binary = bits == 0
    binary |= bits == _ONE_BITS
    with open(path, "wb") as fh:
        if binary.all():
            rows, cols = m.shape
            buf = np.empty((rows, 2 * cols), dtype=np.uint8)
            buf[:, 1::2] = ord(",")
            buf[:, -1] = ord("\n")
            np.add(m, ord("0"), out=buf[:, ::2], casting="unsafe")
            fh.write(buf)
        else:
            np.savetxt(fh, m, delimiter=",", fmt="%.17g")


def save_labels(labels, path) -> None:
    """Write integer labels, one per line."""
    y = np.ascontiguousarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise DataError(f"labels must be a flat vector, got shape {y.shape}")
    np.savetxt(path, y, fmt="%d")
