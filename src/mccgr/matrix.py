"""Matrix I/O.

Matrices are float64 numpy arrays in C order. Data matrices are laid out
features x samples: column n is one sample. Labels are a flat int64 vector
aligned with the columns.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import DataError, _check_labels, _check_matrix
from .graph import CSRMatrix

__all__ = [
    "load_labels",
    "read_matrix",
    "save_csv",
    "save_labels",
]

@contextmanager
def _open_text(path):
    """Open path as UTF-8 text; a path open() refuses as a value (one with a
    NUL character) or a byte that is not UTF-8 is a DataError naming the path."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except ValueError as exc:
        raise DataError(f"{path!r}: not a usable path ({exc})") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated matrix of non-negative floats.

    Errors carry 1-based row/column positions; a negative entry is one.

    The file is parsed in C by np.loadtxt first. When that parse fails, or
    finds no rows, a non-finite entry or a negative one, the file
    is scanned again cell by cell with float(), which either pins the error
    to its row and column or accepts what float() accepts and numpy does not
    (whitespace-only lines, underscores in digits, non-ASCII digits). Both
    parsers round every cell through the same string-to-double routine, so
    the two paths return the same array. A pipe, which cannot be read twice,
    is scanned cell by cell from the start. The path is opened as plain
    text: a name ending in .gz is not decompressed.
    """
    with _open_text(path) as fh:
        if fh.seekable():
            try:
                # loadtxt warns on input with no rows; the scan below reports it.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    m = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except ValueError:
                pass
            else:
                if m.size and np.all(np.isfinite(m)) and not np.any(m < 0):
                    return m
            fh.seek(0)
        return _scan_cells(fh, path)


def _scan_cells(fh, path) -> np.ndarray:
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
            if v < 0:
                raise DataError(
                    f"{path}: negative entry at row {i + 1}, column {j + 1}: {cell.strip()!r}"
                )
            parsed.append(v)
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)


def load_labels(path) -> np.ndarray:
    """Read a single-column CSV of integer labels, each within int64."""
    values: list[int] = []
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    with _open_text(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if "," in line:
                raise DataError(f"{path}: labels must be a single column (row {i + 1})")
            try:
                value = int(line)
            except ValueError:
                raise DataError(
                    f"{path}: non-integer label at row {i + 1}: {line!r}"
                ) from None
            if not low <= value <= high:
                raise DataError(f"{path}: label at row {i + 1} is outside the int64 range: {line!r}")
            values.append(value)
    if not values:
        raise DataError(f"{path}: empty label file")
    return np.array(values, dtype=np.int64)


def save_csv(matrix, path) -> None:
    """Write a matrix, dense or sparse, as headerless CSV.

    %.17g preserves float64 exactly, so read_matrix(save_csv(m)) == m.
    A CSRMatrix, such as a graph's affinity, whose stored entries are all
    1.0 is written as one byte buffer of "0" cells whose "1" cells are set
    at the entries' `rows` and `indices`: the bytes np.savetxt writes for
    its dense form, with no dense float array formed. Any other CSRMatrix,
    and any other object with a toarray() method such as another library's
    sparse matrix, is written from that dense form; dense input always
    goes through np.savetxt. The file is always plain text, whatever its
    extension.
    """
    if isinstance(matrix, CSRMatrix):
        height, width = matrix.shape
        if height and width and np.all(matrix.data == 1.0):
            buf = np.full((height, 2 * width), ord("0"), dtype=np.uint8)
            buf[:, 1::2] = ord(",")
            buf[:, -1] = ord("\n")
            buf[matrix.rows, 2 * matrix.indices] = ord("1")
            with open(path, "wb") as fh:
                fh.write(buf)
            return
    if hasattr(matrix, "toarray"):
        matrix = matrix.toarray()
    m = _check_matrix(matrix, "matrix")
    with open(path, "wb") as fh:
        np.savetxt(fh, m, delimiter=",", fmt="%.17g")


def save_labels(labels, path) -> None:
    """Write integer labels, one per line, as plain text whatever the path's extension."""
    y = _check_labels(labels, "labels")
    with open(path, "wb") as fh:
        np.savetxt(fh, y, fmt="%d")
