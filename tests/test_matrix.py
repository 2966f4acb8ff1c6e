"""Matrix I/O: CSV roundtrips, validation errors, seeded constructors."""

import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mccgr import (
    DataError,
    LabeledDataset,
    load_csv,
    load_labels,
    read_matrix,
    save_csv,
    save_labels,
)


def test_save_load_roundtrip_exact(tmp_path):
    # %.17g must reproduce every float64 bit for bit
    rng = np.random.default_rng(7)
    for trial in range(10):
        m = rng.random((5, 8)) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path / f"m{trial}.csv"
        save_csv(m, path)
        back = read_matrix(path)
        assert back.shape == m.shape
        assert np.array_equal(back, m)


def test_read_matrix_integer_like_cells(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1.5\n2,3\n")
    m = read_matrix(path)
    assert m.dtype == np.float64
    assert np.array_equal(m, [[0.0, 1.5], [2.0, 3.0]])


def test_read_matrix_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_ragged_row_position(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataError, match="row 2"):
        read_matrix(path)


def test_read_matrix_non_numeric_position(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,abc\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        read_matrix(path)


def test_read_matrix_non_finite_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,inf\n")
    with pytest.raises(DataError, match="row 1, column 2"):
        read_matrix(path)
    path.write_text("nan,1\n")
    with pytest.raises(DataError, match="row 1, column 1"):
        read_matrix(path)


def test_read_matrix_negative_gate(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,-2\n3,4\n")
    with pytest.raises(DataError, match="row 1, column 2"):
        read_matrix(path)
    m = read_matrix(path, allow_negative=True)
    assert m[0, 1] == -2.0


def test_read_matrix_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_matrix(path)


def test_load_labels_roundtrip(tmp_path):
    y = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    path = tmp_path / "y.csv"
    save_labels(y, path)
    assert np.array_equal(load_labels(path), y)


def test_load_labels_rejects_multi_column(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1,2\n")
    with pytest.raises(DataError, match="single column"):
        load_labels(path)


def test_load_labels_rejects_non_integer(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1\n2.5\n")
    with pytest.raises(DataError, match="row 2"):
        load_labels(path)


def test_load_csv_labeled(tmp_path):
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    y = np.array([0, 1, 0], dtype=np.int64)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(x, xp)
    save_labels(y, yp)
    ds = load_csv(xp, yp)
    assert np.array_equal(ds.matrix, x)
    assert np.array_equal(ds.labels, y)


def test_load_csv_rejects_negative_data(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n-3,4\n")
    with pytest.raises(DataError, match="negative"):
        load_csv(path)


def test_labeled_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(matrix=np.array([[1.0, -1.0]]))
    with pytest.raises(DataError):
        LabeledDataset(matrix=np.ones((2, 3)), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(DataError):
        LabeledDataset(matrix=np.ones((2, 3)), labels=np.zeros((1, 3), dtype=np.int64))


def reference_read_matrix(path, allow_negative=False):
    # The cell-by-cell reader read_matrix replaced, kept verbatim as the oracle.
    rows = []
    width = -1
    with open(path, "r", encoding="utf-8") as fh:
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


def outcome(read, path, allow_negative):
    # (dtype, shape, bytes) of the array, or (type, message) of the exception
    try:
        m = read(path, allow_negative=allow_negative)
    except Exception as e:  # noqa: BLE001 - the type itself is compared
        return type(e), str(e)
    return m.dtype, m.shape, m.tobytes()


def assert_reads_like_reference(path):
    for allow_negative in (False, True):
        assert outcome(read_matrix, path, allow_negative) == outcome(
            reference_read_matrix, path, allow_negative
        )


FIXTURE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite_cells = st.floats(allow_nan=False, allow_infinity=False, width=64)


@FIXTURE_SETTINGS
@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(finite_cells, min_size=cols, max_size=cols), min_size=1, max_size=6)
    )
)
def test_read_matrix_equals_reference_on_save_csv_roundtrips(tmp_path, rows):
    m = np.array(rows, dtype=np.float64)
    path = tmp_path / "m.csv"
    save_csv(m, path)
    assert_reads_like_reference(path)
    if not np.any(m < 0):
        assert read_matrix(path).tobytes() == m.tobytes()


CELLS = st.one_of(
    st.sampled_from(
        ["0", "1", "2.5", "-0", "-3", "1e-300", "1e999", "inf", "-inf", "nan", "NaN",
         "1_0", "٣", "abc", "", " ", " 7 ", "\t8", "+4", "0x10", "1e", ".", " 5"]
    ),
    finite_cells.map(repr),
)
LINES = st.one_of(
    st.lists(CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t", "  \t ", "1,2,", ",", "1,,2"]),
)


@FIXTURE_SETTINGS
@given(st.lists(LINES, max_size=6), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_read_matrix_equals_reference_on_malformed_text(tmp_path, lines, newline, final_newline):
    text = newline.join(lines) + (newline if final_newline else "")
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", " \n\t\n", "1,2\n   \n3,4\n", "1_0,2\n", "٣,1\n", "1,2,\n", "1,2\n3\n",
     "1,inf\n", "nan,1\n", "1,-2\n", "﻿1,2\n", "1,2\r3,4\r", "1\n2\n3\n", "5"],
)
def test_read_matrix_equals_reference_on_edge_cases(tmp_path, text):
    # loadtxt warns on input without rows; read_matrix must not warn on any input
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_reads_like_reference(path)


def test_read_matrix_missing_path_error_unchanged(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(OSError) as expected:
        reference_read_matrix(path)
    with pytest.raises(OSError) as got:
        read_matrix(path)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_matrix_from_pipe(tmp_path):
    # a pipe cannot be rewound, so it is scanned cell by cell in one pass
    path = tmp_path / "m.csv"
    for text, expect in (("1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]), ("1,2\n3,x\n", "row 2, column 2")):
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if isinstance(expect, str):
                with pytest.raises(DataError, match=expect):
                    read_matrix(path)
            else:
                assert np.array_equal(read_matrix(path), expect)
        finally:
            writer.join(timeout=10)
            path.unlink()
        assert not writer.is_alive()


def savetxt_bytes(m, tmp_path):
    path = tmp_path / "ref.csv"
    np.savetxt(path, m, delimiter=",", fmt="%.17g")
    return path.read_bytes()


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0.0]]),
        np.array([[1.0]]),
        np.ones((3, 1)),
        np.zeros((1, 5)),
        (np.random.default_rng(0).random((7, 9)) < 0.3).astype(np.float64),
        np.array([[0.0, 1.0], [-0.0, 1.0]]),
        np.array([[0.0, 1.0], [0.5, 1.0]]),
        np.array([[0.0, 1.0, 2.0]]),
        np.random.default_rng(1).random((4, 6)) * 1e5,
    ],
    ids=["zero", "one", "ones-column", "zeros-row", "binary", "negative-zero", "half", "two", "dense"],
)
def test_save_csv_bytes_match_savetxt(tmp_path, m):
    path = tmp_path / "m.csv"
    save_csv(m, path)
    assert path.read_bytes() == savetxt_bytes(m, tmp_path)


def test_gz_name_is_plain_text_both_ways(tmp_path):
    # save_csv does not compress and read_matrix does not decompress
    for m in (np.eye(3), np.full((2, 2), 0.25)):
        path = tmp_path / "m.csv.gz"
        save_csv(m, path)
        assert path.read_bytes() == savetxt_bytes(m, tmp_path)
        assert np.array_equal(read_matrix(path), m)
