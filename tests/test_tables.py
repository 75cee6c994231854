"""The CSV wire format: field text and the float-matrix writer."""

import io

import numpy as np
import pytest

import passiveqkd as pq
from passiveqkd import tables


@pytest.mark.parametrize("value, text", [
    (True, "true"), (False, "false"), (np.True_, "true"), (np.False_, "false"),
    (np.int64(-3), "-3"), (7, "7"), ("x", "x"), (0.1, "0.10000000000000001"),
    (np.float32(0.5), "0.5"),
])
def test_format_value(value, text):
    assert tables.format_value(value) == text


def savetxt_reference(matrix):
    """The float-matrix body as ``np.savetxt`` writes it."""
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt="%.17g", delimiter=",", newline="\n")
    return buf.getvalue()


def test_float_matrix_matches_savetxt(tmp_path):
    """The matrix body is byte for byte what ``np.savetxt`` writes, for
    special values and for row counts at and around the block size."""
    block = tables._ROW_BLOCK
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-5, 1e16, 1e17,
                123456789012345678.0, 0.1]
    header = ["x1", "x2", "x3", "p1", "p2", "p3"]
    for n_rows in (1, block - 1, block, block + 1, 2 * block + 3):
        values = np.random.default_rng(n_rows).standard_normal(n_rows * 6)
        k = min(len(specials), values.size)
        values[:k] = specials[:k]
        values[-k:] = specials[::-1][:k]  # the last, shorter block too
        matrix = values.reshape(n_rows, 6)
        expected = ("# schema: passiveqkd/samples v1\nx1,x2,x3,p1,p2,p3\n"
                    + savetxt_reference(matrix))
        buf = io.StringIO()
        tables.write_table(buf, "samples", header, matrix)
        assert buf.getvalue() == expected, n_rows
        path = tmp_path / "m.csv"
        tables.write_table(path, "samples", header, matrix)
        assert path.read_bytes() == expected.encode("utf-8"), n_rows


READERS = pytest.mark.parametrize("read, label, header, row", [
    (pq.read_points_csv, "points CSV", b"n0,corr_mean,corr_std\n", b"100,0.5,0.01\n"),
    (pq.read_sample_csv, "sample CSV", b"x1,x2,x3,p1,p2,p3\n", b"1,2,3,4,5,6\n"),
], ids=["points", "samples"])


@READERS
def test_undecodable_file_is_a_parameter_error(tmp_path, read, label, header, row):
    """A byte that is not UTF-8, in the header's read-ahead or far past it,
    is a violation naming the table, not a UnicodeDecodeError."""
    path = tmp_path / "t.csv"
    bad = row.replace(b",", b"\xff,", 1)
    path.write_bytes(header + row + bad)
    with pytest.raises(pq.ParameterError, match=f"^{label} is not UTF-8 text: "):
        read(path)
    path.write_bytes(header + row * 10000 + bad)
    with pytest.raises(pq.ParameterError, match=f"^{label} has a malformed row: "):
        read(path)


@READERS
def test_repeated_header_column_is_a_parameter_error(tmp_path, read, label, header,
                                                     row):
    """A header naming a column twice is refused, whichever copy the
    reader would have picked."""
    first = header.split(b",")[0]
    path = tmp_path / "t.csv"
    path.write_bytes(header.rstrip(b"\n") + b"," + first + b"\n"
                     + row.rstrip(b"\n") + b",1\n")
    with pytest.raises(pq.ParameterError) as err:
        read(path)
    assert err.value.violations == [
        f"{label} header repeats column '{first.decode()}'"]
