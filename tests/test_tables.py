"""The CSV wire format: field text and the float-matrix writer."""

import io
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import passiveqkd as pq
from passiveqkd import tables

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
                123456789012345678.0, 0.1,
                # the edges of the exact kernel's domain, 1e-4 <= |v| < 1e8
                1e-4, np.nextafter(1e-4, 0), 9.99999999999999999e-5, 1e8,
                np.nextafter(1e8, 0)]
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


def percent_reference(matrix):
    """The float-matrix body as one ``FLOAT_FMT %`` per value writes it."""
    line = ",".join([tables.FLOAT_FMT] * matrix.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in matrix.tolist())


def matrix_body(matrix):
    buf = io.StringIO()
    tables.write_table(buf, "samples", ["c"] * matrix.shape[1], matrix)
    return buf.getvalue().split("\n", 2)[2]


def kernel_family(name, rng, columns):
    """Seeded values of one family, 12 000 of them unless stated."""
    n = 12000
    if name == "normal":
        return rng.normal(0.0, 30.0, n)
    if name == "log-uniform":
        return 10 ** rng.uniform(-7, 18, n) * rng.choice([-1.0, 1.0], n)
    if name == "ties":  # |v| * 1e16 ends in exactly .5 (checked below)
        return (rng.integers(2 ** 17, 2 ** 20, 5004) | 1) * 2.0 ** -17
    if name == "powers-of-ten":
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        near = np.concatenate([powers, np.nextafter(powers, 0),
                               np.nextafter(powers, np.inf)])
        return np.concatenate([near, -near])
    if name == "short-decimals":  # 17 digits that end in zeros, or integers
        return rng.integers(-10 ** 7, 10 ** 7, n) / 10.0 ** rng.integers(0, 9, n)
    if name == "fallback-in-the-middle":  # one block, its middle rows mixed
        values = rng.normal(0.0, 1.0, tables._ROW_BLOCK * columns)
        mid = tables._ROW_BLOCK // 2 * columns
        values[mid:mid + 6] = [-0.0, 1.25, np.nan, -np.inf, 5e-324, 3.0]
        return values
    raise ValueError(name)


@pytest.mark.parametrize("columns", [3, 6])
@pytest.mark.parametrize("family", ["normal", "log-uniform", "ties", "powers-of-ten",
                                    "short-decimals", "fallback-in-the-middle"])
def test_matrix_kernel_matches_percent(family, columns):
    """The matrix writer's text is ``FLOAT_FMT % value`` for seeded families
    inside and outside the exact kernel's domain, including exact ties."""
    values = kernel_family(family, np.random.default_rng(25), columns)
    if family == "ties":
        halves = {Decimal(v) * 10 ** 16 % 1 for v in values.tolist()}
        assert halves == {Decimal("0.5")}
    values = values[:len(values) // 6 * 6]
    if family != "fallback-in-the-middle":
        np.random.default_rng(columns).shuffle(values)
    matrix = values.reshape(-1, columns)
    got = matrix_body(matrix).split("\n")
    want = percent_reference(matrix).split("\n")
    assert len(got) == len(want)
    wrong = [(row, g, w) for row, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not wrong, wrong[:3]


def test_fallback_takes_only_rows_outside_the_kernel_domain(monkeypatch):
    """The seed-7 batch of the shipped photon-number scenario goes through
    ``%`` only for the rows holding a value outside 1e-4 <= |v| < 1e8."""
    scenario = pq.load_scenario(SCENARIOS / "correlation_vs_photon_number.json")
    batch = pq.simulate_batch(scenario.system_config(), scenario.run_spec(seed=7))
    magnitude = np.abs(np.column_stack(batch.columns()))
    outside = int(np.count_nonzero(
        ((magnitude < 1e-4) | (magnitude >= 1e8) | np.isnan(magnitude)).any(axis=1)))
    percent_rows = []
    percent_text = tables._percent_text

    def counting(rows):
        percent_rows.append(len(rows))
        return percent_text(rows)

    monkeypatch.setattr(tables, "_percent_text", counting)
    pq.write_sample_csv(io.StringIO(), batch)
    assert outside > 0
    assert sum(percent_rows) == outside


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
