"""The CSV wire format: field text, the float-matrix writer and the reader."""

import io
import re
import warnings
from decimal import Decimal
from fractions import Fraction
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


# --- the reader's kernel --------------------------------------------------

def near_ties(rng, n):
    """n 17-digit decimals in [8, 10) within 1e-6 ulp of a midpoint M / 2**50
    between doubles: N * 2**34 - M * 5**16 = r for a small odd r puts
    N / 10**16 |r| * 2**15 / 10**16 ulps from it."""
    texts = []
    for r in range(1 - n, n, 2):
        m0 = -r * pow(5 ** 16, -1, 2 ** 34) % 2 ** 34  # odd, as r is
        lo = -(-(8 * 10 ** 16 * 2 ** 34 - r) // 5 ** 16 - m0) // 2 ** 34
        hi = ((10 ** 17 * 2 ** 34 - r) // 5 ** 16 - m0) // 2 ** 34
        m = m0 + int(rng.integers(lo, hi)) * 2 ** 34
        texts.append("%d.%016d" % divmod((r + m * 5 ** 16) // 2 ** 34, 10 ** 16))
    return texts


def truncated_midpoints(rng, n):
    """Midpoints between neighbouring doubles in the kernel's domain,
    truncated to 18, 20 and 25 significant digits."""
    texts = []
    for v in 10 ** rng.uniform(-4, 8, n):
        mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
        digits = format(mid, ".30f")
        lead = len(digits) - len(digits.lstrip("0."))
        for keep in (18, 20, 25):
            texts.append(digits[:lead + keep + ("." in digits[lead:lead + keep])])
    return texts


def reader_family(name, rng):
    """Field texts of one seeded family, and the share of them the kernel
    must leave to ``np.loadtxt`` (None: any share)."""
    n = 6000
    sign = rng.choice([-1.0, 1.0], n)
    log_uniform = 10 ** rng.uniform(-4, 8, n) * sign
    if name in ("%.17g", "%.16g", "%.15g"):
        return [name % v for v in log_uniform], 0.0
    if name == "bits":  # random bit patterns of doubles in the domain
        low, high = np.array([1e-4, 1e8]).view(np.int64)
        bits = rng.integers(low, high, n).view(np.float64) * sign
        return ["%.17g" % v for v in bits], 0.0
    if name == "decimals":  # up to 17 digits, any dot, some leading zeros
        texts = []
        for size, zeros, neg in zip(rng.integers(2, 18, n), rng.integers(0, 4, n),
                                    sign < 0):
            digits = "".join(map(str, rng.integers(0, 10, size)))
            dot = int(rng.integers(1, size))
            whole, frac = digits[:dot].lstrip("0") or "0", digits[dot:]
            if whole == "0":
                frac = "0" * zeros + frac
            texts.append("-" * int(neg) + whole + "." + frac)
        return texts, None
    if name == "powers-of-two":  # 80 neighbours of each 2**k in the domain
        near = (2.0 ** np.arange(-13, 27)).view(np.int64)[:, None] + np.arange(-40, 41)
        values = near.ravel().view(np.float64)
        values = values[(values >= 1e-4) & (values < 1e8)]
        return [t for v in np.concatenate([values, -values]) for t in ["%.17g" % v]
                if "e" not in t], 0.02
    if name == "near-ties":
        return near_ties(rng, 400), 1.0
    if name == "truncated-midpoints":
        return truncated_midpoints(rng, 700), 1.0
    raise ValueError(name)


def spy_on_loadtxt(monkeypatch):
    """Record the lines every ``np.loadtxt`` call on a text stream reads."""
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        if isinstance(fname, io.StringIO):
            seen.append(fname.getvalue())
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return seen


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("family", [
    "%.17g", "bits", "%.16g", "%.15g", "decimals", "powers-of-two", "near-ties",
    "truncated-midpoints"])
def test_reader_kernel_matches_float(tmp_path, monkeypatch, family):
    """Every value read is ``float(text)`` bit for bit, the same as the
    ``np.loadtxt`` path, and the kernel leaves to ``np.loadtxt`` exactly
    what it cannot certify: near-ties and over 17 digits, but no ``%.17g``,
    ``%.16g`` or ``%.15g`` text of a double in its domain."""
    texts, refused_share = reader_family(family, np.random.default_rng(26))
    if family == "near-ties":  # each within 1e-6 ulp of a midpoint, checked exactly
        for text in texts:
            v = float(text)
            gap = min(abs(Fraction(text) - (Fraction(v) + Fraction(float(w))) / 2)
                      for w in (np.nextafter(v, np.inf), np.nextafter(v, 0)))
            assert gap < Fraction(v) * 2 ** -52 * Fraction(1, 10 ** 6), text
    if family == "truncated-midpoints":
        assert min(len(t.replace(".", "").lstrip("0")) for t in texts) == 18
    body = "v\n" + "\n".join(texts) + "\n"
    path = tmp_path / "t.csv"
    path.write_text(body, encoding="utf-8")
    want = np.array([float(t) for t in texts])
    reference = np.loadtxt(path, skiprows=1, ndmin=2)[:, 0]
    assert np.array_equal(bits(reference), bits(want))
    seen = spy_on_loadtxt(monkeypatch)
    for source in (path, io.StringIO(body)):
        seen.clear()
        got = tables.read_table(source, "t", lambda names: names)["v"]
        assert np.array_equal(bits(got), bits(want))
        refused = sum(chunk.count("\n") for chunk in seen) / len(texts)
        if refused_share == 1.0:
            assert refused == 1.0
        elif refused_share is not None:
            assert refused <= refused_share, refused


def sample_text(columns, rows, seed):
    """A sample CSV of ``rows`` seeded normal rows of ``columns`` columns."""
    names = ["x1", "x2", "x3", "x4", "p1", "p2", "p3", "p4"]
    if columns == 6:
        names = [c for c in names if not c.endswith("4")]
    buf = io.StringIO()
    tables.write_table(buf, "samples", names,
                       np.random.default_rng(seed).normal(0.0, 20.0, (rows, columns)))
    return buf.getvalue()


def read_both(tmp_path, text):
    """``read_sample_csv`` of the text as a path and as an open file, both
    as one (rows, columns) matrix; they must agree bit for bit."""
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    got = [np.column_stack(pq.read_sample_csv(source).columns())
           for source in (path, io.StringIO(text, newline=""))]
    assert np.array_equal(bits(got[0]), bits(got[1]))
    return got[0]


@pytest.mark.parametrize("field", [
    "0", "-0", "0.0", "-0.0", "nan", "inf", "-inf", "1e-05", "1.5e-05", "3", "+1.5",
    " 1.5", "1.5 ", "123456789.5", "1.234567890123456789", ".5", "5."])
def test_reader_refused_fields_take_their_rows_alone(tmp_path, monkeypatch, field):
    """A field the kernel refuses sends its row, and only that row, to
    ``np.loadtxt``; the table reads as ``np.loadtxt`` reads it whole."""
    lines = sample_text(8, 40, 1).split("\n")
    cells = lines[22].split(",")
    cells[3] = field
    lines[22] = ",".join(cells)
    text = "\n".join(lines)
    want = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=2, ndmin=2)
    seen = spy_on_loadtxt(monkeypatch)
    got = read_both(tmp_path, text)
    assert np.array_equal(bits(got), bits(want))
    assert seen == [lines[22] + "\n"] * 2


@pytest.mark.parametrize("edit", ["crlf", "blank-line", "comment-line",
                                  "no-last-newline", "comment-after-rows", "long-line"])
@pytest.mark.parametrize("chunk", [64, 1 << 18])
def test_reader_line_structure_matches_loadtxt(tmp_path, monkeypatch, edit, chunk):
    """CRLF line ends, blank and ``#`` lines amid the rows, a last line
    without a newline and a line longer than many chunks read as
    ``np.loadtxt`` reads the whole table."""
    monkeypatch.setattr(tables, "_CHUNK", chunk)
    text = sample_text(6, 60, 2)
    lines = text.split("\n")
    if edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "blank-line":
        text = "\n".join(lines[:30] + ["", ""] + lines[30:])
    elif edit == "comment-line":
        text = "\n".join(lines[:30] + ["# a note"] + lines[30:])
    elif edit == "no-last-newline":
        text = text.rstrip("\n")
    elif edit == "long-line":
        lines[30] = "1." + "3" * 1000 + lines[30][lines[30].index(","):]
        text = "\n".join(lines)
    else:
        text += "# n=60\n"
    want = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", skiprows=2, ndmin=2)
    assert want.shape == (60, 6)
    seen = spy_on_loadtxt(monkeypatch)
    assert np.array_equal(bits(read_both(tmp_path, text)), bits(want))
    if edit == "long-line":  # the kernel's buffer grows to hold it
        assert seen == [lines[30] + "\n"] * 2


@pytest.mark.parametrize("columns", [6, 8])
def test_reader_rows_across_chunk_edges(tmp_path, monkeypatch, columns):
    """With 64-byte chunks every row straddles a chunk edge; the kernel
    alone reads both layouts back bit for bit, as column views."""
    text = sample_text(columns, 300, columns)
    want = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=2)
    monkeypatch.setattr(tables, "_CHUNK", 64)
    seen = spy_on_loadtxt(monkeypatch)
    got = read_both(tmp_path, text)
    assert seen == []
    assert np.array_equal(bits(got), bits(want))
    back = pq.read_sample_csv(io.StringIO(text))
    assert np.may_share_memory(back.x1, back.columns()[-1])


@pytest.mark.parametrize("chunk", [64, 1 << 18])
@pytest.mark.parametrize("row, where", [
    ("1,2,3", 5), ("1,2,3", 250), ("1.5,2.5,3.5,four,5.5,6.5", 250),
    ("1.5,2.5,3.5,4.5,5.5,6.5,7.5", 250), ("1.5,2.5,3.5,4.5,5.5,6.5,7.5", None),
    ("1.5,2.5,3.5,4.5,5.5", None)])
def test_reader_errors_are_those_of_loadtxt(monkeypatch, chunk, row, where):
    """Short, non-numeric and too-wide rows, early, late or on every line,
    raise the ``ParameterError`` the whole-table ``np.loadtxt`` gives."""
    monkeypatch.setattr(tables, "_CHUNK", chunk)
    lines = sample_text(6, 300, 3).split("\n")
    if where is None:
        lines[2:-1] = [row] * 300
    else:
        lines.insert(where, row)
    text = "\n".join(lines)
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=2, ndmin=2)
        expected = f"sample CSV rows have {data.shape[1]} fields, header names 6"
    except ValueError as exc:
        expected = f"sample CSV has a malformed row: {exc}"
    with pytest.raises(pq.ParameterError) as err:
        pq.read_sample_csv(io.StringIO(text))
    assert err.value.violations == [expected]


def test_reader_kernel_raises_no_warning(tmp_path):
    """The worst fields numpy arithmetic can meet in the kernel (huge digit
    runs, zeros, bare dots, the largest doubles, non-digits) raise no
    warning on their way to ``np.loadtxt``."""
    worst = ["99999999999999999999.99999999999999999999", "0.000000000000000000000001",
             "-0.0", "0.0", "-.", ".", "-", "1.7976931348623157e308", "5e-324",
             "123456789012345678901234567890.5", "9.9999999999999999999999", "1.5x",
             "-99999999.99999999999", "0.00000000000000000009",
             "18446744073709551615.5",
             "1..5", "--1.5", "1.-5", "é.5"]
    body = "v\n" + "\n".join(worst) + "\n"
    path = tmp_path / "w.csv"
    path.write_text(body, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pq.ParameterError, match="^w has a malformed row: "):
            tables.read_table(path, "w", lambda names: names)
        good = [w for w in worst if re.fullmatch(r"-?[0-9]+\.[0-9]+", w)]
        got = tables.read_table(io.StringIO("v\n" + "\n".join(good) + "\n"), "w",
                                lambda names: names)["v"]
    assert np.array_equal(bits(got), bits([float(w) for w in good]))
