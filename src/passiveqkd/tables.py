"""The CSV wire format of every table the package reads or writes.

A table is a ``# schema: <tag>`` line, a header row of column names,
then one record per row, with LF line ends. Floats carry 17 significant
digits, so they read back bit-identical. Readers skip blank and ``#``
lines wherever they appear.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np

from .errors import ParameterError

FLOAT_FMT = "%.17g"

# Rows the matrix writer formats per pass of its exact numpy kernel (see
# ``write_table``). On the simulate-io benchmark (500k trials, 2-core x86-64,
# numpy 2.4.6; one run per size, seven at 2048) peak RSS read 88.9 MB at
# 512 and 1024 rows, 88.8-89.0 at 2048, 91.2 at 4096 and 97.1 at 8192,
# against 88.0-88.2 MB for one ``%`` per float; wall_s was 1.6, 1.7,
# 1.5-2.2, 1.9 and 2.3 s.
_ROW_BLOCK = 2048

# The kernel's domain: every double with 1e-4 <= |v| < 1e8 has fixed-point
# ``%.17g`` text, with at most 8 integer and 20 fraction digits.
_LOW, _HIGH = 1e-4, 1e8

# Exact powers of ten, as doubles (to 1e22) and as int64 (to 1e18).
_P10 = np.array([float(10 ** k) for k in range(23)])
_I10 = 10 ** np.arange(19, dtype=np.int64)


def _veltkamp(a):
    """Split doubles into 26-bit halves: a = hi + lo, exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_P10_HI, _P10_LO = _veltkamp(_P10)


def _text_table():
    """Four-digit groups 0000-9999 as uint32 words of four ASCII bytes:
    zero-padded (offset 0), leading zeros as spaces (offset 10000) and
    trailing zeros as spaces (offset 20000; 0 is four spaces)."""
    n = np.arange(10000, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    table = np.empty((3, 10000, 4), np.uint8)
    table[:] = n // place % 10 + ord("0")
    table[1][(n < place) & (place > 1)] = ord(" ")
    table[2][n % (10 * place) == 0] = ord(" ")
    return table.view(np.uint32).ravel()


# Built at import from int16 arrays under 128 kB, so that building it leaves
# only the table on the heap and does not raise glibc's mmap threshold; a table
# first built inside a large write would lie amid the writer's freed heap.
_TEXT = _text_table()
_ZPAD, _LEAD, _TRAIL = 0, 10000, 20000
_BLANK, _MINUS, _DOT, _COMMA, _NEWLINE = np.frombuffer(b"       -   .,   \n   ",
                                                       np.uint32)

SCHEMAS = {
    "samples": "passiveqkd/samples v1",
    "moments": "passiveqkd/moments v1",
    "sweep-n0": "passiveqkd/sweep-n0 v1",
    "sweep-attenuation": "passiveqkd/sweep-attenuation v1",
    "fit-report": "passiveqkd/fit-report v1",
    "keyrate": "passiveqkd/keyrate v1",
    "keyrate-points": "passiveqkd/keyrate-points v1",
}


def format_value(value):
    """One field's text: lowercase booleans, exact integers, 17-digit floats."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


@contextlib.contextmanager
def _opened(file_or_path, mode):
    """Yield the caller's open text file, or open the path for the block."""
    if hasattr(file_or_path, "read" if mode == "r" else "write"):
        yield file_or_path
    else:
        with open(file_or_path, mode, encoding="utf-8",
                  newline=None if mode == "r" else "\n") as f:
            yield f


def write_table(file_or_path, kind, header, rows, summary=()):
    """Write a table of schema ``kind``.

    ``rows`` is a float matrix or row tuples. A matrix is written in blocks
    of ``_ROW_BLOCK`` rows by a numpy kernel that gives the same bytes as
    ``np.savetxt(fmt=FLOAT_FMT, delimiter=",")``, without a ``%`` per float.
    The kernel forms each value's 17 significant digits exactly: Dekker's
    product of |v| and a power of ten, rounded half-even by ``np.rint``,
    the rounding of CPython's own ``%.17g``. It covers 1e-4 <= |v| < 1e8,
    where ``%.17g`` prints fixed-point digits; a row holding any other value
    (0, -0, nan, inf, subnormals, smaller or larger magnitudes) is written
    by ``%`` instead. (name, value) pairs in ``summary`` go on a trailing
    ``#`` line.
    """
    with _opened(file_or_path, "w") as f:
        f.write(f"# schema: {SCHEMAS[kind]}\n")
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), _ROW_BLOCK):
                _write_block(f, rows[start:start + _ROW_BLOCK])
        else:
            for row in rows:
                f.write(",".join(format_value(v) for v in row) + "\n")
        if summary:
            f.write("# " + " ".join(f"{k}={format_value(v)}" for k, v in summary) + "\n")


def _write_block(f, block):
    """Write a block of matrix rows: runs of rows inside the kernel's domain
    through ``_exact_text``, the other runs through ``_percent_text``."""
    block = np.asarray(block, dtype=np.float64)
    magnitude = np.abs(block)
    inside = ((magnitude >= _LOW) & (magnitude < _HIGH)).all(axis=1)
    edges = [0, *(np.flatnonzero(inside[1:] != inside[:-1]) + 1), len(block)]
    for start, stop in zip(edges[:-1], edges[1:]):
        run = block[start:stop]
        f.write(_exact_text(run) if inside[start] else _percent_text(run))


def _percent_text(rows):
    """``%.17g`` text of matrix rows, one ``%`` for the whole run."""
    line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
    return line * len(rows) % tuple(rows.ravel().tolist())


def _digits(a, x):
    """|v| * 10**(16 - x) rounded half-even to an integer, exactly.

    Dekker's product gives the exact p + e (10**s is an exact double for
    s <= 22); p >= 2**53 is an even integer, so ``rint(e)``'s ties-to-even
    is the half-even rounding of the sum.
    """
    s = 16 - x
    p = a * _P10[s]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _P10_HI[s], _P10_LO[s]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _split4(n):
    """The two 4-digit halves of integers below 10**8."""
    hi = n // 10000
    return hi, n - hi * 10000


def _exact_text(rows):
    """``%.17g`` text of matrix rows whose values all lie in the kernel's
    domain, byte for byte.

    With x = floor(log10|v|), the 17 significant digits are D = |v| *
    10**(16 - x) rounded half-even to an integer (``_digits``), as
    CPython's dtoa rounds them. Each value is then ten uint32 words of
    text: sign, two integer groups, dot, five fraction groups and
    separator, padded with spaces that one ``bytes.translate`` deletes.
    """
    values = rows.ravel()
    a = np.abs(values)
    x = np.floor(np.log10(a)).astype(np.int64)
    d = _digits(a, x)
    # Next to a power of ten log10 may miss floor(log10|v|) by one, and d
    # then falls outside [1e16, 1e17): one pass at the neighbouring exponent
    # mends it. d never rounds up to 1e17 at the right exponent, because the
    # largest double below each power of ten in the domain is at least 8
    # units of the 17th digit below it.
    shift = (d >= _I10[17]).astype(np.int64) - (d < _I10[16])
    fix = np.flatnonzero(shift)
    if fix.size:
        x[fix] += shift[fix]
        d[fix] = _digits(a[fix], x[fix])

    # Integer part and 20 fraction digits, as 4-digit groups. numpy divides
    # by a scalar far faster than it takes a remainder.
    s = 16 - x
    unit = _I10[np.minimum(s, 18)]  # d < 10**17
    whole = d // unit
    frac = d - whole * unit
    unit = _I10[s - 8]
    frac_hi = frac // unit  # fraction digits 1-8
    frac_lo = (frac - frac_hi * unit) * _I10[20 - s]  # fraction digits 9-20
    int_hi, int_lo = _split4(whole)
    mid = frac_lo // _I10[8]
    groups = [*_split4(frac_hi), mid, *_split4(frac_lo - mid * _I10[8])]
    no_hi = (int_hi == 0) * 10000

    words = np.empty((values.size, 10), np.uint32)
    words[:, 0] = np.where(values < 0, _MINUS, _BLANK)
    # int_hi with leading spaces (0 reads _TRAIL's blank), then int_lo
    # zero-padded after it, or with leading spaces alone.
    words[:, 1] = _TEXT[int_hi + _LEAD + no_hi]
    words[:, 2] = _TEXT[int_lo + no_hi]
    words[:, 3] = np.where(frac > 0, _DOT, _BLANK)
    # A fraction group keeps its trailing zeros only before a nonzero group.
    later = np.zeros(values.size, bool)
    for j in range(4, -1, -1):
        words[:, 4 + j] = _TEXT[groups[j] + np.where(later, _ZPAD, _TRAIL)]
        later |= groups[j] > 0
    words.reshape(len(rows), -1, 10)[:, :, 9] = _COMMA
    words.reshape(len(rows), -1, 10)[:, -1, 9] = _NEWLINE
    return words.tobytes().translate(None, b" ").decode("ascii")


def read_table(file_or_path, label, pick):
    """Parse the columns ``pick(header names)`` returns into float arrays.

    Returns {name: array} in ``pick``'s order, each a column view of the
    one parsed (rows, columns) matrix. Rows wider than the header
    are rejected when every column is picked. Malformed input raises
    ``ParameterError`` naming the table by ``label``.
    """
    with _opened(file_or_path, "r") as f:
        skip = 0
        try:
            for line in f:
                skip += 1
                line = line.strip()
                if line and not line.startswith("#"):
                    break
            else:
                raise ParameterError([f"{label} contains no header row"])
        except UnicodeDecodeError as exc:
            raise ParameterError([f"{label} is not UTF-8 text: {exc}"]) from None
        names = [c.strip() for c in line.split(",")]
        repeated = [c for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise ParameterError([f"{label} header repeats column '{repeated[0]}'"])
        wanted = pick(names)
        usecols = None if wanted == names else [names.index(c) for c in wanted]
        # numpy streams a path in C, but reads an open file line by line.
        body, skip = (f, 0) if f is file_or_path else (file_or_path, skip)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: raised below
                data = np.loadtxt(body, delimiter=",", skiprows=skip, usecols=usecols,
                                  ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise ParameterError([f"{label} has a malformed row: {exc}"]) from None
    if data.shape[0] == 0:
        raise ParameterError([f"{label} contains no data rows"])
    if data.shape[1] != len(wanted):
        raise ParameterError(
            [f"{label} rows have {data.shape[1]} fields, header names {len(names)}"])
    return {name: data[:, i] for i, name in enumerate(wanted)}
