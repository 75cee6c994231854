"""The CSV wire format of every table the package reads or writes.

A table is a ``# schema: <tag>`` line, a header row of column names,
then one record per row, with LF line ends. Floats carry 17 significant
digits, so they read back bit-identical: the reader certifies every value
it parses itself as the correctly rounded double of its text, and leaves
the rest to ``np.loadtxt``. Readers skip blank and ``#`` lines wherever
they appear.
"""

from __future__ import annotations

import contextlib
import io
import itertools
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

# Bytes of whole lines the reader's kernel parses per pass (see
# ``read_table``).
_CHUNK = 1 << 18
# Bytes before a chunk in the reader's buffer: the lowest fraction word of
# a field starts 24 bytes before its separator.
_PAD = 24
_LF, _COMMA_CHAR, _MINUS_CHAR, _DOT_CHAR, _ZERO_CHAR = b"\n,-.0"
_U = np.uint64
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0'
_EXPONENT, _MANTISSA = _U(0x7FF0000000000000), _U(0x000FFFFFFFFFFFFF)
# The low j bytes of a word, j = 0-8.
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], np.uint64)
# _DIGIT_BYTES[m][c]: the bytes that hold digits in the word that ends 8m
# bytes before the end of c digits (c = 0-21).
_DIGIT_BYTES = ~_LOW_BYTES[[[8 - min(max(c - 8 * m, 0), 8) for c in range(22)]
                            for m in range(3)]]
# 10**c modulo 2**64, and the bound on the integer digits that leaves at
# most 17 significant digits with c fraction digits.
_U10 = np.array([10 ** c % 2 ** 64 for c in range(22)], np.uint64)
_WHOLE_LIMIT = np.array([10 ** max(17 - c, 0) for c in range(22)], np.uint64)

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
    """Yield the caller's open text file, or open the path for the block.
    A path read keeps its line ends, so that ``read_table`` can count the
    bytes up to the header."""
    if hasattr(file_or_path, "read" if mode == "r" else "write"):
        yield file_or_path
    else:
        with open(file_or_path, mode, encoding="utf-8",
                  newline="" if mode == "r" else "\n") as f:
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


def _times_p10(a, s):
    """Dekker's exact product a * 10**s = p + e: p is the rounded product
    and e its error, exactly (10**s is an exact double for s <= 22)."""
    p = a * _P10[s]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _P10_HI[s], _P10_LO[s]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits(a, x):
    """|v| * 10**(16 - x) rounded half-even to an integer, exactly.

    p >= 2**53 in ``_times_p10``'s p + e is an even integer, so
    ``rint(e)``'s ties-to-even is the half-even rounding of the sum.
    """
    p, e = _times_p10(a, 16 - x)
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

    The rows after the header, from a path or from the rest of an open
    text file, are parsed as UTF-8 bytes in chunks of about ``_CHUNK``
    bytes of whole lines by a numpy kernel (``_parse_lines``) into a
    matrix sized from a newline count. It reads fields written as
    ``[-]digits.digits`` with at most 17 significant digits and certifies
    each double: D / 10**f, with D the digits as an integer, is one
    correctly rounded division when D <= 2**53 (Clinger's fast path), and
    above 2**53 the exact residual y * 10**f - D (``_times_p10``) moves y
    by the whole ulps that make it correctly rounded. A row holding a
    field the kernel refuses (exponents, no dot, nan, inf, spaces, CR,
    over 17 digits, a residual too close to a tie) is parsed by ``np.loadtxt``
    from those lines alone; a chunk with blank or ``#`` lines or another
    field count by ``np.loadtxt`` whole. Any ``ValueError`` on the way
    reruns ``np.loadtxt`` over the whole table, so errors and results are
    those of ``np.loadtxt``.
    """
    with _opened(file_or_path, "r") as f:
        skip = offset = 0
        try:
            for line in f:
                skip += 1
                offset += len(line.encode("utf-8"))
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
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: raised below
                if f is file_or_path:
                    # Read in pieces: one read would hold the text twice.
                    pieces = list(iter(lambda: f.read(_CHUNK), ""))
                    n_lines, skip = sum(piece.count("\n") for piece in pieces), 0
                    # Lone surrogates pass as bytes that the kernel refuses.
                    chunks = (piece.encode("utf-8", "surrogatepass") for piece in pieces)
                else:
                    body = f.buffer  # the rows are the bytes from offset on
                    body.seek(offset)
                    n_lines = sum(int(np.count_nonzero(np.frombuffer(b, np.uint8) == _LF))
                                  for b in iter(lambda: body.read(1 << 20), b""))
                    body.seek(offset)
                    chunks = iter(lambda: body.read(_CHUNK), b"")
                try:
                    data = _read_matrix(chunks, n_lines, len(names), usecols)
                except ValueError:
                    whole = file_or_path
                    if f is file_or_path:
                        whole = io.StringIO("".join(pieces))
                    data = np.loadtxt(whole, delimiter=",", skiprows=skip,
                                      usecols=usecols, ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise ParameterError([f"{label} has a malformed row: {exc}"]) from None
    if data.shape[0] == 0:
        raise ParameterError([f"{label} contains no data rows"])
    if data.shape[1] != len(wanted):
        raise ParameterError(
            [f"{label} rows have {data.shape[1]} fields, header names {len(names)}"])
    return {name: data[:, i] for i, name in enumerate(wanted)}


def _read_matrix(chunks, n_lines, k, usecols):
    """The float matrix of the lines of k fields in the byte strings
    ``chunks``, ``n_lines`` of which end in a newline; ``usecols`` picks
    columns as in ``np.loadtxt``. The chunks pass in whole lines through
    one padded word buffer, which grows when a line outgrows it.
    """
    out = np.empty((n_lines + 1, k if usecols is None else len(usecols)))
    words = np.zeros((_PAD + 2 * _CHUNK) // 8 + 2, np.uint64)
    rows, end = 0, _PAD
    for chunk in itertools.chain(chunks, [b""]):
        size = end + len(chunk) + 16  # the last aligned load and a final newline
        if size > words.nbytes:
            words = np.concatenate((words, np.zeros(size // 8, np.uint64)))
        buf = words.view(np.uint8)
        buf[end:end + len(chunk)] = np.frombuffer(chunk, np.uint8)
        end += len(chunk)
        if not chunk and end > _PAD and buf[end - 1] != _LF:  # no newline at the end
            buf[end] = _LF
            end += 1
        parsed, stop = _parse_lines(words, end, k, usecols, out[rows:])
        rows += parsed
        buf[_PAD:_PAD + end - stop] = buf[stop:end]
        end += _PAD - stop
    return out[:rows]


def _parse_lines(words, end, k, usecols, out):
    """Parse the whole lines in bytes ``_PAD:end`` of ``words`` into the
    first rows of ``out``; returns the number of rows and the offset after
    the last newline.

    One scan finds the bytes below '0' other than '-': in a line of k
    fields ``[-]digits.digits`` they alternate dot and separator, 2k of
    them. Lines that break this pattern, and lines holding a field the
    kernel refuses, are parsed by ``np.loadtxt`` from those lines alone.
    """
    buf = words.view(np.uint8)
    text = buf[_PAD:end]
    special = np.flatnonzero((text < _ZERO_CHAR) & (text != _MINUS_CHAR)) + _PAD
    kind = buf[special]
    newline = np.flatnonzero(kind == _LF)
    if not newline.size:
        return 0, _PAD
    line_end = special[newline]
    line_start = np.concatenate(([_PAD], line_end[:-1] + 1))
    stop = line_end[-1] + 1
    per_line = np.diff(newline, prepend=-1)
    special, kind = special[:newline[-1] + 1], kind[:newline[-1] + 1]
    good = per_line == 2 * k
    separators = np.full(k, _COMMA_CHAR, np.uint8)
    separators[-1] = _LF
    while True:  # at most twice: lines with their 2k specials out of order go too
        fields = slice(None) if good.all() else np.repeat(good, per_line)
        dot, sep = kind[fields].reshape(-1, 2).T
        fits = (dot == _DOT_CHAR) & (sep.reshape(-1, k) == separators).ravel()
        if fits.all():
            break
        good[np.flatnonzero(good)[np.flatnonzero(~fits) // k]] = False
    dots, seps = np.ascontiguousarray(special[fields].reshape(-1, 2).T)
    starts = np.empty_like(seps)
    starts[1:] = seps[:-1] + 1
    starts[::k] = line_start[good]
    values, certified = _decimal_fields(words, starts, dots, seps)
    values = values.reshape(-1, k)
    if usecols is not None:
        values = values[:, usecols]
    rows = np.flatnonzero(good)
    good[rows[np.flatnonzero(~certified) // k]] = False
    if good.all():
        out[:rows.size] = values
        return rows.size, stop
    others = np.flatnonzero(~good)
    lines = buf[_PAD:stop][np.repeat(~good, line_end - line_start + 1)].tobytes()
    parsed = np.loadtxt(io.StringIO(lines.decode("utf-8")), delimiter=",",
                        usecols=usecols, ndmin=2)
    if parsed.shape == (others.size, values.shape[1]):
        out[rows] = values
        out[others] = parsed
        return good.size, stop
    # Blank or comment lines, or rows of another width: the chunk as a whole.
    parsed = np.loadtxt(io.StringIO(buf[_PAD:stop].tobytes().decode("utf-8")),
                        delimiter=",", usecols=usecols, ndmin=2)
    if parsed.shape[0] and parsed.shape[1] != values.shape[1]:
        raise ValueError(f"rows of {parsed.shape[1]} fields")
    out[:parsed.shape[0]] = parsed
    return parsed.shape[0], stop


def _decimal_fields(words, starts, dots, seps):
    """The doubles of the fields ``[-]digits.digits`` that start at
    ``starts``, with their dots at ``dots`` and separators at ``seps``, and
    a mask of those the kernel certifies.

    The integer digits are in the 8-byte word that ends at the dot, and the
    f fraction digits in the three that end at the separator. XOR with '0'
    turns digits into their values, and the bytes before the digits are
    cleared; a SWAR test finds any byte above 9, and fast_float's combine
    (Lemire, Softw. Pract. Exp. 51, 1700 (2021)) reads each word.

    D = whole * 10**f + fraction is exact for at most 17 significant
    digits, and y = D / 10**f is correctly rounded for D <= 2**53
    (Clinger's fast path). Above it, t = (y * 10**f - D) / (10**f * ulp(y)),
    from Dekker's exact product, is how many ulps y lies above D / 10**f,
    and y - rint(t) ulps is correctly rounded. A value is refused when t
    lies within 1e-6 of a tie, when y is a power of two with D / 10**f
    below it (the ulp below is half), or when the step is over 2 ulps.
    """
    buf = words.view(np.uint8)
    neg = buf[starts] == _MINUS_CHAR
    n_int = np.minimum(dots - starts - neg, 9)
    n_frac = np.minimum(seps - dots - 1, 21)
    certified = (n_int > 0) & (n_int < 9) & (n_frac > 0) & (n_frac < 21)
    nondigit = _U(0)
    numbers = []
    for word, m, n in zip([*_words(words, dots, 1), *_words(words, seps, 3)],
                          (0, 2, 1, 0), (n_int, n_frac, n_frac, n_frac)):
        value = (word ^ _ZEROS) & _DIGIT_BYTES[m][n]
        nondigit = nondigit | value | (value + _U(0x7676767676767676))
        numbers.append(_eight_digits(value))
    whole, hi, mid, lo = numbers
    d = whole * _U10[n_frac] + hi * _U(10 ** 16) + mid * _U(10 ** 8) + lo
    # A byte above 9 sets its high bit. At most 17 significant digits:
    # whole * 10**f < 10**17, and the highest fraction word below 10.
    certified &= (nondigit & _U(0x8080808080808080)) == _U(0)
    certified &= (whole < _WHOLE_LIMIT[n_frac]) & (hi < _U(10)) & (d != _U(0))
    d *= certified
    d |= ~certified  # refused fields read 1, which keeps the arithmetic finite
    p10 = _P10[n_frac]
    y = d.astype(np.float64) / p10
    p, e = _times_p10(y, n_frac)
    residual = (p.astype(np.int64) - d.view(np.int64)).astype(np.float64) + e
    bits = y.view(np.uint64)
    ulp = (bits & _EXPONENT).view(np.float64) * 2.0 ** -52
    t = residual / (p10 * ulp)
    step = np.rint(t)
    above = d > _U(2 ** 53)
    stepped = bits - (step * above).astype(np.int64).view(np.uint64)
    refused = ((np.abs(t - step) > 0.5 - 1e-6) | (np.abs(step) > 2)
               | (((bits & _MANTISSA) == _U(0)) & (t > 0)))
    certified &= ~(refused & above)
    stepped |= neg.astype(np.uint64) << _U(63)
    return stepped.view(np.float64), certified


def _words(words, end, count):
    """The ``count`` 8-byte words that end at byte offsets ``end``, the
    lowest first, from aligned loads shifted into place."""
    first = end - 8 * count
    i = first >> 3
    right = (first & 7).astype(np.uint64) << _U(3)
    left = _U(56) - right
    aligned = [words[i + j] for j in range(count + 1)]
    return [(a >> right) | ((b << left) << _U(8)) for a, b in zip(aligned, aligned[1:])]


def _eight_digits(value):
    """The number that eight digit values spell, one a byte, the first in
    the low byte (fast_float's SWAR combine)."""
    value = value * _U(10) + (value >> _U(8))
    low = _U(0x000000FF000000FF)
    return ((value & low) * _U(0x000F424000000064)
            + ((value >> _U(16)) & low) * _U(0x0000271000000001)) >> _U(32)
