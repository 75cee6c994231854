"""The CSV wire format of every table the package reads or writes.

A table is a ``# schema: <tag>`` line, a header row of column names,
then one record per row, with LF line ends. Floats carry 17 significant
digits, so they read back bit-identical: the reader certifies every value
it parses itself as the correctly rounded double of its text, and leaves
the rest to ``np.loadtxt``, which reads a stream that cannot seek, or a
table with blank or ``#`` lines amid its rows, whole. Readers skip blank
and ``#`` lines wherever they appear.

The float-matrix writer and the reader run their blocks on a thread pool
of a fixed ``_WORKERS`` threads through ``ordered_map``. Each block's text
or values depend on that block alone and are taken in order, so every
byte written and every value read is the same for any worker count.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import threading
import warnings
from functools import partial

import numpy as np

from .errors import ParameterError

FLOAT_FMT = "%.17g"

# Threads of the package's one pool (see ``ordered_map``): the usable CPUs,
# at most 4. Derived at import and not settable; no result depends on it.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Marks the threads of a pool (see ``mark_pool_thread``).
_POOL_THREAD = threading.local()

# Rows the matrix writer formats per block of its exact numpy kernel, one
# block a pool job (see ``write_table``); up to 2 * ``_WORKERS`` blocks and
# their text are held at once. On the simulate-io benchmark (500k trials,
# 2-core x86-64) 4096 rows read wall_s 6% lower than 2048 (median of 9
# pairs, faster in 8) for 3-4% more peak RSS.
_ROW_BLOCK = 4096

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

# Bytes the reader takes from a file per read; each read, cut at its last
# newline, gives one piece of whole lines that its kernel parses as a pool
# job (see ``read_table``). On the simulate-io benchmark (2-core x86-64)
# 256 kB pieces read wall_s 0.99-1.01 s against 0.86-0.90 s at 512 kB; a
# running piece's temporaries grow with its size.
_CHUNK = 1 << 19
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
    if type(value) is float:  # the common field, ahead of the abstract checks
        return FLOAT_FMT % value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


def mark_pool_thread():
    """Mark the calling thread as a pool's: ``ordered_map`` maps in it."""
    _POOL_THREAD.active = True


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each of ``items``, in order, computed on
    ``_WORKERS`` threads with at most 2 * ``_WORKERS`` items in flight.

    An exception from ``fn`` or from ``items`` cancels the items not yet
    started and joins the threads before it propagates; a consumer that
    stops early must close the generator (``contextlib.closing``) for the
    same. Called from a thread marked by ``mark_pool_thread``, as the
    pool's own are, it maps in that thread, so that pools never nest.
    """
    if getattr(_POOL_THREAD, "active", False):
        yield from map(fn, items)
        return
    # Imported here: concurrent.futures loads logging, which would add to
    # the time of every import of the package.
    from concurrent.futures import ThreadPoolExecutor

    pending = collections.deque()
    with ThreadPoolExecutor(_WORKERS, initializer=mark_pool_thread) as pool:
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) == 2 * _WORKERS:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


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

    ``rows`` is a float matrix, the tuple of a matrix's columns (1-D float
    arrays of one length), or a list of row tuples. A matrix is written in
    blocks of ``_ROW_BLOCK`` rows, each stacked from its column slices and
    formatted on the pool of ``ordered_map``, then written in order. A
    numpy kernel gives the same bytes as
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
        if isinstance(rows, (np.ndarray, tuple)):
            columns = tuple(rows.T) if isinstance(rows, np.ndarray) else rows
            starts = range(0, len(columns[0]), _ROW_BLOCK)
            with contextlib.closing(ordered_map(partial(_block_text, columns),
                                                starts)) as texts:
                for text in texts:
                    f.write(text)
        else:
            for row in rows:
                f.write(",".join(map(format_value, row)) + "\n")
        if summary:
            f.write("# " + " ".join(f"{k}={format_value(v)}" for k, v in summary) + "\n")


def _block_text(columns, first):
    """The text of the ``_ROW_BLOCK`` matrix rows from row ``first``,
    stacked from ``columns``: runs of rows inside the kernel's domain
    through ``_exact_text``, the other runs through ``_percent_text``."""
    block = np.column_stack([c[first:first + _ROW_BLOCK] for c in columns]).astype(
        np.float64, copy=False)
    magnitude = np.abs(block)
    inside = ((magnitude >= _LOW) & (magnitude < _HIGH)).all(axis=1)
    edges = [0, *(np.flatnonzero(inside[1:] != inside[:-1]) + 1), len(block)]
    return "".join(_exact_text(block[start:stop]) if inside[start]
                   else _percent_text(block[start:stop])
                   for start, stop in zip(edges[:-1], edges[1:]))


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
    separator, padded with spaces that one boolean mask deletes (numpy
    releases the GIL for it, where ``bytes.translate`` holds it).
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
    text = words.view(np.uint8).ravel()
    return text[text != ord(" ")].tobytes().decode("ascii")


def read_table(file_or_path, label, pick):
    """Parse the columns ``pick(header names)`` returns into float arrays.

    Returns {name: array} in ``pick``'s order, each a column view of the
    one parsed (rows, columns) matrix. Rows wider than the header
    are rejected when every column is picked. Malformed input raises
    ``ParameterError`` naming the table by ``label``.

    The rows after the header take one of two routes. Route 1 serves a
    path and a seekable text file: their rows are read twice in the same
    ``_CHUNK`` reads, once for each read's newline count and once as UTF-8
    bytes, and only the pieces in flight are held. Each read, cut at its
    last newline, is one piece of whole lines; a numpy kernel
    (``_parse_lines``) parses the pieces on the pool of ``ordered_map``,
    each into the rows of its own lines in a matrix sized from the counts.
    Route 2 is one ``np.loadtxt`` over the whole table: from the path, from
    the file seeked back to its first row, or from a stream that cannot
    seek, which route 1 does not read. It also takes any table where route
    1 raises ``ValueError``, so errors and results are those of
    ``np.loadtxt``.

    The kernel reads fields written as ``[-]digits.digits`` with at most
    17 significant digits and certifies each double: D / 10**f, with D the
    digits as an integer, is one correctly rounded division when
    D <= 2**53 (Clinger's fast path), and above 2**53 the exact residual
    y * 10**f - D (``_times_p10``) moves y by the whole ulps that make it
    correctly rounded. A row holding a field the kernel refuses
    (exponents, no dot, nan, inf, spaces, CR, over 17 digits, a residual
    too close to a tie) is parsed by ``np.loadtxt`` from those lines
    alone. Where that does not give one row of the table's width per line
    (blank or ``#`` lines, another field count), the table takes route 2.
    """
    with _opened(file_or_path, "r") as f:
        skip = offset = 0
        try:
            # readline, not iteration, which would disable ``f.tell()``.
            for line in iter(f.readline, ""):
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
        if f is file_or_path:  # an open text file, from its first row on
            body, start, skip = f, _position(f), 0
        else:  # a path: the rows are its bytes from offset on
            body, start = f.buffer, offset
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: raised below
                data = None
                if start is not None:  # route 1: the kernel, over the rows read twice
                    body.seek(start)
                    counts = [int(np.count_nonzero(np.frombuffer(b, np.uint8) == _LF))
                              for b in _utf8_reads(body)]
                    body.seek(start)
                    try:
                        data = _read_matrix(_utf8_reads(body), counts, len(names), usecols)
                    except ValueError:
                        body.seek(start)
                if data is None:  # route 2: np.loadtxt over the whole table
                    data = np.loadtxt(file_or_path, delimiter=",", skiprows=skip,
                                      usecols=usecols, ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise ParameterError([f"{label} has a malformed row: {exc}"]) from None
    if data.shape[0] == 0:
        raise ParameterError([f"{label} contains no data rows"])
    if data.shape[1] != len(wanted):
        raise ParameterError(
            [f"{label} rows have {data.shape[1]} fields, header names {len(names)}"])
    return {name: data[:, i] for i, name in enumerate(wanted)}


def _position(f):
    """The position of the caller's text file, or None where it cannot
    seek back: a pipe, or a file that was iterated with ``next``."""
    try:
        return f.tell() if f.seekable() else None
    except OSError:
        return None


def _utf8_reads(body):
    """``_CHUNK`` reads of the bytes or text file ``body``, as UTF-8 bytes;
    lone surrogates pass as bytes that the kernel refuses."""
    while chunk := body.read(_CHUNK):
        yield chunk if isinstance(chunk, bytes) else chunk.encode("utf-8", "surrogatepass")


def _pieces(chunks, counts):
    """(first line number, byte strings) of each run of whole lines in the
    byte strings ``chunks``, whose newlines ``counts`` gives chunk by chunk:
    each chunk up to its last newline, after what the chunks before it
    left. A last line without a newline gets one."""
    first, carry = 0, []
    for chunk, count in zip(chunks, counts, strict=True):  # ValueError if they differ
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)
            continue
        yield first, [*carry, memoryview(chunk)[:cut]]
        first += count
        carry = [memoryview(chunk)[cut:]]
    if any(carry):
        yield first, [*carry, b"\n"]


def _parse_piece(k, usecols, out, piece):
    """Parse a piece of whole lines (see ``_pieces``) into ``out`` from its
    first line's row on, through a word buffer padded for the kernel's
    loads; returns the number of rows, one a line."""
    first, parts = piece
    size = sum(len(part) for part in parts)
    words = np.zeros((_PAD + size) // 8 + 3, np.uint64)  # the last aligned load
    buf = words.view(np.uint8)
    end = _PAD
    for part in parts:
        buf[end:end + len(part)] = np.frombuffer(part, np.uint8)
        end += len(part)
    return _parse_lines(words, end, k, usecols, out[first:])


def _read_matrix(chunks, counts, k, usecols):
    """The float matrix of the lines of k fields in the byte strings
    ``chunks``, with ``counts`` newlines chunk by chunk; ``usecols`` picks
    columns as in ``np.loadtxt``. Pieces of whole lines are parsed on the
    pool, each into the rows of its own lines, so the matrix has one row a
    line; ``ValueError`` from any piece ends the read.
    """
    out = np.empty((sum(counts) + 1, k if usecols is None else len(usecols)))
    rows = sum(ordered_map(partial(_parse_piece, k, usecols, out), _pieces(chunks, counts)))
    return out[:rows]


def _parse_lines(words, end, k, usecols, out):
    """Parse the whole lines in bytes ``_PAD:end`` of ``words`` into the
    first rows of ``out``, one a line; returns the number of lines.

    One scan finds the bytes below '0' other than '-': in a line of k
    fields ``[-]digits.digits`` they alternate dot and separator, 2k of
    them. Lines that break this pattern, and lines holding a field the
    kernel refuses, are parsed by ``np.loadtxt`` from those lines alone;
    ``ValueError`` unless that gives one row of ``out``'s width a line.
    """
    buf = words.view(np.uint8)
    text = buf[_PAD:end]
    special = np.flatnonzero((text < _ZERO_CHAR) & (text != _MINUS_CHAR)) + _PAD
    kind = buf[special]
    newline = np.flatnonzero(kind == _LF)
    line_end = special[newline]
    line_start = np.concatenate(([_PAD], line_end[:-1] + 1))
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
        return rows.size
    others = np.flatnonzero(~good)
    lines = buf[_PAD:end][np.repeat(~good, line_end - line_start + 1)].tobytes()
    parsed = np.loadtxt(io.StringIO(lines.decode("utf-8")), delimiter=",",
                        usecols=usecols, ndmin=2)
    if parsed.shape != (others.size, values.shape[1]):
        raise ValueError("blank or comment lines, or rows of another width")
    out[rows] = values
    out[others] = parsed
    return good.size


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
