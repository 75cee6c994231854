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

# Rows formatted per ``%`` by the matrix writer. A few hundred rows amortise
# the per-call overhead; much larger blocks raise the writer's peak memory.
_ROW_BLOCK = 256

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
    of rows, each formatted by one ``%`` of a repeated row template, which
    gives the same bytes as ``np.savetxt(fmt=FLOAT_FMT, delimiter=",")``.
    (name, value) pairs in ``summary`` go on a trailing ``#`` line.
    """
    with _opened(file_or_path, "w") as f:
        f.write(f"# schema: {SCHEMAS[kind]}\n")
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
            template = line * _ROW_BLOCK
            for start in range(0, len(rows), _ROW_BLOCK):
                block = rows[start:start + _ROW_BLOCK]
                if len(block) < _ROW_BLOCK:
                    template = line * len(block)
                f.write(template % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                f.write(",".join(format_value(v) for v in row) + "\n")
        if summary:
            f.write("# " + " ".join(f"{k}={format_value(v)}" for k, v in summary) + "\n")


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
