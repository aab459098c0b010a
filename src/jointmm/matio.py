"""Matrix file I/O: CSV rows and MatrixMarket coordinate/array formats.

Readers densify everything on load, into numerics.aligned arrays (which
products stream fastest, with the same bits). Writers emit shortest
round-tripping decimal literals so write -> read reproduces the array bit
for bit.

Both directions work in chunks of _CHUNK lines: a reader hands each chunk to
np.loadtxt, a writer formats each chunk as one string, so neither holds a
whole file's text at once.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import islice

import numpy as np

from .errors import ConfigurationError
from .numerics import aligned, as_matrix

# Lines per bulk parse or write. On a 160,000-line coordinate file, 8,192-line
# chunks were no faster than 2,048-line ones and added about 1.5 MB to peak RSS.
_CHUNK = 2048

# One coordinate entry. As with int(), an index token such as "1.0" or "1e0"
# is a ValueError.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_lines(fh, dtype, delimiter=None, comment=None):
    """Parse the rest of `fh` with np.loadtxt, one array per chunk of lines.

    Blank lines, and lines whose first non-blank character is `comment`, are
    skipped; every other line is one row. A chunk goes to np.loadtxt as read
    (comments=None: a comment after data is an error), which skips blank
    lines. Only a chunk that fails is filtered and parsed again, and then
    one line per array, so the caller sees every row before the first bad
    line, in file order, and the ValueError comes from that line.
    """
    ndmin = 1 if dtype.names else 2
    load = partial(np.loadtxt, dtype=dtype, delimiter=delimiter, comments=None, ndmin=ndmin)
    while lines := list(islice(fh, _CHUNK)):
        try:
            if any(map(str.strip, lines)):  # loadtxt warns on blank lines only
                yield load(lines)
            continue
        except ValueError:
            rows = [ln for ln in lines if (s := ln.lstrip()) and s[0] != comment]
        if not rows:
            continue
        try:
            yield load(rows)
        except ValueError:
            for row in rows:
                yield load([row])


def read_matrix_csv(path):
    """Read a dense matrix from CSV, one row per line."""
    with open(path, "r", encoding="ascii") as fh:
        blocks = list(_parse_lines(fh, np.dtype(np.float64), delimiter=","))
    if not blocks:
        raise ConfigurationError(f"empty CSV matrix file: {path}")
    if any(b.shape[1] != blocks[0].shape[1] for b in blocks):
        raise ConfigurationError(f"ragged CSV matrix file: {path}")
    return np.concatenate(blocks, out=aligned((sum(map(len, blocks)), blocks[0].shape[1])))


def write_matrix_csv(M, path):
    M = as_matrix(M)
    rows_per_chunk = max(1, _CHUNK // max(1, M.shape[1]))
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, M.shape[0], rows_per_chunk):
            block = M[start:start + rows_per_chunk].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block))


def read_matrix_mm(path):
    """Read a MatrixMarket file (coordinate or array, real/integer, general).

    Coordinate indices must lie in 1..rows and 1..cols; for a repeated
    (i, j) the last entry wins.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ConfigurationError(f"not a MatrixMarket file: {path}")
        parts = header.split()
        if len(parts) < 5 or parts[1] != "matrix":
            raise ConfigurationError(f"unsupported MatrixMarket header in {path}: {header!r}")
        layout, field, symmetry = parts[2], parts[3], parts[4]
        if layout not in ("coordinate", "array"):
            raise ConfigurationError(f"unsupported MatrixMarket layout {layout!r} in {path}")
        if field not in ("real", "integer"):
            raise ConfigurationError(f"unsupported MatrixMarket field {field!r} in {path}")
        if symmetry != "general":
            raise ConfigurationError(f"unsupported MatrixMarket symmetry {symmetry!r} in {path}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        size = line.split()
        if len(size) < (3 if layout == "coordinate" else 2):
            raise ConfigurationError(f"MatrixMarket file {path} has a short size line: {line!r}")
        if layout == "coordinate":
            rows, cols, nnz = int(size[0]), int(size[1]), int(size[2])
            try:
                M = aligned((rows, cols), np.zeros)
            except MemoryError:
                raise ConfigurationError(
                    f"MatrixMarket file {path} declares a {rows}x{cols} matrix, "
                    f"too large to hold in memory"
                ) from None
            count = 0
            for e in _parse_lines(fh, _ENTRY, comment="%"):
                i, j = e["i"], e["j"]
                outside = (i < 1) | (i > rows) | (j < 1) | (j > cols)
                if outside.any():
                    k = outside.argmax()
                    raise ConfigurationError(
                        f"MatrixMarket file {path} has entry ({i[k]}, {j[k]}) "
                        f"outside its {rows}x{cols} size"
                    )
                M[i - 1, j - 1] = e["v"]  # stored in file order, so the last duplicate wins
                count += e.size
            if count != nnz:
                raise ConfigurationError(
                    f"MatrixMarket file {path} declares {nnz} entries but has {count}"
                )
            return M
        rows, cols = int(size[0]), int(size[1])
        blocks = []
        for b in _parse_lines(fh, np.dtype(np.float64), comment="%"):
            if b.shape[1] != 1:
                raise ValueError(f"an array entry line holds {b.shape[1]} values")
            blocks.append(b[:, 0])
        values = np.concatenate(blocks or [np.zeros(0)], out=aligned((sum(map(len, blocks)),)))
        if values.size != rows * cols:
            raise ConfigurationError(
                f"MatrixMarket array file {path} has {values.size} values, "
                f"expected {rows * cols}"
            )
        # array format is column-major
        return values.reshape((cols, rows)).T


def write_matrix_mm(M, path, layout="coordinate"):
    """Write a dense matrix in MatrixMarket format (coordinate or array).

    The coordinate layout lists every entry that is nonzero or has its sign
    bit set, so a -0.0 reads back as -0.0.
    """
    if layout not in ("coordinate", "array"):
        raise ConfigurationError(f"unknown MatrixMarket layout {layout!r}")
    M = as_matrix(M)
    rows, cols = M.shape
    with open(path, "w", encoding="ascii") as fh:
        if layout == "coordinate":
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            # row-major like np.nonzero, but one index array instead of two
            flat = np.flatnonzero((M != 0) | np.signbit(M))
            fh.write(f"{rows} {cols} {len(flat)}\n")
            for start in range(0, len(flat), _CHUNK):
                i, j = np.divmod(flat[start:start + _CHUNK], cols)
                fh.write("".join(
                    f"{a} {b} {v!r}\n"
                    for a, b, v in zip((i + 1).tolist(), (j + 1).tolist(), M[i, j].tolist())
                ))
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{rows} {cols}\n")
            values = M.T.flat  # column-major; each slice copies only its chunk
            for start in range(0, len(values), _CHUNK):
                fh.write("".join(f"{v!r}\n" for v in values[start:start + _CHUNK].tolist()))


def read_matrix(path):
    """Read a matrix, dispatching on extension (.mtx -> MatrixMarket, else CSV).

    A malformed file, such as one with a non-numeric token, raises
    ConfigurationError naming the path. The result is numerics.aligned, in
    C layout, or F layout from a MatrixMarket array file.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"matrix file not found: {path}")
    mm = os.path.splitext(path)[1].lower() in (".mtx", ".mm")
    try:
        return read_matrix_mm(path) if mm else read_matrix_csv(path)
    except ValueError as exc:  # a non-numeric token, a short entry line, a non-ASCII byte
        raise ConfigurationError(f"malformed matrix file {path}: {exc}") from exc
