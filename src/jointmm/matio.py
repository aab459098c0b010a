"""Matrix file I/O: CSV rows and MatrixMarket coordinate/array formats.

Readers densify everything on load. Writers emit shortest round-tripping
decimal literals so write -> read reproduces the array bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigurationError
from .numerics import as_matrix


def _fmt(x):
    # repr of a Python float is the shortest string that parses back exactly
    return repr(float(x))


def read_matrix_csv(path):
    """Read a dense matrix from CSV, one row per line."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ConfigurationError(f"empty CSV matrix file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigurationError(f"ragged CSV matrix file: {path}")
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(M, path):
    M = as_matrix(M)
    with open(path, "w", encoding="ascii") as fh:
        for row in M:
            fh.write(",".join(_fmt(x) for x in row))
            fh.write("\n")


def read_matrix_mm(path):
    """Read a MatrixMarket file (coordinate or array, real/integer, general).

    Coordinate indices must lie in 1..rows and 1..cols.
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
            M = np.zeros((rows, cols))
            count = 0
            for line in fh:
                line = line.strip()
                if not line or line.startswith("%"):
                    continue
                i, j, v = line.split()
                i, j = int(i), int(j)
                if not (1 <= i <= rows and 1 <= j <= cols):
                    raise ConfigurationError(
                        f"MatrixMarket file {path} has entry ({i}, {j}) "
                        f"outside its {rows}x{cols} size"
                    )
                M[i - 1, j - 1] = float(v)
                count += 1
            if count != nnz:
                raise ConfigurationError(
                    f"MatrixMarket file {path} declares {nnz} entries but has {count}"
                )
            return M
        rows, cols = int(size[0]), int(size[1])
        values = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            values.append(float(line))
        if len(values) != rows * cols:
            raise ConfigurationError(
                f"MatrixMarket array file {path} has {len(values)} values, "
                f"expected {rows * cols}"
            )
        # array format is column-major
        return np.array(values).reshape((cols, rows)).T


def write_matrix_mm(M, path, layout="coordinate"):
    """Write a dense matrix in MatrixMarket format (coordinate or array)."""
    M = as_matrix(M)
    rows, cols = M.shape
    with open(path, "w", encoding="ascii") as fh:
        if layout == "coordinate":
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            nz = np.nonzero(M)
            fh.write(f"{rows} {cols} {len(nz[0])}\n")
            for i, j in zip(*nz):
                fh.write(f"{i + 1} {j + 1} {_fmt(M[i, j])}\n")
        elif layout == "array":
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{rows} {cols}\n")
            for j in range(cols):
                for i in range(rows):
                    fh.write(_fmt(M[i, j]) + "\n")
        else:
            raise ConfigurationError(f"unknown MatrixMarket layout {layout!r}")


def read_matrix(path):
    """Read a matrix, dispatching on extension (.mtx -> MatrixMarket, else CSV).

    A malformed file, such as one with a non-numeric token, raises
    ConfigurationError naming the path.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"matrix file not found: {path}")
    mm = os.path.splitext(path)[1].lower() in (".mtx", ".mm")
    try:
        return read_matrix_mm(path) if mm else read_matrix_csv(path)
    except ValueError as exc:  # a non-numeric token, a short entry line, a non-ASCII byte
        raise ConfigurationError(f"malformed matrix file {path}: {exc}") from exc
