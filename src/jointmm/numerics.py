"""Dense vector/matrix kernels: input checks, the Euclidean norm, SPD solves,
a matrix product whose bits do not depend on the BLAS thread count, operator
norms, and the closed form of the diagonal ascent recurrence.

Everything here works on float64 numpy arrays. A point is a 1-d array, a
batch of points a 2-d array with one point per row, and matrices are 2-d
row-major arrays; apply(A, v) applies A to a point or to every row of a
batch. All functions are pure; nothing is mutated.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .errors import ConfigurationError, SingularConstraintError


def _as_finite_array(v, name, ndim):
    try:
        arr = np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != ndim:
        raise ConfigurationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains nonfinite entries")
    return arr


def as_vector(v, name="vector"):
    """Validate and convert to a finite 1-d float64 array."""
    return _as_finite_array(v, name, 1)


def as_matrix(m, name="matrix"):
    """Validate and convert to a finite 2-d float64 array."""
    return _as_finite_array(m, name, 2)


def is_number(value, kind=Real):
    """Whether value is a number of kind (Real, Integral, int) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_number(value, kind=Real):
    """value if is_number(value, kind), else a TypeError, as float() raises
    on junk: a manifest's coefficients (Real) and dims (int) are read so."""
    if not is_number(value, kind):
        raise TypeError(f"{value!r} is not a JSON {'number' if kind is Real else 'integer'}")
    return value


def json_array(value):
    """value, a JSON number or nested lists of them, as a float64 array; any other
    entry raises json_number's TypeError (types are read a list at a time)."""
    if type(value) is not list:
        return np.asarray(json_number(value), dtype=float)
    if not set(map(type, value)) <= {int, float}:
        for v in value:
            json_array(v)
    return np.asarray(value, dtype=float)


def json_finite(value):
    """value to write as JSON, with each nonfinite float in it and in its
    lists, tuples and dict values as None: JSON has no inf or NaN, so null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(json_finite, value))
    return value


def norm2(v):
    """Euclidean norm of a C-contiguous 1-d float64 vector, as a Python float.

    Bit-identical to float(np.linalg.norm(v)), which for such a vector is
    sqrt(v . v), without np.linalg.norm's dispatch. Overflow gives inf and
    NaN propagates. A strided view may differ in the last bits: its dot
    product sums in another order than the contiguous copy norm makes.
    """
    return math.sqrt(v @ v)


def spd_factor(S):
    """Inverse of a symmetric positive definite matrix, for repeated solves.

    Returns S^{-1}, so a solve against S is one matvec (spd_solve_factored).
    The Cholesky factorization only checks positive definiteness: a pivot
    that is non-positive, or at roundoff level against the largest diagonal
    entry, means [A B] is rank deficient (the Gram matrix A A^T + B B^T of a
    full-row-rank stacked constraint matrix is always positive definite).
    """
    if S.shape[0] != S.shape[1]:
        raise ConfigurationError(f"spd_factor needs a square matrix, got {S.shape}")
    try:
        pivots = np.diag(np.linalg.cholesky(S)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)  # Cholesky met a non-positive pivot
    if pivots.size and pivots.min() <= S.shape[0] * np.finfo(float).eps * np.diag(S).max():
        raise SingularConstraintError(
            "constraint Gram matrix is not positive definite; "
            "the stacked constraint matrix [A B] must have full row rank"
        )
    return np.linalg.inv(S)


def spd_solve_factored(F, r):
    """Solve S zeta = r given the cached inverse F = S^{-1} from spd_factor: one product."""
    return apply(F, r)


# A matrix product of at most this many multiply-adds runs on one BLAS thread
# (OpenBLAS's default threshold, 65,536 x 4). A larger product is split among
# the threads, and its bits then change with their number: on OpenBLAS
# 0.3.31, (64 x 400) @ (400 x 400) (a probe batch of solver.affine_parts at
# n = 400) and (883 x 400) @ (400 x 64) (a block's residual rows in
# solver._run_affine at linreg-400) gave other bits at 2 threads than at 1,
# while (8 x 400) @ (400 x 300) did not. A matvec splits only its outputs
# and keeps its bits.
SERIAL_MATMUL_WORK = 65536 * 4


# aligned() puts an array of at least this many bytes on a 64-byte boundary,
# where OpenBLAS streams it fastest: at 1 thread on a 2-vCPU Xeon VM, an
# 883 x 400 by 400 x 64 product took 0.97-1.04 ms with A aligned and 1.20-1.29
# ms at 16, 32 or 48 bytes past a boundary, and 32 matvecs with a 400 x 400
# matrix 0.47-0.53 and 0.67-0.75 ms at 16 or 48, with the same bits at every
# offset. A smaller array stays a plain np.empty: aligning every size made
# saddle-batch's tiny blocks 6% slower.
ALIGN_MIN_BYTES = 1 << 16


def aligned(shape, make=np.empty):
    """make(shape) of float64 (make is np.empty or np.zeros), C-contiguous;
    from ALIGN_MIN_BYTES up, a view that starts on a 64-byte boundary."""
    size = 8 * math.prod(shape)
    if size < ALIGN_MIN_BYTES:
        return make(shape)
    buf = make(size + 64, dtype=np.uint8)
    start = -buf.__array_interface__["data"][0] % 64
    return buf[start : start + size].view(np.float64).reshape(shape)


def serial_matmul(A, B):
    """A @ B for 2-d A and B, as products of blocks of rows of A (all of B,
    or at least 8 rows) by blocks of columns of B, each within
    SERIAL_MATMUL_WORK multiply-adds, which BLAS runs on one thread: the
    same bits whatever the BLAS thread count, at about the speed of one
    product on one thread. A product within the limit is one call; a larger
    one fills an aligned() output, whose address moves no bit."""
    (m, k), n = A.shape, B.shape[1]
    if m * k * n <= SERIAL_MATMUL_WORK:
        return A @ B
    rows = min(m, max(8, SERIAL_MATMUL_WORK // (k * n)))
    cols = max(1, SERIAL_MATMUL_WORK // (rows * k))
    out = aligned((m, n))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(A[i : i + rows], B[:, j : j + cols], out=out[i : i + rows, j : j + cols])
    return out


def matvec(M):
    """The product v -> M @ v for a C-contiguous vector v, bound once: M.dot
    when M is C-contiguous, the same BLAS call as M @ v with its bits but
    without matmul's dispatch (about half of its cost at 5 x 5), else
    M.__matmul__ itself, since for other layouts the two may round
    differently."""
    return M.dot if M.flags.c_contiguous else M.__matmul__


def stack_rows(vectors, n):
    """np.array(vectors) for a list of C-contiguous float64 vectors of length
    n, as a read-only (len(vectors) x n) array: one bytes join copies them,
    about 3x faster than np.array's conversion of each vector at n = 5."""
    return np.frombuffer(b"".join(vectors)).reshape(-1, n)


def apply(A, v):
    """A @ v for a point v; for a batch, A applied to each row, v A^T by
    serial_matmul (the same bits at any BLAS thread count)."""
    return A @ v if v.ndim == 1 else serial_matmul(v, A.T)


def ascent_coefficients(d, n_steps, alpha):
    """Coefficients (p, w) of n_steps steps of y <- r y + alpha u, r = 1 - alpha d.

    Entrywise y_N = p y_0 + w u with p = r^N and w = alpha (1 + r + ... +
    r^(N-1)) = (1 - r^N) / d, which is N alpha where alpha d = 0. Where
    alpha d < 1, 1 - r^N is taken as -expm1(N log1p(-alpha d)), so a small
    alpha d keeps its digits; elsewhere r <= 0 and r^N is the plain power,
    which overflows to inf for |r| > 1 and large N rather than raising. A
    scalar d gives Python floats, a vector d arrays.
    """
    dv = np.atleast_1d(np.asarray(d, dtype=np.float64))
    ad = alpha * dv
    stable = ad < 1.0
    with np.errstate(over="ignore"):
        p = np.power(1.0 - ad, n_steps)
    gain = np.where(stable, -np.expm1(n_steps * np.log1p(-np.where(stable, ad, 0.0))), 1.0 - p)
    w = np.divide(gain, dv, out=np.full_like(dv, n_steps * alpha), where=ad > 0)
    if np.ndim(d) == 0:
        return float(p[0]), float(w[0])
    return p, w


def operator_norm(M):
    """Largest singular value of M, exactly (by SVD); 0.0 for a zero or empty matrix."""
    return float(np.linalg.norm(M, 2))
