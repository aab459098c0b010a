"""Dense vector/matrix kernels: input checks, SPD solves, operator-norm estimation,
and the closed form of the diagonal ascent recurrence.

Everything here works on float64 numpy arrays. Vectors are 1-d arrays,
matrices 2-d row-major arrays. All functions are pure; nothing is mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, EstimationError, SingularConstraintError

DEFAULT_NORM_TOL = 1e-8
DEFAULT_NORM_MAX_ITER = 5000


def _as_float_array(v, name):
    try:
        return np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} is not numeric: {exc}") from exc


def as_vector(v, name="vector"):
    """Validate and convert to a finite 1-d float64 array."""
    arr = _as_float_array(v, name)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains nonfinite entries")
    return arr


def as_matrix(m, name="matrix"):
    """Validate and convert to a finite 2-d float64 array."""
    arr = _as_float_array(m, name)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains nonfinite entries")
    return arr


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
    """Solve S zeta = r given the cached inverse F = S^{-1} from spd_factor: one matvec."""
    return F @ r


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
    p = np.power(1.0 - ad, n_steps)
    gain = np.where(stable, -np.expm1(n_steps * np.log1p(-np.where(stable, ad, 0.0))), 1.0 - p)
    w = np.divide(gain, dv, out=np.full_like(dv, n_steps * alpha), where=ad > 0)
    if np.ndim(d) == 0:
        return float(p[0]), float(w[0])
    return p, w


def _power_iteration(M, tol, max_iter):
    """Power iteration on M^T M from the normalized all-ones start.

    Returns (sigma, v) where sigma estimates the largest singular value and
    v is the final right singular vector iterate. Deterministic.
    """
    n = M.shape[1]
    v = np.ones(n) / np.sqrt(n)
    sigma = float(np.linalg.norm(M @ v))
    if sigma == 0.0:
        # all-ones start is in the null space; fall back to coordinate starts
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            if np.linalg.norm(M @ e) > 0:
                v = e
                sigma = float(np.linalg.norm(M @ e))
                break
        else:
            return 0.0, v
    for _ in range(max_iter):
        w = M.T @ (M @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, v
        v = w / norm_w
        sigma_new = float(np.linalg.norm(M @ v))
        if abs(sigma_new - sigma) <= tol * max(sigma_new, np.finfo(float).tiny):
            return sigma_new, v
        sigma = sigma_new
    raise EstimationError(
        f"operator norm estimate did not converge within {max_iter} iterations "
        f"(last estimate {sigma})",
        last_estimate=sigma,
    )


def operator_norm(M, tol=DEFAULT_NORM_TOL, max_iter=DEFAULT_NORM_MAX_ITER):
    """Largest singular value of M by deterministic power iteration.

    Returns 0.0 for the all-zero matrix. The relative accuracy is tol; the
    start vector is the normalized all-ones vector so repeated calls give
    identical results.
    """
    if tol <= 0:
        raise ConfigurationError("operator_norm tolerance must be positive")
    if not np.any(M):
        return 0.0
    sigma, _ = _power_iteration(M, tol, max_iter)
    return sigma
