"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: the largest
singular value comes from a Jacobi eigenvalue sweep, prox values from dense
grids, and cone projections from a constrained least-squares solver with
slack reformulations. The last two helpers (smooth_coupling, approx_y_star)
are reference quantities built on the package's own kernels, which the
tests check elsewhere.
"""

import math

import numpy as np
from scipy.optimize import minimize

from jointmm.problem import feas
from jointmm.solver import inner_ascent


def jacobi_sigma_max(M, sweeps=60, tol=1e-14):
    """Largest singular value via cyclic Jacobi iteration on M^T M."""
    S = M.T @ M
    n = S.shape[0]
    A = S.copy()
    for _ in range(sweeps):
        off = math.sqrt(max(0.0, (A**2).sum() - (np.diag(A) ** 2).sum()))
        if off <= tol * max(1.0, abs(np.diag(A)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                J = np.eye(n)
                J[p, p] = cth
                J[q, q] = cth
                J[p, q] = sth
                J[q, p] = -sth
                A = J.T @ A @ J
    return math.sqrt(max(0.0, np.diag(A).max()))


def grid_prox_1d(sigma_value, t, z, lo, hi, steps=200001):
    """argmin of t*sigma(u) + 0.5 (u - z)^2 on a dense 1-d grid."""
    grid = np.linspace(lo, hi, steps)
    vals = t * np.array([sigma_value(u) for u in grid]) + 0.5 * (grid - z) ** 2
    return grid[int(np.argmin(vals))]


def grid_min_2d(objective, lo, hi, steps=401, refinements=6):
    """Minimize a 2-d function by coarse grid search plus local refinement."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    best = None
    for _ in range(refinements):
        xs = np.linspace(lo[0], hi[0], steps)
        ys = np.linspace(lo[1], hi[1], steps)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        V = objective(X, Y)
        idx = np.unravel_index(np.argmin(V), V.shape)
        best = np.array([X[idx], Y[idx]])
        span = (hi - lo) / steps * 4.0
        lo = best - span
        hi = best + span
    return best


def slsqp_cone_projection(kind, z, tol=1e-12):
    """Euclidean projection onto a norm cone via SLSQP on a slack form.

    kind 'second_order': ||tail|| <= head. kind 'l1_norm': ||tail||_1 <= head,
    reformulated with slack bounds so every constraint is smooth.
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[0]

    if kind == "second_order":
        def obj(u):
            return float(((u - z) ** 2).sum())

        def grad(u):
            return 2.0 * (u - z)

        def feasible(u):
            return u[0] >= -1e-12 and np.linalg.norm(u[1:]) <= u[0] + 1e-9

        cons = [
            {
                "type": "ineq",
                "fun": lambda u: u[0] ** 2 - float(u[1:] @ u[1:]),
                "jac": lambda u: np.concatenate([[2.0 * u[0]], -2.0 * u[1:]]),
            },
            {
                "type": "ineq",
                "fun": lambda u: u[0],
                "jac": lambda u: np.concatenate([[1.0], np.zeros(d - 1)]),
            },
        ]
        r = np.linalg.norm(z[1:])
        starts = [
            np.concatenate([[max(r, z[0], 1.0)], z[1:]]),
            np.concatenate([[1.0 + r], 0.5 * z[1:]]),
            np.concatenate([[1.0], np.zeros(d - 1)]),
        ]
        # always-feasible fallbacks cover the corner where the projection is the apex
        candidates = [np.zeros(d)]
        if z[0] >= r:
            candidates.append(z.copy())
        for s0 in starts:
            res = minimize(obj, s0, jac=grad, constraints=cons, method="SLSQP",
                           options={"maxiter": 600, "ftol": tol})
            if feasible(res.x):
                candidates.append(np.asarray(res.x))
        if r > 0:
            # by rotational symmetry a boundary solution has tail s*z_tail with
            # s >= 0; refine s on a grid without using any projection formula
            lo, hi = 0.0, 3.0 + abs(z[0]) / r
            for _ in range(40):
                ss = np.linspace(lo, hi, 81)
                vals = (ss * r - z[0]) ** 2 + (ss - 1.0) ** 2 * r**2
                j = int(np.argmin(vals))
                span = (hi - lo) / 80.0
                lo, hi = max(0.0, ss[j] - 2 * span), ss[j] + 2 * span
            s_best = 0.5 * (lo + hi)
            candidates.append(np.concatenate([[s_best * r], s_best * z[1:]]))
        return min(candidates, key=obj)

    if kind == "l1_norm":
        # variables (u, s) with |u_i| <= s_i for the tail and sum(s) <= u_0
        k = d - 1

        def obj(w):
            return float(((w[:d] - z) ** 2).sum())

        def grad(w):
            g = np.zeros(d + k)
            g[:d] = 2.0 * (w[:d] - z)
            return g

        cons = [
            {"type": "ineq", "fun": lambda w: w[0] - w[d:].sum()},
        ]
        for i in range(k):
            cons.append({"type": "ineq", "fun": lambda w, i=i: w[d + i] - w[1 + i]})
            cons.append({"type": "ineq", "fun": lambda w, i=i: w[d + i] + w[1 + i]})

        def feasible(u):
            return np.abs(u[1:]).sum() <= u[0] + 1e-9

        def dist(u):
            return float(((u - z) ** 2).sum())

        candidates = [np.zeros(d)]
        clip = np.concatenate([[max(z[0], np.abs(z[1:]).sum())], z[1:]])
        if feasible(clip):
            candidates.append(clip)
        w0 = np.concatenate([np.zeros(d), np.abs(z[1:]) + 1.0])
        w0[0] = abs(z[0]) + np.abs(z[1:]).sum() + 1.0
        w1 = np.concatenate([clip, np.abs(clip[1:]) + 0.1])
        for start in (w0, w1):
            res = minimize(obj, start, jac=grad, constraints=cons, method="SLSQP",
                           options={"maxiter": 800, "ftol": tol})
            if feasible(res.x[:d]):
                candidates.append(np.asarray(res.x[:d]))
        return min(candidates, key=dist)

    raise ValueError(kind)


def central_difference(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def quadratic_saddle_kkt(a, b, K, A, B, c):
    """Exact saddle of (a/2)||x||^2 + x^T K y - (b/2)||y||^2 with A x + B y + c = 0."""
    n = K.shape[0]
    m = K.shape[1]
    q = c.shape[0]
    M = np.block(
        [
            [a * np.eye(n), K, A.T],
            [K.T, -b * np.eye(m), B.T],
            [A, B, np.zeros((q, q))],
        ]
    )
    rhs = np.concatenate([np.zeros(n + m), -c])
    sol = np.linalg.solve(M, rhs)
    return sol[:n], sol[n : n + m], sol[n + m :]


def ascent_loop(P, x, lam, y0, n_steps, alpha_y):
    """The psi = 0 inner ascent as a plain loop over its n_steps steps
    y <- y + alpha_y (K^T x + B^T lambda - d y - b), from the problem's data."""
    drive = P.K.T @ x + P.B.T @ lam
    b = 0.0 if P.h.b is None else P.h.b
    y = np.asarray(y0, dtype=np.float64)
    for _ in range(n_steps):
        y = y + alpha_y * (drive - (P.h.d * y + b))
    return y


def smooth_coupling(P, x, y, lam):
    """Value of f(x, y, lambda) = g(x) + x^T K y - h(y) + <lambda, Ax + By + c>."""
    return P.g.value(x) + float(x @ (P.K @ y)) - P.h.value(y) + float(lam @ feas(P, x, y))


def approx_y_star(P, x, lam, alpha_y, tol=1e-12, max_iter=200000):
    """Approximate y_*(x, lambda) by running the inner ascent until the
    y-block gradient mapping at scaling 1/alpha_y drops below tol."""
    y = np.zeros(P.m)
    for _ in range(max_iter):
        y_next = inner_ascent(P, x, lam, y, 1, alpha_y)
        if np.linalg.norm(y_next - y) / alpha_y <= tol:
            return y_next
        y = y_next
    return y
