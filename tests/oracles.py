"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: the largest
singular value comes from a Jacobi eigenvalue sweep, prox values from dense
grids, and cone projections from a constrained least-squares solver with
slack reformulations. The reference_* cone kernels are the projection
kernels as first written, whose bits the package's faster ones keep,
reference_prox_eval the prox dispatch as written before its maps were bound,
and
the 1-norm cone's pattern keys and Jacobian as they were written before
prox.pattern_rows, whose partition and bits the package keeps. in_cone,
forward_backward and gradient_mapping are
the cone membership test, the forward-backward point T_L and the gradient
mapping G_L, written from their definitions on project_cone and prox_eval;
criterion 8's lemma suite uses them. The helpers smooth_coupling,
approx_y_star, glpe_sweep_step, pgmsad_structured, linreg_structured and
glpe_structured are reference quantities and loops built on the package's
own kernels, which the tests check elsewhere. gave_to_minimax and
glpe_to_minimax are the minimax
encodings of the two equation applications, which no solve path uses,
CountingMatrix is a stand-in for a problem's coupling matrix that counts
the products a loop takes, cli_like_saddle, mixed_prox_saddle and
seeded_gave build the seeded runs whose bits the pins hold, and misaligned places a copy of an array at a
chosen offset from a 64-byte boundary (address reads where it starts). The
matrix-file readers and writers at the end parse and format one line at a
time with float(), int() and repr(), the reference for matio's bulk paths,
and write_trace_records_csv writes a trace one row at a time, the reference
for solver.write_trace_csv.
"""

import math
import re

import numpy as np
from scipy.optimize import minimize

from jointmm.apps import (
    GaveInstance,
    GlpeInstance,
    GlpeResult,
    glpe_paper_step_size,
    richardson_operator,
)
from jointmm.errors import ConfigurationError
from jointmm.numerics import norm2
from jointmm.problem import MinimaxProblem, compute_constants, feas, recover_multiplier, residuals
from jointmm.prox import (
    BOX,
    FREE,
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    ZERO,
    ConeSpec,
    SmoothOracle,
    project_cone,
    project_l1cone,
    project_soc,
    projection_jacobian,
    projection_pattern,
    prox_blocks,
    prox_eval,
    prox_indicator,
    prox_linear_shift,
    prox_polar_indicator,
    prox_scaled_sq_norm,
    prox_zero,
    smooth_scaled_sq_norm,
    smooth_zero,
)
from jointmm.rng import make_rng, standard_normal
from jointmm.solver import (
    TRACE_HEADER,
    IterateState,
    SolverConfig,
    certify_residuals,
    inner_ascent,
    iterate,
    outer_step,
    project_feasible,
    start_vector,
    write_trace_csv,
)


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


def onto_norm_cone(u, norm):
    """u moved onto the cone norm(tail) <= head: a negative head is raised
    to 0 and a tail that sticks out is scaled down to the head's length.

    SLSQP stops within its tolerance of the constraint, and a point slightly
    outside the cone can score below the true projection; scoring only
    points on the cone rules that out. This is a retraction, not the
    projection: it moves the tail only.
    """
    u = np.array(u, dtype=float)
    u[0] = max(u[0], 0.0)
    length = norm(u[1:])
    if length > u[0]:
        u[1:] *= u[0] / length
    return u


def slsqp_cone_projection(kind, z, tol=1e-12):
    """Euclidean projection onto a norm cone via SLSQP on a slack form.

    kind 'second_order': ||tail|| <= head. kind 'l1_norm': ||tail||_1 <= head,
    reformulated with slack bounds so every constraint is smooth. Every
    candidate is put onto the cone (onto_norm_cone) before it is scored.
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
        return min((onto_norm_cone(u, np.linalg.norm) for u in candidates), key=obj)

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
        l1 = lambda v: float(np.abs(v).sum())
        return min((onto_norm_cone(u, l1) for u in candidates), key=dist)

    raise ValueError(kind)


def reference_project_soc(z):
    """prox.project_soc as first written, on np.linalg.norm: the bits the
    kernel keeps."""
    z = np.asarray(z, dtype=np.float64)
    s0 = z[0]
    tail = z[1:]
    r = np.linalg.norm(tail)
    if r <= s0:
        return z.copy()
    if r <= -s0:
        return np.zeros_like(z)
    alpha = 0.5 * (s0 + r)
    out = np.empty_like(z)
    out[0] = alpha
    out[1:] = (alpha / r) * tail
    return out


def reference_project_linf_cone(z):
    """prox._project_linf_cone as first written, its breakpoint search on
    numpy scalars: the bits the kernel keeps."""
    a0 = z[0]
    tail = z[1:]
    mags = np.abs(tail)
    if mags.max(initial=0.0) <= a0:
        return z.copy()
    d = np.sort(mags)[::-1]
    csum = np.cumsum(d)
    for k in range(1, d.shape[0] + 1):
        cand = (a0 + csum[k - 1]) / (1.0 + k)
        if k == d.shape[0] or cand >= d[k]:
            break
    t0 = max(min(cand, d[k - 1]), 0.0)
    out = np.empty_like(z)
    out[0] = t0
    out[1:] = np.clip(tail, -t0, t0)
    return out


def reference_project_l1cone(z):
    """prox.project_l1cone as first written, on reference_project_linf_cone."""
    z = np.asarray(z, dtype=np.float64)
    if np.abs(z[1:]).sum() <= z[0]:
        return z.copy()
    return z + reference_project_linf_cone(-z)


def reference_soc_jacobian(z):
    """prox._soc_jacobian as first written, on np.linalg.norm and two outer
    products: the bits the kernel keeps."""
    s0 = z[0]
    tail = z[1:]
    r = np.linalg.norm(tail)
    d = z.shape[0]
    if r <= s0:
        return np.eye(d)
    if r <= -s0:
        return np.zeros((d, d))
    u = tail / r
    D = np.empty((d, d))
    D[0, 0] = 0.5
    D[0, 1:] = 0.5 * u
    D[1:, 0] = 0.5 * u
    D[1:, 1:] = ((s0 + r) / (2.0 * r)) * (np.eye(d - 1) - np.outer(u, u)) + 0.5 * np.outer(u, u)
    return D


def reference_prox_eval(op, t, z):
    """prox.prox_eval's dispatch as it was written before prox.prox_map bound
    it: one kind test after another on every call, the cones through
    project_soc and project_l1cone, whose bits the package keeps."""
    z = np.asarray(z, dtype=np.float64)
    if op.kind == "blocks":
        out, offset = np.empty_like(z), 0
        for sub, dim in op.blocks:
            out[offset : offset + dim] = reference_prox_eval(sub, t, z[offset : offset + dim])
            offset += dim
        return out
    if op.kind == "polar_indicator":
        return z - reference_prox_eval(prox_indicator(op.cone), t, z)
    if op.kind == "scaled_sq_norm":
        return z / (1.0 + t * op.coeff)
    if op.kind == "linear_shift":
        return z - t * op.shift
    if op.kind == "zero_function" or op.cone.kind == FREE:
        return z.copy()
    if op.cone.kind == ZERO:
        return np.zeros_like(z)
    if op.cone.kind == NONNEG_ORTHANT:
        return np.maximum(z, 0.0)
    if op.cone.kind == BOX:
        return np.clip(z, op.cone.lower, op.cone.upper)
    return (project_soc if op.cone.kind == SECOND_ORDER else project_l1cone)(z)


def reference_l1_piece(z, pz=None):
    """The piece of the 1-norm cone projection that z lies on: b"polar"
    (P_K(z) = 0, tested first, so the apex is polar), b"inside" (P_K(z) = z),
    or on the boundary the signs s of the tail of pz = P_K(z), which are 0
    exactly off the active set and the signs of z on it. pz is computed when
    not given."""
    mags = np.abs(z[1:])
    if mags.max() <= -z[0]:
        return b"polar"
    if mags.sum() <= z[0]:
        return b"inside"
    if pz is None:
        pz = project_l1cone(z)
    return np.sign(pz[1:])


def reference_projection_pattern(cone, z, pz=None):
    """prox.projection_pattern as written on reference_l1_piece: the
    orthant's mask z > 0, and on the 1-norm cone b"polar", b"inside" or
    b"boundary" and the bytes of the tail signs."""
    if cone.kind == NONNEG_ORTHANT:
        return (z > 0).tobytes()
    if cone.kind == L1_NORM:
        piece = reference_l1_piece(z, pz)
        return piece if isinstance(piece, bytes) else b"boundary" + piece.tobytes()
    return None


def reference_l1_jacobian(z):
    """prox.projection_jacobian's 1-norm branch as written on
    reference_l1_piece: the bits the package keeps."""
    d = z.shape[0]
    piece = reference_l1_piece(z)
    if isinstance(piece, bytes):
        return np.eye(d) if piece == b"inside" else np.zeros((d, d))
    r = np.concatenate(([1.0], -piece))
    D = np.eye(d) - np.outer(r, r / (1.0 + np.count_nonzero(piece)))
    inactive = np.flatnonzero(piece == 0) + 1
    D[inactive, inactive] = 0.0
    return D


def in_cone(cone, z, tol=1e-10):
    """Membership test: distance from z to the cone is at most tol."""
    return bool(np.linalg.norm(np.asarray(z, dtype=float) - project_cone(cone, z)) <= tol)


def forward_backward(h, sigma, L, z):
    """One forward-backward step T_L(z) = prox_{sigma/L}(z - grad h(z)/L)."""
    if L <= 0:
        raise ConfigurationError("forward_backward needs L > 0")
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(h.gradient(z), dtype=np.float64)
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise FloatingPointError(f"nonfinite gradient at index {bad}")
    return prox_eval(sigma, 1.0 / L, z - g / L)


def gradient_mapping(h, sigma, L, z):
    """Gradient mapping G_L(z) = L (z - T_L(z)); zero exactly at stationary points."""
    z = np.asarray(z, dtype=np.float64)
    return L * (z - forward_backward(h, sigma, L, z))


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


def criterion_11_saddles():
    """The 20 seeded 2x2 quadratic saddles of acceptance criterion 11
    (well-posed reduced objective, full-rank constraint), each as (P, config,
    (a, b, K, A, B, c)): the problem, run_pgmsad's settings for it (eps
    1e-10, no final projection) and the data of its exact saddle."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(20):
        while True:
            a = 1.0 + rng.random()
            bq = 1.0 + rng.random()
            K = 0.3 * rng.standard_normal((2, 2))
            A = 0.15 * rng.standard_normal((2, 2))
            B = 0.5 * rng.standard_normal((2, 2))
            c = 0.4 * rng.standard_normal(2)
            H = np.block(
                [
                    [a * np.eye(2) + K @ K.T / bq, A.T + K @ B.T / bq],
                    [A + B @ K.T / bq, B @ B.T / bq],
                ]
            )
            ev = np.linalg.eigvalsh(0.5 * (H + H.T))
            if ev.min() > 0.02 and np.linalg.matrix_rank(np.hstack([A, B])) == 2:
                break
        P = MinimaxProblem(
            g=smooth_scaled_sq_norm(a), phi=prox_zero(),
            h=smooth_scaled_sq_norm(bq), psi=prox_zero(),
            K=K, A=A, B=B, c=c, mu=bq,
        )
        C = compute_constants(P)
        cfg = SolverConfig(
            alpha_x=0.9 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=60,
            outer_cap=300000, eps=1e-10, x0=np.ones(2), y0=np.ones(2),
            project_final=False,
        )
        out.append((P, cfg, (a, bq, K, A, B, c)))
    return out


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


def glpe_sweep_step(G, alpha, inner_steps, x):
    """One outer GLPE step as the plain sweep loop: linearize at x through the
    projection Jacobian, J = A + B D_K(x), run inner_steps Richardson sweeps
    w <- w + alpha (J^T r - J^T J w) from w = 0 on the equation residual r,
    and return x - w."""
    J = G.A + G.B @ projection_jacobian(G.cone, x)
    r = G.A @ x + G.B @ project_cone(G.cone, x) - G.b
    JtJ = J.T @ J
    Jtr = J.T @ r
    w = np.zeros(x.shape[0])
    for _ in range(inner_steps):
        w = w + alpha * (Jtr - JtJ @ w)
    return x - w


def glpe_structured(G, config):
    """run_glpe's loop with a structured step on every iterate, whatever the
    cone and the equation error: certify projects x onto the cone, and a
    step finds x's pattern, rebuilds J and W when it changed (every step on
    the second-order cone) and takes x - W r. Returns a GlpeResult."""
    alpha = config.alpha if config.alpha is not None else glpe_paper_step_size(G)
    A, B, b = G.A, G.B, G.b
    cone = G.cone
    n = A.shape[1]
    last_step = (0.0, 0.0)
    linearization = (None, None, None)
    patterns = 0

    def linearize(x):
        J = A + B @ projection_jacobian(cone, x)
        return J, richardson_operator(J, alpha, config.inner_steps)

    def certify(x):
        xk = project_cone(cone, x)
        r = A @ x + B @ xk - b
        err = norm2(r)
        return err <= config.eps, (*last_step, err, err), (xk, r, err)

    def step(x, cert, t):
        nonlocal last_step, linearization, patterns
        xk, r, _ = cert
        key = projection_pattern(cone, x, xk)
        if key is None or key != linearization[0]:
            linearization = (key, *linearize(x))
            patterns += 1
        _, J, W = linearization
        w = W @ r
        x = x - w
        if config.record_trace:
            last_step = (norm2(w), norm2(r - J @ w))
        return x

    x0 = start_vector(config.x0, n, "x0", lambda: np.zeros(n))
    run = iterate(x0, step, certify, config.outer_cap, config.record_trace)
    xk, _, err = run.cert
    J, W = linearize(run.state)
    return GlpeResult(
        x=run.state,
        x_cone=xk,
        error=err,
        trace=run.trace,
        iterations=run.t,
        converged=run.converged,
        rate=float(np.abs(np.linalg.eigvals(np.eye(n) - W @ J)).max()),
        patterns=patterns,
    )


def _split_to_minimax(G, cone, z_term, head) -> MinimaxProblem:
    """The minimax encoding shared by the two cone splits of A x + B P(x) = b.

    The min variable is the cone part (indicator of cone); the max variable
    is the pair (y, z) with the prox term z_term on z. They couple
    through (b - (A+B) x)^T y under the joint constraint
    x - head^T y - z = 0. Both smooth terms are linear, so the instance
    lives in relaxed mode (mu = 0).
    """
    mrows, n = G.A.shape
    K = np.zeros((n, mrows + n))
    K[:, :mrows] = -(G.A + G.B).T
    return MinimaxProblem(
        g=smooth_zero(),
        phi=prox_indicator(cone),
        h=SmoothOracle(0.0, b=np.concatenate([-G.b, np.zeros(n)])),
        psi=prox_blocks([(prox_zero(), mrows), (z_term, n)]),
        K=K,
        A=np.eye(n),
        B=np.hstack([-head.T, -np.eye(n)]),
        c=np.zeros(n),
        mu=0.0,
    )


def gave_to_minimax(G: GaveInstance) -> MinimaxProblem:
    """Encode the absolute-value equation as a constrained minimax template.

    x+ is the nonnegative part (orthant indicator), z lies in the
    nonnegative orthant, and the constraint is x+ - (B-A)^T y - z = 0.
    """
    orthant = ConeSpec(kind=NONNEG_ORTHANT, dim=G.A.shape[1])
    return _split_to_minimax(G, orthant, prox_indicator(orthant), G.B - G.A)


def glpe_to_minimax(G: GlpeInstance) -> MinimaxProblem:
    """Encode the projection equation as a constrained minimax template.

    x_K lies in K, z carries the indicator of the polar cone, and the
    constraint is x_K - A^T y - z = 0.
    """
    return _split_to_minimax(G, G.cone, prox_polar_indicator(G.cone), G.A)


def pgmsad_structured(P, config):
    """run_pgmsad's loop on the structured steps whatever the problem:
    inner_ascent, outer_step and, when project_each_outer is set,
    project_feasible under iterate, certified by certify_residuals. Starts
    from the config's x0, y0 and lambda0, which must be given, and returns
    iterate's LoopResult (no final projection)."""

    def step(s, cert, t):
        y = inner_ascent(P, s.x, s.lam, s.y, config.inner_steps, config.alpha_y, cert[1])
        x, lam = outer_step(P, s.x, s.lam, y, config.alpha_x)
        if config.project_each_outer:
            x, y = project_feasible(P, x, y)
        return IterateState(x=x, y=y, lam=lam, t=t + 1)

    start = IterateState(x=config.x0, y=config.y0, lam=config.lambda0, t=0)
    certify = certify_residuals(P, 1.0 / config.alpha_x, 1.0 / config.alpha_y, config.eps)
    return iterate(start, step, certify, config.outer_cap, True)


def cli_like_saddle(project_each_outer, seed=1, n=40, q=8):
    """A saddle drawn as perfbench's cli-manifest one (the 400 x 400 saddle
    with y in the nonnegative orthant), at n = m = 40 and q = 8 from the
    given seed, and its run settings there: steps 0.9 / L_theta and
    0.9 / L_h, 5 inner steps, eps 1e-8, the start at ones. With seed 1 the
    run stops at eps after 1,227 outer steps projected each step and 867
    otherwise, where the final projection leaves res_y above eps."""
    rng = np.random.default_rng(seed)
    a, b = 1.0 + rng.random(), 1.0 + rng.random()
    K = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A = 0.3 * rng.standard_normal((q, n)) / np.sqrt(n)
    B = rng.standard_normal((q, n)) / np.sqrt(n)
    c = 0.4 * rng.standard_normal(q)
    P = MinimaxProblem(g=smooth_scaled_sq_norm(a), phi=prox_zero(), h=smooth_scaled_sq_norm(b),
                       psi=prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=n)),
                       K=K, A=A, B=B, c=c, mu=b)
    C = compute_constants(P)
    return P, SolverConfig(alpha_x=0.9 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=5,
                           outer_cap=20000, eps=1e-8, project_each_outer=project_each_outer,
                           x0=np.ones(n), y0=np.ones(n))


def mixed_prox_saddle(seed=4, n=12, q=3):
    """A seeded saddle at n = m = 12 and q = 3 whose prox terms are blocks
    of every other kind: phi a scaled squared norm, a linear shift, the
    polar indicators of a second-order and a 1-norm cone and a zero block;
    psi the indicators of the orthant, a box, the 1-norm, second-order,
    free and zero cones. Its settings run 400 projected outer steps (eps 0)
    at steps 0.2 / L_theta and 0.9 / L_h; the run stays finite."""
    rng = np.random.default_rng(seed)
    cone = lambda kind, dim, **bounds: ConeSpec(kind=kind, dim=dim, **bounds)
    phi = prox_blocks([(prox_scaled_sq_norm(0.5), 2),
                       (prox_linear_shift(rng.standard_normal(2)), 2),
                       (prox_polar_indicator(cone(SECOND_ORDER, 3)), 3),
                       (prox_polar_indicator(cone(L1_NORM, 3)), 3), (prox_zero(), 2)])
    psi = prox_blocks([(prox_indicator(cone(NONNEG_ORTHANT, 2)), 2),
                       (prox_indicator(cone(BOX, 2, lower=-np.ones(2), upper=np.ones(2))), 2),
                       (prox_indicator(cone(L1_NORM, 3)), 3),
                       (prox_indicator(cone(SECOND_ORDER, 3)), 3),
                       (prox_indicator(cone(FREE, 1)), 1), (prox_indicator(cone(ZERO, 1)), 1)])
    K = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A = 0.3 * rng.standard_normal((q, n)) / np.sqrt(n)
    B = rng.standard_normal((q, n)) / np.sqrt(n)
    c = 0.4 * rng.standard_normal(q)
    P = MinimaxProblem(g=smooth_scaled_sq_norm(1.3), phi=phi, h=smooth_scaled_sq_norm(1.7),
                       psi=psi, K=K, A=A, B=B, c=c, mu=1.7)
    C = compute_constants(P)
    return P, SolverConfig(alpha_x=0.2 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=5,
                           outer_cap=400, eps=0.0, project_each_outer=True,
                           x0=np.ones(n), y0=np.ones(n))


def seeded_gave(seed=5, mrows=30, n=20):
    """A seeded 30 x 20 absolute value equation A x + B |x| = b with a
    known solution: A a dominant diagonal plus Gaussian noise, B small."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((mrows, n)) / np.sqrt(n) + 2.0 * np.eye(mrows, n)
    B = 0.3 * rng.standard_normal((mrows, n)) / np.sqrt(n)
    x = rng.standard_normal(n)
    return GaveInstance(A=A, B=B, b=A @ x + B @ np.abs(x))


def linreg_structured(P, config):
    """run_linreg's loop on the structured steps whatever the ascent weight:
    inner_ascent, the descent step and project_feasible under iterate, each
    iterate certified by recover_multiplier and residuals. Starts from the
    projection of the config's x0 and y0, or of run_linreg's draws from the
    config's seed where they are None, and returns iterate's LoopResult,
    whose state carries its recovered multiplier."""
    L1, L2 = 1.0 / config.alpha_x, 1.0 / config.alpha_y

    def certify(s):
        s.lam = recover_multiplier(P, s.x, s.y)
        res = residuals(P, s.x, s.y, s.lam, L1, L2)
        return res.within(config.eps), (res.res_x, res.res_y, res.res_feas), res

    def step(s, cert, t):
        y = inner_ascent(P, s.x, None, s.y, config.inner_steps, config.alpha_y, P.K.T @ s.x)
        x = s.x - config.alpha_x * (P.g.gradient(s.x) + P.K @ y)
        x, y = project_feasible(P, x, y)
        return IterateState(x=x, y=y, lam=None, t=t + 1)

    rng = make_rng(config.seed)
    x = P.K @ standard_normal(rng, P.m) if config.x0 is None else config.x0
    y = P.K.T @ standard_normal(rng, P.n) if config.y0 is None else config.y0
    x, y = project_feasible(P, x, y)
    start = IterateState(x=x, y=y, lam=None, t=0)
    return iterate(start, step, certify, config.outer_cap, True)


def misaligned(a, offset):
    """A float64 copy of a whose data starts offset bytes past a 64-byte
    boundary (offset a multiple of 8; 0 gives an aligned copy), in a's
    layout: F-contiguous if a is, else C-contiguous. Products round by
    layout, so a copy in another one could move bits that alignment does
    not."""
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    buf = np.empty(a.size * 8 + 128, dtype=np.uint8)
    start = -address(buf) % 64 + offset
    out = buf[start : start + a.size * 8].view(np.float64).reshape(a.shape, order=order)
    out[...] = a
    return out


def address(a):
    """The address of the first byte of a's data."""
    return a.__array_interface__["data"][0]


class CountingMatrix:
    """Stand-in for a problem's K that counts the products taken with K
    (K @ v) and with its transpose (K.T @ v) in counts["K"] and
    counts["K.T"]. A row-batch product V @ K.T, as numerics.apply forms
    it, applies K to every row of V and counts as one product with K. The
    products are formed with the wrapped array, so a loop run on the
    stand-in gives the same bits."""

    __array_ufunc__ = None  # V @ stand-in goes to __rmatmul__, not to numpy

    def __init__(self, M, counts=None, key="K"):
        self.M = M
        self.counts = {"K": 0, "K.T": 0} if counts is None else counts
        self.key = key

    @property
    def shape(self):
        return self.M.shape

    @property
    def T(self):
        return CountingMatrix(self.M.T, self.counts, "K.T" if self.key == "K" else "K")

    def __matmul__(self, v):
        self.counts[self.key] += 1
        return self.M @ v

    def __rmatmul__(self, V):
        self.counts["K" if self.key == "K.T" else "K.T"] += 1
        return V @ self.M


def read_matrix_csv_lines(path):
    """CSV matrix reader, one float() per token."""
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


def read_matrix_mm_lines(path):
    """MatrixMarket reader (coordinate or array, real/integer, general) that
    parses each entry line with split(), int() and float()."""
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
        return np.array(values).reshape((cols, rows)).T


def write_matrix_csv_lines(M, path):
    """CSV matrix writer, one repr(float(x)) per entry."""
    with open(path, "w", encoding="ascii") as fh:
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def write_matrix_mm_lines(M, path, layout="coordinate"):
    """MatrixMarket writer, one f-string per entry. The coordinate layout
    lists the entries np.nonzero finds, so it drops -0.0."""
    rows, cols = M.shape
    with open(path, "w", encoding="ascii") as fh:
        if layout == "coordinate":
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            nz = np.nonzero(M)
            fh.write(f"{rows} {cols} {len(nz[0])}\n")
            for i, j in zip(*nz):
                fh.write(f"{i + 1} {j + 1} {float(M[i, j])!r}\n")
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{rows} {cols}\n")
            for j in range(cols):
                for i in range(rows):
                    fh.write(repr(float(M[i, j])) + "\n")


def write_trace_records_csv(trace, path):
    """A trace array written one row at a time under the frozen header, each
    entry read as a Python float: t is the row index, and a NaN app_error is
    left blank."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t, row in enumerate(trace):
            elapsed, res_x, res_y, res_feas, app = map(float, row)
            app = "" if math.isnan(app) else repr(app)
            fh.write(f"{t},{elapsed:.6f},{res_x!r},{res_y!r},{res_feas!r},{app}\n")


def assert_trace_csv_is_the_records_csv(trace, directory):
    """solver.write_trace_csv writes the bytes write_trace_records_csv writes
    from the trace's rows, elapsed_s aside (files in directory)."""
    got, want = directory / "got.csv", directory / "want.csv"
    write_trace_csv(trace, got)
    write_trace_records_csv(trace, want)
    assert trace_csv_without_elapsed(got) == trace_csv_without_elapsed(want)


def trace_csv_without_elapsed(path):
    """The bytes of a trace CSV with the elapsed_s field of every row emptied."""
    with open(path, "rb") as fh:
        return re.sub(rb"^(\d+),[^,\n]*,", rb"\1,,", fh.read(), flags=re.MULTILINE)
