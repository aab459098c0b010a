"""Solver loops: multi-step ascent-descent, the generic alternating framework,
the feasibility projection, and the inner/outer budget planner.

The main entry point is run_pgmsad: N proximal-ascent steps in y per outer
iteration, then one proximal-descent step in (x, lambda). The lambda update
uses the old x, exactly as the method is defined. run_framework is the same
outer loop with the inner maximization delegated to a caller-supplied solver
that must meet a per-iteration accuracy target.
"""

from __future__ import annotations

import json
import math
import reprlib
import time
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError, FrameworkError
from .numerics import (aligned, apply, as_vector, check_positive, is_number, json_finite, matvec,
                       serial_matmul)
from .problem import (
    BudgetConstants,
    MinimaxProblem,
    ProblemConstants,
    Residuals,
    check_budget_steps,
    feas,
    grad_x,
    inner_residual,
    residual_vectors,
    residuals,
)
from .prox import PROX_ZERO, prox_eval, prox_map
from .rng import make_rng, standard_normal

TRACE_HEADER = "t,elapsed_s,res_x,res_y,res_feas,app_error"
TRACE_COLUMNS = TRACE_HEADER.split(",")[2:]  # the row a certify returns


@dataclass
class IterateState:
    """Current iterate (x, y, lambda) after t outer iterations."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    t: int


def check_settings(values, steps=(), counts=(), nonnegative=(), positive=()):
    """Raise ConfigurationError unless the named entries of the dict values are valid.

    steps (step sizes) and positive fields must be positive and finite,
    counts nonnegative integers, and nonnegative fields numbers >= 0. A bool
    is none of these, and the comparisons are written so that NaN fails them.
    A bad value shows as its reprlib.repr: one short line, however large.
    """
    for name in (*steps, *positive):
        check_positive(name, values[name], "step size " if name in steps else "")
    for name in counts:
        value = values[name]
        if not (is_number(value, Integral) and value >= 0):
            raise ConfigurationError(
                f"{name} must be a nonnegative integer, got {reprlib.repr(value)}")
    for name in nonnegative:
        value = values[name]
        if not (is_number(value) and value >= 0):
            raise ConfigurationError(f"{name} must be >= 0, got {reprlib.repr(value)}")


@dataclass
class SolverConfig:
    """Step sizes, loop counts, and termination settings for run_pgmsad.

    project_final applies the feasibility projection once to the returned
    point (after at least one iteration ran); project_each_outer applies it
    every iteration.
    """

    alpha_x: float
    alpha_y: float
    inner_steps: int
    outer_cap: int
    eps: float = 0.0
    project_each_outer: bool = False
    project_final: bool = True
    record_trace: bool = True
    seed: int = 0
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    lambda0: Optional[np.ndarray] = None

    def __post_init__(self):
        check_settings(
            vars(self),
            steps=("alpha_x", "alpha_y"),
            counts=("inner_steps", "outer_cap", "seed"),
            nonnegative=("eps",),
        )


class SolveResult(NamedTuple):
    state: IterateState
    trace: np.ndarray
    residuals: Residuals
    converged: bool


class FrameworkResult(NamedTuple):
    state: IterateState
    trace: np.ndarray
    eps_used: list


def inner_ascent(P: MinimaxProblem, x, lam, y0, n_steps, alpha_y, drive=None, prox=None):
    """Run n_steps proximal gradient-ascent steps on y for fixed (x, lambda).

    y <- prox_{alpha_y psi}[y + alpha_y (-grad h(y) + K^T x + B^T lambda)].
    For mu-strongly concave inner problems and alpha_y < 1/L_h each step
    contracts the squared distance to y_*(x, lambda) by (1 - mu alpha_y).
    With psi = 0 the steps are the entrywise affine recurrence
    y <- r y + alpha_y (drive - b), r = 1 - alpha_y d, and the N steps are
    taken at once in closed form with the problem's cached coefficients:
    the work does not grow with n_steps. Any other psi runs the N-step
    loop. Overflow gives inf or NaN, not an error: iterate decides
    divergence. drive, when given, is K^T x + B^T lambda of (x, lambda),
    as certify_residuals hands it on (or K^T x, where the multiplier is
    not iterated), and is not formed again; prox, prox_map(P.psi, alpha_y)
    bound and checked once by the caller, is not bound again. Unbound, a
    step outside (0, inf) is a ConfigurationError.
    """
    if n_steps < 0:
        raise ConfigurationError("inner_ascent needs n_steps >= 0")
    if prox is None:
        check_positive("alpha_y", alpha_y)
    if drive is None:
        drive = apply(P.K.T, x) + apply(P.B.T, lam)
    y = np.asarray(y0, dtype=np.float64)
    if P.psi.kind == PROX_ZERO:
        p, w = P.ascent_map(n_steps, alpha_y)
        return p * y + w * (drive if P.h.b is None else drive - P.h.b)
    prox, grad_h = prox_map(P.psi, alpha_y) if prox is None else prox, P.h.gradient
    for _ in range(n_steps):
        y = prox(y + alpha_y * (drive - grad_h(y)))
    return y if n_steps else y.copy()


def outer_step(P: MinimaxProblem, x, lam, y_next, alpha_x, fixed=None, By=None, prox=None):
    """One proximal-descent step in (x, lambda) given the updated y.

    x+ = prox_{alpha_x phi}[x - alpha_x (grad g(x) + K y+ + A^T lambda)],
    lambda+ = lambda - alpha_x [A x + B y+ + c]  (old x, by definition).
    Overflow gives inf or NaN, as in inner_ascent. fixed (see grad_x), By =
    B y+ and prox = prox_map(P.phi, alpha_x), when given, are not formed or
    bound again (as in inner_ascent; without prox, prox_eval runs).
    """
    if prox is None:
        check_positive("alpha_x", alpha_x)
    v = x - alpha_x * grad_x(P, x, y_next, lam, None, fixed)
    x_next = prox_eval(P.phi, alpha_x, v) if prox is None else prox(v)
    return x_next, lam - alpha_x * feas(P, x, y_next, None if fixed is None else fixed[2], By)


def project_feasible(P: MinimaxProblem, x, y, By=None):
    """Euclidean projection of (x, y) onto {(x, y): A x + B y + c = 0}.

    zeta = (A A^T + B B^T)^{-1} (A x + B y + c), then subtract
    (A^T zeta, B^T zeta). The Gram inverse is cached on the problem; By,
    when given, is B y and is not formed again.
    """
    zeta = P.gram_solve(feas(P, x, y, By=By))
    return x - apply(P.A.T, zeta), y - apply(P.B.T, zeta)


def pgmsad_step(P: MinimaxProblem, config: SolverConfig, x, y, lam, drive=None, fixed=None,
                maps=(None, None)):
    """run_pgmsad's outer step: inner_ascent, outer_step and, under
    project_each_outer, project_feasible, with drive and fixed from
    certify_residuals, the run's prox maps (prox_{alpha_y psi}, prox_{alpha_x
    phi}) and B y+ formed once for both; returns (x, y, lambda). With phi =
    psi = 0 it takes a batch of points as rows (see numerics.apply)."""
    y = inner_ascent(P, x, lam, y, config.inner_steps, config.alpha_y, drive, maps[0])
    By = apply(P.B, y)
    x, lam = outer_step(P, x, lam, y, config.alpha_x, fixed, By, maps[1])
    if config.project_each_outer:
        x, y = project_feasible(P, x, y, By)
    return x, y, lam


def start_vector(given, dim, name, draw):
    """A driver's start point: given as a checked float64 copy of length dim
    (a ConfigurationError names the field otherwise), or draw() when given
    is None. Draws are made only for the points not given, in call order."""
    if given is None:
        return draw()
    arr = as_vector(given, name).copy()
    if arr.shape != (dim,):
        raise ConfigurationError(f"{name} must have length {dim}, got shape {arr.shape}")
    return arr


def _gaussian_start(P: MinimaxProblem, seed, x0, y0, lambda0) -> IterateState:
    """Iterate 0 of run_pgmsad and run_framework: the points given, else x
    and then y drawn N(0, 1) from the seed, and lambda = 0."""
    rng = make_rng(seed)
    return IterateState(
        x=start_vector(x0, P.n, "x0", lambda: standard_normal(rng, P.n)),
        y=start_vector(y0, P.m, "y0", lambda: standard_normal(rng, P.m)),
        lam=start_vector(lambda0, P.q, "lambda0", lambda: np.zeros(P.q)),
        t=0,
    )


class LoopResult(NamedTuple):
    state: object
    cert: object
    t: int
    converged: bool
    trace: np.ndarray


class Block(NamedTuple):
    """The k >= 1 iterates after the current one, handed to iterate at once
    by a step: rows is their k x c float64 array of trace rows, each the
    first c values of TRACE_COLUMNS as a certify row is, done their k
    stopping tests, and at(i) returns the state and cert of the i-th, for the
    iterates the loop stops on or goes on from."""

    rows: np.ndarray
    done: np.ndarray
    at: Callable


def _check_row(row, t, last, trace):
    """Raise DivergenceError when an entry of iterate t's row is nonfinite,
    with the last certified state and an owned copy of trace rows 0..t - 1."""
    bad = [c for c, v in zip(TRACE_COLUMNS, row) if not math.isfinite(v)]
    if bad:
        msg = f"diverged at iterate {t}: nonfinite {', '.join(bad)}"
        raise DivergenceError(msg, state=last, trace=trace[:t].copy())


def iterate(state, step, certify, outer_cap, record_trace) -> LoopResult:
    """The outer loop every driver shares: certify iterate t, stop or step.

    certify(state) returns (done, row, cert): done is the stopping test of
    the iterate, row its trace values, the first c of TRACE_COLUMNS (c = 3
    without an app_error, 4 with one), and cert whatever the driver needs
    back or the step reuses (residuals, the recovered point, the iterate's
    products with K, ...).
    step(state, cert, t) returns iterate t + 1, which certify then checks,
    or a Block of the iterates t + 1, ..., t + k with their rows and tests
    already made. Iterate t is recorded as trace row t, so a run of T steps
    has rows 0..T. A block's rows share one elapsed stamp, taken when the
    step returns it.

    The trace is a (T + 1) x 5 float64 array: row t is iterate t, and its
    columns are elapsed_s and TRACE_COLUMNS, NaN in the columns a row does
    not have (a recorded app_error is finite). The run writes it in place:
    a certified row with one row assignment, a block's rows with one slice
    copy and one broadcast stamp. It doubles in place as rows come, and is
    returned trimmed in place: it owns its data, 40 bytes a row.

    The loop stops when done is true or after outer_cap steps, and returns
    the last state with its cert, the number of steps t, whether done held,
    and the trace. A block's rows after the cap are not used; one vector
    test finds its first done or nonfinite row. The loop alone decides
    divergence: steps and certify run under one np.errstate that lets
    overflow give inf and NaN, and a row with a nonfinite value (the row
    must cover every variable of the state) raises DivergenceError with the
    last certified state (None at iterate 0) and an owned copy of the trace
    so far; the message names the iterate and the columns.
    """
    # the trace, 1,024 rows at first; grow(rows) at least doubles it in place
    # within outer_cap + 1 rows, and no view of it may live across the resize
    # (growing by half took 2.1 MB more peak RSS on repeated glpe-cones passes)
    width = 1 + len(TRACE_COLUMNS)
    trace = np.full((min(outer_cap + 1, 1024) if record_trace else 0, width), np.nan)

    def grow(rows):
        size = len(trace)
        trace.resize((min(max(rows, 2 * size), outer_cap + 1), width), refcheck=False)
        trace[size:] = np.nan

    start = time.perf_counter()
    # the start point comes in as the output of step -1, with no predecessor
    t, state, out = -1, None, state
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if type(out) is Block:
                k = min(len(out.done), outer_cap - t)
                finite = np.isfinite(out.rows[:k]).all(axis=1)
                stops = np.flatnonzero(out.done[:k] | ~finite)
                k = int(stops[0]) + 1 if len(stops) else k
                if record_trace:
                    end = t + k + 1 if finite[k - 1] else t + k
                    if end > len(trace):
                        grow(end)
                    trace[t + 1 : end, 0] = time.perf_counter() - start
                    trace[t + 1 : end, 1 : 1 + out.rows.shape[1]] = out.rows[: end - t - 1]
                if not finite[k - 1]:
                    _check_row(out.rows[k - 1], t + k, out.at(k - 2)[0] if k > 1 else state, trace)
                state, cert = out.at(k - 1)
                t += k
                done = bool(out.done[k - 1])
                # the block's arrays go before the next step builds its own
                out = None
            else:
                last, state = state, out
                t += 1
                done, row, cert = certify(state)
                # the row's sum is nonfinite whenever an entry is; it can also
                # overflow, so the columns are then checked
                if not math.isfinite(sum(row)):
                    _check_row(row, t, last, trace)
                if record_trace:
                    if t == len(trace):
                        grow(t + 1)
                    trace[t, : 1 + len(row)] = [time.perf_counter() - start, *row]
            if done or t == outer_cap:
                if record_trace:
                    trace.resize((t + 1, width), refcheck=False)
                return LoopResult(state, cert, t, done, trace)
            out = step(state, cert, t)


def certify_residuals(P: MinimaxProblem, L1, L2, eps):
    """certify for iterate: the three residuals of an IterateState at
    scalings (L1, L2); done when all are <= eps.

    The cert is (residuals, drive, fixed): the iterate's K^T x + B^T lambda
    and (grad g(x), A^T lambda, A x), formed once here for the residuals,
    whose prox maps are bound once, and handed to the step (pgmsad_step).
    """
    maps = (prox_map(P.phi, 1.0 / L1), prox_map(P.psi, 1.0 / L2))

    def certify(s):
        drive = P.K.T @ s.x + P.B.T @ s.lam
        fixed = (P.g.gradient(s.x), P.A.T @ s.lam, P.A @ s.x)
        res = residuals(P, s.x, s.y, s.lam, L1, L2, None, drive, fixed, maps)
        return res.within(eps), (res.res_x, res.res_y, res.res_feas), (res, drive, fixed)

    return certify


# The largest n + m + q at which run_pgmsad takes a zero-prox outer step as
# one dense affine map. Affine / structured wall time of 1,000 outer steps
# with the build included (random problems with n = m, q = n / 5, N = 60;
# median of 3, 1 OpenBLAS thread, 2-vCPU Xeon VM):
#     n + m + q   5     70    140   220   255   330   374   440   880
#     ratio       0.24  0.27  0.36  0.47  0.58  0.91  1.05  1.68  2.56
# The crossover lies near 370; the limit leaves room for the build (2 ms at
# 255, about 60 steps' saving) and for other caches.
AFFINE_MAX_DIM = 256


# The least number of outer steps in a block of _run_affine (see
# _block_shape). Blocked / one-step-at-a-time wall time of run_pgmsad on the
# affine path, build included (random problems with n = m = (n + m + q) / 2.2
# rounded, K, A, B Gaussian scaled by 0.3 / sqrt(n), N = 60, eps = 0; median
# ratio of 21 pairs at 100 steps and 11 at 1,000, run in alternating order,
# 1 OpenBLAS thread, 2-vCPU Xeon VM). The rows marked "/ 8" are the same
# runs against blocks of at least 8 whose residual rows came from Z R^T,
# the two versions imported side by side:
#     n + m + q      5    22    44    64    65    86   128   129   192   220   256
#     j             51    11     5     4     3     2     2     1     1     1     1
#     k            102    66    65    64    66    64    64    64    64    64    64
#     100 steps   0.18  0.16  0.17  0.20  0.22  0.25  0.42  0.38  0.73  0.75  1.09
#       / 8       0.92  0.70  0.72  0.69  0.74  0.78  0.84  0.88  0.86  0.86  0.82
#     1,000 steps 0.03  0.04  0.06  0.08  0.09  0.11  0.16  0.21  0.36  0.42  0.54
#       / 8       0.79  0.42  0.48  0.49  0.58  0.65  0.83  0.79  0.85  0.64  0.84
# A residual row costs less in a longer block: at n = 400 (883 x 400 R), R Z^T
# took 33 us a row at 8 rows, 30 at 32 and 22.5 at 64, against 46 for Z R^T
# at any of them (median of 7, same VM). linreg-400's solve against blocks
# of 8 by Z R^T, median of 15 in-process rounds (batches differ by about
# 0.05): 0.74x here, 0.84x with Z R^T in blocks of 64, 0.76x with R Z^T in
# blocks of 16, and 0.74x in blocks of 128, which fill twice the spare
# iterates. The last block stops at the cap, so a short run fills few.
AFFINE_BLOCK_MIN = 64


def _block_shape(dim, rows):
    """(j, k) at n + m + q = dim: a block of _run_affine holds k outer steps
    (one of apps.run_glpe, at dim = n, keeps up to k), filled by k / j
    products with the stacked powers M, ..., M^j. j is AFFINE_MAX_DIM // dim
    (at least 1) and k the least multiple of j that is at least rows
    (AFFINE_BLOCK_MIN for _run_affine, apps.GLPE_BLOCK_MIN for run_glpe)."""
    j = max(1, AFFINE_MAX_DIM // dim)
    return j, j * -(-rows // j)


def stacked_powers(M, c, j):
    """(S, C) of the affine map z <- M z + c: the stacked powers
    S = [M; M^2; ...; M^j] and the offsets C_i = sum_{l<i} M^l c, i = 1..j,
    so that (S z).reshape(j, d) + C holds the j iterates after z. Products
    go through serial_matmul; overflow gives inf or NaN entries. S is
    aligned(), for the fills' matvecs; no bit depends on its address."""
    S, C = [M], [c]
    for _ in range(1, j):
        S.append(serial_matmul(M, S[-1]))
        C.append(M @ C[-1] + c)
    return (np.concatenate(S, out=aligned((j * len(c), len(c)))) if j > 1 else M), np.array(C)


def fill_iterates(z, k, S, C, step=None):
    """z and the k iterates after it as the rows of one (k + 1) x d array,
    by k / len(C) products with stacked powers (S, C) (see stacked_powers).

    Given step = (M, c), the map z <- M z + c of one step, (S, C) are the
    map of two steps, (M^2, [M c + c]): its chain of matvecs gives the even
    iterates, and one serial_matmul with M all the odd ones at once. Z is
    aligned() (a small one np.empty) for the products that read it, with
    the same bits either way."""
    d, h, Sv = len(z), len(C), matvec(S)
    Z = aligned((k + 1, d))
    Z[0] = z
    chain = Z if step is None else Z[::2]
    for lo in range(1, len(chain), h):
        np.add(Sv(chain[lo - 1]).reshape(h, d), C, out=chain[lo : lo + h])
    if step is not None:
        Z[1::2] = apply(step[0], Z[:-1:2]) + step[1]
    return Z


# Unit rows per call of f in affine_parts: 0.2 MB per array at n = 400, where
# all 401 rows of [I; 0] at once took 10 MB more peak memory than the maps
PROBE_ROWS = 64


def affine_parts(f, d):
    """(M, c) for each affine map of row batches of length d that f returns
    (a tuple of 2-d arrays): c = f(0), column i of M is f(e_i) - f(0), and
    M is C-contiguous and aligned(). f runs on the rows of [I; 0],
    PROBE_ROWS at a time."""
    parts = [(aligned((v.shape[1], d)), v[0]) for v in f(np.zeros((1, d)))]
    for i in range(0, d, PROBE_ROWS):
        for (M, c), v in zip(parts, f(np.eye(min(PROBE_ROWS, d - i), d, i))):
            M[:, i : i + len(v)] = (v - c).T
    return parts


def _run_affine(
    P: MinimaxProblem, config: SolverConfig, outputs, z0, start, certify, unstack
) -> LoopResult:
    """A zero-prox driver's loop on dense affine maps under iterate: the same
    trace rows, stop rule and divergence as its structured steps, with the
    outer steps taken in blocks of k (see _block_shape).

    outputs(Z) is the driver's step on a batch of iterates as rows and
    returns (the next iterates, their stacked residual vectors); run on the
    rows of [I; 0] (affine_parts) it gives the maps, overflow giving inf or
    NaN: a step is z <- M z + c, and the residual row of the next iterate
    the norms of the n-, m- and q-blocks of R z + r, each summed over its
    own squares. Iterate 0 is start (z0), certified by certify; a block
    row's cert is (its Residuals, None). unstack(z, prev, t) returns the
    driver's state of iterate t >= 1 = z with predecessor prev.

    The stacked powers of M are built once (stacked_powers), so a step is a
    Block: k / j products fill the k iterates Z after the current one, and
    one product R Z^T, with R held C-contiguous, gives their residual rows,
    one column per iterate. Where j = 1 the blocks are filled at two
    levels (fill_iterates): M^2 and M c + c, built with the maps, give the
    even iterates by one matvec per two steps, and one serial_matmul with M
    all the odd ones. The iterates then agree with a one-matvec fill to
    rounding, with the same bits at any BLAS thread count. M^2 is one more
    d x d array. Its build adds 6% to affine_parts' build at run_linreg's
    d = 130, 15% at 400 and 17% at 930, and 24% at run_pgmsad's d = 140
    and 43% at 256 (where that build is 2 ms); a block of 64 fills 31% to
    36% faster at d = 130 to 930, which repays the build after 1 block at
    d = 130, 4 at 256, 7 at 400 and 14 at 930 (median of 5). A shorter run
    pays for it: against the one-matvec fill, whole capped run_linreg runs
    took 1.09x at 10 steps, 1.06x at 100 and 0.99x at 1,000 at d = 400,
    and 1.15x, 1.08x and 0.96x at d = 800 (median of paired in-process
    rounds; 1 OpenBLAS thread, 2-vCPU Xeon VM). The last block before
    outer_cap ends at the first multiple of j at or past it. The loop's
    state is (z, prev, t). A block with a nonfinite row is filled
    again one z <- M z + c step at a time, so a DivergenceError names the
    iterate single steps name. A run that stops inside a block by eps or
    divergence has computed up to k - 1 iterates it does not use: 63 where
    j = 1, at 31 matvecs and one product.

    M, M^2 or the stacked powers, R (its zero rows built in) and each Z are
    numerics.aligned, as the block products stream them: linreg-400's solve
    moved by about 10% with where the heap put them. No bit depends on it.
    """
    n, nm, L1, L2 = P.n, P.n + P.m, 1.0 / config.alpha_x, 1.0 / config.alpha_y
    j, k = _block_shape(len(z0), AFFINE_BLOCK_MIN)

    def row_norms(Z):
        G = serial_matmul(R, Z.T)
        G += r[:, None]
        G *= G
        return np.sqrt(np.add.reduceat(G, [0, n + 1, nm + 2])).T

    def step(s, cert, t):
        h = min(k, j * -(-(config.outer_cap - t) // j))
        Z = fill_iterates(s[0], h, *fill)
        N = row_norms(Z[:-1])
        if not math.isfinite(N.sum()):
            Z = fill_iterates(s[0], h, M, c[None])
            N = row_norms(Z[:-1])
        return Block(N, (N <= config.eps).all(axis=1), lambda i: (
            (Z[i + 1], Z[i], t + i + 1), (Residuals(*N[i].tolist(), L1=L1, L2=L2), None)))

    def closed(Z):
        # a zero closes each of the n-, m- and q-blocks of R z + r, so each is
        # nonempty (q = 0 too) for the reduceat that sums its own squares
        z, v = outputs(Z)
        return z, np.insert(v, [n, nm, v.shape[1]], 0.0, axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        (M, c), (R, r) = affine_parts(closed, len(z0))
        # where j = 1, the two-step map and the one-step map (fill_iterates)
        fill = stacked_powers(M, c, j) if j > 1 else (
            serial_matmul(M, M), (M @ c + c)[None], (M, c))
    state_of = lambda s: start if s[2] == 0 else unstack(*s)
    try:
        run = iterate((z0, z0, 0), step, lambda s: certify(start),
                      config.outer_cap, config.record_trace)
    except DivergenceError as err:
        err.state = None if err.state is None else state_of(err.state)
        raise
    return run._replace(state=state_of(run.state))


def run_pgmsad(P: MinimaxProblem, config: SolverConfig) -> SolveResult:
    """Run the multi-step ascent-descent loop until eps-stationarity or the cap.

    Stops early once all three residuals at scalings (1/alpha_x, 1/alpha_y)
    are <= config.eps. converged describes the returned point: after the
    final projection it is decided again on the projected iterate.

    With phi = psi = 0 and n + m + q <= AFFINE_MAX_DIM, the outer steps come
    in blocks (see _run_affine): products with the stacked powers of the
    dense outer-step map give the block's iterates, and one product with the
    residual map their residual rows. _run_affine builds the maps from
    pgmsad_step and the residual_vectors of its output, on a batch of
    iterates as rows; certify_residuals certifies iterate 0 on both paths.
    iterate still checks and traces each row (a block's rows share one
    elapsed stamp), and the iterates agree with the structured steps to
    rounding. Any other problem takes pgmsad_step on each iterate.

    Returns (state, trace, residuals, converged). Deterministic for a fixed
    config and initial point (trace timestamps aside).
    """
    L1, L2 = 1.0 / config.alpha_x, 1.0 / config.alpha_y
    maps = (prox_map(P.psi, config.alpha_y), prox_map(P.phi, config.alpha_x))

    def step(s, cert, t):
        x, y, lam = pgmsad_step(P, config, s.x, s.y, s.lam, *cert[1:], maps)
        return IterateState(x=x, y=y, lam=lam, t=t + 1)

    start = _gaussian_start(P, config.seed, config.x0, config.y0, config.lambda0)
    certify = certify_residuals(P, L1, L2, config.eps)
    zero_prox = P.phi.kind == PROX_ZERO and P.psi.kind == PROX_ZERO
    if zero_prox and P.n + P.m + P.q <= AFFINE_MAX_DIM:
        n, nm = P.n, P.n + P.m

        def outputs(Z):
            x, y, lam = pgmsad_step(P, config, Z[:, :n], Z[:, n:nm], Z[:, nm:], maps=maps)
            return np.hstack((x, y, lam)), np.hstack(residual_vectors(P, x, y, lam, L1, L2))

        def unstack(z, prev, t):
            return IterateState(x=z[:n].copy(), y=z[n:nm].copy(), lam=z[nm:].copy(), t=t)

        z0 = np.concatenate([start.x, start.y, start.lam])
        run = _run_affine(P, config, outputs, z0, start, certify, unstack)
    else:
        run = iterate(start, step, certify, config.outer_cap, config.record_trace)
    state, res, converged = run.state, run.cert[0], run.converged
    if state.t > 0 and config.project_final and not config.project_each_outer:
        x, y = project_feasible(P, state.x, state.y)
        state = IterateState(x=x, y=y, lam=state.lam, t=state.t)
        res = residuals(P, x, y, state.lam, L1, L2)
        converged = res.within(config.eps)
    return SolveResult(state=state, trace=run.trace, residuals=res, converged=converged)


# slack on run_framework's inner-accuracy check: an exact maximizer given
# eps_t = 0 still leaves a residual at rounding level
INNER_CHECK_ATOL = 1e-9


def run_framework(
    P: MinimaxProblem,
    inner: Callable,
    eps_schedule,
    alpha_x: float,
    T: int,
    x0=None,
    y0=None,
    lambda0=None,
    seed: int = 0,
) -> FrameworkResult:
    """Alternating-coordinate framework with a delegated inner maximizer.

    inner(x, lam, y_start, eps_t) must return y+ with the y-block gradient
    mapping at unit scaling below eps_t (checked here, with absolute slack
    INNER_CHECK_ATOL), and should not move y away from y_*(x, lambda).
    eps_schedule is a callable t -> eps_t or a sequence of numbers >= 0 (inf
    allowed; anything else is a ConfigurationError naming the iteration);
    square-summable schedules are what the convergence theory asks for, so a
    constant schedule only triggers a warning. Runs exactly T outer steps;
    the trace has rows 0..T.
    """
    check_settings(
        {"alpha_x": alpha_x, "T": T, "seed": seed}, steps=("alpha_x",), counts=("T", "seed")
    )

    def target(t, value):
        name = f"eps_t of iteration {t}"
        check_settings({name: value}, nonnegative=(name,))
        return float(value)

    if callable(eps_schedule):
        eps_fn = eps_schedule
    else:
        sched = [target(t, v) for t, v in enumerate(eps_schedule)]
        if len(sched) < T:
            raise ConfigurationError(f"eps schedule has {len(sched)} entries, need {T}")
        if len(set(sched)) == 1 and T > 1:
            warnings.warn(
                "constant inner-accuracy schedule: the square-summability "
                "hypothesis behind convergence does not hold",
                stacklevel=2,
            )
        eps_fn = lambda t: sched[t]
    eps_used = []

    def step(s, cert, t):
        eps_t = target(t, eps_fn(t))
        y = np.asarray(inner(s.x, s.lam, s.y, eps_t), dtype=np.float64)
        achieved = inner_residual(P, s.x, y, s.lam, L=1.0)
        if achieved > eps_t + INNER_CHECK_ATOL:
            raise FrameworkError(
                f"inner solver missed its target at iteration {t}: "
                f"residual {achieved:.3e} > eps_t {eps_t:.3e}",
                iteration=t,
            )
        x, lam = outer_step(P, s.x, s.lam, y, alpha_x)
        eps_used.append(eps_t)
        return IterateState(x=x, y=y, lam=lam, t=t + 1)

    # a fixed budget of T steps: eps -1 never stops the loop early
    certify = certify_residuals(P, 1.0 / alpha_x, 1.0, -1.0)
    run = iterate(_gaussian_start(P, seed, x0, y0, lambda0), step, certify, T, True)
    return FrameworkResult(state=run.state, trace=run.trace, eps_used=eps_used)


def plan_budget(
    C: ProblemConstants,
    B: BudgetConstants,
    alpha_x: float,
    alpha_y: float,
    mu: float,
    eps: float,
):
    """Inner/outer iteration counts (N, T) guaranteeing an eps-stationary point.

    With a bounded domain radius beta1:
        N = ceil[(log(8 gamma1 beta1^2) + 2 log(1/eps)) / (-log(1 - mu alpha_y))],
    or with a uniform gap bound omega1:
        N = ceil[(log(4 gamma1 omega1 / mu) + 2 log(1/eps)) / (-log(1 - mu alpha_y))],
    and in both cases T = ceil(2 gamma2 theta_gap / eps^2). Both are clamped
    to at least 1. Each log of a product is taken as the sum of the logs of
    its factors, so a tiny beta1 or omega1 whose square or product would
    underflow still gives its N. Exactly one of beta1/omega1 and a
    theta_gap are required; they and eps must be positive and finite, and a
    budget too large for a float is a ConfigurationError too.
    """
    if mu <= 0:
        raise ConfigurationError("plan_budget needs mu > 0")
    if B.theta_gap is None:
        raise ConfigurationError("plan_budget needs theta_gap (initial gap upper bound)")
    if (B.beta1 is None) == (B.omega1 is None):
        raise ConfigurationError("plan_budget needs exactly one of beta1 / omega1")
    bound = "beta1" if B.omega1 is None else "omega1"
    values = {"eps": eps, "theta_gap": B.theta_gap, bound: getattr(B, bound)}
    check_settings(values, positive=tuple(values))
    check_budget_steps(C, alpha_x, alpha_y)
    if not (0 < mu * alpha_y < 1):
        raise ConfigurationError("plan_budget needs mu * alpha_y in (0, 1)")

    rate = -math.log(1.0 - mu * alpha_y)
    try:
        if B.beta1 is not None:
            scale = math.log(8.0) + 2.0 * math.log(B.beta1)
        else:
            scale = math.log(4.0) + math.log(B.omega1) - math.log(mu)
        numer = scale + math.log(B.gamma1) + 2.0 * math.log(1.0 / eps)
        N = max(1, math.ceil(numer / rate))
        T = max(1, math.ceil(2.0 * B.gamma2 * B.theta_gap / eps**2))
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        msg = f"plan_budget: the budget overflows a float (eps {eps!r}, {bound} {values[bound]!r})"
        raise ConfigurationError(msg) from exc
    return N, T


def write_trace_csv(trace: np.ndarray, path):
    """Write a trace with the frozen header t,elapsed_s,res_x,res_y,res_feas,app_error:
    t the row index, elapsed to six decimals, each residual as the repr of
    its float, and app_error blank where the row has none (NaN)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t, (e, a, b, c, d) in enumerate(trace.tolist()):
            fh.write(f"{t},{e:.6f},{a!r},{b!r},{c!r},{'' if math.isnan(d) else repr(d)}\n")


def state_to_json(state: IterateState, res: Residuals, wall_time_s: float) -> dict:
    return {
        "x": [float(v) for v in state.x],
        "y": [float(v) for v in state.y],
        "lambda": [float(v) for v in state.lam],
        "residuals": {
            "res_x": res.res_x,
            "res_y": res.res_y,
            "res_feas": res.res_feas,
            "L1": res.L1,
            "L2": res.L2,
        },
        "iterations": state.t,
        "wall_time_s": wall_time_s,
    }


def write_state_json(state: IterateState, res: Residuals, wall_time_s: float, path):
    """Write state_to_json's dict, a nonfinite float as null (json_finite)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(json_finite(state_to_json(state, res, wall_time_s)), fh, indent=2)
        fh.write("\n")
