"""Application drivers: absolute value equations, linear projection equations,
and jointly constrained linear regression.

Each application is a linearly constrained minimax problem (make_linreg
builds the regression one as a MinimaxProblem), solved by a dedicated
driver. The drivers share the multi-step texture of the generic solver but
each carries the stabilization its problem class needs:

- run_gave: split loop over (x+, y, z, lambda) with an augmented coupling
  term of weight `penalty`. The plain loop is an alternating step on a
  bilinear saddle, which orbits instead of converging; the penalty restores
  strong concavity along the constraint and is the standard multiplier-
  method fix. `penalty=0` reproduces the plain loop.
- run_glpe: the minimax reformulation of the bundled 5x5 instance provably
  has no saddle point (the inner dual is unattained), so the driver solves
  the equation A x + B P_K(x) = b directly: an outer fixed point whose step
  solves the local linearization by inner Richardson sweeps at the preset
  step size. Cone membership and complementarity of the returned split are
  exact by the Moreau decomposition.
- run_linreg: projected multi-step descent-ascent on the constraint set
  with the multiplier recovered by least squares for certification. The
  unprojected loop is unstable for this problem class because the reduced
  objective in (x, lambda) is indefinite whenever the constraint couples
  both variables.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .numerics import apply, as_matrix, as_vector, matvec, norm2, serial_matmul, stack_rows
from .problem import MinimaxProblem, recover_multiplier, residual_vectors, residuals
from .prox import (
    ConeSpec,
    L1_NORM,
    NONNEG_ORTHANT,
    PROX_ZERO,
    SECOND_ORDER,
    SmoothOracle,
    inside_pattern,
    on_pattern,
    project_cone,
    project_l1cone,
    project_soc,
    projection_jacobian,
    projection_pattern,
    prox_zero,
)
from .rng import gaussian_matrix, make_rng, standard_normal
from .solver import (
    TRACE_STAGE_ROWS,
    Block,
    IterateState,
    SolveResult,
    SolverConfig,
    Trace,
    _block_shape,
    _run_affine,
    check_settings,
    fill_iterates,
    inner_ascent,
    iterate,
    project_feasible,
    stacked_powers,
    start_vector,
)

logger = logging.getLogger(__name__)

_GLPE_CONES = (NONNEG_ORTHANT, SECOND_ORDER, L1_NORM)

# bilinear gain used when encoding regression instances; normalizes the
# coupling so the stock step sizes (0.3 on the descent side, 1 on the
# ascent side) sit inside the stable region with fast uniform contraction
LINREG_COUPLING_GAIN = 2.2

# The largest n + m + q at which run_linreg takes the affine path of x
# (solver._run_affine). Affine / structured wall time of run_linreg, build
# included (make_linreg(n, n, n // 5, seed 3) at the stock steps, eps = 0;
# median of 3, 1 OpenBLAS thread, 2-vCPU Xeon VM):
#     n + m + q      22   110   220   440   880  1760  3520
#     10 steps     0.84  0.87  1.56  3.84  14.1  15.1  21.7
#     100 steps    0.15  0.19  0.32  0.78  2.06  1.69  2.58
#     1,000 steps  0.07  0.09  0.15  0.26  0.43  0.52  0.64
# The 880 column was taken again with blocks of 64 and residual rows by
# R X^T (median of 5 alternating pairs); blocks of 8 by X R^T read 14.1,
# 2.16 and 0.55 in the same runs. The other columns are earlier figures.
# All predate the two-level fill where j = 1 (n > 128), whose M^2 adds 9%
# (n = 200) to 17% (n = 930) to the build: a run shorter than about 1,000
# steps is slower for it (see solver._run_affine).
# The build pays for itself after 200 to 370 steps at every size measured;
# the stock instances take 332 (n = 10) to 8,987 (n = 400) steps. Building
# the maps from the step itself (four products with K of n + 1 rows) takes
# about 40 ms at n = 400 and 0.63 s at n = 1,000 (0.56 s by the earlier
# hand-derived maps). The step and residual maps and M^2 (see
# solver._run_affine, which also has the cost of M^2) hold about 4.2 n^2
# doubles: 5.1 MiB at n = 400 and 27.7 MiB at n = 930, the largest n here.
LINREG_AFFINE_MAX_DIM = 2048


# The equation error at or under which run_glpe takes structured steps
# only; above it the orthant and 1-norm cones take blocks. Near eps 1e-13
# the error's step-to-step ratio is mostly rounding noise, so the stop is a
# first-passage time of that noise and its count holds only for the same
# iterate bits: the switch must leave the contraction enough structured
# steps to wash the blocks' rounding out of the iterate. Stock glpe-paper
# runs at eps 1e-13 by switch point, outer steps and the first 8 hex digits
# of sha256(x) (* = the pinned run, 115,328 3bac75f3 and 8,467 024be1f3):
#     switch          orthant               1-norm
#     1e-11           115,318  3bac75f3     8,467  cb9fb1e4
#     3e-11           115,325  3bac75f3     8,465  27dbf7b0
#     1e-10           115,327  3bac75f3     8,467  024be1f3 *
#     3e-10           115,328  3bac75f3 *   8,465  27dbf7b0
#     1e-9 ... 1e-6   115,328  3bac75f3 *   8,467  024be1f3 *
# (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6). Neither count is monotone in
# the switch, so the rule is a choice backed by this scan, not a bound:
# 1e-8 sits a decade inside the pinned range on both sides. At 1e-8 the
# orthant run reaches the switch point at step 65,966 after 70 blocks
# (and 3 that keep no iterate; 1,295 and 3 in blocks of a fixed 51), and
# takes its last 49,362 steps structured, in runs of structured steps (see
# run_glpe). On the benchmark's rotated instances (seeds 0 to 11), 23 of 24
# orthant and 1-norm runs kept the structured count and bits; seed 10's
# 1-norm run stopped at 8,468 steps against 8,465.
GLPE_BLOCK_SWITCH = 1e-8

# The least number of iterates in a block of run_glpe (solver._block_shape at
# n: k = 51 at n = 5), which holds k in its first block on a pattern and
# after a cut, and twice the last block's while each is kept whole (see
# run_glpe). The edges of blocks of k decide which iterates carry a block's
# rounding, so the switch scan above and GLPE_PINS hold for this k; a longer
# block takes the same products and keeps every bit. A block is also cut at
# the first iterate that leaves its pattern's piece, and the iterates filled
# past that point are thrown away. Seeded orthant instances (A = N(0, 1) +
# 3 I, B = N(0, 1) / sqrt(n), b from a Gaussian x*, each drawn from
# np.random.default_rng(7); step 1 / ||A + B||^2, eps 1e-10, cap 20,000),
# CPU time against blocks of a fixed k, median of 7 alternating in-process
# rounds (15 for growing blocks at n = 200), 1 OpenBLAS thread, 2-vCPU Xeon
# VM:
#     n                            20      50     200
#     k                            12      10       8
#     outer steps               3,534  20,000  20,000
#     blocks, fixed k             246   2,015   2,556
#     blocks, growing              33      46     134
#     rows filled, growing / k   1.06    1.00    1.09
#     time, growing              0.61    0.39    0.87 *
#     time, fixed 1,024          1.05    0.67    3.07
# The growing blocks keep every bit of these runs. * Unresolved: at n = 200
# the run meets 54 patterns, the grown blocks cut at their changes fill
# about 9% more rows, and the paired rounds spread from 0.65 to 1.14 (an
# earlier 7-round series read 1.00). In 20 alternating pairs of separate
# processes (min of 5 runs each) growing blocks were faster in 18, at a
# median of 0.52 against 0.69 s, but the parent's quartiles lie 0.22 s
# apart, wider than the difference. Blocks of a fixed 1,024 throw away up
# to 1,023 rows at each cut, and at n = 50 they move the bits (k = 1,025
# there: a product of more rows rounds otherwise).
GLPE_BLOCK_MIN = 8


@dataclass
class _EquationData:
    """Data (A, B, b) of an equation A x + B F(x) = b, checked on construction:
    A and B finite matrices of one shape, b a finite vector, one entry per row."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.b = as_vector(self.b, "b")
        if self.A.shape != self.B.shape:
            raise ConfigurationError("A and B must have the same shape")
        if self.b.shape[0] != self.A.shape[0]:
            raise ConfigurationError("b length must match the row count of A")


class GaveInstance(_EquationData):
    """Data (A, B, b) of the equation A x + B |x| = b."""

    def error(self, x):
        """Scoring metric ||A x + B |x| - b||."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.linalg.norm(self.A @ x + self.B @ np.abs(x) - self.b))


@dataclass
class GlpeInstance(_EquationData):
    """Data (A, B, b, cone) of the equation A x + B P_K(x) = b."""

    cone: ConeSpec

    def __post_init__(self):
        super().__post_init__()
        if self.cone.kind not in _GLPE_CONES:
            raise ConfigurationError(
                f"unsupported cone {self.cone.kind!r}; choose one of {_GLPE_CONES}"
            )
        if self.cone.dim != self.A.shape[1]:
            raise ConfigurationError("cone dimension must match the column count of A")


@dataclass
class LinRegInstance:
    """Seeded Gaussian regression data with a joint linear constraint."""

    n: int
    m: int
    p: int
    K: np.ndarray
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lambda_reg: float
    seed: int


@dataclass
class GaveConfig:
    """Settings for the split absolute-value-equation loop.

    alpha_x steps x+ and lambda, alpha_y the free block y and the slack z.
    penalty is the augmented-coupling weight (0 gives the plain alternating
    loop). eps is the equation-error stopping threshold.
    """

    alpha_x: float
    alpha_y: float
    inner_steps: int
    outer_cap: int
    penalty: float = 1.0
    eps: float = 0.0
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    lambda0: Optional[np.ndarray] = None
    record_trace: bool = True

    def __post_init__(self):
        check_settings(
            vars(self),
            steps=("alpha_x", "alpha_y"),
            counts=("inner_steps", "outer_cap"),
            nonnegative=("penalty", "eps"),
        )


@dataclass
class GaveResult:
    """Outcome of a split absolute-value-equation run."""

    x: np.ndarray
    error: float
    trace: Trace
    x_plus: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool
    recovery_sign: int


def run_gave(G: GaveInstance, config: GaveConfig) -> GaveResult:
    """Solve A x + B |x| = b by the augmented multi-step split loop.

    Per outer iteration: inner ascent steps on the free block y and
    projected steps on the slack z (both against the penalty-augmented
    coupling), then a projected step on the nonnegative part x+ and the
    multiplier update lambda <- lambda + alpha_x [x+ - (B-A)^T y - z]
    using the new x+. The reported solution is the better of x+ -/+ lambda
    under the equation-error metric; the sign carrying the multiplier
    estimate of the negative part wins at the saddle.

    The loop state is an IterateState of the split's variables: x = x+
    (the nonnegative part), y = (y, z) stacked (the free block and the
    slack), and the multiplier lambda. A DivergenceError carries the last
    finite one.
    """
    A, B, b = G.A, G.B, G.b
    mrows, n = A.shape
    AB = A + B
    BmA = B - A
    rho = config.penalty
    ax, ay = config.alpha_x, config.alpha_y

    def certify(s):
        x, y, z, lam = s.x, s.y[:mrows], s.y[mrows:], s.lam
        minus = x - lam
        plus = x + lam
        e_minus = G.error(minus)
        e_plus = G.error(plus)
        pick = (plus, e_plus, +1) if e_plus < e_minus else (minus, e_minus, -1)
        err = pick[1]
        # built even without a trace: the row covers y, z and lambda for iterate
        gap = x - BmA.T @ y - z
        step_x = np.maximum(x + ax * (AB.T @ y + lam - rho * gap), 0.0)
        step_z = np.maximum(z + ay * (lam + rho * gap), 0.0)
        res_y = np.hypot(
            np.linalg.norm(b - AB @ x + BmA @ lam + rho * (BmA @ gap)),
            np.linalg.norm(z - step_z) / ay,
        )
        row = (
            float(np.linalg.norm(x - step_x) / ax),
            float(res_y),
            float(np.linalg.norm(gap)),
            err,
        )
        return err <= config.eps, row, pick

    def step(s, pick, t):
        x, y, z, lam = s.x, s.y[:mrows], s.y[mrows:], s.lam
        for _ in range(config.inner_steps):
            gap = x - BmA.T @ y - z
            y = y + ay * (b - AB @ x + BmA @ lam + rho * (BmA @ gap))
            z = np.maximum(z + ay * (lam + rho * gap), 0.0)
        gap = x - BmA.T @ y - z
        x_new = np.maximum(x + ax * (AB.T @ y + lam - rho * gap), 0.0)
        lam = lam + ax * (x_new - BmA.T @ y - z)
        return IterateState(x=x_new, y=np.concatenate([y, z]), lam=lam, t=t + 1)

    start = IterateState(
        x=start_vector(config.x0, n, "x0", lambda: np.zeros(n)),
        y=np.concatenate(
            [
                start_vector(config.y0, mrows, "y0", lambda: np.zeros(mrows)),
                start_vector(config.z0, n, "z0", lambda: np.zeros(n)),
            ]
        ),
        lam=start_vector(config.lambda0, n, "lambda0", lambda: np.zeros(n)),
        t=0,
    )
    run = iterate(start, step, certify, config.outer_cap, config.record_trace)
    s, (recovered, err, sign) = run.state, run.cert
    if sign > 0:
        logger.info("recovery x = x_plus + lambda scored %.3e", err)
    return GaveResult(
        x=recovered,
        error=err,
        trace=run.trace,
        x_plus=s.x,
        y=s.y[:mrows],
        z=s.y[mrows:],
        lam=s.lam,
        iterations=run.t,
        converged=run.converged,
        recovery_sign=sign,
    )


@dataclass
class GlpeConfig:
    """Settings for the projection-equation driver.

    alpha defaults to the preset 1/|det(A+B)|; inner_steps is the number of
    Richardson sweeps per outer linearization, at least 1; eps is the
    equation-error stopping threshold.
    """

    alpha: Optional[float] = None
    inner_steps: int = 5
    outer_cap: int = 500000
    eps: float = 1e-13
    x0: Optional[np.ndarray] = None
    record_trace: bool = True

    def __post_init__(self):
        check_settings(
            vars(self),
            steps=() if self.alpha is None else ("alpha",),
            counts=("inner_steps", "outer_cap"),
            nonnegative=("eps",),
        )
        if self.inner_steps == 0:
            raise ConfigurationError(
                "inner_steps must be at least 1: with no Richardson sweeps a step never moves x"
            )


@dataclass
class GlpeResult:
    """Outcome of a projection-equation run; x = x_cone + polar part exactly.

    rate is the spectral radius of I - W J, the Jacobian of the outer step
    at the returned x: the asymptotic error ratio per outer iteration (inf
    where I - W J overflows).
    patterns counts the linearizations built: one per active pattern met
    for the polyhedral cones, one per step for the second-order cone.
    """

    x: np.ndarray
    x_cone: np.ndarray
    error: float
    trace: Trace
    iterations: int
    converged: bool
    rate: float
    patterns: int


def glpe_paper_step_size(G: GlpeInstance) -> float:
    """The preset step size 1 / |det(A + B)| (LU with partial pivoting)."""
    if G.A.shape[0] != G.A.shape[1]:
        raise ConfigurationError("the determinant preset needs square A + B")
    det = float(np.linalg.det(G.A + G.B))
    if abs(det) < 1e-12:
        raise ConfigurationError(
            "A + B is singular; the determinant step-size preset is unavailable, "
            "supply an explicit step size"
        )
    return 1.0 / abs(det)


def richardson_operator(J, alpha, sweeps):
    """The matrix W with W r = the result of sweeps Richardson steps
    w <- w + alpha (J^T r - J^T J w) from w = 0, that is
    W = alpha sum_{k < sweeps} (I - alpha J^T J)^k J^T, built by running the
    same recurrence on the matrix J^T."""
    JtJ = J.T @ J
    W = np.zeros((J.shape[1], J.shape[0]))
    for _ in range(sweeps):
        W = W + alpha * (J.T - JtJ @ W)
    return W


def run_glpe(G: GlpeInstance, config: Optional[GlpeConfig] = None) -> GlpeResult:
    """Solve A x + B P_K(x) = b by an outer fixed point with inner Richardson sweeps.

    Each outer iteration linearizes the equation at the current x through
    the projection derivative, J = A + B D_K(x), runs inner_steps Richardson
    iterations at step alpha on the normal equations of that linearization,
    and applies the correction. The returned split x = P_K(x) + (x - P_K(x))
    satisfies cone membership and complementarity exactly.

    The sweeps from w = 0 are one linear map r -> W r (richardson_operator),
    so a linearization is the pair (J, W) and a structured step is one
    matvec, x <- x - W r with r = A x + B P_K(x) - b. For the polyhedral
    cones (orthant, 1-norm) D_K is constant on each active pattern
    (prox.projection_pattern), so the driver keeps J and W of the last
    pattern and rebuilds them only when the pattern changes. The
    second-order cone has no pattern key (its Jacobian moves within its
    boundary piece), so there each step builds J and W.

    On a pattern the step is affine, x <- M x + W b with M = I - W J, so
    while the equation error is above max(GLPE_BLOCK_SWITCH, eps) the
    polyhedral cones take their steps in blocks (solver.Block): products
    with the pattern's stacked powers [M; M^2; ...; M^j] give the next
    iterates Z, and products J Z - b of k rows each their equation errors.
    A block keeps the iterates before the first that prox.inside_pattern
    cannot place inside the pattern's piece with a margin, or whose error
    is at or under the switch point or nonfinite. The first block on a
    pattern, and the first after a block that kept fewer than it filled,
    holds k iterates (solver._block_shape at n and GLPE_BLOCK_MIN; j = k =
    51 at n = 5). Each block kept whole is followed by one twice as long,
    up to the largest multiple of k within solver.TRACE_STAGE_ROWS (1,020
    iterates at n = 5), and none fills more than k - 1 iterates past
    outer_cap. A long block takes the same products as the blocks of k it
    stands for, from the same iterates, and is cut at the same row, so its
    length moves no bit (GLPE_BLOCK_MIN has the measurements). It follows
    only blocks kept whole, so a cut throws away at most k iterates more
    than the loop kept since the cut before. The next block starts from the
    last iterate kept, so its first row is, to rounding, the one that ended
    this block: it normally keeps none, and that step is structured. So
    every iterate at or under the switch point, or nonfinite, comes from a
    structured step, and the stop and a divergence are decided in the
    structured arithmetic; the blocked iterates agree with it to rounding.
    A block row's cert is the one certify gives. Overflowed stacked powers (a
    divergent run) are not kept: they would fill only nonfinite blocks.

    Structured steps are handed to iterate as a Block too: a run of them
    goes on in one local loop that does each step's own arithmetic and no
    more: w = W r, x <- x - w, the cone's projection bound once for the run
    (np.maximum on the orthant), r = A x + B P_K(x) - b and its norm, all
    with certify's bits. The second-order cone builds J and W before each
    step. A run ends at the first iterate that is done or nonfinite, leaves
    the pattern, or from which a block would be taken, and holds at most
    solver.TRACE_STAGE_ROWS iterates and none past outer_cap. The error
    tests are made at every step; the pattern is tested once, over all the
    run's rows when its loop ends (prox.on_pattern, with no margin: near a
    solution on the edge of its piece, inside_pattern would cut each run
    after one step), and the run is cut after the first iterate that left
    it: the steps after that one were taken on the old pattern and are
    thrown away. Its cert of an iterate is the projection, residual and
    error the run computed, with certify's bits.

    Trace row t: res_feas and app_error are the equation error at iterate
    t; res_x is the norm of the correction that produced iterate t and
    res_y the residual r - J w of its inner solve, which on a pattern is
    J x_t - b: a block row's res_y equals its res_feas. A run of structured
    steps forms both for all its rows at once, from the residuals it kept:
    w = W r and r - J w as stacked products, with the bits of one step at a
    time. Both are 0 in row 0. Without a trace res_x is 0 in every row, and
    res_y in structured rows. The loop state is the iterate x; a
    DivergenceError carries the last finite one.
    """
    if config is None:
        config = GlpeConfig()
    alpha = config.alpha if config.alpha is not None else glpe_paper_step_size(G)
    A, B, b = G.A, G.B, G.b
    cone = G.cone
    n = A.shape[1]
    j, k = _block_shape(n, GLPE_BLOCK_MIN)
    # the longest block: whole blocks of k within the trace's staging bound
    top = k * max(1, TRACE_STAGE_ROWS // k)
    floor = max(GLPE_BLOCK_SWITCH, config.eps)
    # project_cone(cone, .) bound once: its bits without its checks and
    # dispatch (on the orthant np.maximum(z, 0.0), against a zero vector,
    # which spares the scalar's conversion)
    zero = np.zeros(n)
    project = {NONNEG_ORTHANT: lambda z: np.maximum(z, zero), SECOND_ORDER: project_soc,
               L1_NORM: project_l1cone}[cone.kind]
    Ax, Bx = matvec(A), matvec(B)
    # pattern key (None on the second-order cone, where each step builds its
    # own), J, W and the stacked powers of the step map
    linearization = (None, None, None, None)
    patterns = 0
    # the iterates the next block on this linearization fills
    length = k

    def linearize(x):
        J = A + B @ projection_jacobian(cone, x)
        return J, richardson_operator(J, alpha, config.inner_steps)

    def certify(x):
        # the cert of x: P_K(x), the equation residual and its norm
        xk = project(x)
        r = A @ x + B @ xk - b
        err = norm2(r)
        return err <= config.eps, (0.0, 0.0, err, err), (xk, r, err)

    def dots(V):
        # v . v of each row v, with the bits of norm2's v @ v
        return (V[:, None, :] @ V[:, :, None]).ravel()

    def structured(x, r, t):
        # the run of structured steps from iterate t = x, of residual r
        nonlocal patterns
        key, J, W, powers = linearization
        eps = config.eps
        # a run goes on while eps < err <= hi: up to the switch point while a
        # block could be taken, else while err is finite
        hi = floor if powers is not None else sys.float_info.max
        # the iterates, projections, errors and residuals, and on the
        # second-order cone the J and W of each step
        X, XK, E, R, Js, Ws = [], [], [], [r], [], []
        cap = min(config.outer_cap - t, TRACE_STAGE_ROWS)
        Wx = None if key is None else matvec(W)
        for _ in range(cap):
            if key is None:
                J, W = linearize(x)
                Js.append(J)
                Ws.append(W)
                Wx = matvec(W)
            w = Wx(r)
            x = x - w
            xk = project(x)
            r = Ax(x) + Bx(xk) - b
            err = math.sqrt(r.dot(r))
            X.append(x)
            XK.append(xk)
            E.append(err)
            R.append(r)
            if not eps < err <= hi:
                break
        if key is not None:
            # the run is cut after the first row that left the pattern
            on = on_pattern(cone, key, stack_rows(X, n), XK)
            if not on.all():
                del X[int(on.argmin()) + 1 :]
        patterns += len(Js)
        m = len(X)
        rows = np.zeros((m, 4))
        rows[:, 2] = rows[:, 3] = E[:m]
        if config.record_trace:
            # each step's w = W r and r - J w again, as stacked products
            Rm = stack_rows(R[:m], n)[:, :, None]
            Jm, Wm = (J, W) if key is not None else (np.array(Js), np.array(Ws))
            Wr = Wm @ Rm
            rows[:, 0] = np.sqrt(dots(Wr[:, :, 0]))
            rows[:, 1] = np.sqrt(dots((Rm - Jm @ Wr)[:, :, 0]))
        return Block(rows, rows[:, 2] <= eps, lambda i: (X[i], (XK[i], R[i + 1], E[i])))

    def row_norms(V):
        return np.sqrt(np.einsum("ij,ij->i", V, V))

    def block(x, r, t):
        nonlocal length
        key, J, _, (S, C) = linearization
        h = min(length, k * -(-(config.outer_cap - t) // k))
        Z = fill_iterates(x, h, S, C)
        # J z - b by products of k rows, as blocks of k take it: the rows of
        # one product can round otherwise in a product of more rows
        R = np.vstack([apply(J, Z[i : i + k]) for i in range(1, h + 1, k)]) - b
        err = row_norms(R)
        # the rows before p are on the key's piece, above the switch point and finite
        ok = inside_pattern(cone, key, Z[1:]) & (floor < err) & (err < np.inf)
        p = h if ok.all() else int(ok.argmin())
        # a block kept whole is followed by one twice as long, a cut one by k
        length = min(2 * length, top) if p == h else k
        if p == 0:
            return structured(x, r, t)
        rows = np.zeros((p, 4))
        rows[:, 1:] = err[:p, None]
        if config.record_trace:
            rows[:, 0] = row_norms(np.diff(Z[: p + 1], axis=0))
        # no row is done: each error is above floor >= eps
        return Block(rows, np.zeros(p, dtype=bool), lambda i: (
            Z[i + 1].copy(), (project_cone(cone, Z[i + 1]), R[i], float(err[i]))))

    def step(x, cert, t):
        nonlocal linearization, patterns, length
        xk, r, err = cert
        key = projection_pattern(cone, x, xk)
        if key is not None and key != linearization[0]:
            length = k
            J, W = linearize(x)
            powers = None
            if err > floor:
                S, C = stacked_powers(np.eye(n) - serial_matmul(W, J), W @ b, j)
                powers = (S, C) if np.isfinite(S).all() and np.isfinite(C).all() else None
            linearization = (key, J, W, powers)
            patterns += 1
        if err > floor and linearization[3] is not None:
            return block(x, r, t)
        return structured(x, r, t)

    x0 = start_vector(config.x0, n, "x0", lambda: np.zeros(n))
    run = iterate(x0, step, certify, config.outer_cap, config.record_trace)
    xk, _, err = run.cert
    # the rate at x; a run capped at a huge step can leave I - W J nonfinite
    with np.errstate(over="ignore", invalid="ignore"):
        J, W = linearize(run.state)
        step_jacobian = np.eye(n) - W @ J
        rate = math.inf
        if np.isfinite(step_jacobian).all():
            rate = float(np.abs(np.linalg.eigvals(step_jacobian)).max())
    return GlpeResult(
        x=run.state,
        x_cone=xk,
        error=err,
        trace=run.trace,
        iterations=run.t,
        converged=run.converged,
        rate=rate,
        patterns=patterns,
    )


def make_linreg(n, m, p, seed, lambda_reg=None):
    """Build a seeded Gaussian regression instance and its minimax encoding.

    The instance is min_x max_y (1/m)[-||y||^2/2 - b^T y + y^T K x]
    + (lambda_reg/2)||x||^2 subject to A x + B y + c = 0, with K, A, B drawn
    entrywise N(0, 1) from the seed, b = 0, c = 0, and lambda_reg = 1/m by
    default. The encoding applies the equivalence transformations that make
    the stock step sizes usable: the ascent variable is normalized so its
    curvature is exactly 1 (one unit ascent step then solves the inner
    maximization), the objective is scaled so the bilinear coupling has
    gain LINREG_COUPLING_GAIN, and the constraint rows are normalized.
    Same seed, same instance, bit for bit.
    """
    check_settings({"n": n, "m": m, "p": p, "seed": seed}, counts=("n", "m", "p", "seed"))
    if n != m:
        raise ConfigurationError("regression instances use n == m")
    if p > n:
        raise ConfigurationError("regression instances need p <= n")
    if p < 1:
        raise ConfigurationError("regression instances need p >= 1")
    rng = make_rng(seed)
    try:
        K = gaussian_matrix(rng, m, n)
        A = gaussian_matrix(rng, p, n)
        B = gaussian_matrix(rng, p, m)
    except (MemoryError, ValueError):
        # ValueError: numpy's generator refuses a draw past its largest array
        raise ConfigurationError(
            f"a regression instance of n = {n}, m = {m}, p = {p} is too large to hold in memory"
        ) from None
    b = np.zeros(m)
    c = np.zeros(p)
    if lambda_reg is None:
        lambda_reg = 1.0 / m
    inst = LinRegInstance(
        n=n, m=m, p=p, K=K, A=A, B=B, b=b, c=c, lambda_reg=float(lambda_reg), seed=seed
    )

    gain = LINREG_COUPLING_GAIN
    sqmn = np.sqrt(m) + np.sqrt(n)
    sqmp = np.sqrt(m) + np.sqrt(p)
    L_g = gain**2 * m * inst.lambda_reg / sqmn**2
    b_enc = gain * b / sqmn

    P = MinimaxProblem(
        g=SmoothOracle(L_g),
        phi=prox_zero(),
        h=SmoothOracle(1.0, b=b_enc),
        psi=prox_zero(),
        K=gain * K.T / sqmn,
        A=gain * A / (sqmn * sqmp),
        B=B / sqmp,
        c=gain * c / (sqmn * sqmp),
        mu=1.0,
    )
    return inst, P


def linreg_step(P: MinimaxProblem, config: SolverConfig, x, y, Ktx):
    """run_linreg's outer step: the inner ascent with drive Ktx = K^T x, the
    descent step in x and project_feasible; returns (x, y). With psi = 0 it
    takes a batch of points as rows (see numerics.apply)."""
    y = inner_ascent(P, x, None, y, config.inner_steps, config.alpha_y, Ktx)
    x = x - config.alpha_x * (P.g.gradient(x) + apply(P.K, y))
    return project_feasible(P, x, y)


def run_linreg(P: MinimaxProblem, config: SolverConfig) -> SolveResult:
    """Projected multi-step descent-ascent for smooth constrained instances.

    Requires phi = psi = 0 (zero prox terms) and mu > 0. Iterates stay on
    the constraint set: each outer iteration runs the inner ascent, takes
    the descent step, and projects the pair back onto C. The multiplier is
    not iterated; it is recovered by least squares from the gradients at
    every iterate, which is what certifies stationarity. This is the stable
    route for instances whose reduced objective in (x, lambda) is
    indefinite, where the multiplier iteration diverges. A given lambda0 is
    a ConfigurationError, since no start multiplier is used.

    When the inner ascent lands exactly on y*(x) (ascent weight
    p = (1 - alpha_y d_h)^N = 0, as at make_linreg's alpha_y = 1) and
    n + m + q <= LINREG_AFFINE_MAX_DIM, the outer step and the residual row
    of the next iterate are affine maps of x alone, and the steps run in
    blocks of at least solver.AFFINE_BLOCK_MIN (64) on solver._run_affine:
    where n > 128, one n x n matvec per outer iteration, and per block one
    product R X^T of the residual map R ((n + m + q + 3) x n) with the
    block's iterates X. The maps are linreg_step
    (from y = 0, which the ascent forgets), and recover_multiplier and
    residual_vectors of its output, on a batch of x as rows. Past iterate 0
    (certify's), y is the step's from the predecessor and lambda recovered
    as on the structured path; rows and iterates agree with it to rounding.

    Otherwise linreg_step runs on each iterate. certify forms K^T x and K y
    once, for the multiplier it puts in the state, the three residuals and
    the next ascent's drive, so an outer iteration takes three products with
    K (K^T x, K y, and K y+ of the ascended y).
    """
    if P.phi.kind != PROX_ZERO or P.psi.kind != PROX_ZERO:
        raise ConfigurationError("run_linreg handles smooth instances (phi = psi = 0)")
    if config.lambda0 is not None:
        raise ConfigurationError(
            "lambda0 cannot be given to run_linreg: it recovers the multiplier at every iterate"
        )
    rng = make_rng(config.seed)
    # weight the draws by the coupling so the low-curvature tail starts small
    x = start_vector(config.x0, P.n, "x0", lambda: P.K @ standard_normal(rng, P.m))
    y = start_vector(config.y0, P.m, "y0", lambda: P.K.T @ standard_normal(rng, P.n))
    x, y = project_feasible(P, x, y)
    L1, L2 = 1.0 / config.alpha_x, 1.0 / config.alpha_y

    def certify(s):
        Ky, Ktx = P.K @ s.y, P.K.T @ s.x
        s.lam = recover_multiplier(P, s.x, s.y, Ky, Ktx)
        res = residuals(P, s.x, s.y, s.lam, L1, L2, Ky, Ktx + P.B.T @ s.lam)
        return res.within(config.eps), (res.res_x, res.res_y, res.res_feas, None), (res, Ktx)

    def step(s, cert, t):
        x, y = linreg_step(P, config, s.x, s.y, cert[1])
        return IterateState(x=x, y=y, lam=None, t=t + 1)

    start = IterateState(x=x, y=y, lam=None, t=0)
    p = P.ascent_map(config.inner_steps, config.alpha_y)[0]
    if np.any(p) or P.n + P.m + P.q > LINREG_AFFINE_MAX_DIM:
        run = iterate(start, step, certify, config.outer_cap, config.record_trace)
    else:
        def outputs(X):
            X, Y = linreg_step(P, config, X, 0.0, apply(P.K.T, X))
            Ky, Ktx = apply(P.K, Y), apply(P.K.T, X)
            lam = recover_multiplier(P, X, Y, Ky, Ktx)
            vectors = residual_vectors(P, X, Y, lam, L1, L2, Ky, Ktx + apply(P.B.T, lam))
            return X, np.hstack(vectors)

        def unstack(z, prev, t):
            x, y = z.copy(), linreg_step(P, config, prev, 0.0, P.K.T @ prev)[1]
            return IterateState(x=x, y=y, lam=recover_multiplier(P, x, y), t=t)

        run = _run_affine(P, config, outputs, x, start, certify, unstack)
    return SolveResult(run.state, run.trace, run.cert[0], run.converged)


# named instances with exact embedded data


def _gave_a():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    B = np.array([[-1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    b = np.array([-1.0, 4.0, 1.0])
    return GaveInstance(A=A, B=B, b=b)


def _gave_b():
    A = np.array([[-0.5, 0.5, 1.0], [0.0, 0.5, 0.5], [0.5, 1.0, 0.0]])
    B = np.array([[-0.5, 0.5, 0.0], [-1.0, 0.5, 0.5], [0.5, 1.0, 0.0]])
    b = np.array([1.0, 1.0, 3.0])
    return GaveInstance(A=A, B=B, b=b)


# shared starting point for the two 3x3 named instances
GAVE_SMALL_START = {
    "x0": np.array([0.648679262048621, 0.825727149241758, -1.01494364268014]),
    "y0": np.array([-0.471069912683167, 0.137024874130050, -0.291863375753573]),
    "z0": np.array([0.301818555261006, 0.399930942955802, -0.929961558940129]),
    "lambda0": np.zeros(3),
}


def _gave_c():
    """A 200 x 100 rectangular instance with a diagonal top block and a
    dense rank-one bottom block, built so that x = -1 is the solution.

    The coupling satisfies (B - A)^T (B - A) w = 2000 w for w = 1, which is
    1/(alpha_x N alpha_y) at the stock settings (0.01, 5, 0.01), so the
    first multiplier step from the zero start lands on the solution.
    """
    n = 100
    J = np.ones((n, n))
    A = np.vstack([10.5 * np.eye(n), 0.2 * J])
    B = np.vstack([-9.5 * np.eye(n), -0.2 * J])
    x_star = -np.ones(n)
    b = A @ x_star + B @ np.abs(x_star)
    return GaveInstance(A=A, B=B, b=b)


def builtin_glpe(cone_kind=NONNEG_ORTHANT) -> GlpeInstance:
    """The 5 x 5 projection equation glpe-paper under the cone cone_kind."""
    A = np.array(
        [
            [-1.0, 0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, -1.0, 1.0, 1.0],
            [-1.0, 1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, -1.0, 0.0],
            [1.0, -1.0, 1.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.5, 0.5, 1.0, 0.0, -1.0],
            [1.0, 0.0, 0.5, 1.0, 2.0],
            [1.0, -1.0, 1.0, 0.5, 1.0],
            [0.0, 0.0, -1.0, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0, 0.5],
        ]
    )
    b = np.array([6.5, 5.0, 8.5, -1.5, 8.5])
    return GlpeInstance(A=A, B=B, b=b, cone=ConeSpec(kind=cone_kind, dim=5))


# named gave instances: the function that builds each, and its stock settings
# (alpha_x = alpha_y, inner_steps, outer_cap, penalty, eps, start point)
GAVE_BUILTINS = {
    "gave-a": (_gave_a, (0.05, 5, 200, 1.5, 1e-3, GAVE_SMALL_START)),
    "gave-b": (_gave_b, (0.01, 40, 100, 1.0, 2.5e-2, GAVE_SMALL_START)),
    "gave-c": (_gave_c, (0.01, 5, 10, 0.0, 1e-8, {})),
}


def _gave_entry(name):
    if name not in GAVE_BUILTINS:
        choices = sorted(GAVE_BUILTINS)
        raise ConfigurationError(f"unknown built-in instance {name!r}; choose from {choices}")
    return GAVE_BUILTINS[name]


def builtin_gave(name: str) -> GaveInstance:
    return _gave_entry(name)[0]()


def builtin_gave_config(name: str) -> GaveConfig:
    """Stock settings for each named instance. Step sizes and loop counts
    are fixed per instance; penalty and stopping threshold are this
    implementation's tuning."""
    alpha, inner_steps, outer_cap, penalty, eps, start = _gave_entry(name)[1]
    return GaveConfig(
        alpha_x=alpha,
        alpha_y=alpha,
        inner_steps=inner_steps,
        outer_cap=outer_cap,
        penalty=penalty,
        eps=eps,
        **start,
    )
