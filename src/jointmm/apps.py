"""Application drivers: absolute value equations, linear projection equations,
and jointly constrained linear regression.

Each application is reformulated as a linearly constrained minimax problem
(gave_to_minimax, glpe_to_minimax, make_linreg) and solved by a dedicated
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .numerics import as_matrix, as_vector
# residuals is not called in this module; perfbench/tracing.py wraps it under this name
from .problem import MinimaxProblem, recover_multiplier, residuals  # noqa: F401
from .prox import (
    ConeSpec,
    L1_NORM,
    NONNEG_ORTHANT,
    PROX_ZERO,
    SECOND_ORDER,
    SmoothOracle,
    project_cone,
    projection_jacobian,
    prox_blocks,
    prox_indicator,
    prox_polar_indicator,
    prox_zero,
    smooth_zero,
)
from .rng import gaussian_matrix, make_rng, standard_normal
from .solver import (
    IterateState,
    SolveResult,
    SolverConfig,
    ascend,
    certify_residuals,
    check_settings,
    iterate,
    project_feasible,
)

logger = logging.getLogger(__name__)

_GLPE_CONES = (NONNEG_ORTHANT, SECOND_ORDER, L1_NORM)

# bilinear gain used when encoding regression instances; normalizes the
# coupling so the stock step sizes (0.3 on the descent side, 1 on the
# ascent side) sit inside the stable region with fast uniform contraction
LINREG_COUPLING_GAIN = 2.2


@dataclass
class GaveInstance:
    """Data (A, B, b) of the equation A x + B |x| = b."""

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

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def cols(self):
        return self.A.shape[1]

    def error(self, x):
        """Scoring metric ||A x + B |x| - b||."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.linalg.norm(self.A @ x + self.B @ np.abs(x) - self.b))


@dataclass
class GlpeInstance:
    """Data (A, B, b, cone) of the equation A x + B P_K(x) = b."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    cone: ConeSpec

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.b = as_vector(self.b, "b")
        if self.A.shape != self.B.shape:
            raise ConfigurationError("A and B must have the same shape")
        if self.b.shape[0] != self.A.shape[0]:
            raise ConfigurationError("b length must match the row count of A")
        if self.cone.kind not in _GLPE_CONES:
            raise ConfigurationError(
                f"unsupported cone {self.cone.kind!r}; choose one of {_GLPE_CONES}"
            )
        if self.cone.dim != self.A.shape[1]:
            raise ConfigurationError("cone dimension must match the column count of A")

    def error(self, x, x_cone):
        """Scoring metric ||A x + B x_K - b||."""
        return float(
            np.linalg.norm(self.A @ np.asarray(x) + self.B @ np.asarray(x_cone) - self.b)
        )


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
    orthant = ConeSpec(kind=NONNEG_ORTHANT, dim=G.cols)
    return _split_to_minimax(G, orthant, prox_indicator(orthant), G.B - G.A)


def glpe_to_minimax(G: GlpeInstance) -> MinimaxProblem:
    """Encode the projection equation as a constrained minimax template.

    x_K lies in K, z carries the indicator of the polar cone, and the
    constraint is x_K - A^T y - z = 0.
    """
    return _split_to_minimax(G, G.cone, prox_polar_indicator(G.cone), G.A)


@dataclass
class GaveConfig:
    """Settings for the split absolute-value-equation loop.

    alpha_z defaults to alpha_y and penalty is the augmented-coupling
    weight (0 gives the plain alternating loop). eps is the equation-error
    stopping threshold.
    """

    alpha_x: float
    alpha_y: float
    inner_steps: int
    outer_cap: int
    alpha_z: Optional[float] = None
    penalty: float = 1.0
    eps: float = 0.0
    x0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    lambda0: Optional[np.ndarray] = None
    record_trace: bool = True

    def __post_init__(self):
        if self.alpha_z is None:
            self.alpha_z = self.alpha_y
        check_settings(
            vars(self),
            steps=("alpha_x", "alpha_y", "alpha_z"),
            counts=("inner_steps", "outer_cap"),
            nonnegative=("penalty", "eps"),
        )


@dataclass
class GaveResult:
    """Outcome of a split absolute-value-equation run."""

    x: np.ndarray
    error: float
    trace: list
    x_plus: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool
    recovery_sign: int


def _init_or_zero(given, dim, name):
    if given is None:
        return np.zeros(dim)
    arr = as_vector(given, name).copy()
    if arr.shape != (dim,):
        raise ConfigurationError(f"{name} must have length {dim}, got shape {arr.shape}")
    return arr


def run_gave(G: GaveInstance, config: GaveConfig) -> GaveResult:
    """Solve A x + B |x| = b by the augmented multi-step split loop.

    Per outer iteration: inner ascent steps on the free block y and
    projected steps on the slack z (both against the penalty-augmented
    coupling), then a projected step on the nonnegative part x+ and the
    multiplier update lambda <- lambda + alpha_x [x+ - (B-A)^T y - z]
    using the new x+. The reported solution is the better of x+ -/+ lambda
    under the equation-error metric; the sign carrying the multiplier
    estimate of the negative part wins at the saddle.

    The loop state is an IterateState of the gave_to_minimax variables:
    x = x+, y = (y, z) stacked, lambda. A DivergenceError carries the last
    finite one.
    """
    A, B, b = G.A, G.B, G.b
    mrows, n = A.shape
    AB = A + B
    BmA = B - A
    rho = config.penalty
    ax, ay, az = config.alpha_x, config.alpha_y, config.alpha_z

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
        step_z = np.maximum(z + az * (lam + rho * gap), 0.0)
        res_y = np.hypot(
            np.linalg.norm(b - AB @ x + BmA @ lam + rho * (BmA @ gap)),
            np.linalg.norm(z - step_z) / az,
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
            z = np.maximum(z + az * (lam + rho * gap), 0.0)
        gap = x - BmA.T @ y - z
        x_new = np.maximum(x + ax * (AB.T @ y + lam - rho * gap), 0.0)
        lam = lam + ax * (x_new - BmA.T @ y - z)
        return IterateState(x=x_new, y=np.concatenate([y, z]), lam=lam, t=t + 1)

    start = IterateState(
        x=_init_or_zero(config.x0, n, "x0"),
        y=np.concatenate(
            [_init_or_zero(config.y0, mrows, "y0"), _init_or_zero(config.z0, n, "z0")]
        ),
        lam=_init_or_zero(config.lambda0, n, "lambda0"),
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
    Richardson sweeps per outer linearization; eps is the equation-error
    stopping threshold.
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


@dataclass
class GlpeResult:
    """Outcome of a projection-equation run; x = x_cone + polar part exactly."""

    x: np.ndarray
    x_cone: np.ndarray
    error: float
    trace: list
    iterations: int
    converged: bool


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


def run_glpe(G: GlpeInstance, config: Optional[GlpeConfig] = None) -> GlpeResult:
    """Solve A x + B P_K(x) = b by an outer fixed point with inner Richardson sweeps.

    Each outer iteration linearizes the equation at the current x through
    the projection derivative, runs inner_steps Richardson iterations at
    step alpha on the normal equations of that linearization, and applies
    the correction. The returned split x = P_K(x) + (x - P_K(x)) satisfies
    cone membership and complementarity exactly.

    Trace row t: res_feas and app_error are the equation error at iterate
    t; res_x is the norm of the correction that produced iterate t and
    res_y the residual of its inner solve (both 0 in row 0). The loop state
    is the iterate x; a DivergenceError carries the last finite one.
    """
    if config is None:
        config = GlpeConfig()
    alpha = config.alpha if config.alpha is not None else glpe_paper_step_size(G)
    A, B, b = G.A, G.B, G.b
    cone = G.cone
    n = A.shape[1]
    last_step = (0.0, 0.0)  # correction norm and inner residual behind the iterate

    def certify(x):
        xk = project_cone(cone, x)
        r = A @ x + B @ xk - b
        err = float(np.linalg.norm(r))
        return err <= config.eps, (*last_step, err, err), (xk, r, err)

    def step(x, cert, t):
        nonlocal last_step
        r = cert[1]
        J = A + B @ projection_jacobian(cone, x)
        JtJ = J.T @ J
        Jtr = J.T @ r
        w = np.zeros(n)
        for _ in range(config.inner_steps):
            w = w + alpha * (Jtr - JtJ @ w)
        x = x - w
        if config.record_trace:
            last_step = (float(np.linalg.norm(w)), float(np.linalg.norm(r - J @ w)))
        return x

    x0 = _init_or_zero(config.x0, n, "x0")
    run = iterate(x0, step, certify, config.outer_cap, config.record_trace)
    xk, _, err = run.cert
    return GlpeResult(
        x=run.state,
        x_cone=xk,
        error=err,
        trace=run.trace,
        iterations=run.t,
        converged=run.converged,
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
    K = gaussian_matrix(rng, m, n)
    A = gaussian_matrix(rng, p, n)
    B = gaussian_matrix(rng, p, m)
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


def run_linreg(P: MinimaxProblem, config: SolverConfig) -> SolveResult:
    """Projected multi-step descent-ascent for smooth constrained instances.

    Requires phi = psi = 0 (zero prox terms) and mu > 0. Iterates stay on
    the constraint set: each outer iteration runs the inner ascent, takes
    the descent step, and projects the pair back onto C. The multiplier is
    not iterated; it is recovered by least squares from the gradients at
    every iterate, which is what certifies stationarity. This is the stable
    route for instances whose reduced objective in (x, lambda) is
    indefinite, where the multiplier iteration diverges.
    """
    if P.phi.kind != PROX_ZERO or P.psi.kind != PROX_ZERO:
        raise ConfigurationError("run_linreg handles smooth instances (phi = psi = 0)")
    rng = make_rng(config.seed)
    if config.x0 is not None:
        x = as_vector(config.x0, "x0").copy()
    else:
        # weight the draw by the coupling so the low-curvature tail starts small
        x = P.K @ standard_normal(rng, P.m)
    if config.y0 is not None:
        y = as_vector(config.y0, "y0").copy()
    else:
        y = P.K.T @ standard_normal(rng, P.n)
    x, y = project_feasible(P, x, y)

    def step(s, res, t):
        y = ascend(P, P.K.T @ s.x, s.y, config.inner_steps, config.alpha_y)
        x = s.x - config.alpha_x * (P.g.gradient(s.x) + P.K @ y)
        x, y = project_feasible(P, x, y)
        return IterateState(x=x, y=y, lam=recover_multiplier(P, x, y), t=t + 1)

    certify = certify_residuals(P, 1.0 / config.alpha_x, 1.0 / config.alpha_y, config.eps)
    start = IterateState(x=x, y=y, lam=recover_multiplier(P, x, y), t=0)
    run = iterate(start, step, certify, config.outer_cap, config.record_trace)
    return SolveResult(
        state=run.state, trace=run.trace, residuals=run.cert, converged=run.converged
    )


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


def _glpe_paper(cone_kind=NONNEG_ORTHANT):
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


GAVE_BUILTINS = {"gave-a": _gave_a, "gave-b": _gave_b, "gave-c": _gave_c}
BUILTIN_NAMES = ("gave-a", "gave-b", "gave-c", "glpe-paper")


def builtin_gave(name: str) -> GaveInstance:
    if name not in GAVE_BUILTINS:
        raise ConfigurationError(
            f"unknown built-in instance {name!r}; choose from {sorted(GAVE_BUILTINS)}"
        )
    return GAVE_BUILTINS[name]()


def builtin_gave_config(name: str) -> GaveConfig:
    """Stock settings for each named instance. Step sizes and loop counts
    are fixed per instance; penalty and stopping threshold are this
    implementation's tuning."""
    if name == "gave-a":
        return GaveConfig(
            alpha_x=0.05,
            alpha_y=0.05,
            alpha_z=0.05,
            inner_steps=5,
            outer_cap=200,
            penalty=1.5,
            eps=1e-3,
            **GAVE_SMALL_START,
        )
    if name == "gave-b":
        return GaveConfig(
            alpha_x=0.01,
            alpha_y=0.01,
            alpha_z=0.01,
            inner_steps=40,
            outer_cap=100,
            penalty=1.0,
            eps=2.5e-2,
            **GAVE_SMALL_START,
        )
    if name == "gave-c":
        return GaveConfig(
            alpha_x=0.01,
            alpha_y=0.01,
            alpha_z=0.01,
            inner_steps=5,
            outer_cap=10,
            penalty=0.0,
            eps=1e-8,
        )
    raise ConfigurationError(f"unknown built-in instance {name!r}")


def builtin_glpe(cone_kind=NONNEG_ORTHANT) -> GlpeInstance:
    return _glpe_paper(cone_kind)
