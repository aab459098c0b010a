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
import time
import warnings
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, FrameworkError
from .numerics import as_vector
from .problem import (
    BudgetConstants,
    MinimaxProblem,
    ProblemConstants,
    Residuals,
    feas,
    grad_x,
    inner_residual,
    residuals,
)
from .prox import PROX_ZERO, prox_eval
from .rng import standard_normal

TRACE_HEADER = "t,elapsed_s,res_x,res_y,res_feas,app_error"
TRACE_COLUMNS = TRACE_HEADER.split(",")[2:]  # the row a certify returns


@dataclass(frozen=True)
class TraceRecord:
    """One per-iteration trace row."""

    t: int
    elapsed: float
    res_x: float
    res_y: float
    res_feas: float
    objective_metric: Optional[float] = None


@dataclass
class IterateState:
    """Current iterate (x, y, lambda) after t outer iterations."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    t: int


def check_settings(values, steps=(), counts=(), nonnegative=()):
    """Raise ConfigurationError unless the named entries of the dict values are valid.

    steps must be positive and finite, counts nonnegative integers, and
    nonnegative fields numbers >= 0. The comparisons are written so that NaN
    fails them.
    """
    for name in steps:
        value = values[name]
        if not (isinstance(value, Real) and 0 < value < math.inf):
            raise ConfigurationError(f"step size {name} must be positive and finite, got {value!r}")
    for name in counts:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
            raise ConfigurationError(f"{name} must be a nonnegative integer, got {value!r}")
    for name in nonnegative:
        value = values[name]
        if not (isinstance(value, Real) and value >= 0):
            raise ConfigurationError(f"{name} must be >= 0, got {value!r}")


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
    trace: list
    residuals: Residuals
    converged: bool


class FrameworkResult(NamedTuple):
    state: IterateState
    trace: list
    eps_used: list


def inner_ascent(P: MinimaxProblem, x, lam, y0, n_steps, alpha_y):
    """Run n_steps proximal gradient-ascent steps on y for fixed (x, lambda).

    y <- prox_{alpha_y psi}[y + alpha_y (-grad h(y) + K^T x + B^T lambda)].
    For mu-strongly concave inner problems and alpha_y < 1/L_h each step
    contracts the squared distance to y_*(x, lambda) by (1 - mu alpha_y).
    With psi = 0 the steps are the entrywise affine recurrence
    y <- r y + alpha_y (drive - b), r = 1 - alpha_y d, and the N steps are
    taken at once in closed form with the problem's cached coefficients:
    the work does not grow with n_steps. Any other psi runs the N-step
    loop. Overflow gives inf or NaN, not an error: iterate decides
    divergence.
    """
    return ascend(P, P.K.T @ x + P.B.T @ lam, y0, n_steps, alpha_y)


def ascend(P: MinimaxProblem, drive, y0, n_steps, alpha_y):
    """n_steps steps y <- prox_{alpha_y psi}[y + alpha_y (drive - grad h(y))].

    The inner ascent for a given drive (K^T x + B^T lambda, or K^T x where
    the multiplier is not iterated): closed form when psi = 0, else a loop.
    """
    if n_steps < 0:
        raise ConfigurationError("inner_ascent needs n_steps >= 0")
    y = np.asarray(y0, dtype=np.float64)
    if P.psi.kind == PROX_ZERO:
        p, w = P.ascent_map(n_steps, alpha_y)
        return p * y + w * (drive if P.h.b is None else drive - P.h.b)
    y = y.copy()
    for _ in range(n_steps):
        y = prox_eval(P.psi, alpha_y, y + alpha_y * (drive - P.h.gradient(y)))
    return y


def outer_step(P: MinimaxProblem, x, lam, y_next, alpha_x):
    """One proximal-descent step in (x, lambda) given the updated y.

    x+ = prox_{alpha_x phi}[x - alpha_x (grad g(x) + K y+ + A^T lambda)],
    lambda+ = lambda - alpha_x [A x + B y+ + c]  (old x, by definition).
    Overflow gives inf or NaN, as in inner_ascent.
    """
    if alpha_x <= 0:
        raise ConfigurationError("outer_step needs alpha_x > 0")
    x_next = prox_eval(P.phi, alpha_x, x - alpha_x * grad_x(P, x, y_next, lam))
    return x_next, lam - alpha_x * feas(P, x, y_next)


def project_feasible(P: MinimaxProblem, x, y):
    """Euclidean projection of (x, y) onto {(x, y): A x + B y + c = 0}.

    zeta = (A A^T + B B^T)^{-1} (A x + B y + c), then subtract
    (A^T zeta, B^T zeta). The Gram inverse is cached on the problem.
    """
    zeta = P.gram_solve(feas(P, x, y))
    return x - P.A.T @ zeta, y - P.B.T @ zeta


def _init_points(P: MinimaxProblem, config: SolverConfig):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x = (
        as_vector(config.x0, "x0").copy()
        if config.x0 is not None
        else standard_normal(rng, P.n)
    )
    y = (
        as_vector(config.y0, "y0").copy()
        if config.y0 is not None
        else standard_normal(rng, P.m)
    )
    lam = (
        as_vector(config.lambda0, "lambda0").copy()
        if config.lambda0 is not None
        else np.zeros(P.q)
    )
    if x.shape != (P.n,) or y.shape != (P.m,) or lam.shape != (P.q,):
        raise ConfigurationError("initial point dimensions do not match the problem")
    return x, y, lam


class LoopResult(NamedTuple):
    state: object
    cert: object
    t: int
    converged: bool
    trace: list


def iterate(state, step, certify, outer_cap, record_trace) -> LoopResult:
    """The outer loop every driver shares: certify iterate t, stop or step.

    certify(state) returns (done, row, cert): done is the stopping test of
    the iterate, row its trace values (res_x, res_y, res_feas, app_error)
    and cert whatever the driver needs back (residuals, the recovered
    point, ...). step(state, cert, t) returns iterate t + 1. Iterate t is
    recorded as trace row t, so a run of T steps has rows 0..T.

    The loop stops when done is true or after outer_cap steps, and returns
    the last state with its cert, the number of steps t, whether done held,
    and the trace. It alone decides divergence: steps and certify run under
    one np.errstate that lets overflow give inf and NaN, and a row with a
    nonfinite value (the row must cover every variable of the state) raises
    DivergenceError with the last certified state (None at iterate 0) and
    the trace so far; the message names the iterate and the columns.
    """
    trace = []
    start = time.perf_counter()
    t = 0
    last = None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            done, row, cert = certify(state)
            bad = [c for c, v in zip(TRACE_COLUMNS, row) if v is not None and not math.isfinite(v)]
            if bad:
                msg = f"diverged at iterate {t}: nonfinite {', '.join(bad)}"
                raise DivergenceError(msg, state=last, trace=trace)
            if record_trace:
                trace.append(TraceRecord(t, time.perf_counter() - start, *row))
            if done or t == outer_cap:
                return LoopResult(state, cert, t, done, trace)
            last = state
            state = step(state, cert, t)
            t += 1


def certify_residuals(P: MinimaxProblem, L1, L2, eps):
    """certify for iterate: the three residuals of an IterateState at
    scalings (L1, L2); done when all are <= eps."""

    def certify(s):
        res = residuals(P, s.x, s.y, s.lam, L1, L2)
        return res.within(eps), (res.res_x, res.res_y, res.res_feas, None), res

    return certify


def run_pgmsad(P: MinimaxProblem, config: SolverConfig) -> SolveResult:
    """Run the multi-step ascent-descent loop until eps-stationarity or the cap.

    Stops early once all three residuals at scalings (1/alpha_x, 1/alpha_y)
    are <= config.eps. converged describes the returned point: after the
    final projection it is decided again on the projected iterate.

    Returns (state, trace, residuals, converged). Deterministic for a fixed
    config and initial point (trace timestamps aside).
    """
    L1 = 1.0 / config.alpha_x
    L2 = 1.0 / config.alpha_y

    def step(s, res, t):
        y = inner_ascent(P, s.x, s.lam, s.y, config.inner_steps, config.alpha_y)
        x, lam = outer_step(P, s.x, s.lam, y, config.alpha_x)
        if config.project_each_outer:
            x, y = project_feasible(P, x, y)
        return IterateState(x=x, y=y, lam=lam, t=t + 1)

    run = iterate(
        IterateState(*_init_points(P, config), t=0),
        step,
        certify_residuals(P, L1, L2, config.eps),
        config.outer_cap,
        config.record_trace,
    )
    state, res, converged = run.state, run.cert, run.converged
    if state.t > 0 and config.project_final and not config.project_each_outer:
        x, y = project_feasible(P, state.x, state.y)
        state = IterateState(x=x, y=y, lam=state.lam, t=state.t)
        res = residuals(P, x, y, state.lam, L1, L2)
        converged = res.within(config.eps)
    return SolveResult(state=state, trace=run.trace, residuals=res, converged=converged)


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
    check_atol: float = 1e-9,
) -> FrameworkResult:
    """Alternating-coordinate framework with a delegated inner maximizer.

    inner(x, lam, y_start, eps_t) must return y+ with the y-block gradient
    mapping at unit scaling below eps_t (checked here, with absolute slack
    check_atol for exact maximizers supplied with eps_t = 0), and should not
    move y away from y_*(x, lambda). eps_schedule is a callable t -> eps_t
    or a sequence; square-summable schedules are what the convergence theory
    asks for, so a constant schedule only triggers a warning. Runs exactly T
    outer steps; the trace has rows 0..T.
    """
    config = SolverConfig(
        alpha_x=alpha_x,
        alpha_y=1.0,
        inner_steps=0,
        outer_cap=T,
        seed=seed,
        x0=x0,
        y0=y0,
        lambda0=lambda0,
    )
    if callable(eps_schedule):
        eps_fn = eps_schedule
    else:
        sched = list(map(float, eps_schedule))
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

    def step(s, res, t):
        eps_t = float(eps_fn(t))
        y = np.asarray(inner(s.x, s.lam, s.y, eps_t), dtype=np.float64)
        achieved = inner_residual(P, s.x, y, s.lam, L=1.0)
        if achieved > eps_t + check_atol:
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
    run = iterate(IterateState(*_init_points(P, config), t=0), step, certify, T, True)
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
    to at least 1. Exactly one of beta1/omega1 and a theta_gap are required.
    """
    if mu <= 0:
        raise ConfigurationError("plan_budget needs mu > 0")
    if eps <= 0:
        raise ConfigurationError("plan_budget needs eps > 0")
    if C.L_theta is not None and not (0 < alpha_x < 1.0 / C.L_theta):
        raise ConfigurationError(
            f"alpha_x must lie in (0, 1/L_theta) = (0, {1.0 / C.L_theta:.6g}), got {alpha_x}"
        )
    if C.L_h > 0 and not (0 < alpha_y < 1.0 / C.L_h):
        raise ConfigurationError(
            f"alpha_y must lie in (0, 1/L_h) = (0, {1.0 / C.L_h:.6g}), got {alpha_y}"
        )
    if not (0 < mu * alpha_y < 1):
        raise ConfigurationError("plan_budget needs mu * alpha_y in (0, 1)")
    if B.theta_gap is None:
        raise ConfigurationError("plan_budget needs theta_gap (initial gap upper bound)")
    if (B.beta1 is None) == (B.omega1 is None):
        raise ConfigurationError("plan_budget needs exactly one of beta1 / omega1")

    rate = -math.log(1.0 - mu * alpha_y)
    if B.beta1 is not None:
        numer = math.log(8.0 * B.gamma1 * B.beta1**2) + 2.0 * math.log(1.0 / eps)
    else:
        numer = math.log(4.0 * B.gamma1 * B.omega1 / mu) + 2.0 * math.log(1.0 / eps)
    N = max(1, math.ceil(numer / rate))
    T = max(1, math.ceil(2.0 * B.gamma2 * B.theta_gap / eps**2))
    return N, T


def write_trace_csv(trace: Sequence[TraceRecord], path):
    """Write a trace with the frozen header t,elapsed_s,res_x,res_y,res_feas,app_error."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace:
            app = "" if rec.objective_metric is None else repr(float(rec.objective_metric))
            fh.write(
                f"{rec.t},{rec.elapsed:.6f},{rec.res_x!r},{rec.res_y!r},{rec.res_feas!r},{app}\n"
            )


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
    with open(path, "w", encoding="ascii") as fh:
        json.dump(state_to_json(state, res, wall_time_s), fh, indent=2)
        fh.write("\n")
