"""Property tests (hypothesis) of the feasibility projection, the multiplier
recovery and the closed-form inner ascent."""

import numpy as np
from hypothesis import given, settings, strategies as st

from jointmm.problem import MinimaxProblem, recover_multiplier
from jointmm.prox import SmoothOracle, prox_zero, smooth_scaled_sq_norm
from jointmm.solver import inner_ascent, project_feasible

from oracles import ascent_loop

# cond([A B]) <= 100, so cond(A A^T + B B^T) <= 1e4; measured errors stay below 1e-12
TOL = 1e-10
# closed form against the loop, relative to |y0| + N alpha |drive - b|, which
# bounds every loop iterate; over 2,000 examples the error stayed below 2e-15
CLOSED_FORM_TOL = 1e-13


@st.composite
def constrained_problems(draw):
    """A small problem whose [A B] has full row rank, plus a start (x, y)."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, n + m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((q, q)))
    V, _ = np.linalg.qr(rng.standard_normal((n + m, n + m)))
    M = (U * np.exp(rng.uniform(0.0, np.log(100.0), q))) @ V[:q]
    P = MinimaxProblem(
        g=smooth_scaled_sq_norm(1.0), phi=prox_zero(),
        h=smooth_scaled_sq_norm(2.0), psi=prox_zero(),
        K=rng.standard_normal((n, m)), A=M[:, :n], B=M[:, n:],
        c=rng.standard_normal(q), mu=2.0,
    )
    return P, 3.0 * rng.standard_normal(n), 3.0 * rng.standard_normal(m)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(constrained_problems())
def test_project_feasible_lands_on_the_constraint_set_once(case):
    P, x, y = case
    xf, yf = project_feasible(P, x, y)
    r0 = np.linalg.norm(P.A @ x + P.B @ y + P.c)
    assert np.linalg.norm(P.A @ xf + P.B @ yf + P.c) <= TOL * (1.0 + r0)
    xf2, yf2 = project_feasible(P, xf, yf)
    moved = np.linalg.norm(np.concatenate([xf2 - xf, yf2 - yf]))
    assert moved <= TOL * (1.0 + np.linalg.norm(np.concatenate([xf, yf])))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(constrained_problems())
def test_recover_multiplier_matches_least_squares(case):
    P, x, y = case
    x, y = project_feasible(P, x, y)
    gx0 = P.g.gradient(x) + P.K @ y
    gy0 = P.K.T @ x - P.h.gradient(y)
    ref, *_ = np.linalg.lstsq(
        np.vstack([P.A.T, P.B.T]), -np.concatenate([gx0, gy0]), rcond=None
    )
    lam = recover_multiplier(P, x, y)
    assert np.linalg.norm(lam - ref) <= TOL * (1.0 + np.linalg.norm(ref))


# alpha_y d: zero, inside (0, 1), exactly 1 (r = 0), and inside (1, 2) (r in (-1, 0))
STEP_RATIOS = st.one_of(
    st.just(0.0), st.floats(1e-9, 0.999), st.just(1.0), st.floats(1.001, 1.999)
)


@st.composite
def psi_zero_ascents(draw):
    """A psi = 0 problem with scalar or vector d, b absent or present, and an
    inner ascent (x, lambda, y0, N, alpha_y) to run on it. alpha_y is a power
    of two, so alpha_y d is exactly the drawn ratio."""
    m = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        d = draw(STEP_RATIOS) / alpha
    else:
        d = np.array(draw(st.lists(STEP_RATIOS, min_size=m, max_size=m))) / alpha
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal(m) if draw(st.booleans()) else None
    P = MinimaxProblem(
        g=smooth_scaled_sq_norm(1.0), phi=prox_zero(), h=SmoothOracle(d, b), psi=prox_zero(),
        K=rng.standard_normal((2, m)), A=rng.standard_normal((1, 2)),
        B=rng.standard_normal((1, m)), c=rng.standard_normal(1),
    )
    n_steps = draw(st.sampled_from([0, 1, 3, 60]))
    x, lam, y0 = rng.standard_normal(2), rng.standard_normal(1), 3.0 * rng.standard_normal(m)
    return P, x, lam, y0, n_steps, alpha


@settings(derandomize=True, max_examples=300, deadline=None)
@given(psi_zero_ascents())
def test_closed_form_inner_ascent_matches_the_loop(case):
    P, x, lam, y0, n_steps, alpha = case
    got = inner_ascent(P, x, lam, y0, n_steps, alpha)
    ref = ascent_loop(P, x, lam, y0, n_steps, alpha)
    u = P.K.T @ x + P.B.T @ lam - (0.0 if P.h.b is None else P.h.b)
    scale = np.abs(y0).max() + n_steps * alpha * np.abs(u).max()
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= CLOSED_FORM_TOL * scale
