"""Property tests (hypothesis) of the feasibility projection and the multiplier recovery."""

import numpy as np
from hypothesis import given, settings, strategies as st

from jointmm.problem import MinimaxProblem, recover_multiplier
from jointmm.prox import prox_zero, smooth_scaled_sq_norm
from jointmm.solver import project_feasible

# cond([A B]) <= 100, so cond(A A^T + B B^T) <= 1e4; measured errors stay below 1e-12
TOL = 1e-10


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
