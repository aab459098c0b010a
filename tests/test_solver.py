import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import jointmm.problem
from jointmm.apps import builtin_gave, builtin_gave_config, make_linreg, run_gave, run_linreg
from jointmm.errors import (
    ConfigurationError,
    DivergenceError,
    FrameworkError,
    SingularConstraintError,
)
from jointmm.problem import (
    BudgetConstants,
    MinimaxProblem,
    ProblemConstants,
    compute_constants,
    feas,
    grad_x,
    recover_multiplier,
    residuals,
)
from jointmm.prox import (
    ConeSpec,
    NONNEG_ORTHANT,
    SmoothOracle,
    prox_eval,
    prox_indicator,
    prox_zero,
    smooth_scaled_sq_norm,
    smooth_zero,
)
from jointmm.numerics import ALIGN_MIN_BYTES, serial_matmul
from jointmm.solver import (
    AFFINE_BLOCK_MIN,
    IterateState,
    SolverConfig,
    TRACE_HEADER,
    _block_shape,
    affine_parts,
    fill_iterates,
    inner_ascent,
    outer_step,
    pgmsad_step,
    plan_budget,
    project_feasible,
    run_framework,
    run_pgmsad,
    stacked_powers,
    write_state_json,
    write_trace_csv,
)

from oracles import (
    CountingMatrix,
    address,
    approx_y_star,
    cli_like_saddle,
    linreg_structured,
    misaligned,
    mixed_prox_saddle,
    pgmsad_structured,
    assert_trace_csv_is_the_records_csv,
    quadratic_saddle_kkt,
)


def quadratic_problem(rng, n=2, m=2, q=2, a=1.2, b=1.5, scale=0.3, cscale=0.4):
    """Strongly-convex-strongly-concave toy with a well-posed reduced objective."""
    while True:
        K = scale * rng.standard_normal((n, m))
        A = 0.5 * scale * rng.standard_normal((q, n))
        B = 1.5 * scale * rng.standard_normal((q, m))
        c = cscale * rng.standard_normal(q)
        H = np.block(
            [
                [a * np.eye(n) + K @ K.T / b, A.T + K @ B.T / b],
                [A + B @ K.T / b, B @ B.T / b],
            ]
        )
        ev = np.linalg.eigvalsh(0.5 * (H + H.T))
        if ev.min() > 0.02 and np.linalg.matrix_rank(np.hstack([A, B])) == q:
            P = MinimaxProblem(
                g=smooth_scaled_sq_norm(a), phi=prox_zero(),
                h=smooth_scaled_sq_norm(b), psi=prox_zero(),
                K=K, A=A, B=B, c=c, mu=b,
            )
            return P, a, b


def orthant_copy(P):
    """P with psi the indicator of the nonnegative orthant, so run_pgmsad
    takes the structured steps."""
    return MinimaxProblem(
        g=P.g, phi=P.phi, h=P.h,
        psi=prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=P.m)),
        K=P.K, A=P.A, B=P.B, c=P.c, mu=P.mu,
    )


def test_inner_ascent_exact_one_step():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_scaled_sq_norm(1.0), psi=prox_zero(),
        K=np.zeros((2, 2)), A=np.zeros((1, 2)), B=np.zeros((1, 2)), c=np.zeros(1),
        mu=1.0,
    )
    y = inner_ascent(P, np.zeros(2), np.zeros(1), np.array([3.0, -4.0]), 1, 1.0)
    assert np.allclose(y, 0.0)


def test_inner_ascent_contraction_vs_closed_form(rng):
    P, a, b = quadratic_problem(rng)
    alpha_y = 0.7 / b
    x, lam = rng.standard_normal(2), rng.standard_normal(2)
    ystar = (P.K.T @ x + P.B.T @ lam) / b
    y = rng.standard_normal(2) * 4
    for _ in range(12):
        y_next = inner_ascent(P, x, lam, y, 1, alpha_y)
        d0 = np.linalg.norm(y - ystar) ** 2
        d1 = np.linalg.norm(y_next - ystar) ** 2
        if d0 < 1e-20:
            break
        assert d1 <= (1.0 - P.mu * alpha_y) * d0 + 1e-9
        y = y_next


def test_inner_ascent_with_orthant_prox(rng):
    P, a, b = quadratic_problem(rng)
    P = orthant_copy(P)
    x, lam = rng.standard_normal(2), rng.standard_normal(2)
    # componentwise closed form of the constrained maximizer
    ystar = np.maximum((P.K.T @ x + P.B.T @ lam) / b, 0.0)
    y = inner_ascent(P, x, lam, np.ones(2), 400, 0.9 / b)
    assert np.linalg.norm(y - ystar) <= 1e-8


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("psi", ["zero", "orthant"])
def test_step_functions_reject_a_step_outside_zero_to_inf(rng, psi, step):
    # NaN and inf once ran: outer_step gave NaN, inner_ascent NaN and a warning
    P = quadratic_problem(rng)[0]
    P = orthant_copy(P) if psi == "orthant" else P
    x, y, lam = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
    with pytest.raises(ConfigurationError, match="step size alpha_y must be positive and finite"):
        inner_ascent(P, x, lam, y, 3, step)
    with pytest.raises(ConfigurationError, match="step size alpha_x must be positive and finite"):
        outer_step(P, x, lam, y, step)


def test_outer_step_fixed_point_at_stationary_triple(rng):
    P, a, b = quadratic_problem(rng)
    xs, ys, ls = quadratic_saddle_kkt(a, b, P.K, P.A, P.B, P.c)
    x_next, lam_next = outer_step(P, xs, ls, ys, 0.05)
    assert np.linalg.norm(x_next - xs) <= 1e-12
    assert np.linalg.norm(lam_next - ls) <= 1e-12


def test_outer_step_formula_collapse():
    n = 2
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((n, n)), A=np.zeros((n, n)), B=np.eye(n), c=np.ones(n),
    )
    x, lam, y_next = np.ones(n), np.ones(n), np.array([2.0, -1.0])
    x2, lam2 = outer_step(P, x, lam, y_next, 0.25)
    assert np.array_equal(x2, x)
    assert np.allclose(lam2, lam - 0.25 * (y_next + 1.0))


def test_outer_step_matches_recomposition_oracle(rng):
    P, a, b = quadratic_problem(rng)
    x, lam, y_next = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
    alpha = 0.07
    x2, lam2 = outer_step(P, x, lam, y_next, alpha)
    x_oracle = prox_eval(P.phi, alpha, x - alpha * grad_x(P, x, y_next, lam))
    lam_oracle = lam - alpha * feas(P, x, y_next)
    assert np.array_equal(x2, x_oracle)
    assert np.array_equal(lam2, lam_oracle)


def test_run_pgmsad_zero_cap_returns_initial_point(rng):
    P, a, b = quadratic_problem(rng)
    x0, y0 = np.ones(2), np.ones(2)
    cfg = SolverConfig(alpha_x=0.05, alpha_y=0.3, inner_steps=3, outer_cap=0,
                       eps=0.0, x0=x0, y0=y0)
    res = run_pgmsad(P, cfg)
    assert res.state.t == 0
    assert np.array_equal(res.state.x, x0)
    assert np.array_equal(res.state.y, y0)


def test_run_pgmsad_huge_eps_exits_at_zero(rng):
    P, a, b = quadratic_problem(rng)
    cfg = SolverConfig(alpha_x=0.05, alpha_y=0.3, inner_steps=3, outer_cap=50,
                       eps=1e12, x0=np.ones(2), y0=np.ones(2))
    res = run_pgmsad(P, cfg)
    assert res.converged and res.state.t == 0


def test_run_pgmsad_reaches_closed_form_saddle(rng):
    P, a, b = quadratic_problem(rng)
    xs, ys, ls = quadratic_saddle_kkt(a, b, P.K, P.A, P.B, P.c)
    C = compute_constants(P)
    cfg = SolverConfig(
        alpha_x=0.9 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=60,
        outer_cap=100000, eps=1e-10, x0=np.ones(2), y0=np.ones(2),
        project_final=False,
    )
    res = run_pgmsad(P, cfg)
    assert res.converged
    assert np.linalg.norm(res.state.x - xs) <= 1e-6
    assert np.linalg.norm(res.state.y - ys) <= 1e-6


def test_run_pgmsad_deterministic_trace(rng):
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    cfg = SolverConfig(alpha_x=0.5 / C.L_theta, alpha_y=0.5 / C.L_h,
                       inner_steps=10, outer_cap=40, eps=0.0, seed=11)
    r1 = run_pgmsad(P, cfg)
    r2 = run_pgmsad(P, cfg)
    assert r1.trace.shape == r2.trace.shape
    # elapsed is wall-clock; everything numeric must match bit for bit
    assert np.array_equal(r1.trace[:, 1:], r2.trace[:, 1:], equal_nan=True)
    assert np.array_equal(r1.state.x, r2.state.x)
    assert np.array_equal(r1.state.lam, r2.state.lam)


def count_products(P, T):
    """The products with K and K^T of a T-step run_pgmsad on P."""
    K = P.K
    P.K = CountingMatrix(K)
    cfg = SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=5, outer_cap=T,
                       eps=0.0, x0=np.ones(2), y0=np.ones(2), project_final=False)
    assert run_pgmsad(P, cfg).state.t == T
    counts, P.K = P.K.counts, K
    return counts


def test_run_pgmsad_takes_one_product_with_K_transpose_per_outer_iteration(rng):
    # structured steps (orthant psi): per iterate, K y for the x-residual and
    # the drive K^T x + B^T lambda, which the y-residual and the next inner
    # ascent share; per step, K y+ of the ascended y in the descent step
    P = orthant_copy(quadratic_problem(rng)[0])
    for T in (4, 5):
        assert count_products(P, T) == {"K": 2 * T + 1, "K.T": T + 1}


def test_run_pgmsad_affine_path_forms_K_only_to_build_its_maps(rng):
    # zero prox: the step and certify are products with the dense maps
    P, a, b = quadratic_problem(rng)
    assert count_products(P, 4) == count_products(P, 5)


def run_digest(r):
    """sha256 of the bytes of a run's x, y, lambda and trace[:, 1:4], in that order."""
    arrays = (r.state.x, r.state.y, r.state.lam, r.trace[:, 1:4])
    return hashlib.sha256(b"".join(v.tobytes() for v in arrays)).hexdigest()


# run_pgmsad's structured steps, which no other pin runs: outer iterations,
# converged and run_digest of cli_like_saddle (orthant psi, n = m = 40,
# q = 8) projected every step and once at the end, and of mixed_prox_saddle,
# whose phi and psi are blocks of every other prox and cone kind
STRUCTURED_PINS = {
    "cli-like-projected": (1227, True,
        "476fa883902aa2546c965d8be791d4017e6845464243d397f7110ae33a4f297a"),
    "cli-like-final": (867, False,
        "a0eeeb5215d02c17bf3265f65af1f7c62d5dd0737256abc1e43a0213f0d6adfd"),
    "mixed-prox": (400, False,
        "d3e3ff54662b12fe9f7d6b4c0d9bae5f8ae39450d03ae1f9fe8a87ec9d0cfccb"),
}


@pytest.mark.parametrize("case", list(STRUCTURED_PINS))
def test_structured_pgmsad_runs_are_pinned(case):
    P, cfg = {"cli-like-projected": lambda: cli_like_saddle(True),
              "cli-like-final": lambda: cli_like_saddle(False),
              "mixed-prox": mixed_prox_saddle}[case]()
    r = run_pgmsad(P, cfg)
    assert (r.state.t, r.converged, run_digest(r)) == STRUCTURED_PINS[case]


def _assert_divergence_carries_state(err):
    state = err.value.state
    assert isinstance(state, IterateState)
    assert all(np.all(np.isfinite(v)) for v in (state.x, state.y, state.lam))
    assert len(err.value.trace) == state.t + 1


@pytest.mark.filterwarnings("error")
def test_run_pgmsad_divergence_carries_state(rng):
    # psi = 0: the closed-form power (1 - alpha_y b)^60 overflows while the
    # affine map is built, and the first step gives inf and NaN
    P, a, b = quadratic_problem(rng)
    cfg = SolverConfig(alpha_x=1e12, alpha_y=1e12, inner_steps=60,
                       outer_cap=500, eps=0.0, x0=np.ones(2), y0=np.ones(2))
    with pytest.raises(DivergenceError) as err:
        run_pgmsad(P, cfg)
    _assert_divergence_carries_state(err)


def affine_case(rng, n, m, q):
    """A zero-prox problem of n + m + q <= AFFINE_MAX_DIM (run_pgmsad takes
    the affine path) and SolverConfig settings with a given start."""
    P = quadratic_problem(rng, n, m, q)[0]
    C = compute_constants(P)
    return P, dict(alpha_x=0.9 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=5,
                   project_final=False, x0=rng.standard_normal(n),
                   y0=rng.standard_normal(m), lambda0=rng.standard_normal(q))


def assert_same_run(got, ref):
    """run_pgmsad's result against pgmsad_structured's LoopResult: the same
    step count and stop, trace rows and iterates equal to 1e-12 relative."""
    assert (got.state.t, got.converged) == (ref.t, ref.converged)
    rows = [run.trace[:, 1:4] for run in (got, ref)]
    assert np.abs(rows[0] - rows[1]).max() <= 1e-12 * rows[1].max()
    z = [np.concatenate([s.x, s.y, s.lam]) for s in (got.state, ref.state)]
    assert np.abs(z[0] - z[1]).max() <= 1e-12 * np.abs(z[1]).max()


# n + m + q = 6: blocks of two products with M, ..., M^42; 40: blocks of
# eleven products with M, ..., M^6; 140: blocks of 64 steps, filled by the
# two-level fill (one matvec with M^2 per two steps)
@pytest.mark.parametrize("n, m, q, shape", [(2, 2, 2, (42, 84)), (16, 16, 8, (6, 66)),
                                            (60, 60, 20, (1, 64))])
def test_affine_blocks_match_the_structured_steps_at_every_cap(rng, n, m, q, shape):
    P, kw = affine_case(rng, n, m, q)
    assert _block_shape(n + m + q, AFFINE_BLOCK_MIN) == shape
    k = shape[1]
    for cap in (0, 1, k - 1, k, k + 1, 3 * k):
        cfg = SolverConfig(outer_cap=cap, eps=0.0, **kw)
        assert_same_run(run_pgmsad(P, cfg), pgmsad_structured(P, cfg))


@pytest.mark.parametrize("psi", ["zero", "orthant"])
def test_unconstrained_problems_match_the_structured_steps(rng, psi):
    # q = 0: lambda and the q-block of every residual row are empty. Zero
    # prox takes the affine path (blocks of 102 at n + m + q = 5), orthant
    # psi the structured one; res_feas is then exactly 0 on every row
    P, kw = affine_case(rng, 3, 2, 0)
    P = orthant_copy(P) if psi == "orthant" else P
    assert P.q == 0 and _block_shape(5, AFFINE_BLOCK_MIN) == (51, 102)
    for cap, eps in ((0, 0.0), (1, 0.0), (102, 0.0), (240, 0.0), (10000, 1e-10)):
        cfg = SolverConfig(outer_cap=cap, eps=eps, **kw)
        got = run_pgmsad(P, cfg)
        assert_same_run(got, pgmsad_structured(P, cfg))
        assert (got.trace[:, 3] == 0.0).all()
    assert got.converged and 0 < got.state.t < 10000


# make_linreg(n, n, n // 5) at the stock settings, where run_linreg takes
# the affine path of x: n = 10, blocks of three products with F, ..., F^25;
# 40, eleven products with F, ..., F^6; 130, blocks of 64 steps by the
# two-level fill
@pytest.mark.parametrize("n, shape", [(10, (25, 75)), (40, (6, 66)), (130, (1, 64))])
def test_linreg_affine_blocks_match_the_structured_steps_at_every_cap(n, shape):
    _, P = make_linreg(n, n, n // 5, seed=3)
    assert _block_shape(n, AFFINE_BLOCK_MIN) == shape
    k = shape[1]
    for cap in (0, 1, k - 1, k, k + 1, 3 * k):
        cfg = SolverConfig(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=cap, eps=0.0)
        assert_same_run(run_linreg(P, cfg), linreg_structured(P, cfg))


def test_affine_blocks_end_at_the_cap(monkeypatch, rng):
    # the last block fills only up to the cap, rounded up to whole products
    # with M, ..., M^j. Where j = 1, the blocks are filled at two levels (a
    # fill given the one-step map): an odd last block ends on an odd
    # iterate, made from the even one before it
    import jointmm.solver

    calls, fill = [], jointmm.solver.fill_iterates
    monkeypatch.setattr(jointmm.solver, "fill_iterates",
                        lambda *a: calls.append((a[1], len(a) == 5)) or fill(*a))
    stock = dict(alpha_x=0.3, alpha_y=1.0, inner_steps=3, eps=0.0)
    for n, cap, fills in ((130, 100, [(64, True), (36, True)]),
                          (130, 165, [(64, True), (64, True), (37, True)]),
                          (40, 100, [(66, False), (36, False)]),
                          (10, 100, [(75, False), (25, False)])):
        _, P = make_linreg(n, n, n // 5, seed=3)
        calls.clear()
        got = run_linreg(P, SolverConfig(outer_cap=cap, **stock))
        assert (got.state.t, calls) == (cap, fills)
    # run_pgmsad at n + m + q = 140
    P, kw = affine_case(rng, 60, 60, 20)
    for cap, fills in ((64, [(64, True)]), (101, [(64, True), (37, True)])):
        calls.clear()
        cfg = SolverConfig(outer_cap=cap, eps=0.0, **kw)
        got = run_pgmsad(P, cfg)
        assert (got.state.t, calls) == (cap, fills)
        assert_same_run(got, pgmsad_structured(P, cfg))


def assert_certified_at_start(P, got, config, converged):
    """A run that stopped at iterate 0 returns the residuals, and trace row 0,
    of problem.residuals at its state, bit for bit."""
    s, L1, L2 = got.state, 1.0 / config.alpha_x, 1.0 / config.alpha_y
    want = residuals(P, s.x, s.y, s.lam, L1, L2)
    assert (s.t, got.converged, got.residuals) == (0, converged, want)
    assert got.trace[0, 1:4].tolist() == [want.res_x, want.res_y, want.res_feas]


@pytest.mark.parametrize("seed", range(12))
def test_affine_paths_certify_iterate_0_by_the_drivers_certify(seed):
    # the residual map R z + r rounds otherwise than residuals does; iterate
    # 0 must be certified as on the structured path, at cap 0 and when the
    # start already meets eps
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 6, 2)
    P, kw = affine_case(rng, n, m, int(rng.integers(1, m + 1)))
    _, Q = make_linreg(5 + seed, 5 + seed, 1 + seed // 5, seed=seed)
    stock = dict(alpha_x=0.3, alpha_y=1.0, inner_steps=3)
    for cap, eps in ((0, 0.0), (50, 1e12)):
        cfg = SolverConfig(outer_cap=cap, eps=eps, **kw)
        assert_certified_at_start(P, run_pgmsad(P, cfg), cfg, eps > 0)
        cfg = SolverConfig(outer_cap=cap, eps=eps, **stock)
        assert_certified_at_start(Q, run_linreg(Q, cfg), cfg, eps > 0)


@pytest.mark.parametrize("where", ["first", "last"])
def test_affine_blocks_stop_on_the_first_and_last_row_of_a_block(rng, where):
    # iterate 0 is certified alone; block b >= 1 holds iterates
    # (b - 1) k + 1 .. b k. eps is set just above the largest residual of a
    # record-low iterate t in the wanted place, so the run stops at t
    P, kw = affine_case(rng, 2, 2, 2)
    k = _block_shape(6, AFFINE_BLOCK_MIN)[1]
    trace = pgmsad_structured(P, SolverConfig(outer_cap=5 * k, eps=0.0, **kw)).trace
    worst = trace[:, 1:4].max(axis=1).tolist()
    t = next(t for t in range(k, 5 * k + 1)
             if t % k == (1 if where == "first" else 0) and worst[t] < 0.999 * min(worst[:t]))
    cfg = SolverConfig(outer_cap=5 * k, eps=worst[t] * (1 + 1e-9), **kw)
    got, ref = run_pgmsad(P, cfg), pgmsad_structured(P, cfg)
    assert (ref.t, ref.converged) == (t, True)
    assert_same_run(got, ref)


@pytest.mark.filterwarnings("error")
def test_affine_divergence_names_the_iterate_single_steps_name(rng):
    # a finite outer-step map with spectral radius near 5: the iterates grow
    # until entries of the x- and y-residuals overflow when squared. The
    # block holding that row is filled again by single steps and each norm
    # sums only its own block's squares, so the error does not name
    # res_feas, which a sum over all squares would make nonfinite
    P, kw = affine_case(rng, 2, 2, 2)
    kw["alpha_x"] *= 10
    cfg = SolverConfig(outer_cap=100000, eps=0.0, **kw)
    step = lambda z: (np.hstack(pgmsad_step(P, cfg, z[:, :2], z[:, 2:4], z[:, 4:])),)
    [(M, _)] = affine_parts(step, 6)
    assert np.all(np.isfinite(M)) and np.abs(np.linalg.eigvals(M)).max() > 1
    with pytest.raises(DivergenceError) as err:
        run_pgmsad(P, cfg)
    with pytest.raises(DivergenceError) as ref:
        pgmsad_structured(P, cfg)
    assert str(err.value) == str(ref.value) == "diverged at iterate 223: nonfinite res_x, res_y"
    _assert_divergence_carries_state(err)
    assert err.value.state.t == ref.value.state.t > _block_shape(6, AFFINE_BLOCK_MIN)[1]


@pytest.mark.filterwarnings("error")
def test_run_pgmsad_divergence_in_the_inner_loop_carries_state(rng):
    # orthant psi: the inner loop runs, the drive grows with x each outer
    # iteration, and alpha_y times it overflows in the middle of the loop
    P = orthant_copy(quadratic_problem(rng)[0])
    cfg = SolverConfig(alpha_x=1e12, alpha_y=1e100, inner_steps=60,
                       outer_cap=500, eps=0.0, x0=np.ones(2), y0=np.ones(2))
    with pytest.raises(DivergenceError) as err:
        run_pgmsad(P, cfg)
    _assert_divergence_carries_state(err)
    assert err.value.state.t > 0


@pytest.mark.filterwarnings("error")
def test_run_framework_divergence_carries_state(rng):
    P, a, b = quadratic_problem(rng)

    def exact_inner(x, lam, y_start, eps_t):
        return (P.K.T @ x + P.B.T @ lam) / b

    # no accuracy target: only the outer step's size makes the run diverge
    with pytest.raises(DivergenceError, match="nonfinite") as err:
        run_framework(P, exact_inner, lambda t: np.inf, 1e6, 500,
                      x0=np.ones(2), y0=np.ones(2))
    _assert_divergence_carries_state(err)
    assert 0 < err.value.state.t < 500


def test_run_pgmsad_projected_iterates_feasible(rng):
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    cfg = SolverConfig(alpha_x=0.5 / C.L_theta, alpha_y=0.5 / C.L_h,
                       inner_steps=20, outer_cap=30, eps=0.0,
                       project_each_outer=True, seed=4)
    res = run_pgmsad(P, cfg)
    assert (res.trace[1:, 3] <= 1e-12).all()


def test_theorem_style_inner_bound(rng):
    # measured y-block residual after N inner steps against the stated envelope
    P, a, b = quadratic_problem(rng)
    alpha_y = 0.8 / b
    x, lam = rng.standard_normal(2), rng.standard_normal(2)
    ystar = (P.K.T @ x + P.B.T @ lam) / b
    y0 = rng.standard_normal(2) * 3
    N = 7
    y = inner_ascent(P, x, lam, y0, N, alpha_y)
    from jointmm.problem import inner_residual

    lhs = inner_residual(P, x, y, lam, L=1.0 / alpha_y) ** 2
    rhs = 9.0 / alpha_y**2 * (1 - P.mu * alpha_y) ** N * np.linalg.norm(y0 - ystar) ** 2
    assert lhs <= rhs + 1e-9


def test_run_framework_exact_inner_matches_pgmsad(rng):
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    alpha_x = 0.5 / C.L_theta
    alpha_y = 0.9 / C.L_h

    def exact_inner(x, lam, y_start, eps_t):
        return approx_y_star(P, x, lam, alpha_y=alpha_y, tol=1e-15)

    fr = run_framework(P, exact_inner, lambda t: 0.0, alpha_x, 25,
                       x0=np.ones(2), y0=np.ones(2))
    cfg = SolverConfig(alpha_x=alpha_x, alpha_y=alpha_y, inner_steps=2500,
                       outer_cap=25, eps=0.0, x0=np.ones(2), y0=np.ones(2),
                       project_final=False)
    ref = run_pgmsad(P, cfg)
    assert np.linalg.norm(fr.state.x - ref.state.x) <= 1e-8
    assert np.linalg.norm(fr.state.lam - ref.state.lam) <= 1e-8


def test_run_framework_summability_schedule(rng):
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    alpha_x = 0.5 / C.L_theta
    alpha_y = 0.9 / C.L_h

    def inner(x, lam, y_start, eps_t):
        y = y_start
        for _ in range(4000):
            y = inner_ascent(P, x, lam, y, 1, alpha_y)
            from jointmm.problem import inner_residual

            if inner_residual(P, x, y, lam) <= 0.5 * eps_t:
                break
        return y

    T = 48
    fr = run_framework(P, inner, lambda t: 1.0 / (t + 1.0), alpha_x, T,
                       x0=np.ones(2), y0=np.ones(2))
    steps = []
    prev = np.concatenate([np.ones(2), np.zeros(2)])
    # recompute movement from the trace-recorded states is not stored; rerun sums
    # via the recorded residual proxy instead: use the eps list plus state deltas
    assert len(fr.eps_used) == T
    # movement summability proxy: last-quarter movement far below first-quarter
    # (recompute by replaying with the same inner)
    x, y, lam = np.ones(2), np.ones(2), np.zeros(2)
    moves = []
    for t in range(T):
        y = inner(x, lam, y, 1.0 / (t + 1.0))
        x_new, lam_new = outer_step(P, x, lam, y, alpha_x)
        moves.append(np.linalg.norm(np.concatenate([x_new - x, lam_new - lam])) ** 2)
        x, lam = x_new, lam_new
    q = T // 4
    assert sum(moves[-q:]) < sum(moves[:q])


def test_run_framework_single_step_equals_outer_step(rng):
    P, a, b = quadratic_problem(rng)
    x0, y0 = np.ones(2), np.ones(2)

    def inner_returns_start(x, lam, y_start, eps_t):
        return y_start

    ystar = approx_y_star(P, x0, np.zeros(2), alpha_y=0.9 / b, tol=1e-15)
    fr = run_framework(P, inner_returns_start, lambda t: 1e6, 0.05, 1, x0=x0, y0=ystar)
    x_ref, lam_ref = outer_step(P, x0, np.zeros(2), ystar, 0.05)
    assert np.allclose(fr.state.x, x_ref)
    assert np.allclose(fr.state.lam, lam_ref)


def test_run_framework_constant_schedule_warns(rng):
    P, a, b = quadratic_problem(rng)

    def inner(x, lam, y_start, eps_t):
        return approx_y_star(P, x, lam, alpha_y=0.9 / b, tol=1e-14)

    with pytest.warns(UserWarning, match="constant"):
        run_framework(P, inner, [0.1, 0.1, 0.1], 0.02, 3, x0=np.ones(2), y0=np.ones(2))


@pytest.mark.parametrize("schedule, t", [
    (lambda t: math.nan, 0),
    ([math.nan] * 3, 0),
    (lambda t: -1.0 if t == 2 else math.inf, 2),
    ([math.inf, -0.1, math.inf], 1),
    ([math.inf, math.inf, "tight"], 2),
    (lambda t: None, 0),
], ids=["nan-callable", "nan-list", "negative-callable", "negative-list", "text-list", "none"])
def test_run_framework_rejects_a_bad_inner_target(rng, schedule, t):
    # a NaN target would turn the inner-accuracy check off, and this inner
    # solver, which does nothing, would run all T steps; inf is allowed
    P, a, b = quadratic_problem(rng)

    def no_op(x, lam, y_start, eps_t):
        return y_start

    with pytest.raises(ConfigurationError, match=f"^eps_t of iteration {t} must be >= 0"):
        run_framework(P, no_op, schedule, 0.02, 3, x0=np.ones(2), y0=np.ones(2))


def test_run_framework_inner_miss_raises(rng):
    P, a, b = quadratic_problem(rng)

    def bad_inner(x, lam, y_start, eps_t):
        return y_start + 10.0

    with pytest.raises(FrameworkError) as err:
        run_framework(P, bad_inner, lambda t: 1e-9, 0.02, 5, x0=np.ones(2), y0=np.ones(2))
    assert err.value.iteration == 0


def test_project_feasible_keeps_feasible_points(rng):
    P, a, b = quadratic_problem(rng)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    xf, yf = project_feasible(P, x, y)
    xf2, yf2 = project_feasible(P, xf, yf)
    assert np.linalg.norm(xf2 - xf) <= 1e-12
    assert np.linalg.norm(yf2 - yf) <= 1e-12


def test_project_feasible_hand_example():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((1, 1)), A=np.eye(1), B=np.eye(1), c=np.array([-1.0]),
    )
    xf, yf = project_feasible(P, np.zeros(1), np.zeros(1))
    assert xf[0] == pytest.approx(0.5, abs=1e-12)
    assert yf[0] == pytest.approx(0.5, abs=1e-12)


def test_project_feasible_orthogonal_correction(rng):
    P, a, b = quadratic_problem(rng)
    x, y = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
    xf, yf = project_feasible(P, x, y)
    assert np.linalg.norm(feas(P, xf, yf)) <= 1e-12 * (1 + np.linalg.norm(P.c))
    correction = np.concatenate([x - xf, y - yf])
    stacked = np.hstack([P.A, P.B])
    _, _, vt = np.linalg.svd(stacked)
    null_basis = vt[np.linalg.matrix_rank(stacked):]
    for v in null_basis:
        assert abs(float(correction @ v)) <= 1e-9


def test_gram_inverse_built_once_per_problem(rng, monkeypatch):
    calls = []
    spd_factor = jointmm.problem.spd_factor

    def counting_spd_factor(S):
        calls.append(S.shape)
        return spd_factor(S)

    monkeypatch.setattr(jointmm.problem, "spd_factor", counting_spd_factor)
    P, a, b = quadratic_problem(rng)
    for _ in range(20):
        x, y = project_feasible(P, rng.standard_normal(2), rng.standard_normal(2))
        recover_multiplier(P, x, y)
    assert calls == [(2, 2)]


def test_ascent_map_built_once_per_run(rng, monkeypatch):
    calls = []
    ascent_coefficients = jointmm.problem.ascent_coefficients

    def counting_ascent_coefficients(d, n_steps, alpha):
        calls.append((n_steps, alpha))
        return ascent_coefficients(d, n_steps, alpha)

    monkeypatch.setattr(jointmm.problem, "ascent_coefficients", counting_ascent_coefficients)
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    cfg = SolverConfig(alpha_x=0.5 / C.L_theta, alpha_y=0.5 / C.L_h, inner_steps=60,
                       outer_cap=50, eps=0.0, x0=np.ones(2), y0=np.ones(2))
    assert run_pgmsad(P, cfg).state.t == 50
    assert calls == [(60, cfg.alpha_y)]


def test_gram_solve_backward_error_on_ill_conditioned_gram(rng):
    # S = A A^T + B B^T with eigenvalues spread over 1 .. 1e-8
    q = 6
    Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
    R, _ = np.linalg.qr(rng.standard_normal((q, q)))
    half = Q * np.sqrt(np.logspace(0, -8, q) / 2)
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((q, q)), A=half, B=half @ R, c=np.zeros(q),
    )
    S = P.A @ P.A.T + P.B @ P.B.T
    cond = np.linalg.cond(S)
    assert 1e7 <= cond <= 1e9
    for _ in range(10):
        r = rng.standard_normal(q)
        zeta, zeta_ref = P.gram_solve(r), np.linalg.solve(S, r)
        for z in (zeta, zeta_ref):
            assert np.linalg.norm(S @ z - r) / np.linalg.norm(r) <= 1e-10 * cond
        assert np.linalg.norm(zeta - zeta_ref) <= 1e-10 * cond * np.linalg.norm(zeta_ref)


@pytest.mark.parametrize(
    "A, B",
    # a zero row (Cholesky fails) and a doubled row (pivot at roundoff level)
    [([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
     ([[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]])],
)
def test_project_feasible_rank_deficient_constraints_raise(A, B):
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((2, 2)), A=np.array(A), B=np.array(B), c=np.ones(2),
    )
    with pytest.raises(SingularConstraintError, match="full row rank"):
        project_feasible(P, np.zeros(2), np.zeros(2))


def test_plan_budget_toy_example():
    C = ProblemConstants(norm_K=1, norm_A=1, norm_B=1, L_g=0, L_h=1, gamma=1, L_theta=None)
    B = BudgetConstants(chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=1.0, gamma2=1.0,
                        beta1=1.0, theta_gap=1.0)
    N, T = plan_budget(C, B, alpha_x=0.1, alpha_y=0.5, mu=1.0, eps=0.1)
    assert N == 10  # ceil((log 8 + 2 log 10)/log 2)
    assert T == 200


def test_plan_budget_omega_branch():
    import math

    C = ProblemConstants(norm_K=1, norm_A=1, norm_B=1, L_g=0, L_h=1, gamma=1, L_theta=None)
    B = BudgetConstants(chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=2.0, gamma2=3.0,
                        omega1=0.7, theta_gap=2.0)
    mu, ay, eps = 0.8, 0.5, 0.03
    N, T = plan_budget(C, B, alpha_x=0.1, alpha_y=ay, mu=mu, eps=eps)
    num = math.log(4 * 2.0 * 0.7 / mu) + 2 * math.log(1 / eps)
    assert N == math.ceil(num / (-math.log(1 - mu * ay)))
    assert T == math.ceil(2 * 3.0 * 2.0 / eps**2)


def test_plan_budget_halving_eps_structure():
    import math

    C = ProblemConstants(norm_K=1, norm_A=1, norm_B=1, L_g=0, L_h=1, gamma=1, L_theta=None)
    B = BudgetConstants(chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=1.0, gamma2=1.0,
                        beta1=1.0, theta_gap=1.0)
    mu, ay = 1.0, 0.5
    rate = -math.log(1 - mu * ay)
    for eps in (0.1, 0.01):
        N1, T1 = plan_budget(C, B, 0.1, ay, mu, eps)
        N2, T2 = plan_budget(C, B, 0.1, ay, mu, eps / 2)
        # T quadruples exactly before the ceiling
        assert T2 == math.ceil(4 * 2 * 1.0 / eps**2)
        # N grows by the additive increment 2 log 2 / rate, up to ceiling slack
        raw1 = (math.log(8) + 2 * math.log(1 / eps)) / rate
        raw2 = raw1 + 2 * math.log(2.0) / rate
        assert N1 == math.ceil(raw1) and N2 == math.ceil(raw2)


def test_plan_budget_validation():
    C = ProblemConstants(norm_K=1, norm_A=1, norm_B=1, L_g=0, L_h=1, gamma=1, L_theta=None)
    B = BudgetConstants(chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=1.0, gamma2=1.0)
    with pytest.raises(ConfigurationError, match="theta_gap"):
        plan_budget(C, B, 0.1, 0.5, 1.0, 0.1)
    both = dataclasses.replace(B, beta1=1.0, omega1=1.0, theta_gap=1.0)
    with pytest.raises(ConfigurationError, match="exactly one"):
        plan_budget(C, both, 0.1, 0.5, 1.0, 0.1)
    with pytest.raises(ConfigurationError):
        plan_budget(C, dataclasses.replace(B, beta1=1.0, theta_gap=1.0), 0.1, 0.5, 0.0, 0.1)


def test_trace_csv_golden_header(tmp_path, rng):
    P, a, b = quadratic_problem(rng)
    cfg = SolverConfig(alpha_x=0.02, alpha_y=0.2, inner_steps=3, outer_cap=3,
                       eps=0.0, seed=2)
    res = run_pgmsad(P, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,elapsed_s,res_x,res_y,res_feas,app_error"
    assert lines[0] == TRACE_HEADER
    assert len(lines) == len(res.trace) + 1


def test_state_json_fields(tmp_path, rng):
    import json

    P, a, b = quadratic_problem(rng)
    cfg = SolverConfig(alpha_x=0.02, alpha_y=0.2, inner_steps=3, outer_cap=3,
                       eps=0.0, seed=2)
    res = run_pgmsad(P, cfg)
    path = tmp_path / "state.json"
    write_state_json(res.state, res.residuals, 0.12, path)
    data = json.loads(path.read_text())
    assert set(data) == {"x", "y", "lambda", "residuals", "iterations", "wall_time_s"}
    assert set(data["residuals"]) == {"res_x", "res_y", "res_feas", "L1", "L2"}


def test_run_framework_trace_rows_each_iterate_once(rng):
    P, a, b = quadratic_problem(rng)

    def inner(x, lam, y_start, eps_t):
        return approx_y_star(P, x, lam, alpha_y=0.9 / b, tol=1e-14)

    T = 6
    fr = run_framework(P, inner, lambda t: 1.0 / (t + 1.0) ** 2, 0.02, T,
                       x0=np.ones(2), y0=np.ones(2))
    assert len(fr.trace) == T + 1
    assert fr.state.t == T


def test_run_pgmsad_trace_rows_and_converged_describe_returned_point(rng):
    P, a, b = quadratic_problem(rng)
    C = compute_constants(P)
    cfg = SolverConfig(alpha_x=0.5 / C.L_theta, alpha_y=0.5 / C.L_h,
                       inner_steps=5, outer_cap=2000, eps=1e-9, seed=5)
    res = run_pgmsad(P, cfg)
    assert len(res.trace) == res.state.t + 1
    assert res.converged == res.residuals.within(cfg.eps)


def test_iterate_stops_at_cap_and_on_done():
    from jointmm.solver import iterate

    def certify(s):
        return s >= 3, (float(s), 0.0, 0.0), -s

    run = iterate(0, lambda s, cert, t: s + 1, certify, 10, True)
    assert (run.state, run.cert, run.t, run.converged) == (3, -3, 3, True)
    assert len(run.trace) == 4
    run = iterate(0, lambda s, cert, t: s + 1, certify, 2, False)
    assert (run.state, run.t, run.converged, run.trace.shape) == (2, 2, False, (0, 5))


def test_iterate_raises_on_a_nonfinite_row_with_the_last_certified_state():
    from jointmm.solver import iterate

    def certify(s):
        row = (float(s), np.nan if s == 3 else 0.0, 0.0)
        return False, row + (np.inf,) if s == 3 else row, s

    with pytest.raises(DivergenceError, match="iterate 3: nonfinite res_y, app_error") as err:
        iterate(0, lambda s, cert, t: s + 1, certify, 10, True)
    assert err.value.state == 2
    assert len(err.value.trace) == 3
    with pytest.raises(DivergenceError, match="iterate 0") as err:
        iterate(3, lambda s, cert, t: s + 1, certify, 10, False)
    assert err.value.state is None and err.value.trace.shape == (0, 5)


def test_iterate_accepts_a_finite_row_whose_sum_overflows():
    from jointmm.solver import iterate

    def certify(s):
        return s >= 2, (1e308, 1e308, 0.0), s

    run = iterate(0, lambda s, cert, t: s + 1, certify, 10, True)
    assert (run.state, run.converged, len(run.trace)) == (2, True, 3)


def _counting_blocks(size, bad=None):
    """A step for iterate on integer states: from s, a Block of the states
    s + 1, ..., s + size with rows (state, 0, 0), done at 5 and a NaN res_y
    at state bad. Odd states step singly instead."""
    from jointmm.solver import Block

    def step(s, cert, t):
        if s % 2:
            return s + 1
        states = np.arange(s + 1, s + 1 + size)
        rows = np.zeros((size, 3))
        rows[:, 0] = states
        rows[states == bad, 1] = np.nan
        return Block(rows, states >= 5, lambda i: (int(states[i]), -int(states[i])))

    return step


def _counting_certify(s):
    return s >= 5, (float(s), 0.0, 0.0), -s


def test_iterate_takes_blocks_up_to_the_first_done_row_or_the_cap():
    from jointmm.solver import iterate

    # 0 -> block 1..3 -> 3 steps singly -> 4 -> block 5..7 stops at 5
    run = iterate(0, _counting_blocks(3), _counting_certify, 10, True)
    assert (run.state, run.cert, run.t, run.converged) == (5, -5, 5, True)
    assert len(run.trace) == 6
    assert run.trace[:, 1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.isnan(run.trace[:, 4]).all()
    # the rows of a block share one stamp, taken after the step
    stamps = run.trace[:, 0].tolist()
    assert stamps[1] == stamps[2] == stamps[3] <= stamps[4] <= stamps[5]
    # a cap inside a block: its later rows are not used
    run = iterate(0, _counting_blocks(3), _counting_certify, 2, True)
    assert (run.state, run.cert, run.t, run.converged) == (2, -2, 2, False)
    assert len(run.trace) == 3
    run = iterate(0, _counting_blocks(3), _counting_certify, 2, False)
    assert (run.state, run.t, run.trace.shape) == (2, 2, (0, 5))


def test_iterate_raises_on_a_nonfinite_block_row_with_the_row_before_it():
    from jointmm.solver import iterate

    with pytest.raises(DivergenceError, match="iterate 2: nonfinite res_y$") as err:
        iterate(0, _counting_blocks(3, bad=2), _counting_certify, 10, True)
    assert err.value.state == 1
    assert len(err.value.trace) == 2
    # the block's first row: the state the block was taken from
    with pytest.raises(DivergenceError, match="iterate 5: nonfinite res_y$") as err:
        iterate(0, _counting_blocks(3, bad=5), _counting_certify, 10, False)
    assert err.value.state == 4 and err.value.trace.shape == (0, 5)


def test_trace_is_a_float64_array_with_a_row_per_iterate():
    from jointmm.solver import iterate

    def certify(s):
        row = (float(s), 0.5, -0.0)
        return False, row if s % 2 else row + (2.0 * s,), s

    # rows 1-3 and 5 come from blocks, which stop at 5 (_counting_blocks)
    trace = iterate(0, _counting_blocks(3), certify, 10, True).trace
    assert type(trace) is np.ndarray and trace.dtype == np.float64 and trace.shape == (6, 5)
    assert trace.flags.owndata
    # a block's rows have three columns: their app_error is NaN
    assert np.array_equal(trace[:, 4], [0.0, np.nan, np.nan, np.nan, 8.0, np.nan],
                          equal_nan=True)
    assert trace[4, 1:].tolist() == [4.0, 0.5, 0.0, 8.0] and np.signbit(trace[4, 3])
    assert trace[1, 1:4].tolist() == [1.0, 0.0, 0.0]

    # a divergence at iterate 0 carries the empty trace
    def diverged(s):
        return False, (np.nan, 0.0, 0.0), s

    with pytest.raises(DivergenceError, match="iterate 0") as err:
        iterate(0, _counting_blocks(3), diverged, 10, True)
    assert err.value.trace.dtype == np.float64 and err.value.trace.shape == (0, 5)


def _scheduled_blocks(sizes, bad=None):
    """A step for iterate on integer states: from a state s in sizes, a Block
    of the next sizes[s] states with the rows (state, state / 2, -state), a
    NaN res_y at state bad and no done row; from any other state, s + 1."""
    from jointmm.solver import Block

    def step(s, cert, t):
        if s not in sizes:
            return s + 1
        states = np.arange(s + 1, s + 1 + sizes[s])
        rows = np.stack([states, states / 2, -states], axis=1).astype(np.float64)
        rows[states == bad, 1] = np.nan
        return Block(rows, np.zeros(len(states), dtype=bool), lambda i: (int(states[i]), None))

    return step


def _rows_certify(bad=None):
    """certify on integer states: the row (s, s / 2, -s), with app_error 2 s
    on even states only, a NaN res_feas at state bad, and never done."""

    def certify(s):
        row = (float(s), s / 2, np.nan if s == bad else -float(s))
        return False, row if s % 2 else row + (2.0 * s,), s

    return certify


def _expected_rows(T, sizes):
    """The trace columns after elapsed_s of _scheduled_blocks and
    _rows_certify over iterates 0..T."""
    s = np.arange(T + 1, dtype=np.float64)
    want = np.stack([s, s / 2, -s, np.where(s % 2, np.nan, 2 * s)], axis=1)
    for start, size in sizes.items():
        want[start + 1 : start + 1 + size, 3] = np.nan
    return want


def assert_owned_trace(trace, rows):
    assert type(trace) is np.ndarray and trace.dtype == np.float64
    assert trace.shape == (rows, 5) and trace.flags.owndata and trace.flags.c_contiguous
    assert trace.nbytes == 40 * rows


def test_a_trace_of_certified_rows_outgrows_its_first_allocation():
    from jointmm.solver import iterate

    run = iterate(0, _scheduled_blocks({}), _rows_certify(), 3000, True)
    assert run.t == 3000
    assert_owned_trace(run.trace, 3001)
    assert np.array_equal(run.trace[:, 1:], _expected_rows(3000, {}), equal_nan=True)
    assert (np.diff(run.trace[:, 0]) >= 0).all()
    run = iterate(0, _scheduled_blocks({}), _rows_certify(), 3000, False)
    assert run.t == 3000 and run.trace.shape == (0, 5)


def test_a_trace_of_rows_and_blocks_keeps_every_row_across_its_growth():
    from jointmm.solver import iterate

    # the trace starts at 1,024 rows; the block at 1,020 needs 2,000 more,
    # past the double it would grow to, and the run of single rows after it
    # doubles it once and then grows it up to the cap's 8,001 rows
    sizes = {10: 5, 500: 100, 1020: 2000, 3100: 1000, 5000: 3}
    run = iterate(0, _scheduled_blocks(sizes), _rows_certify(), 8000, True)
    assert (run.state, run.t, run.converged) == (8000, 8000, False)
    assert_owned_trace(run.trace, 8001)
    assert np.array_equal(run.trace[:, 1:], _expected_rows(8000, sizes), equal_nan=True)
    stamps = run.trace[:, 0]
    assert (np.diff(stamps) >= 0).all()
    for start, size in sizes.items():
        assert (stamps[start + 1 : start + 1 + size] == stamps[start + 1]).all()


@pytest.mark.parametrize("bad", [4000, 2000])
def test_a_divergence_after_the_trace_grew_carries_an_owned_copy(bad):
    from jointmm.solver import iterate

    # the trace grows to 3,021 rows at the block of 2,000 rows from 1,020,
    # and to 6,042 at iterate 3,021. A NaN res_feas at iterate 4,000, which
    # is certified, or a NaN res_y at 2,000, in the block
    sizes = {1020: 2000}
    with pytest.raises(DivergenceError, match=f"iterate {bad}: nonfinite") as err:
        iterate(0, _scheduled_blocks(sizes, bad), _rows_certify(bad), 8000, True)
    assert err.value.state == bad - 1
    assert_owned_trace(err.value.trace, bad)
    assert np.array_equal(err.value.trace[:, 1:], _expected_rows(bad - 1, sizes),
                          equal_nan=True)


def _framework_run(rng):
    P, a, b = quadratic_problem(rng)
    inner = lambda x, lam, y_start, eps_t: approx_y_star(P, x, lam, 0.9 / b, tol=1e-14)
    return run_framework(P, inner, lambda t: 1.0 / (t + 1.0) ** 2, 0.02, 6,
                         x0=np.ones(2), y0=np.ones(2))


def _pgmsad_run(rng, psi):
    P, kw = affine_case(rng, 3, 2, 2)
    P = orthant_copy(P) if psi == "orthant" else P
    return run_pgmsad(P, SolverConfig(outer_cap=300, eps=1e-10, **kw))


CSV_RUNS = {
    "pgmsad-affine": lambda rng: _pgmsad_run(rng, "zero"),
    "pgmsad-orthant": lambda rng: _pgmsad_run(rng, "orthant"),
    "linreg": lambda rng: run_linreg(make_linreg(10, 10, 2, seed=3)[1], SolverConfig(
        alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=200, eps=1e-8)),
    "gave-a": lambda rng: run_gave(builtin_gave("gave-a"), builtin_gave_config("gave-a")),
    "framework": _framework_run,
}


@pytest.mark.parametrize("run", list(CSV_RUNS))
def test_trace_csv_bytes_are_the_records_csv_bytes(rng, tmp_path, run):
    trace = CSV_RUNS[run](rng).trace
    assert len(trace) > 1
    assert_trace_csv_is_the_records_csv(trace, tmp_path)


@pytest.mark.parametrize("psi", ["zero", "orthant"])
def test_divergence_carries_a_trace_up_to_the_bad_iterate(rng, psi):
    # the case of test_affine_divergence_names_the_iterate_single_steps_name:
    # zero prox diverges inside a block, orthant psi in a structured step
    P, kw = affine_case(rng, 2, 2, 2)
    kw["alpha_x"] *= 10
    P = orthant_copy(P) if psi == "orthant" else P
    with pytest.raises(DivergenceError) as err:
        run_pgmsad(P, SolverConfig(outer_cap=100000, eps=0.0, **kw))
    bad = int(re.search(r"iterate (\d+):", str(err.value)).group(1))
    trace = err.value.trace
    assert type(trace) is np.ndarray and len(trace) == bad == err.value.state.t + 1
    assert np.isfinite(trace[:, :4]).all() and np.isnan(trace[:, 4]).all()


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
@pytest.mark.parametrize("d", [5, 130, 400])
def test_fills_keep_their_bits_at_any_alignment(shift_aligned, d, offset):
    # the stacked powers and a block of iterates filled by them, and the
    # two-level fill of M^2 and M, from inputs and package arrays at offset
    # bytes past a 64-byte boundary, are the bits of aligned ones
    rng = np.random.default_rng(d)
    M = rng.standard_normal((d, d)) / np.sqrt(d)
    z, c = rng.standard_normal(d), rng.standard_normal(d)
    j, k = _block_shape(d, AFFINE_BLOCK_MIN)

    def fills(offset):
        shift_aligned(offset)
        M_, z_, c_ = (misaligned(a, offset) for a in (M, z, c))
        S, C = stacked_powers(M_, c_, j)
        two = serial_matmul(M_, M_), (M_ @ c_ + c_)[None], (M_, c_)
        return [S, C, fill_iterates(z_, k, S, C), fill_iterates(z_, 64, *two)]

    want = [a.tobytes() for a in fills(0)]
    assert [a.tobytes() for a in fills(offset)] == want


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
@pytest.mark.parametrize("n, q", [(110, 36), (36, 16)], ids=["two-level", "stacked"])
def test_affine_pgmsad_bits_do_not_depend_on_alignment(shift_aligned, n, q, offset):
    # K, A and B, and every array numerics.aligned gives the affine path, at
    # offset bytes past a 64-byte boundary: the run of aligned ones, bit for
    # bit, over 100 steps projected every step. At n + m + q = 256 (the
    # instance of tests/test_threads.py) the blocks are filled at two
    # levels, at 88 by products with M and M^2
    rng = np.random.default_rng(7)
    P = MinimaxProblem(g=SmoothOracle(1.0), phi=prox_zero(), h=SmoothOracle(1.0),
                       psi=prox_zero(), K=rng.standard_normal((n, n)) / n**0.5,
                       A=rng.standard_normal((q, n)), B=rng.standard_normal((q, n)),
                       c=rng.standard_normal(q), mu=1.0)
    cfg = SolverConfig(alpha_x=0.05, alpha_y=0.5, inner_steps=5, outer_cap=100,
                       project_each_outer=True, seed=1)

    def run(offset):
        shift_aligned(offset)
        got = run_pgmsad(dataclasses.replace(
            P, **{name: misaligned(getattr(P, name), offset) for name in "KAB"}), cfg)
        return got.state.x, got.state.y, got.state.lam, got.trace[:, 1:]

    want = [a.tobytes() for a in run(0)]
    assert [a.tobytes() for a in run(offset)] == want


def test_affine_maps_and_blocks_start_on_64_byte_boundaries(monkeypatch):
    # linreg-400's instance over two blocks: M, M^2, the 883 x 400 residual
    # map R with its zero rows, and each block's Z start on a boundary. At
    # n = 10 each block's Z (and every map) is under ALIGN_MIN_BYTES, a plain
    # np.empty array that owns its data
    import jointmm.solver

    fills, products = [], []
    fill, product = jointmm.solver.fill_iterates, jointmm.solver.serial_matmul

    def spy(z, k, S, C, step=None):
        Z = fill(z, k, S, C, step)
        fills.append((S, step and step[0], Z))
        return Z

    monkeypatch.setattr(jointmm.solver, "fill_iterates", spy)
    monkeypatch.setattr(jointmm.solver, "serial_matmul",
                        lambda A, B: products.append(A) or product(A, B))
    stock = dict(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=100)
    _, P = make_linreg(400, 400, 80, seed=3)
    run_linreg(P, SolverConfig(**stock))
    (R,) = {id(A): A for A in products if A.shape == (883, 400)}.values()
    assert np.array_equal(R[[400, 801, 882]], np.zeros((3, 400)))
    assert [Z.shape for _, _, Z in fills] == [(65, 400), (37, 400)]
    for M2, M, Z in fills:
        assert {address(a) % 64 for a in (M2, M, Z, R)} == {0}
    fills.clear()
    _, P = make_linreg(10, 10, 2, seed=3)
    run_linreg(P, SolverConfig(**stock))
    assert fills and all(Z.flags.owndata and Z.nbytes < ALIGN_MIN_BYTES for *_, Z in fills)
