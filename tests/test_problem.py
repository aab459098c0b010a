import json
import pickle

import numpy as np
import pytest

from jointmm.apps import (
    builtin_gave,
    builtin_glpe,
    make_linreg,
    run_linreg,
)
from jointmm.errors import ConfigurationError
from jointmm.matio import write_matrix_csv, write_matrix_mm
from jointmm.problem import (
    MinimaxProblem,
    compute_budget_constants,
    compute_constants,
    feas,
    grad_x,
    grad_y,
    inner_residual,
    load_problem_manifest,
    recover_multiplier,
    residuals,
)
from jointmm.prox import (
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    prox_zero,
    smooth_scaled_sq_norm,
    smooth_zero,
)
from jointmm.solver import SolverConfig, run_pgmsad

from oracles import (
    approx_y_star,
    central_difference,
    gave_to_minimax,
    glpe_to_minimax,
    smooth_coupling,
)


def make_problem(rng, n=3, m=3, q=2, a=1.0, b=1.0, scale=0.5, mu=None):
    K = scale * rng.standard_normal((n, m))
    A = scale * rng.standard_normal((q, n))
    B = scale * rng.standard_normal((q, m))
    c = rng.standard_normal(q)
    return MinimaxProblem(
        g=smooth_scaled_sq_norm(a),
        phi=prox_zero(),
        h=smooth_scaled_sq_norm(b),
        psi=prox_zero(),
        K=K,
        A=A,
        B=B,
        c=c,
        mu=b if mu is None else mu,
    )


def test_grad_x_trivial_zero():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((2, 2)), A=np.zeros((1, 2)), B=np.zeros((1, 2)), c=np.zeros(1),
    )
    assert np.allclose(grad_x(P, np.ones(2), np.ones(2), np.ones(1)), 0.0)


def test_grad_x_hand_example():
    n = 3
    P = MinimaxProblem(
        g=smooth_scaled_sq_norm(1.0), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.eye(n), A=np.eye(n), B=np.eye(n), c=np.zeros(n),
    )
    ones = np.ones(n)
    assert np.allclose(grad_x(P, ones, ones, ones), 3.0 * ones)


def test_grad_y_trivial_and_pure_gradient():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((2, 2)), A=np.zeros((1, 2)), B=np.zeros((1, 2)), c=np.zeros(1),
    )
    assert np.allclose(grad_y(P, np.ones(2), np.ones(2), np.ones(1)), 0.0)
    P2 = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_scaled_sq_norm(1.0), psi=prox_zero(),
        K=np.eye(2), A=np.eye(2), B=np.eye(2), c=np.zeros(2), mu=1.0,
    )
    got = grad_y(P2, np.zeros(2), np.ones(2), np.zeros(2))
    assert np.allclose(got, [-1.0, -1.0])


def test_gradients_match_finite_differences(rng):
    P = make_problem(rng)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lam = rng.standard_normal(2)
        gx = grad_x(P, x, y, lam)
        gy = grad_y(P, x, y, lam)
        fx = central_difference(lambda u: smooth_coupling(P, u, y, lam), x, h=1e-5)
        fy = central_difference(lambda v: smooth_coupling(P, x, v, lam), y, h=1e-5)
        assert np.abs(gx - fx).max() <= 1e-5 * (1 + np.abs(gx).max())
        assert np.abs(gy - fy).max() <= 1e-5 * (1 + np.abs(gy).max())


def test_feas_examples(rng):
    n = 2
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.zeros((n, n)), A=np.eye(n), B=np.eye(n), c=-2.0 * np.ones(n),
    )
    assert np.allclose(feas(P, np.ones(n), np.ones(n)), 0.0, atol=1e-12)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    direct = np.eye(n) @ x + np.eye(n) @ y - 2.0 * np.ones(n)
    assert np.array_equal(feas(P, x, y), direct)


def test_compute_constants_zero_instance():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_scaled_sq_norm(0.5), psi=prox_zero(),
        K=np.zeros((2, 2)), A=np.zeros((1, 2)), B=np.zeros((1, 2)), c=np.zeros(1),
        mu=0.5,
    )
    C = compute_constants(P)
    assert C.gamma == 0.0
    assert C.L_theta == 0.0


def test_compute_constants_hand_example():
    # L_g = 1, mu = 1, and unit operator norms give gamma = max(4, sqrt(10)) = 4
    n = 1
    P = MinimaxProblem(
        g=smooth_scaled_sq_norm(1.0), phi=prox_zero(),
        h=smooth_scaled_sq_norm(1.0), psi=prox_zero(),
        K=np.eye(n), A=np.eye(n), B=np.eye(n), c=np.zeros(n), mu=1.0,
    )
    C = compute_constants(P)
    assert C.gamma == pytest.approx(4.0, rel=1e-7)
    assert C.L_theta == pytest.approx(4.0, rel=1e-7)


def test_compute_constants_lower_bound(rng):
    import math

    P = make_problem(rng)
    C = compute_constants(P)
    r1 = math.sqrt(
        2 * (C.L_g * P.mu + C.norm_K**2) ** 2 + 2 * (C.norm_A * P.mu + C.norm_K * C.norm_B) ** 2
    )
    r2 = math.sqrt(2 * (P.mu * C.norm_A + C.norm_K * C.norm_B) ** 2 + 2 * C.norm_B**4)
    assert C.gamma >= max(r1, r2) - 1e-12


def test_compute_constants_relaxed_mode():
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
        K=np.eye(2), A=np.eye(2), B=np.eye(2), c=np.zeros(2), mu=0.0,
    )
    assert compute_constants(P).L_theta is None


def test_residuals_zero_at_stationary_point(rng):
    P = make_problem(rng, n=1, m=1, q=1)
    # solve the 1-d KKT system directly
    a, b = 1.0, 1.0
    M = np.array(
        [
            [a, P.K[0, 0], P.A[0, 0]],
            [P.K[0, 0], -b, P.B[0, 0]],
            [P.A[0, 0], P.B[0, 0], 0.0],
        ]
    )
    sol = np.linalg.solve(M, np.array([0.0, 0.0, -P.c[0]]))
    res = residuals(P, sol[:1], sol[1:2], sol[2:], 2.0, 3.0)
    assert res.res_x <= 1e-10 and res.res_y <= 1e-10 and res.res_feas <= 1e-10


def test_residuals_reduce_to_gradient_norms(rng):
    P = make_problem(rng)
    x, y, lam = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2)
    res = residuals(P, x, y, lam, 2.0, 5.0)
    assert res.res_x == pytest.approx(np.linalg.norm(grad_x(P, x, y, lam)), rel=1e-12)
    assert res.res_y == pytest.approx(np.linalg.norm(grad_y(P, x, y, lam)), rel=1e-12)


def test_residuals_zero_prox_keep_gradients_below_rounding(rng):
    # x = y = 1 and a multiplier that leaves gradients of about 1e-13: below
    # L ulp(1)/2, where L (x - (x - g/L)) would round to exactly 0
    P = make_problem(rng, n=1, m=1, q=2)
    x, y, L = np.ones(1), np.ones(1), 1e4
    coupling = np.concatenate([x + P.K @ y, P.K.T @ x - y])
    lam = np.linalg.solve(np.vstack([P.A.T, P.B.T]), 1e-13 - coupling)
    gx, gy = grad_x(P, x, y, lam), grad_y(P, x, y, lam)
    assert 0 < max(abs(gx).max(), abs(gy).max()) < L * np.spacing(1.0) / 2
    res = residuals(P, x, y, lam, L, L)
    assert res.res_x == np.linalg.norm(gx) > 0
    assert res.res_y == np.linalg.norm(gy) > 0


def test_residuals_deterministic(rng):
    P = make_problem(rng)
    x, y, lam = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2)
    r1 = residuals(P, x, y, lam, 1.0, 1.0)
    r2 = residuals(P, x, y, lam, 1.0, 1.0)
    assert (r1.res_x, r1.res_y, r1.res_feas) == (r2.res_x, r2.res_y, r2.res_feas)


def test_inner_residual_vanishes_at_maximizer(rng):
    P = make_problem(rng)
    x, lam = rng.standard_normal(3), rng.standard_normal(2)
    ystar = approx_y_star(P, x, lam, alpha_y=0.5 / P.h.lipschitz, tol=1e-14)
    assert inner_residual(P, x, ystar, lam) <= 1e-10


def test_inner_residual_keeps_a_gradient_below_the_ulp_of_y():
    # h = 0 and psi = 0: the mapping is -grad_y = -x, which 1 - (1 + 1e-17)
    # would round to 0
    P = MinimaxProblem(g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
                       K=np.eye(1), A=np.eye(1), B=np.eye(1), c=np.zeros(1))
    assert inner_residual(P, np.array([1e-17]), np.ones(1), np.zeros(1)) == 1e-17


def test_y_star_lipschitz_bound(rng):
    # strongly concave quadratic inner problem: closed-form maximizer
    P = make_problem(rng, b=1.3)
    C = compute_constants(P)
    mu = P.mu
    for _ in range(20):
        x0, x1 = rng.standard_normal(3), rng.standard_normal(3)
        l0, l1 = rng.standard_normal(2), rng.standard_normal(2)
        y0 = (P.K.T @ x0 + P.B.T @ l0) / 1.3
        y1 = (P.K.T @ x1 + P.B.T @ l1) / 1.3
        bound = (C.norm_K * np.linalg.norm(x0 - x1) + C.norm_B * np.linalg.norm(l0 - l1)) / mu
        assert np.linalg.norm(y0 - y1) <= bound + 1e-9


def test_recover_multiplier_exact_at_saddle(rng):
    P = make_problem(rng)
    # an exact stationary triple from the KKT system
    a, b = 1.0, 1.0
    n, m, q = 3, 3, 2
    M = np.block(
        [
            [a * np.eye(n), P.K, P.A.T],
            [P.K.T, -b * np.eye(m), P.B.T],
            [P.A, P.B, np.zeros((q, q))],
        ]
    )
    sol = np.linalg.solve(M, np.concatenate([np.zeros(n + m), -P.c]))
    lam_hat = recover_multiplier(P, sol[:n], sol[n : n + m])
    assert np.linalg.norm(lam_hat - sol[n + m :]) <= 1e-9


def test_budget_constants_hand_example():
    # only ||B|| = 1 and mu = 1 nonzero; alpha_x = alpha_y = 1/2
    P = MinimaxProblem(
        g=smooth_zero(), phi=prox_zero(), h=smooth_scaled_sq_norm(1.0), psi=prox_zero(),
        K=np.zeros((1, 1)), A=np.zeros((1, 1)), B=np.eye(1), c=np.zeros(1), mu=1.0,
    )
    C = compute_constants(P)
    assert C.gamma == pytest.approx(np.sqrt(2.0), rel=1e-9)
    Bc = compute_budget_constants(P, C, 0.5, 0.5)
    shrink = 1.0 - 0.5 * np.sqrt(2.0)
    assert Bc.chi0 == pytest.approx(1.0 / (0.5 * shrink), rel=1e-9)
    assert Bc.chi1 == pytest.approx(1.0 / shrink**2, rel=1e-9)
    # A = 0 makes both projector norms collapse onto the B side
    assert Bc.omega_y == pytest.approx(0.0, abs=1e-12)
    assert Bc.omega_x == pytest.approx(0.0, abs=1e-12)
    g1 = max(6 * (9 / 0.25 + 2 * Bc.chi1), 8 * Bc.chi1)
    g2 = max(12 * Bc.chi0, 8 * Bc.chi0)
    assert Bc.gamma1 == pytest.approx(g1, rel=1e-9)
    assert Bc.gamma2 == pytest.approx(g2, rel=1e-9)
    assert Bc.gamma1 >= 0 and Bc.gamma2 >= 0


def test_budget_constants_chi0_monotone(rng):
    P = make_problem(rng, scale=0.2)
    C = compute_constants(P)
    a_small, a_big = 0.1 / C.L_theta, 0.9 / C.L_theta
    chi_small = compute_budget_constants(P, C, a_small, 0.4 / P.h.lipschitz).chi0
    chi_big = compute_budget_constants(P, C, a_big, 0.4 / P.h.lipschitz).chi0
    assert chi_small < chi_big


def test_budget_constants_step_range_errors(rng):
    P = make_problem(rng, scale=0.2)
    C = compute_constants(P)
    with pytest.raises(ConfigurationError, match="alpha_x"):
        compute_budget_constants(P, C, 10.0 / C.L_theta, 0.4 / P.h.lipschitz)
    with pytest.raises(ConfigurationError, match="alpha_y"):
        compute_budget_constants(P, C, 0.5 / C.L_theta, 10.0 / P.h.lipschitz)


def test_problem_dimension_validation():
    with pytest.raises(ConfigurationError):
        MinimaxProblem(
            g=smooth_zero(), phi=prox_zero(), h=smooth_zero(), psi=prox_zero(),
            K=np.zeros((2, 2)), A=np.zeros((1, 3)), B=np.zeros((1, 2)), c=np.zeros(1),
        )


def write_manifest(tmp_path, rng):
    """A 2 x 3 manifest with file-backed K and A; returns its path and (K, A, B)."""
    K = rng.standard_normal((2, 3))
    A = rng.standard_normal((1, 2))
    B = rng.standard_normal((1, 3))
    write_matrix_csv(K, tmp_path / "K.csv")
    write_matrix_mm(A, tmp_path / "A.mtx")
    manifest = {
        "K": "K.csv",
        "A": "A.mtx",
        "B": B.tolist(),
        "c": [0.5],
        "mu": 0.25,
        "g": {"kind": "linear", "b": [0.5, -1.0]},
        "h": {"kind": "quadratic_diag", "d": [0.25, 0.25, 0.25]},
        "phi": {"kind": "indicator", "cone": {"kind": "nonneg_orthant", "dim": 2}},
        "psi": {
            "kind": "blocks",
            "blocks": [
                {"op": {"kind": "zero_function"}, "dim": 1},
                {"op": {"kind": "indicator", "cone": {"kind": "second_order", "dim": 2}}, "dim": 2},
            ],
        },
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(manifest))
    return path, (K, A, B)


def test_manifest_reads_c_from_a_column_file(tmp_path, rng):
    write_matrix_csv(np.array([[0.5], [-0.25]]), tmp_path / "c.csv")
    manifest = {
        "K": rng.standard_normal((2, 3)).tolist(), "A": rng.standard_normal((2, 2)).tolist(),
        "B": rng.standard_normal((2, 3)).tolist(), "c": "c.csv",
        "g": {"kind": "zero"}, "h": {"kind": "zero"},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(manifest))
    P = load_problem_manifest(path)
    assert P.c.shape == (2,) and np.array_equal(P.c, [0.5, -0.25])


@pytest.mark.parametrize("shape", [(2, 2), (1, 4)])
def test_manifest_rejects_a_c_file_of_more_than_one_column(tmp_path, rng, shape):
    # flattened, either file would give the 4 entries that A and B's 4 rows ask for
    write_matrix_csv(rng.standard_normal(shape), tmp_path / "c.csv")
    manifest = {
        "K": rng.standard_normal((2, 3)).tolist(), "A": rng.standard_normal((4, 2)).tolist(),
        "B": rng.standard_normal((4, 3)).tolist(), "c": "c.csv",
        "g": {"kind": "zero"}, "h": {"kind": "zero"},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError) as err:
        load_problem_manifest(path)
    assert str(path) in str(err.value) and f"shape {shape}" in str(err.value)


def test_manifest_loading(tmp_path, rng):
    path, (K, A, B) = write_manifest(tmp_path, rng)
    P = load_problem_manifest(path)
    assert np.array_equal(P.K, K)
    assert np.array_equal(P.A, A)
    assert np.array_equal(P.B, B)
    assert P.mu == 0.25
    assert P.phi.cone.kind == NONNEG_ORTHANT
    assert P.n == 2 and P.m == 3 and P.q == 1
    assert np.array_equal(P.g.b, [0.5, -1.0]) and P.h.lipschitz == 0.25


def test_manifest_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"K": [[1.0]]}))
    with pytest.raises(ConfigurationError, match="missing field"):
        load_problem_manifest(path)


def test_problems_pickle_and_solve_identically(tmp_path, rng):
    path, _ = write_manifest(tmp_path, rng)
    step = SolverConfig(alpha_x=0.05, alpha_y=0.05, inner_steps=5, outer_cap=50)
    runs = [
        (make_linreg(10, 10, 2, 3)[1], run_linreg,
         SolverConfig(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=50)),
        (gave_to_minimax(builtin_gave("gave-a")), run_pgmsad, step),
        (load_problem_manifest(path), run_pgmsad, step),
    ] + [(glpe_to_minimax(builtin_glpe(kind)), run_pgmsad, step)
         for kind in (NONNEG_ORTHANT, SECOND_ORDER, L1_NORM)]
    for P, run, config in runs:
        copy = pickle.loads(pickle.dumps(P))
        first, second = run(P, config).state, run(copy, config).state
        assert first.t == second.t == 50
        for name in ("x", "y", "lam"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
