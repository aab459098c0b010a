"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from jointmm.apps import (
    GlpeConfig,
    builtin_gave,
    builtin_gave_config,
    builtin_glpe,
    make_linreg,
    run_gave,
    run_glpe,
    run_linreg,
)
from jointmm.problem import (
    BudgetConstants,
    MinimaxProblem,
    ProblemConstants,
    compute_constants,
    feas,
)
from jointmm.prox import (
    ConeSpec,
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    SmoothOracle,
    project_cone,
    project_l1cone,
    project_polar,
    project_soc,
    prox_eval,
    prox_indicator,
    prox_zero,
    smooth_quadratic_diag,
    smooth_scaled_sq_norm,
)
from jointmm.solver import (
    SolverConfig,
    inner_ascent,
    plan_budget,
    project_feasible,
    run_pgmsad,
)

from oracles import (
    forward_backward,
    gradient_mapping,
    in_cone,
    quadratic_saddle_kkt,
    slsqp_cone_projection,
)

LINREG_SEED = 3


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status} {detail}")
    assert ok, f"{label} failed: {detail}"


def test_criterion_01_gave_a():
    G = builtin_gave("gave-a")
    cfg = builtin_gave_config("gave-a")
    assert cfg.alpha_x == cfg.alpha_y == 0.05
    assert cfg.inner_steps == 5
    start = time.perf_counter()
    r = run_gave(G, cfg)
    wall = time.perf_counter() - start
    ok = r.error <= 1e-3 and r.iterations <= 200 and wall < 5.0
    report("1 gave-a", ok, f"error={r.error:.3e} T={r.iterations} wall={wall:.2f}s")


def test_criterion_02_gave_b():
    G = builtin_gave("gave-b")
    cfg = builtin_gave_config("gave-b")
    assert cfg.alpha_x == cfg.alpha_y == 0.01
    assert cfg.inner_steps == 40
    r = run_gave(G, cfg)
    grid = np.linspace(0.0, 4.0 / 3.0, 200001)
    family = np.stack([3.0 - 2.0 * grid, grid, 4.0 - 3.0 * grid], axis=1)
    fam_dist = float(np.min(np.linalg.norm(family - r.x, axis=1)))
    ok = r.error <= 5e-2 and r.iterations <= 100 and fam_dist <= 0.15
    report(
        "2 gave-b",
        ok,
        f"error={r.error:.3e} T={r.iterations} family_dist={fam_dist:.3f}",
    )


def test_criterion_03_gave_c():
    G = builtin_gave("gave-c")
    assert G.A.shape == (200, 100)
    cfg = builtin_gave_config("gave-c")
    assert cfg.alpha_x == cfg.alpha_y == 0.01
    assert cfg.inner_steps == 5
    start = time.perf_counter()
    r = run_gave(G, cfg)
    wall = time.perf_counter() - start
    ok = r.error <= 1e-8 and r.iterations <= 10 and wall < 1.0
    report("3 gave-c", ok, f"error={r.error:.3e} T={r.iterations} wall={wall:.3f}s")


@pytest.mark.parametrize("n", [10, 100])
def test_criterion_04_linreg(n):
    m, p = n, n // 5
    inst, P = make_linreg(n, m, p, seed=LINREG_SEED)
    cfg = SolverConfig(
        alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=200000, eps=1e-8, seed=0
    )
    start = time.perf_counter()
    r = run_linreg(P, cfg)
    wall = time.perf_counter() - start
    res = r.residuals
    resid_ok = max(res.res_x, res.res_y, res.res_feas) <= 1e-7
    totals = r.trace[:, 1] + r.trace[:, 2] + r.trace[:, 3]
    violations = [
        k for k in range(10, len(totals) // 2) if totals[2 * k] > 0.5 * totals[k]
    ]
    halving_ok = not violations
    time_ok = wall < 60.0 if n == 100 else True
    ok = resid_ok and halving_ok and time_ok
    report(
        f"4 linreg n={n}",
        ok,
        f"res=({res.res_x:.1e},{res.res_y:.1e},{res.res_feas:.1e}) "
        f"T={r.state.t} halving_violations={len(violations)} wall={wall:.2f}s",
    )


@pytest.mark.parametrize("cone_kind", [NONNEG_ORTHANT, SECOND_ORDER, L1_NORM])
def test_criterion_05_glpe(cone_kind):
    G = builtin_glpe(cone_kind)
    cfg = GlpeConfig(eps=1e-13)
    assert cfg.inner_steps == 5
    r = run_glpe(G, cfg)
    polar_part = r.x - r.x_cone
    member_ok = in_cone(G.cone, r.x_cone, tol=1e-8)
    polar_ok = (
        np.linalg.norm(project_polar(G.cone, polar_part) - polar_part) <= 1e-8
    )
    comp = abs(float(r.x_cone @ polar_part))
    ok = r.error <= 1e-12 and member_ok and polar_ok and comp <= 1e-8
    report(
        f"5 glpe {cone_kind}",
        ok,
        f"error={r.error:.2e} membership={member_ok} complementarity={comp:.1e} "
        f"T={r.iterations}",
    )


def test_criterion_06_inner_contraction():
    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    for trial in range(50):
        n, m, q = 2, 3, 2
        d = rng.uniform(0.5, 3.0, m)
        mu = float(d.min())
        K = rng.standard_normal((n, m))
        B = rng.standard_normal((q, m))
        use_orthant = trial % 2 == 0
        P = MinimaxProblem(
            g=smooth_scaled_sq_norm(1.0),
            phi=prox_zero(),
            h=smooth_quadratic_diag(d),
            psi=prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=m))
            if use_orthant
            else prox_zero(),
            K=K,
            A=rng.standard_normal((q, n)),
            B=B,
            c=rng.standard_normal(q),
            mu=mu,
        )
        alpha_y = rng.uniform(0.3, 0.95) / float(d.max())
        x = rng.standard_normal(n)
        lam = rng.standard_normal(q)
        drive = K.T @ x + B.T @ lam
        ystar = drive / d
        if use_orthant:
            ystar = np.maximum(ystar, 0.0)
        y = rng.standard_normal(m) * 3
        bound = 1.0 - mu * alpha_y
        for _ in range(15):
            d0 = np.linalg.norm(y - ystar) ** 2
            if d0 <= 1e-18:
                break
            y = inner_ascent(P, x, lam, y, 1, alpha_y)
            d1 = np.linalg.norm(y - ystar) ** 2
            ratio = d1 / d0
            worst = max(worst, ratio - bound)
            checked += 1
            assert ratio <= bound + 1e-9
    report("6 inner contraction", worst <= 1e-9, f"checked={checked} worst_excess={worst:.2e}")


def test_criterion_07_feasibility_projection():
    rng = np.random.default_rng(7)
    worst_feas = 0.0
    worst_orth = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        q = int(rng.integers(1, min(n + m, 4)))
        while True:
            A = rng.standard_normal((q, n))
            B = rng.standard_normal((q, m))
            if np.linalg.matrix_rank(np.hstack([A, B])) == q:
                break
        P = MinimaxProblem(
            g=smooth_scaled_sq_norm(1.0), phi=prox_zero(),
            h=smooth_scaled_sq_norm(1.0), psi=prox_zero(),
            K=rng.standard_normal((n, m)), A=A, B=B, c=rng.standard_normal(q),
            mu=1.0,
        )
        x, y = rng.standard_normal(n) * 2, rng.standard_normal(m) * 2
        xf, yf = project_feasible(P, x, y)
        worst_feas = max(worst_feas, float(np.linalg.norm(feas(P, xf, yf))))
        stacked = np.hstack([A, B])
        _, _, vt = np.linalg.svd(stacked)
        null_basis = vt[q:]
        corr = np.concatenate([x - xf, y - yf])
        if null_basis.size:
            worst_orth = max(worst_orth, float(np.abs(null_basis @ corr).max()))
    ok = worst_feas <= 1e-12 and worst_orth <= 1e-9
    report(
        "7 feasibility projection", ok,
        f"worst_feas={worst_feas:.2e} worst_orthogonality={worst_orth:.2e}",
    )


def test_criterion_08_prox_lemma_suite():
    rng = np.random.default_rng(8)
    tol = 1e-9
    counts = dict(b=0, c=0, d=0, e=0, descent=0, three_point=0)
    for _ in range(100):
        dim = 3
        d = rng.uniform(0.4, 2.5, dim)
        L_h = float(d.max())
        center = rng.standard_normal(dim)
        # (1/2) (z - center)^T diag(d) (z - center) up to a constant
        h = SmoothOracle(d, b=-d * center)
        cone = ConeSpec(kind=NONNEG_ORTHANT, dim=dim)
        sigma = prox_indicator(cone)

        def F(z):
            assert in_cone(cone, z, tol=1e-9)
            return h.value(z)

        z = project_cone(cone, rng.standard_normal(dim) * 2)
        zp = project_cone(cone, rng.standard_normal(dim) * 2)

        # Lipschitz bound on the gradient mapping
        L = rng.uniform(0.6, 3.0) * L_h
        gz = gradient_mapping(h, sigma, L, z)
        gzp = gradient_mapping(h, sigma, L, zp)
        assert np.linalg.norm(gzp - gz) <= (2 * L + L_h) * np.linalg.norm(zp - z) + tol
        counts["b"] += 1

        # sufficient decrease at any L >= L_h/2
        L2 = rng.uniform(0.5, 3.0) * L_h
        tz = forward_backward(h, sigma, L2, z)
        lhs = F(z) - F(tz)
        rhs = (2 * L2 - L_h) / (2 * L2**2) * np.linalg.norm(
            gradient_mapping(h, sigma, L2, z)
        ) ** 2
        assert lhs >= rhs - tol
        counts["c"] += 1

        # the same at exactly L = L_h
        tz_h = forward_backward(h, sigma, L_h, z)
        lhs = F(z) - F(tz_h)
        rhs = np.linalg.norm(gradient_mapping(h, sigma, L_h, z)) ** 2 / (2 * L_h)
        assert lhs >= rhs - tol
        counts["d"] += 1

        # monotonicity of the mapping norm under one step, convex h, L >= L_h
        L3 = rng.uniform(1.0, 3.0) * L_h
        tz3 = forward_backward(h, sigma, L3, z)
        assert (
            np.linalg.norm(gradient_mapping(h, sigma, L3, tz3))
            <= np.linalg.norm(gradient_mapping(h, sigma, L3, z)) + 1e-10
        )
        counts["e"] += 1

        # descent with an arbitrary direction substituted for the gradient
        t = rng.uniform(1.0, 3.0) * L_h
        xi = rng.standard_normal(dim)
        z_plus = prox_eval(sigma, 1.0 / t, z - xi / t)
        lhs = F(z_plus)
        rhs = (
            F(z)
            - 0.5 * (t - L_h) * np.linalg.norm(z_plus - z) ** 2
            + float((h.gradient(z) - xi) @ (z_plus - z))
        )
        assert lhs <= rhs + tol
        counts["descent"] += 1

        # three-point inequality at t >= L_h
        t2 = rng.uniform(1.0, 3.0) * L_h
        z_plus2 = forward_backward(h, sigma, t2, z)
        l_h = h.value(zp) - h.value(z) - float(h.gradient(z) @ (zp - z))
        lhs = F(zp) - F(z_plus2)
        rhs = (
            0.5 * t2 * np.linalg.norm(zp - z_plus2) ** 2
            - 0.5 * t2 * np.linalg.norm(zp - z) ** 2
            + l_h
        )
        assert lhs >= rhs - tol
        counts["three_point"] += 1
    ok = all(v == 100 for v in counts.values())
    report("8 prox lemma suite", ok, f"counts={counts}")


def test_criterion_09_cone_projection_oracles():
    rng = np.random.default_rng(9)
    worst = 0.0
    for dim in (3, 5):
        for _ in range(100):
            z = rng.standard_normal(dim) * rng.uniform(0.5, 3.0)
            got_soc = project_soc(z)
            oracle_soc = slsqp_cone_projection("second_order", z)
            worst = max(worst, float(np.linalg.norm(got_soc - oracle_soc)))
            got_l1 = project_l1cone(z)
            oracle_l1 = slsqp_cone_projection("l1_norm", z)
            worst = max(worst, float(np.linalg.norm(got_l1 - oracle_l1)))
    report("9 cone projection oracles", worst <= 1e-6, f"worst_gap={worst:.2e}")


def test_criterion_10_budget_formulas():
    rng = np.random.default_rng(10)
    C = ProblemConstants(norm_K=1, norm_A=1, norm_B=1, L_g=0, L_h=1, gamma=1, L_theta=None)
    exact = 0
    for _ in range(20):
        gamma1 = float(rng.uniform(0.1, 50.0))
        gamma2 = float(rng.uniform(0.1, 50.0))
        theta_gap = float(rng.uniform(0.1, 20.0))
        mu = float(rng.uniform(0.2, 1.0))
        alpha_y = float(rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(1e-3, 1e-1))
        use_beta = rng.random() < 0.5
        B = BudgetConstants(
            chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=gamma1, gamma2=gamma2,
            beta1=float(rng.uniform(0.2, 5.0)) if use_beta else None,
            omega1=None if use_beta else float(rng.uniform(0.2, 5.0)),
            theta_gap=theta_gap,
        )
        N, T = plan_budget(C, B, alpha_x=0.1, alpha_y=alpha_y, mu=mu, eps=eps)
        rate = -math.log(1.0 - mu * alpha_y)
        if B.beta1 is not None:
            num = math.log(8.0 * gamma1 * B.beta1**2) + 2.0 * math.log(1.0 / eps)
        else:
            num = math.log(4.0 * gamma1 * B.omega1 / mu) + 2.0 * math.log(1.0 / eps)
        N_ref = max(1, math.ceil(num / rate))
        T_ref = max(1, math.ceil(2.0 * gamma2 * theta_gap / eps**2))
        if (N, T) == (N_ref, T_ref):
            exact += 1
    match_ok = exact == 20

    # scaling of the total inner work N*T against eps^-2 log(1/eps)
    B = BudgetConstants(
        chi0=1, chi1=1, omega_x=0, omega_y=0, gamma1=1.0 / 8.0, gamma2=1.0,
        beta1=1.0, theta_gap=1.0,
    )
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        N, T = plan_budget(C, B, alpha_x=0.1, alpha_y=0.5, mu=1.0, eps=eps)
        ratios.append(N * T * eps**2 / math.log(1.0 / eps))
    spread = max(ratios) / min(ratios)
    ok = match_ok and spread <= 1.1
    report(
        "10 budget formulas", ok,
        f"exact_matches={exact}/20 work_ratio_spread={spread:.3f}",
    )


@pytest.fixture(scope="module")
def criterion_11_runs():
    """run_pgmsad on the 20 seeded 2x2 quadratic saddles of criterion 11
    (well-posed reduced objective, full-rank constraint), each with its
    exact saddle."""
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
        out.append((run_pgmsad(P, cfg), quadratic_saddle_kkt(a, bq, K, A, B, c)))
    return out


def test_criterion_11_saddle_recovery(criterion_11_runs):
    worst = 0.0
    for r, (xs, ys, ls) in criterion_11_runs:
        err = float(
            np.linalg.norm(np.concatenate([r.state.x - xs, r.state.y - ys]))
        )
        worst = max(worst, err)
        assert r.converged
    report("11 saddle recovery", worst <= 1e-6, f"worst_gap={worst:.2e}")


# the criterion-11 runs: outer iterations per saddle and the sha256 of the
# bytes of x, y and lambda of every run in order. The runs take the affine
# path of run_pgmsad, which takes its outer steps in blocks: at n + m + q = 6
# one product with the stacked powers M, ..., M^42 gives 42 iterates. Its
# bits differ from one-product-per-step's, and from the structured steps',
# by about 1e-14 relative, which moves the digest and none of the counts
CRITERION_11_PINS = (
    [360, 273, 1750, 183, 1981, 2688, 3045, 607, 478, 1689,
     286, 546, 532, 1057, 2872, 234, 286, 2926, 257, 680],
    "17c9de166ba0d5ed93ab97c0f803a4f257ee7997ba868c1093747aa7f4550b16",
)


def test_criterion_11_runs_are_pinned(criterion_11_runs):
    counts = [r.state.t for r, _ in criterion_11_runs]
    digest = hashlib.sha256(
        b"".join(v.tobytes() for r, _ in criterion_11_runs
                 for v in (r.state.x, r.state.y, r.state.lam))
    )
    assert (counts, digest.hexdigest()) == CRITERION_11_PINS
