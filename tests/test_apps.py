import numpy as np
import pytest

from jointmm.apps import (
    GaveConfig,
    GaveInstance,
    GlpeConfig,
    GlpeInstance,
    LINREG_COUPLING_GAIN,
    builtin_gave,
    builtin_gave_config,
    builtin_glpe,
    gave_to_minimax,
    glpe_to_minimax,
    glpe_paper_step_size,
    make_linreg,
    run_gave,
    run_glpe,
    run_linreg,
)
from jointmm.errors import ConfigurationError
from jointmm.problem import feas, residuals
from jointmm.prox import (
    ConeSpec,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    in_cone,
    project_cone,
    project_polar,
)
from jointmm.solver import SolverConfig


def test_gave_to_minimax_shapes(rng):
    mrows, n = 5, 3
    G = GaveInstance(A=rng.standard_normal((mrows, n)), B=rng.standard_normal((mrows, n)),
                     b=rng.standard_normal(mrows))
    P = gave_to_minimax(G)
    assert P.n == n
    assert P.m == mrows + n
    assert P.q == n
    assert P.K.shape == (n, mrows + n)
    assert np.array_equal(P.A, np.eye(n))
    assert P.B.shape == (n, mrows + n)
    assert P.mu == 0.0
    # constraint is x+ - (B-A)^T y - z
    x = rng.standard_normal(n)
    y = rng.standard_normal(mrows)
    z = rng.standard_normal(n)
    expected = x - (G.B - G.A).T @ y - z
    assert np.allclose(feas(P, x, np.concatenate([y, z])), expected)


def test_gave_to_minimax_zero_instance():
    G = GaveInstance(A=np.zeros((2, 2)), B=np.zeros((2, 2)), b=np.zeros(2))
    P = gave_to_minimax(G)
    assert np.allclose(feas(P, np.zeros(2), np.zeros(4)), 0.0)


def test_gave_template_feasible_at_converged_split():
    G = builtin_gave("gave-a")
    cfg = builtin_gave_config("gave-a")
    cfg.eps = 1e-10
    cfg.outer_cap = 3000
    r = run_gave(G, cfg)
    P = gave_to_minimax(G)
    gap = feas(P, r.x_plus, np.concatenate([r.y, r.z]))
    assert np.linalg.norm(gap) <= 1e-8


def test_gave_a_known_solution():
    G = builtin_gave("gave-a")
    cfg = builtin_gave_config("gave-a")
    cfg.eps = 1e-10
    cfg.outer_cap = 3000
    r = run_gave(G, cfg)
    assert min(
        np.linalg.norm(r.x - np.array([1.0, -1.0, -1.0])),
        np.linalg.norm(r.x - np.array([-1.0, -1.0, 1.0])),
    ) <= 1e-6
    # complementarity of the recovered split
    x_plus = np.maximum(r.x, 0.0)
    x_minus = np.maximum(-r.x, 0.0)
    assert float(x_plus @ x_minus) <= 1e-8


def test_gave_error_metric_matches_trace(rng):
    G = builtin_gave("gave-a")
    cfg = builtin_gave_config("gave-a")
    r = run_gave(G, cfg)
    # independent recomputation through fresh matvecs
    fresh = float(np.linalg.norm(G.A @ r.x + G.B @ np.abs(r.x) - G.b))
    assert abs(fresh - r.trace[-1].objective_metric) <= 1e-12
    assert abs(fresh - r.error) <= 1e-12


def test_gave_plain_loop_is_penalty_zero():
    G = builtin_gave("gave-c")
    cfg = builtin_gave_config("gave-c")
    assert cfg.penalty == 0.0
    r = run_gave(G, cfg)
    assert r.converged and r.iterations == 1
    assert np.linalg.norm(r.x + np.ones(100)) <= 1e-10


def test_gave_config_validation():
    with pytest.raises(ConfigurationError):
        GaveConfig(alpha_x=0.0, alpha_y=0.1, inner_steps=1, outer_cap=1)
    with pytest.raises(ConfigurationError):
        GaveConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1, penalty=-1.0)


def test_glpe_to_minimax_wellformed_and_zero_case(rng):
    G = builtin_glpe(NONNEG_ORTHANT)
    P = glpe_to_minimax(G)
    assert P.n == 5 and P.m == 10 and P.q == 5
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    z = rng.standard_normal(5)
    assert np.allclose(feas(P, x, np.concatenate([y, z])), x - G.A.T @ y - z)
    zero = GlpeInstance(A=G.A, B=G.B, b=np.zeros(5), cone=G.cone)
    r = run_glpe(zero, GlpeConfig(eps=1e-13, outer_cap=10))
    assert r.converged and r.iterations == 0
    assert np.allclose(r.x, 0.0)


def test_glpe_unsupported_cone_rejected():
    with pytest.raises(ConfigurationError, match="unsupported cone"):
        GlpeInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                     cone=ConeSpec(kind="free", dim=2))


def test_glpe_paper_step_size():
    G = builtin_glpe(NONNEG_ORTHANT)
    assert glpe_paper_step_size(G) == pytest.approx(1.0 / 30.0625, rel=1e-12)


def test_glpe_singular_preset_rejected():
    G = GlpeInstance(A=np.eye(2), B=-np.eye(2), b=np.zeros(2),
                     cone=ConeSpec(kind=NONNEG_ORTHANT, dim=2))
    with pytest.raises(ConfigurationError, match="singular"):
        glpe_paper_step_size(G)


def test_glpe_orthant_paper_instance():
    G = builtin_glpe(NONNEG_ORTHANT)
    r = run_glpe(G, GlpeConfig(eps=1e-13))
    assert r.converged
    assert r.error <= 1e-12
    assert in_cone(G.cone, r.x_cone, tol=1e-10)
    polar_part = r.x - r.x_cone
    assert np.linalg.norm(project_polar(G.cone, polar_part) - polar_part) <= 1e-10
    assert abs(float(r.x_cone @ polar_part)) <= 1e-10


def test_glpe_moreau_split_of_output():
    # the second-order-cone variant of the bundled instance
    G = builtin_glpe(SECOND_ORDER)
    r = run_glpe(G, GlpeConfig(eps=1e-12))
    assert r.converged
    xk = project_cone(G.cone, r.x)
    assert np.linalg.norm(xk + project_polar(G.cone, r.x) - r.x) <= 1e-8
    assert np.linalg.norm(xk - r.x_cone) <= 1e-12


def test_glpe_divergence_raises_cleanly(rng):
    from jointmm.errors import DivergenceError

    # a deliberately hostile random instance; either converge or fail loudly
    A = rng.standard_normal((3, 3)) * 5
    B = rng.standard_normal((3, 3)) * 5
    cone = ConeSpec(kind=SECOND_ORDER, dim=3)
    b = rng.standard_normal(3)
    G = GlpeInstance(A=A, B=B, b=b, cone=cone)
    try:
        r = run_glpe(G, GlpeConfig(alpha=0.5, eps=1e-12, outer_cap=5000))
        assert np.all(np.isfinite(r.x))
    except DivergenceError as exc:
        assert "nonfinite" in str(exc)


def test_make_linreg_seed_deterministic():
    inst1, P1 = make_linreg(6, 6, 2, seed=42)
    inst2, P2 = make_linreg(6, 6, 2, seed=42)
    assert np.array_equal(inst1.K, inst2.K)
    assert np.array_equal(inst1.A, inst2.A)
    assert np.array_equal(inst1.B, inst2.B)
    assert np.array_equal(P1.K, P2.K)
    inst3, _ = make_linreg(6, 6, 2, seed=43)
    assert not np.array_equal(inst1.K, inst3.K)


def test_make_linreg_defaults_and_encoding():
    inst, P = make_linreg(10, 10, 2, seed=1)
    assert inst.lambda_reg == pytest.approx(0.1)
    assert np.allclose(inst.b, 0.0) and np.allclose(inst.c, 0.0)
    # ascent side normalized to unit modulus; one unit step solves the inner
    assert P.mu == 1.0
    assert P.h.lipschitz == 1.0
    gain = LINREG_COUPLING_GAIN
    assert np.array_equal(P.K, gain * inst.K.T / (2 * np.sqrt(10)))


def test_make_linreg_zero_data_is_stationary_at_origin():
    inst, P = make_linreg(4, 4, 1, seed=9)
    res = residuals(P, np.zeros(4), np.zeros(4), np.zeros(1), 1.0, 1.0)
    assert res.res_x == 0.0 and res.res_y == 0.0 and res.res_feas == 0.0


def test_make_linreg_validation():
    with pytest.raises(ConfigurationError):
        make_linreg(4, 5, 1, seed=0)
    with pytest.raises(ConfigurationError):
        make_linreg(4, 4, 5, seed=0)


def test_run_linreg_converges_small():
    inst, P = make_linreg(10, 10, 2, seed=3)
    cfg = SolverConfig(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=50000,
                       eps=1e-8, seed=0)
    r = run_linreg(P, cfg)
    assert r.converged
    assert r.residuals.res_x <= 1e-7
    assert r.residuals.res_y <= 1e-7
    assert r.residuals.res_feas <= 1e-7
    # iterates stay on the constraint set
    for rec in r.trace:
        assert rec.res_feas <= 1e-10


def test_run_linreg_rejects_nonsmooth():
    G = builtin_gave("gave-a")
    P = gave_to_minimax(G)
    cfg = SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1)
    with pytest.raises(ConfigurationError, match="smooth"):
        run_linreg(P, cfg)


def test_builtin_names():
    with pytest.raises(ConfigurationError, match="unknown built-in"):
        builtin_gave("gave-z")
    for name in ("gave-a", "gave-b", "gave-c"):
        G = builtin_gave(name)
        cfg = builtin_gave_config(name)
        assert cfg.alpha_x > 0 and G.rows >= G.cols


def _assert_finite_state(state):
    assert all(np.all(np.isfinite(v)) for v in (state.x, state.y, state.lam))


def _diverging_gave_config(record_trace):
    cfg = builtin_gave_config("gave-a")
    return GaveConfig(alpha_x=50.0, alpha_y=50.0, alpha_z=50.0, inner_steps=cfg.inner_steps,
                      outer_cap=cfg.outer_cap, penalty=cfg.penalty, eps=cfg.eps,
                      record_trace=record_trace)


@pytest.mark.filterwarnings("error")
def test_gave_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    with pytest.raises(DivergenceError) as err:
        run_gave(builtin_gave("gave-a"), _diverging_gave_config(True))
    _assert_finite_state(err.value.state)
    assert [rec.t for rec in err.value.trace] == list(range(err.value.state.t + 1))


@pytest.mark.filterwarnings("error")
def test_gave_divergence_without_trace_carries_state():
    # the certificate row is built without a trace too, so y, z and lambda are covered
    from jointmm.errors import DivergenceError

    with pytest.raises(DivergenceError, match="res_y, res_feas") as err:
        run_gave(builtin_gave("gave-a"), _diverging_gave_config(False))
    _assert_finite_state(err.value.state)
    assert err.value.state.t > 0 and err.value.trace == []


@pytest.mark.filterwarnings("error")
def test_glpe_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    with pytest.raises(DivergenceError) as err:
        run_glpe(builtin_glpe(NONNEG_ORTHANT), GlpeConfig(alpha=5.0))
    assert err.value.state.shape == (5,) and np.all(np.isfinite(err.value.state))
    assert err.value.trace and err.value.trace[0].t == 0
    assert [rec.t for rec in err.value.trace] == list(range(len(err.value.trace)))


@pytest.mark.filterwarnings("error")
def test_linreg_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    _, P = make_linreg(10, 10, 2, seed=3)
    cfg = SolverConfig(alpha_x=50.0, alpha_y=1.0, inner_steps=3, outer_cap=200000, eps=1e-8)
    with pytest.raises(DivergenceError) as err:
        run_linreg(P, cfg)
    _assert_finite_state(err.value.state)
    assert [rec.t for rec in err.value.trace] == list(range(err.value.state.t + 1))


@pytest.mark.parametrize("cone_kind", [NONNEG_ORTHANT, SECOND_ORDER])
def test_glpe_trace_rows_each_iterate_once(cone_kind):
    G = builtin_glpe(cone_kind)
    r = run_glpe(G, GlpeConfig(outer_cap=40))
    assert [rec.t for rec in r.trace] == list(range(r.iterations + 1))
    # row t: equation error at iterate t; correction and inner residual of step t
    assert r.trace[0].res_x == 0.0 and r.trace[0].res_y == 0.0
    assert r.trace[-1].res_feas == r.error == r.trace[-1].objective_metric
    assert all(rec.res_x > 0.0 for rec in r.trace[1:])


def test_config_checks_reject_nan_and_fractional_counts():
    with pytest.raises(ConfigurationError, match="alpha_x"):
        GaveConfig(alpha_x=float("nan"), alpha_y=0.1, inner_steps=1, outer_cap=1)
    with pytest.raises(ConfigurationError, match="penalty"):
        GaveConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1, penalty=float("nan"))
    with pytest.raises(ConfigurationError, match="inner_steps"):
        GlpeConfig(inner_steps=2.5)
    with pytest.raises(ConfigurationError, match="alpha"):
        GlpeConfig(alpha=0.0)
    with pytest.raises(ConfigurationError, match="seed"):
        SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1, seed=1.5)
    with pytest.raises(ConfigurationError, match="outer_cap"):
        SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=-1)
