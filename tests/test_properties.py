"""Property tests (hypothesis) of the feasibility projection, the multiplier
recovery, the closed-form inner ascent, the affine PGmsAD path, the affine
regression path, the norm
kernel, the prox operators, the cone projections and their pattern keys, and
the GLPE step on a cached operator and in blocks."""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from jointmm.apps import GlpeConfig, GlpeInstance, make_linreg, run_glpe, run_linreg
from jointmm.numerics import norm2
from jointmm.problem import MinimaxProblem, compute_constants, recover_multiplier
from jointmm.prox import (
    BOX,
    FREE,
    ZERO,
    ConeSpec,
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    SmoothOracle,
    on_pattern,
    pattern_rows,
    project_cone,
    project_polar,
    projection_jacobian,
    projection_pattern,
    prox_blocks,
    prox_eval,
    prox_indicator,
    prox_linear_shift,
    prox_map,
    prox_polar_indicator,
    prox_scaled_sq_norm,
    prox_zero,
    smooth_scaled_sq_norm,
)
from jointmm.solver import SolverConfig, inner_ascent, project_feasible, run_pgmsad

from oracles import (
    ascent_loop,
    glpe_structured,
    glpe_sweep_step,
    linreg_structured,
    pgmsad_structured,
    reference_l1_jacobian,
    reference_projection_pattern,
    reference_prox_eval,
)

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


@st.composite
def zero_prox_runs(draw):
    """A phi = psi = 0 problem with g and h of scalar or vector d and with or
    without b, and a run_pgmsad config from a given start with project_each_outer
    on or off. The data is drawn as in criterion 11 until the reduced objective
    in (x, lambda) is strongly convex, and the steps are fractions of 1/L_theta
    and 1/L_h, so that runs can stop early. eps is positive for the same
    reason: at eps = 0 a run stops only on residuals that are exactly zero,
    and both paths take a zero-prox residual from the gradient itself, which
    no drawn run drives to exactly zero within its cap."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.integers(1, m))
    vector_g, linear_g, vector_h, linear_h = (draw(st.booleans()) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def smooth(dim, vector, linear):
        d = rng.uniform(0.5, 2.0, dim) if vector else rng.uniform(0.5, 2.0)
        return SmoothOracle(d, 0.5 * rng.standard_normal(dim) if linear else None)

    while True:
        g, h = smooth(n, vector_g, linear_g), smooth(m, vector_h, linear_h)
        K = 0.3 * rng.standard_normal((n, m))
        A, B = 0.15 * rng.standard_normal((q, n)), 0.5 * rng.standard_normal((q, m))
        W = np.vstack([K, B])
        H = (W / np.broadcast_to(h.d, m)) @ W.T
        H[:n, :n] += np.diag(np.broadcast_to(g.d, n))
        H[n:, :n] += A
        H[:n, n:] += A.T
        if np.linalg.eigvalsh(H).min() > 0.02:
            break
    P = MinimaxProblem(g=g, phi=prox_zero(), h=h, psi=prox_zero(), K=K, A=A, B=B,
                       c=0.4 * rng.standard_normal(q), mu=float(np.min(h.d)))
    C = compute_constants(P)
    cfg = SolverConfig(
        alpha_x=draw(st.floats(0.5, 0.9)) / C.L_theta,
        alpha_y=draw(st.floats(0.5, 0.9)) / C.L_h,
        inner_steps=draw(st.sampled_from([0, 1, 5, 60])),
        outer_cap=draw(st.integers(0, 300)),
        eps=draw(st.sampled_from([1e-3, 1e-6, 1e-9])),
        project_each_outer=draw(st.booleans()),
        project_final=False,
        x0=rng.standard_normal(n), y0=rng.standard_normal(m), lambda0=rng.standard_normal(q),
    )
    return P, cfg


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zero_prox_runs())
def test_affine_pgmsad_matches_the_structured_steps(case):
    P, cfg = case
    got, ref = run_pgmsad(P, cfg), pgmsad_structured(P, cfg)
    assert (got.state.t, got.converged) == (ref.t, ref.converged)
    rows = [run.trace[:, 1:4] for run in (got, ref)]
    # relative to the trace's largest entry: a residual at rounding level
    # (res_feas after a projection) has no relative digits of its own
    assert np.abs(rows[0] - rows[1]).max() <= 1e-12 * rows[1].max()
    z = [np.concatenate([s.x, s.y, s.lam]) for s in (got.state, ref.state)]
    assert np.abs(z[0] - z[1]).max() <= 1e-12 * np.abs(z[1]).max()


@st.composite
def linreg_runs(draw):
    """make_linreg's K, A, B (n = m, q <= n / 5, as in criterion 4) with
    drawn c, g and h, where alpha_y d_h = 1 exactly (d_h a power of two), so
    one ascent lands on y*(x) and run_linreg takes the affine path of x;
    settings with a given start. alpha_x scales with
    d_h, which scales the reduced curvature K K^T / d_h. From these starts
    the residuals are about 0.1 to 20 over 400 steps, so eps is drawn on
    that scale, for runs that stop at many rows."""
    n = draw(st.integers(5, 30))
    _, P = make_linreg(n, n, draw(st.integers(1, n // 5)), seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dh = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    dg = P.g.d * rng.uniform(0.0, 2.0, n) if draw(st.booleans()) else P.g.d
    P = MinimaxProblem(
        g=SmoothOracle(dg, 0.5 * rng.standard_normal(n) if draw(st.booleans()) else None),
        phi=prox_zero(),
        h=SmoothOracle(dh, 0.5 * rng.standard_normal(n) if draw(st.booleans()) else None),
        psi=prox_zero(),
        K=P.K, A=P.A, B=P.B, c=0.4 * rng.standard_normal(P.q), mu=dh,
    )
    cfg = SolverConfig(
        alpha_x=draw(st.floats(0.1, 1.0)) * 0.3 * dh,
        alpha_y=1.0 / dh,
        inner_steps=draw(st.sampled_from([1, 3, 60])),
        outer_cap=draw(st.integers(0, 400)),
        eps=draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
        x0=rng.standard_normal(n), y0=rng.standard_normal(n),
    )
    return P, cfg


@settings(derandomize=True, max_examples=100, deadline=None)
@given(linreg_runs())
def test_affine_linreg_matches_the_structured_steps(case):
    P, cfg = case
    got, ref = run_linreg(P, cfg), linreg_structured(P, cfg)
    assert (got.state.t, got.converged) == (ref.t, ref.converged)
    rows = [run.trace[:, 1:4] for run in (got, ref)]
    assert np.abs(rows[0] - rows[1]).max() <= 1e-12 * rows[1].max()
    z = [np.concatenate([s.x, s.y, s.lam]) for s in (got.state, ref.state)]
    assert np.abs(z[0] - z[1]).max() <= 1e-12 * np.abs(z[1]).max()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), max_size=12) | st.lists(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e-300, np.inf, -np.inf, np.nan]), max_size=6))
def test_norm2_is_bit_equal_to_numpy_norm(entries):
    v = np.array(entries, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = norm2(v), float(np.linalg.norm(v))
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", ref)


CONES = (FREE, ZERO, NONNEG_ORTHANT, SECOND_ORDER, L1_NORM)
PROX_STEPS = st.sampled_from([1e-2, 0.5, 1.0, 7.0])
SCALES = st.sampled_from([1e-3, 1.0, 1e3])


def draw_cone(draw, rng, d, scale, box=False):
    """A cone of dim d (or, when box is set, possibly a box of that scale)."""
    kind = draw(st.sampled_from(CONES + ((BOX,) if box else ())))
    if kind != BOX:
        return ConeSpec(kind=kind, dim=d)
    lo = scale * rng.standard_normal(d)
    return ConeSpec(kind=BOX, dim=d, lower=lo, upper=lo + scale * rng.uniform(0.0, 2.0, d))


def draw_prox(draw, rng, d, scale):
    """A prox term of dim d of any kind but blocks, with data of the given scale."""
    kind = draw(st.sampled_from(["zero", "indicator", "polar", "sq_norm", "shift"]))
    if kind == "zero":
        return prox_zero()
    if kind == "sq_norm":
        return prox_scaled_sq_norm(draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3])))
    if kind == "shift":
        return prox_linear_shift(scale * rng.standard_normal(d))
    if kind == "polar":
        return prox_polar_indicator(draw_cone(draw, rng, d, scale))
    return prox_indicator(draw_cone(draw, rng, d, scale, box=True))


@st.composite
def prox_pairs(draw):
    """A prox term of any kind (blocks of two others too), a step t and two
    points u, v of a drawn scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(SCALES)
    if draw(st.booleans()):
        dims = [draw(st.integers(2, 4)) for _ in range(2)]
        op = prox_blocks([(draw_prox(draw, rng, d, scale), d) for d in dims])
        d = sum(dims)
    else:
        d = draw(st.integers(2, 6))
        op = draw_prox(draw, rng, d, scale)
    u, v = (scale * rng.standard_normal(d) for _ in range(2))
    return op, draw(PROX_STEPS), u, v


@settings(derandomize=True, max_examples=400, deadline=None)
@given(prox_pairs())
def test_prox_eval_is_firmly_nonexpansive(case):
    # ||P u - P v||^2 <= <P u - P v, u - v>
    op, t, u, v = case
    dp = prox_eval(op, t, u) - prox_eval(op, t, v)
    assert dp @ dp <= dp @ (u - v) + 1e-12 * max(u @ u, v @ v)


@st.composite
def prox_points(draw):
    """A prox term of any kind (blocks of two others too, every cone and a
    box among them), a step t and a point some of whose entries are +0,
    -0, +inf, -inf or NaN."""
    op, t, z, _ = draw(prox_pairs())
    special = st.sampled_from([None, None, None, 0.0, -0.0, np.inf, -np.inf, np.nan])
    picks = draw(st.lists(special, min_size=len(z), max_size=len(z)))
    return op, t, np.array([v if pick is None else pick for v, pick in zip(z, picks)])


@settings(derandomize=True, max_examples=600, deadline=None)
@given(prox_points())
def test_bound_prox_map_keeps_prox_evals_bits(case):
    # byte for byte: the sign of a zero and the bits of a NaN too
    op, t, z = case
    with np.errstate(all="ignore"):
        want = reference_prox_eval(op, t, z).tobytes()
        assert prox_map(op, t)(z).tobytes() == want
        assert prox_eval(op, t, z).tobytes() == want


@st.composite
def conjugate_pairs(draw):
    """A prox term whose conjugate is again a prox term, that conjugate, a
    step t and a point z: a cone indicator and its polar indicator (either
    way round), the zero function and the indicator of {0}, and
    scaled_sq_norm(c) and scaled_sq_norm(1 / c). On the norm cones the
    head of z is a drawn multiple of the tail's norm, so z can lie in the
    cone, in its polar or outside both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 6))
    z = draw(SCALES) * rng.standard_normal(d)
    kind = draw(st.sampled_from(["indicator", "polar", "zero", "sq_norm"]))
    if kind == "zero":
        op, conj = prox_zero(), prox_indicator(ConeSpec(kind=ZERO, dim=d))
    elif kind == "sq_norm":
        c = draw(st.floats(1e-3, 1e3))
        op, conj = prox_scaled_sq_norm(c), prox_scaled_sq_norm(1.0 / c)
    else:
        cone = draw_cone(draw, rng, d, 1.0)
        if cone.kind in (SECOND_ORDER, L1_NORM):
            tail = np.linalg.norm(z[1:], 1 if cone.kind == L1_NORM else 2)
            z[0] = draw(st.floats(-2.0, 2.0)) * tail
        op, conj = prox_indicator(cone), prox_polar_indicator(cone)
        if kind == "polar":
            op, conj = conj, op
    return op, conj, draw(PROX_STEPS), z


@settings(derandomize=True, max_examples=400, deadline=None)
@given(conjugate_pairs())
def test_prox_eval_splits_z_as_moreau(case):
    # z = prox_{t sigma}(z) + t prox_{sigma* / t}(z / t)
    op, conj, t, z = case
    got = prox_eval(op, t, z) + t * prox_eval(conj, 1.0 / t, z / t)
    assert np.abs(got - z).max() <= 1e-12 * np.abs(z).max()


POLYHEDRAL = (NONNEG_ORTHANT, L1_NORM)


@st.composite
def cone_points(draw):
    """A polyhedral cone of dim 2-6, a point z on it and a direction v. For
    the 1-norm cone the head is a drawn multiple of the tail's 1-norm, so
    the polar, inside and boundary branches all come up."""
    kind = draw(st.sampled_from(POLYHEDRAL))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal(d)
    if kind == L1_NORM:
        z[0] = draw(st.floats(-2.0, 2.0)) * np.abs(z[1:]).sum()
    return ConeSpec(kind=kind, dim=d), z, rng.standard_normal(d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cone_points())
def test_equal_pattern_keys_mean_equal_jacobians(case):
    cone, z, v = case
    key = projection_pattern(cone, z)
    D = projection_jacobian(cone, z).tobytes()
    assert key == projection_pattern(cone, z, project_cone(cone, z))
    for t in 10.0 ** np.arange(-12, 1):
        zt = z + t * v
        if projection_pattern(cone, zt) == key:
            assert projection_jacobian(cone, zt).tobytes() == D


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cone_points())
def test_projection_is_linear_on_a_pattern(case):
    cone, z, v = case
    D = projection_jacobian(cone, z)
    for t in (1e-3, 1e-6, 1e-9):
        zt = z + t * v
        if projection_pattern(cone, zt) == projection_pattern(cone, z):
            step = project_cone(cone, zt) - project_cone(cone, z)
            assert np.abs(step - t * D @ v).max() <= 1e-12 * (1.0 + np.abs(z).max())


# entries with exact signed zeros and ties in |z_i|, among Gaussian ones
PATTERN_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
                            st.floats(-3.0, 3.0))


@st.composite
def pattern_cases(draw):
    """A polyhedral cone of dim 2-12 (tails past numpy's 8-term pairwise
    sum), rows Z on it, their projections PZ and a key. A row's head is as
    drawn, or on or one ulp off its tail's polar edge (-||t||_inf) or inside
    edge (||t||_1); some rows carry an inf, -inf or NaN entry, and some are
    doubled. The key is a row's pattern, or the 1-norm cone's polar key
    (of the apex) or inside key (of the unit head)."""
    kind = draw(st.sampled_from(POLYHEDRAL))
    d = draw(st.integers(2, 12))
    Z = np.array(draw(st.lists(st.lists(PATTERN_ENTRIES, min_size=d, max_size=d),
                               min_size=1, max_size=12)))
    for z in Z:
        edge = draw(st.sampled_from([None, -np.abs(z[1:]).max(), np.abs(z[1:]).sum()]))
        if edge is not None:
            z[0] = np.nextafter(edge, draw(st.sampled_from([-np.inf, edge, np.inf])))
        if draw(st.integers(0, 4)) == 0:
            z[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    # doubled rows, on the pattern of the row they double
    Z = np.vstack([Z, 2.0 * Z[: draw(st.integers(0, len(Z)))]])
    cone = ConeSpec(kind=kind, dim=d)
    with np.errstate(invalid="ignore"):
        PZ = np.array([project_cone(cone, z) for z in Z])
    i = draw(st.integers(0, len(Z) - 1))
    keys = [projection_pattern(cone, Z[i], PZ[i])]
    if kind == L1_NORM:
        keys += [projection_pattern(cone, np.zeros(d)), projection_pattern(cone, np.eye(d)[0])]
    return cone, draw(st.sampled_from(keys)), Z, PZ


@settings(derandomize=True, max_examples=500, deadline=None)
@given(pattern_cases())
def test_on_pattern_is_the_key_test_row_by_row(case):
    cone, key, Z, PZ = case
    want = [projection_pattern(cone, z, pz) == key for z, pz in zip(Z, PZ)]
    got = on_pattern(cone, key, Z, PZ)
    assert got.dtype == bool and got.tolist() == want
    # the list of rows a run of structured steps hands over reads the same
    assert on_pattern(cone, key, list(Z), list(PZ)).tolist() == want
    # a block hands over no projections: each row's key as computed alone
    with np.errstate(invalid="ignore", over="ignore"):
        alone = [projection_pattern(cone, z) == key for z in Z]
    assert on_pattern(cone, key, Z, None).tolist() == alone


@settings(derandomize=True, max_examples=500, deadline=None)
@given(pattern_cases())
def test_pattern_keys_and_jacobians_are_the_references(case):
    # the keys pair rows as equal or unequal exactly as the reference keys
    # do, with pz given or computed; the 1-norm Jacobian keeps its bytes
    cone, _, Z, PZ = case
    with np.errstate(invalid="ignore", over="ignore"):
        for given in (PZ, None):
            pzs = [None] * len(Z) if given is None else given
            old = [reference_projection_pattern(cone, z, pz) for z, pz in zip(Z, pzs)]
            new = [projection_pattern(cone, z, pz) for z, pz in zip(Z, pzs)]
            assert [[a == b for b in old] for a in old] == [[a == b for b in new] for a in new]
            # a key is the bytes of its row of pattern_rows
            assert [row.tobytes() for row in pattern_rows(cone, Z, given)] == new
        # a row's own projection gives the key its batch of boundary signs gives
        assert pattern_rows(cone, Z).tobytes() == pattern_rows(cone, Z, PZ).tobytes()
        if cone.kind == L1_NORM:
            for z in Z:
                assert projection_jacobian(cone, z).tobytes() == reference_l1_jacobian(z).tobytes()


@st.composite
def cone_projections(draw):
    """An orthant, second-order or 1-norm cone of dim 2-6 and a point z of
    scale 1e-3 to 1e3. On the norm cones the head is a drawn multiple of the
    tail's norm, so z can lie in the cone, in its polar or outside both."""
    kind = draw(st.sampled_from((NONNEG_ORTHANT, SECOND_ORDER, L1_NORM)))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(d)
    if kind != NONNEG_ORTHANT:
        z[0] = draw(st.floats(-2.0, 2.0)) * np.linalg.norm(z[1:], 1 if kind == L1_NORM else 2)
    return ConeSpec(kind=kind, dim=d), z


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cone_projections())
def test_cone_projection_is_idempotent(case):
    cone, z = case
    pz = project_cone(cone, z)
    assert np.abs(project_cone(cone, pz) - pz).max() <= 1e-12 * np.abs(z).max()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cone_projections())
def test_cone_projection_splits_z_as_moreau(case):
    # z - P z lies in the polar cone and is orthogonal to P z
    cone, z = case
    pz = project_cone(cone, z)
    rest = z - pz
    assert np.abs(project_polar(cone, rest) - rest).max() <= 1e-10 * np.abs(z).max()
    assert abs(pz @ rest) <= 1e-10 * (z @ z)


@st.composite
def glpe_starts(draw):
    """A random GLPE instance on the orthant, 1-norm or second-order cone, a
    step size inside the stable range of its first linearization, and a
    start x0."""
    kind = draw(st.sampled_from(POLYHEDRAL + (SECOND_ORDER,)))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = GlpeInstance(A=rng.standard_normal((d, d)) + 3.0 * np.eye(d),
                     B=rng.standard_normal((d, d)), b=rng.standard_normal(d),
                     cone=ConeSpec(kind=kind, dim=d))
    x0 = rng.standard_normal(d)
    J = G.A + G.B @ projection_jacobian(G.cone, x0)
    alpha = draw(st.floats(0.05, 1.0)) / np.linalg.norm(J, 2) ** 2
    return G, alpha, draw(st.sampled_from([1, 2, 5])), x0, draw(st.integers(1, 8))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(glpe_starts())
def test_cached_glpe_steps_match_the_sweep_loop(case):
    G, alpha, sweeps, x0, steps = case
    cfg = GlpeConfig(alpha=alpha, inner_steps=sweeps, outer_cap=steps, eps=0.0, x0=x0)
    got = run_glpe(G, cfg).x
    ref = x0
    for _ in range(steps):
        ref = glpe_sweep_step(G, alpha, sweeps, ref)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@st.composite
def glpe_runs(draw):
    """A seeded GLPE instance of dimension 5 to 50 on the orthant or the
    1-norm cone, whose linearizations are well conditioned (A = 4 I plus a
    Gaussian of norm about 1, B a Gaussian of norm about 1), with a start
    x0, a step size inside the stable range of every linearization
    (||J|| <= ||A|| + ||B||, as ||D_K|| <= 1), a sweep count, and a trace or
    none. eps 1e-9 lies under the switch point, so each run ends in
    structured steps, and the cap is far off."""
    kind = draw(st.sampled_from(POLYHEDRAL))
    d = draw(st.integers(5, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = 4.0 * np.eye(d) + 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
    B = 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
    G = GlpeInstance(A=A, B=B, b=rng.standard_normal(d), cone=ConeSpec(kind=kind, dim=d))
    x0 = draw(st.sampled_from([0.0, 1.0])) * rng.standard_normal(d)
    alpha = draw(st.floats(0.02, 1.0)) / (np.linalg.norm(A, 2) + np.linalg.norm(B, 2)) ** 2
    cfg = GlpeConfig(alpha=alpha, inner_steps=draw(st.sampled_from([1, 2, 5])), outer_cap=20000,
                     eps=1e-9, x0=x0, record_trace=draw(st.booleans()))
    return G, cfg


@settings(derandomize=True, max_examples=100, deadline=None)
@given(glpe_runs())
def test_blocked_glpe_matches_the_structured_steps(case):
    G, cfg = case
    got, want = run_glpe(G, cfg), glpe_structured(G, cfg)
    assert want.converged and got.converged
    assert got.iterations == want.iterations and got.patterns == want.patterns
    assert np.abs(got.x - want.x).max() <= 1e-12 * np.abs(want.x).max()
    assert len(got.trace) == len(want.trace)
    if cfg.record_trace:
        u, v = (run.trace[:, 1:] for run in (got, want))
        assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
