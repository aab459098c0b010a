import math

import numpy as np
import pytest

from jointmm.errors import ConfigurationError
from jointmm.prox import (
    BOX,
    ConeSpec,
    FREE,
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    ZERO,
    cone_from_json,
    cone_to_json,
    _project_linf_cone,
    _soc_jacobian,
    project_cone,
    project_l1cone,
    project_polar,
    project_soc,
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
    smooth_quadratic_diag,
    smooth_scaled_sq_norm,
    smooth_zero,
    SmoothOracle,
)

from oracles import (
    forward_backward,
    gradient_mapping,
    grid_prox_1d,
    in_cone,
    reference_project_l1cone,
    reference_project_linf_cone,
    reference_project_soc,
    reference_soc_jacobian,
    slsqp_cone_projection,
)

ALL_CONES = [
    ConeSpec(kind=FREE, dim=4),
    ConeSpec(kind=ZERO, dim=4),
    ConeSpec(kind=NONNEG_ORTHANT, dim=4),
    ConeSpec(kind=SECOND_ORDER, dim=4),
    ConeSpec(kind=L1_NORM, dim=4),
]


def test_prox_zero_is_identity():
    z = np.array([1.0, -2.0])
    assert np.array_equal(prox_eval(prox_zero(), 3.7, z), z)


def test_prox_orthant_clamps():
    op = prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=3))
    assert np.array_equal(prox_eval(op, 1.0, np.array([1.0, -2.0, 3.0])), [1.0, 0.0, 3.0])


def test_prox_scaled_sq_norm_closed_form():
    op = prox_scaled_sq_norm(1.0)
    assert np.allclose(prox_eval(op, 1.0, np.array([2.0, 2.0])), [1.0, 1.0])


def test_prox_scaled_sq_norm_matches_grid_oracle():
    c, t, z = 0.8, 1.7, 1.3
    op = prox_scaled_sq_norm(c)
    got = prox_eval(op, t, np.array([z]))[0]
    expected = grid_prox_1d(lambda u: 0.5 * c * u * u, t, z, -4.0, 4.0)
    assert got == pytest.approx(expected, abs=1e-4)
    assert got == pytest.approx(z / (1.0 + t * c), abs=1e-12)


def test_prox_linear_shift():
    op = prox_linear_shift(np.array([1.0, -1.0]))
    assert np.allclose(prox_eval(op, 2.0, np.array([0.0, 0.0])), [-2.0, 2.0])


def test_prox_blocks_separable():
    op = prox_blocks(
        [
            (prox_zero(), 2),
            (prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=2)), 2),
        ]
    )
    z = np.array([1.0, -1.0, 2.0, -2.0])
    assert np.array_equal(prox_eval(op, 1.0, z), [1.0, -1.0, 2.0, 0.0])


def test_prox_blocks_dimension_check():
    op = prox_blocks([(prox_zero(), 2)])
    with pytest.raises(ConfigurationError):
        prox_eval(op, 1.0, np.ones(3))


def test_prox_rejects_nonpositive_t():
    with pytest.raises(ConfigurationError):
        prox_eval(prox_zero(), 0.0, np.ones(2))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
@pytest.mark.parametrize("op", [prox_zero(), prox_scaled_sq_norm(1.0),
                                prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=2))],
                         ids=["zero", "scaled_sq_norm", "orthant"])
def test_prox_step_must_be_positive_and_finite(op, t):
    # NaN once gave NaN on a scaled squared norm and inf gave 0
    with pytest.raises(ConfigurationError, match="prox step t must be positive and finite"):
        prox_eval(op, t, np.ones(2))
    with pytest.raises(ConfigurationError, match="prox step t must be positive and finite"):
        prox_map(op, t)


def test_prox_eval_checks_the_points_length():
    ops = [prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=3)), prox_linear_shift(np.ones(3)),
           prox_blocks([(prox_zero(), 1), (prox_indicator(ConeSpec(kind=FREE, dim=2)), 2)])]
    for op in ops:
        assert prox_eval(op, 1.0, np.ones(3)).shape == (3,)
        with pytest.raises(ConfigurationError, match="prox point: .* must be 2, got 3"):
            prox_eval(op, 1.0, np.ones(2))


def test_firm_nonexpansiveness(rng):
    ops = [
        prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=4)),
        prox_indicator(ConeSpec(kind=SECOND_ORDER, dim=4)),
        prox_indicator(ConeSpec(kind=L1_NORM, dim=4)),
        prox_scaled_sq_norm(0.7),
        prox_linear_shift(rng.standard_normal(4)),
    ]
    for op in ops:
        for _ in range(25):
            u, v = rng.standard_normal(4) * 2, rng.standard_normal(4) * 2
            pu, pv = prox_eval(op, 0.9, u), prox_eval(op, 0.9, v)
            assert np.linalg.norm(pu - pv) ** 2 <= float((pu - pv) @ (u - v)) + 1e-10


def test_project_soc_inside():
    z = np.array([2.0, 1.0, 0.0])
    assert np.array_equal(project_soc(z), z)


def test_project_soc_polar_case():
    assert np.array_equal(project_soc(np.array([-3.0, 1.0, 0.0])), np.zeros(3))


def test_project_soc_boundary_case():
    got = project_soc(np.array([1.0, 2.0, 0.0]))
    assert np.allclose(got, [1.5, 1.5, 0.0], atol=1e-12)
    oracle = slsqp_cone_projection("second_order", np.array([1.0, 2.0, 0.0]))
    assert np.linalg.norm(got - oracle) <= 1e-8


def test_project_l1cone_inside():
    z = np.array([5.0, 1.0, 1.0])
    assert np.array_equal(project_l1cone(z), z)


def test_project_l1cone_apex():
    assert np.array_equal(project_l1cone(np.zeros(3)), np.zeros(3))


def test_project_l1cone_matches_oracle_case():
    z = np.array([0.0, 2.0, 0.0])
    got = project_l1cone(z)
    oracle = slsqp_cone_projection("l1_norm", z)
    assert np.linalg.norm(got - oracle) <= 1e-6


def test_project_l1cone_near_tie_in_the_polar():
    # one ulp outside the polar cone {||s||_inf <= -s0}, with a tie among the
    # largest tail magnitudes: the projection is at rounding level, not a
    # point of size 0.1 with a negative head
    z = np.array([-np.nextafter(0.5, 0.0), 0.5, -0.5, 0.1])
    got = project_l1cone(z)
    assert np.abs(got).max() <= 1e-15
    assert np.abs(got[1:]).sum() <= got[0]


def kernel_points():
    """A seeded family for the cone kernels, dims 2-9: Gaussian points at
    three scales; tails with ties in |z_i| and signed zeros under heads of
    +-0, far below the tail (so the infinity-norm search ends at t0 = 0),
    far above it, and on and one ulp off the polar and inside edges of the
    1-norm and second-order cones; the apex with both zero signs; and points
    with an inf, -inf or NaN entry."""
    rng = np.random.default_rng(25)
    points = []
    for d in range(2, 10):
        points += [s * rng.standard_normal(d) for s in (1e-3, 1.0, 1e3) for _ in range(20)]
        for _ in range(4):
            tail = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], d - 1)
            edges = [np.abs(tail).sum(), -np.abs(tail).max(), np.linalg.norm(tail),
                     -np.linalg.norm(tail)]
            heads = [0.0, -0.0, -1e3, 1e3] + [h for e in edges for h in (
                e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
            points += [np.concatenate(([h], tail)) for h in heads]
        points += [np.zeros(d), np.full(d, -0.0)]
        for bad in (np.inf, -np.inf, np.nan):
            for i in range(d):
                z = rng.standard_normal(d)
                z[i] = bad
                points.append(z)
    return points


@pytest.mark.parametrize("kernel, reference", [
    (project_soc, reference_project_soc),
    (project_l1cone, reference_project_l1cone),
    (_project_linf_cone, reference_project_linf_cone),
    (_soc_jacobian, reference_soc_jacobian),
])
def test_cone_kernels_keep_their_bits(kernel, reference):
    with np.errstate(invalid="ignore", over="ignore"):
        for z in kernel_points():
            # a strided copy too: the norms read the tail as a contiguous copy
            strided = np.repeat(z, 2)[::2]
            for v in (z, strided):
                assert kernel(v).tobytes() == reference(v).tobytes(), z


def test_project_polar_orthant():
    cone = ConeSpec(kind=NONNEG_ORTHANT, dim=2)
    assert np.array_equal(project_polar(cone, np.array([1.0, -2.0])), [0.0, -2.0])


def test_project_polar_inside_soc_is_zero():
    cone = ConeSpec(kind=SECOND_ORDER, dim=3)
    assert np.allclose(project_polar(cone, np.array([2.0, 1.0, 0.5])), 0.0)


def test_project_polar_rejects_box():
    box = ConeSpec(kind=BOX, dim=2, lower=np.zeros(2), upper=np.ones(2))
    with pytest.raises(ConfigurationError):
        project_polar(box, np.ones(2))


def test_moreau_identity_all_cones(rng):
    for cone in ALL_CONES:
        for _ in range(30):
            z = rng.standard_normal(cone.dim) * 3
            pk = project_cone(cone, z)
            pp = project_polar(cone, z)
            assert np.linalg.norm(pk + pp - z) <= 1e-10
            assert abs(float(pk @ pp)) <= 1e-10


def test_projections_are_members_and_fixed_points(rng):
    for cone in ALL_CONES:
        for _ in range(20):
            z = rng.standard_normal(cone.dim) * 3
            p = project_cone(cone, z)
            assert in_cone(cone, p, tol=1e-10)
            assert np.linalg.norm(project_cone(cone, p) - p) <= 1e-10


def test_box_projection_clips():
    box = ConeSpec(kind=BOX, dim=2, lower=np.array([0.0, 0.0]), upper=np.array([1.0, 2.0]))
    assert np.array_equal(project_cone(box, np.array([-1.0, 5.0])), [0.0, 2.0])


def test_box_validation():
    with pytest.raises(ConfigurationError):
        ConeSpec(kind=BOX, dim=2, lower=np.array([1.0, 0.0]), upper=np.array([0.0, 1.0]))


def test_cone_json_roundtrip():
    for cone in ALL_CONES:
        back = cone_from_json(cone_to_json(cone))
        assert back.kind == cone.kind and back.dim == cone.dim
    box = ConeSpec(kind=BOX, dim=2, lower=np.zeros(2), upper=np.ones(2))
    back = cone_from_json(cone_to_json(box))
    assert np.array_equal(back.lower, box.lower) and np.array_equal(back.upper, box.upper)


def test_smooth_oracle_is_the_diagonal_quadratic(rng):
    d, b, z = rng.uniform(0.0, 2.0, 3), rng.standard_normal(3), rng.standard_normal(3)
    h = SmoothOracle(d, b)
    assert h.value(z) == pytest.approx(0.5 * z @ (d * z) + b @ z, rel=1e-14)
    assert np.array_equal(h.gradient(z), d * z + b)
    assert h.lipschitz == d.max() and smooth_scaled_sq_norm(2.5).lipschitz == 2.5
    for bad in (dict(d=-1.0), dict(d=[1.0, np.inf]), dict(d=np.eye(2)), dict(d=1.0, b=[np.nan])):
        with pytest.raises(ConfigurationError):
            SmoothOracle(**bad)


def test_forward_backward_identity_when_trivial():
    z = np.array([1.0, -4.0])
    got = forward_backward(smooth_zero(), prox_zero(), 2.0, z)
    assert np.array_equal(got, z)


def test_forward_backward_exact_gradient_step():
    h = smooth_scaled_sq_norm(1.0)
    got = forward_backward(h, prox_zero(), 1.0, np.array([2.0, 4.0]))
    assert np.allclose(got, 0.0)


def test_forward_backward_matches_grid_oracle(rng):
    # quadratic h plus orthant indicator in 1-d blocks, checked on a dense grid
    d = rng.uniform(0.5, 2.0, 2)
    h = smooth_quadratic_diag(d)
    sigma = prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=2))
    L = 3.0
    z = rng.standard_normal(2) * 2
    got = forward_backward(h, sigma, L, z)
    w = z - d * z / L
    for j in range(2):
        grid = np.linspace(-1.0, 4.0, 400001)
        feasible = np.maximum(grid, 0.0)
        vals = 0.5 * (feasible - w[j]) ** 2
        expected = feasible[int(np.argmin(vals))]
        assert got[j] == pytest.approx(expected, abs=1e-5)


def test_gradient_mapping_zero_at_stationary_point():
    # F = sigma + h with sigma the orthant indicator and h = 0.5||z - z*||^2
    zstar = np.array([2.0, 0.0])
    h = SmoothOracle(1.0, -zstar)
    sigma = prox_indicator(ConeSpec(kind=NONNEG_ORTHANT, dim=2))
    g = gradient_mapping(h, sigma, 2.0, zstar)
    assert np.linalg.norm(g) <= 1e-12


def test_gradient_mapping_zero_for_trivial_problem(rng):
    z = rng.standard_normal(3)
    assert np.allclose(gradient_mapping(smooth_zero(), prox_zero(), 1.5, z), 0.0)


def test_gradient_mapping_equals_gradient_when_smooth(rng):
    d = rng.uniform(0.5, 2.0, 2)
    h = smooth_quadratic_diag(d)
    z = rng.standard_normal(2)
    g = gradient_mapping(h, prox_zero(), 4.0, z)
    assert np.allclose(g, d * z, atol=1e-12)


def test_forward_backward_nonfinite_gradient_names_index():
    # the gradient d * z overflows to inf at index 1
    bad = SmoothOracle(np.array([1.0, 1e300]))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="index 1"):
        forward_backward(bad, prox_zero(), 1.0, np.array([0.0, 1e300]))


def test_projection_jacobian_matches_finite_differences(rng):
    cones = ALL_CONES + [
        ConeSpec(kind=BOX, dim=4, lower=-np.ones(4), upper=np.ones(4))
    ]
    h = 1e-7
    for cone in cones:
        for _ in range(20):
            z = rng.standard_normal(cone.dim) * 2
            D = projection_jacobian(cone, z)
            for j in range(cone.dim):
                e = np.zeros(cone.dim)
                e[j] = h
                fd = (project_cone(cone, z + e) - project_cone(cone, z - e)) / (2 * h)
                assert np.abs(fd - D[:, j]).max() <= 1e-6


@pytest.mark.parametrize("z, branch", [
    ([3.0, 1.0, -1.0], "inside"),     # ||tail||_1 <= head: P = z, D = I
    ([-3.0, 1.0, -1.0], "polar"),     # ||tail||_inf <= -head: P = 0, D = 0
    ([0.0, 0.0, 0.0], "polar"),       # the apex takes the Jacobian's polar branch
    ([0.0, 1.0, -1.0], "boundary"),   # every tail entry active
    ([0.0, 3.0, -0.5], "boundary"),   # the second tail entry inactive
    # near ties: on and one ulp off the polar and inside tests, and tail
    # magnitudes one ulp apart
    ([-0.5, 0.5, -0.5], "polar"),
    ([-np.nextafter(0.5, 0), 0.5, -0.5, 0.1], "boundary"),
    ([1.0, 0.5, -0.5], "inside"),
    ([np.nextafter(1.0, 0), 0.5, -0.5], "boundary"),
    ([0.0, 1.0, -np.nextafter(1.0, 2), 0.25], "boundary"),
])
def test_l1_pattern_branches(z, branch):
    z = np.array(z)
    d = z.shape[0]
    cone = ConeSpec(kind=L1_NORM, dim=d)
    key = projection_pattern(cone, z)
    # the key's head: -1 polar, 1 inside, 0 on the boundary
    assert np.frombuffer(key)[0] == {"polar": -1.0, "inside": 1.0, "boundary": 0.0}[branch]
    assert key == projection_pattern(cone, z, project_cone(cone, z))
    D = projection_jacobian(cone, z)
    if branch == "inside":
        assert np.array_equal(D, np.eye(d))
    if branch == "polar":
        assert np.array_equal(D, np.zeros((d, d)))
    if branch == "boundary":  # an orthogonal projector
        assert np.array_equal(D, D.T) and np.abs(D @ D - D).max() <= 1e-15


def test_l1_pattern_tells_inside_from_fully_active_boundary():
    # both points have tail signs (+, -) and a nonzero projected tail, but
    # only the inside point has D = I
    cone = ConeSpec(kind=L1_NORM, dim=3)
    inside, boundary = np.array([3.0, 1.0, -1.0]), np.array([0.0, 1.0, -1.0])
    assert np.array_equal(np.sign(project_cone(cone, inside)[1:]),
                          np.sign(project_cone(cone, boundary)[1:]))
    assert projection_pattern(cone, inside) != projection_pattern(cone, boundary)
    assert not np.array_equal(projection_jacobian(cone, inside),
                              projection_jacobian(cone, boundary))


def test_l1_boundary_pattern_tracks_active_set_and_signs():
    cone = ConeSpec(kind=L1_NORM, dim=4)
    base = projection_pattern(cone, np.array([0.0, 3.0, -0.5, 0.2]))
    assert projection_pattern(cone, np.array([0.0, 2.9, -0.4, 0.1])) == base
    assert projection_pattern(cone, np.array([0.0, 3.0, 0.5, 0.2])) == base  # inactive sign
    assert projection_pattern(cone, np.array([0.0, -3.0, -0.5, 0.2])) != base
    assert projection_pattern(cone, np.array([0.0, 3.0, -2.9, 0.2])) != base


def test_orthant_pattern_is_the_positive_mask():
    cone = ConeSpec(kind=NONNEG_ORTHANT, dim=3)
    assert projection_pattern(cone, np.array([1.0, -2.0, 0.0])) == np.array(
        [True, False, False]).tobytes()
    assert projection_pattern(cone, np.array([5.0, -1.0, -0.0])) == projection_pattern(
        cone, np.array([1.0, -2.0, 0.0]))


def test_second_order_pattern_is_none():
    cone = ConeSpec(kind=SECOND_ORDER, dim=3)
    for z in ([2.0, 1.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 1.0, 1.0]):
        assert projection_pattern(cone, np.array(z)) is None


def test_polar_indicator_prox():
    cone = ConeSpec(kind=NONNEG_ORTHANT, dim=3)
    op = prox_polar_indicator(cone)
    z = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(prox_eval(op, 1.0, z), np.minimum(z, 0.0))
