import dataclasses
import hashlib
import math

import numpy as np
import pytest

from jointmm.apps import (
    GAVE_BUILTINS,
    GLPE_BLOCK_MIN,
    GLPE_BLOCK_SWITCH,
    GLPE_RUN_ROWS,
    GaveConfig,
    GaveInstance,
    GlpeConfig,
    GlpeInstance,
    LINREG_COUPLING_GAIN,
    builtin_gave,
    builtin_gave_config,
    builtin_glpe,
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
    L1_NORM,
    NONNEG_ORTHANT,
    SECOND_ORDER,
    project_cone,
    project_polar,
)
from jointmm.solver import (
    SolverConfig,
    _block_shape,
    run_framework,
    run_pgmsad,
)

from oracles import (
    CountingMatrix,
    assert_trace_csv_is_the_records_csv,
    gave_to_minimax,
    glpe_structured,
    glpe_to_minimax,
    address,
    in_cone,
    linreg_structured,
    misaligned,
    seeded_gave,
)


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
    assert abs(fresh - r.trace[-1, 4]) <= 1e-12
    assert abs(fresh - r.error) <= 1e-12


def test_gave_plain_loop_is_penalty_zero():
    G = builtin_gave("gave-c")
    cfg = builtin_gave_config("gave-c")
    assert cfg.penalty == 0.0
    r = run_gave(G, cfg)
    assert r.converged and r.iterations == 1
    assert np.linalg.norm(r.x + np.ones(100)) <= 1e-10


# run_gave on the named instances at their stock settings and on seeded_gave
# at steps 0.1, 300 outer steps (eps 0) and the given penalty and inner
# steps: outer iterations, recovery_sign and the sha256 of the bytes of x,
# x_plus, y, z, lambda and the trace's value columns, in that order
GAVE_PINS = {
    "gave-a": (183, 1,
        "7c6229f1c5b2a333b4741f07449ba3468b610baa5b44c9bb426690cb3025c5b8"),
    "gave-b": (53, 1,
        "cac7ee2f89abd0d147d03bbabb467d3a8f90cfbfc8b3985cb1b9a5617ae1b0c8"),
    "gave-c": (1, 1,
        "548d5a6ceafc8b98d8509a3f03b9692a4fb541aebe3b01149e7dd35e5e3ea597"),
    "seeded-penalty-0": (300, -1,
        "23451e1109d244aa9e2fc915a08e7a0b906a417b0a46411f7e1d27ae039f877a"),
    "seeded-penalty-1": (300, 1,
        "9ea4e0d2da37263f488c0bd25d65381cdcc4b998430d3385f970d83508582878"),
    "seeded-one-inner-step": (300, 1,
        "3a2953bd8f57753de14cc2189a768f1a0b7c731588fd517e25b6808474d61242"),
    "seeded-no-inner-step": (300, -1,
        "9f2a226c558e11dc9962e4e169adf0b1dc0384248b5557bcb7b1b4dee2402db0"),
}


def gave_case(case):
    if case in GAVE_BUILTINS:
        return builtin_gave(case), builtin_gave_config(case)
    penalty, inner_steps = {"seeded-penalty-0": (0.0, 5), "seeded-penalty-1": (1.0, 5),
                            "seeded-one-inner-step": (1.0, 1),
                            "seeded-no-inner-step": (1.0, 0)}[case]
    return seeded_gave(), GaveConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=inner_steps,
                                     outer_cap=300, penalty=penalty, eps=0.0)


@pytest.mark.parametrize("case", list(GAVE_PINS))
def test_gave_runs_are_pinned(case):
    r = run_gave(*gave_case(case))
    arrays = (r.x, r.x_plus, r.y, r.z, r.lam, r.trace[:, 1:])
    digest = hashlib.sha256(b"".join(v.tobytes() for v in arrays)).hexdigest()
    assert (r.iterations, r.recovery_sign, digest) == GAVE_PINS[case]


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


def test_glpe_overflowing_preset_rejected():
    # |det(A + B)| is about e^1003 here: the preset 1 / |det| would be 0.0,
    # a step that never moves x
    rng = np.random.default_rng(7)
    n = 400
    A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    B = rng.standard_normal((n, n)) / math.sqrt(n)
    x_star = rng.standard_normal(n)
    G = GlpeInstance(A=A, B=B, b=A @ x_star + B @ np.maximum(x_star, 0.0),
                     cone=ConeSpec(kind=NONNEG_ORTHANT, dim=n))
    with pytest.raises(ConfigurationError, match="overflows a float"):
        glpe_paper_step_size(G)
    with pytest.raises(ConfigurationError, match="explicit step size"):
        run_glpe(G)


# the stock glpe-paper runs at eps 1e-13: outer iterations and the sha256 of
# r.x.tobytes(), where every structured step is one product with the
# Richardson matrix W of its linearization (rebuilt per pattern on the
# orthant and 1-norm cones, per step on the second-order cone). run_glpe's
# blocks before the switch point leave both unchanged, and glpe_structured,
# which takes a structured step on every iterate, gives them too.
GLPE_PINS = {
    NONNEG_ORTHANT: (115328, "3bac75f3682ddab1979d06c8e01cd3b980b3ce509c5165df3e50cb957df422af"),
    SECOND_ORDER: (1946, "656d547a0b98946fd6eb7293226b493d29f5bf59d54944f6dbd7a9134edc9a3e"),
    L1_NORM: (8467, "024be1f3f14fa7900ba49e961368ea240661e2d080f7031c94c7b07ec0b4b254"),
}


@pytest.fixture(scope="module")
def stock_glpe():
    return {kind: run_glpe(builtin_glpe(kind), GlpeConfig(eps=1e-13)) for kind in GLPE_PINS}


@pytest.mark.parametrize("cone_kind", list(GLPE_PINS))
def test_glpe_stock_runs_are_pinned(stock_glpe, cone_kind):
    r = stock_glpe[cone_kind]
    assert r.converged
    assert (r.iterations, hashlib.sha256(r.x.tobytes()).hexdigest()) == GLPE_PINS[cone_kind]


@pytest.fixture(scope="module")
def structured_glpe():
    return {kind: glpe_structured(builtin_glpe(kind), GlpeConfig(eps=1e-13)) for kind in GLPE_PINS}


def assert_traces_agree(got, want, scale=None):
    """Equal row counts, and every value within 1e-12 of scale, by default
    the largest value of want; elapsed_s aside."""
    assert got.shape == want.shape
    u, v = got[:, 1:], want[:, 1:]
    scale = np.abs(v).max() if scale is None else scale
    assert np.abs(u - v).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("cone_kind", list(GLPE_PINS))
def test_glpe_blocks_match_the_structured_run(stock_glpe, structured_glpe, cone_kind):
    got, want = stock_glpe[cone_kind], structured_glpe[cone_kind]
    assert (want.iterations, hashlib.sha256(want.x.tobytes()).hexdigest()) == GLPE_PINS[cone_kind]
    assert (got.patterns, got.rate, got.error) == (want.patterns, want.rate, want.error)
    assert np.array_equal(got.x_cone, want.x_cone)
    assert_traces_agree(got.trace, want.trace)


def structured_tail(G, trace, cap):
    """s, the first row of trace at or under the switch point, and
    glpe_structured from run_glpe's iterate s to step cap of the run."""
    s = int(np.argmax(trace[:, 3] <= GLPE_BLOCK_SWITCH))
    x = run_glpe(G, GlpeConfig(outer_cap=s)).x
    return s, glpe_structured(G, GlpeConfig(x0=x, outer_cap=cap - s))


def assert_structured_tail(got, s, want):
    """got from step s on is want, bit for bit, elapsed aside."""
    assert got.iterations == s + want.iterations and got.converged == want.converged
    assert (got.x.tobytes(), got.x_cone.tobytes(), got.error) == (
        want.x.tobytes(), want.x_cone.tobytes(), want.error)
    assert np.array_equal(got.trace[s + 1 :, 1:], want.trace[1:, 1:])


@pytest.mark.parametrize("cone_kind", list(GLPE_PINS))
def test_glpe_structured_rows_are_the_structured_steps_bits(stock_glpe, cone_kind):
    # every row at or under the switch point comes from a structured step, and
    # a run of them takes its trace norms in batches: the bits of one step at
    # a time. On the orthant and 1-norm cones the first such step (to row s)
    # goes from a block row, whose residual is J z - b, not certify's
    # A x + B P_K(x) - b; its rounding leaves the iterate only 3,000 (1-norm)
    # to 20,000 (orthant) steps later, so the oracle starts at iterate s.
    got = stock_glpe[cone_kind]
    s, want = structured_tail(builtin_glpe(cone_kind), got.trace, GLPE_PINS[cone_kind][0])
    assert (got.trace[s:, 3] <= GLPE_BLOCK_SWITCH).all()
    assert_structured_tail(got, s, want)


@pytest.mark.parametrize("cone_kind, cap", [(NONNEG_ORTHANT, 70_000), (L1_NORM, 6_000)])
def test_glpe_cap_inside_a_structured_run(stock_glpe, cone_kind, cap):
    # the structured tails start at steps 65,966 (orthant) and 5,098 (1-norm),
    # and a run of structured steps holds up to GLPE_RUN_ROWS = 1,024 rows
    # and none past the cap: both caps end a run's loop before its bound
    G, stock = builtin_glpe(cone_kind), stock_glpe[cone_kind]
    got = run_glpe(G, GlpeConfig(outer_cap=cap))
    s, want = structured_tail(G, stock.trace, cap)
    assert not got.converged and got.iterations == cap
    assert_structured_tail(got, s, want)
    assert np.array_equal(got.trace[:, 1:], stock.trace[: cap + 1, 1:])


@pytest.mark.parametrize("cone_kind", list(GLPE_PINS))
@pytest.mark.parametrize("cap", [None, 70_000])
def test_glpe_iterates_do_not_depend_on_the_trace(stock_glpe, cone_kind, cap):
    # the stock runs, and at cap 70,000 the orthant run stopped inside a run
    # of structured steps (the other two converge before it)
    G = builtin_glpe(cone_kind)
    capped = {} if cap is None else {"outer_cap": cap}
    traced = stock_glpe[cone_kind] if cap is None else run_glpe(G, GlpeConfig(**capped))
    bare = run_glpe(G, GlpeConfig(record_trace=False, **capped))
    assert len(bare.trace) == 0 and bare.iterations == traced.iterations
    assert (bare.x.tobytes(), bare.x_cone.tobytes()) == (traced.x.tobytes(), traced.x_cone.tobytes())
    assert (bare.error, bare.patterns, bare.converged) == (
        traced.error, traced.patterns, traced.converged)


def edge_glpe():
    """The stock orthant instance with b moved so that the solution's first
    entry is 1e-9, on the edge of its pattern, and a start 2e-9 across that
    edge, at equation error 4.6e-9. Every step is structured (the error
    starts under the switch point), and the first entry turns positive at
    iterate 781, inside the first run of structured steps: a start found by
    scanning such edges near the stock solution."""
    G = builtin_glpe(NONNEG_ORTHANT)
    x = run_glpe(G, GlpeConfig(record_trace=False)).x
    x[0] = 1e-9
    G = GlpeInstance(A=G.A, B=G.B, b=G.A @ x + G.B @ np.maximum(x, 0.0), cone=G.cone)
    x[0] -= 2e-9
    return G, x


@pytest.mark.parametrize("record_trace", [True, False])
def test_glpe_run_cut_where_the_pattern_changes(record_trace):
    # the first run goes on past iterate 781 to its bound before it tests
    # the pattern; the steps after 781 are thrown away, and the next run
    # goes on from 781 on the new pattern: the structured steps' bits
    G, x0 = edge_glpe()
    first = run_glpe(G, GlpeConfig(x0=x0, outer_cap=780, record_trace=False))
    assert first.patterns == 1 and 780 < GLPE_RUN_ROWS
    cfg = GlpeConfig(x0=x0, outer_cap=2000, record_trace=record_trace)
    got, want = run_glpe(G, cfg), glpe_structured(G, cfg)
    assert got.patterns == want.patterns == 2
    assert (got.iterations, got.converged, got.error) == (want.iterations, want.converged,
                                                          want.error)
    assert (got.x.tobytes(), got.x_cone.tobytes()) == (want.x.tobytes(), want.x_cone.tobytes())
    assert np.array_equal(got.trace[:, 1:], want.trace[:, 1:])


def assert_same_run(got, want):
    assert (got.iterations, got.patterns, got.error) == (want.iterations, want.patterns,
                                                         want.error)
    assert (got.x.tobytes(), got.x_cone.tobytes()) == (want.x.tobytes(), want.x_cone.tobytes())
    assert np.array_equal(got.trace[:, 1:], want.trace[:, 1:])


@pytest.mark.parametrize("cone_kind", [SECOND_ORDER, L1_NORM])
@pytest.mark.parametrize("bound", [1, 7, 300])
def test_glpe_bits_do_not_depend_on_the_run_bound(monkeypatch, stock_glpe, cone_kind, bound):
    import jointmm.apps

    monkeypatch.setattr(jointmm.apps, "GLPE_RUN_ROWS", bound)
    assert_same_run(run_glpe(builtin_glpe(cone_kind), GlpeConfig(eps=1e-13)),
                    stock_glpe[cone_kind])


def seeded_orthant_glpe(n):
    """A x + B max(x, 0) = b with A = N(0, 1) + 3 I and B = N(0, 1) / sqrt(n)
    drawn from np.random.default_rng(7), b from a Gaussian x*, and the
    config at step 1 / ||A + B||^2 and eps 1e-10."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((n, n)) + 3 * np.eye(n)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    x_star = rng.standard_normal(n)
    G = GlpeInstance(A=A, B=B, b=A @ x_star + B @ np.maximum(x_star, 0.0),
                     cone=ConeSpec(kind=NONNEG_ORTHANT, dim=n))
    return G, GlpeConfig(alpha=1 / np.linalg.norm(A + B, 2) ** 2, eps=1e-10)


@pytest.mark.parametrize("case", [*GLPE_PINS, "seeded-50"])
@pytest.mark.parametrize("record_trace", [True, False])
def test_glpe_blocks_that_grow_keep_the_bits_of_blocks_of_k(
        monkeypatch, stock_glpe, case, record_trace):
    # a block twice as long chains the same products with the stacked powers
    # as the two it replaces, takes J z - b by the same products of k rows,
    # and is cut at the same iterate: held at k by a run bound of k rows
    # (which also bounds the runs of structured steps, and moves no bit by
    # test_glpe_bits_do_not_depend_on_the_run_bound), the runs give the same
    # bits. At n = 50 (k = 10) the rows of one product of 40 or more rows
    # round otherwise than in products of 10
    import jointmm.apps

    if case == "seeded-50":
        G, cfg = seeded_orthant_glpe(50)
        cfg = dataclasses.replace(cfg, outer_cap=3000, record_trace=record_trace)
    else:
        G, cfg = builtin_glpe(case), GlpeConfig(eps=1e-13, record_trace=record_trace)
    grown = stock_glpe[case] if record_trace and case in GLPE_PINS else run_glpe(G, cfg)
    k = _block_shape(G.A.shape[1], GLPE_BLOCK_MIN)[1]
    lengths, fill = [], jointmm.apps.fill_iterates
    monkeypatch.setattr(jointmm.apps, "fill_iterates",
                        lambda *a: lengths.append(a[1]) or fill(*a))
    monkeypatch.setattr(jointmm.apps, "GLPE_RUN_ROWS", k)
    assert_same_run(run_glpe(G, cfg), grown)
    assert set(lengths) <= {k}


def test_glpe_blocks_double_while_kept_and_start_over_after_a_cut(monkeypatch):
    # k = 10 at n = 50: a block kept whole is followed by one twice as long,
    # up to 1,020 (the largest multiple of k within GLPE_RUN_ROWS), a cut
    # one by a block of 10, and the last fills only up to the cap
    import jointmm.apps

    lengths, fill = [], jointmm.apps.fill_iterates
    monkeypatch.setattr(jointmm.apps, "fill_iterates",
                        lambda *a: lengths.append(a[1]) or fill(*a))
    G, cfg = seeded_orthant_glpe(50)
    run_glpe(G, dataclasses.replace(cfg, outer_cap=3000, record_trace=False))
    assert lengths == [10] * 9 + [20, 10, 10, 20] + [10] * 8 + [
        20, 40, 80, 160, 320, 640, 1020, 650]


@pytest.mark.parametrize("bound", [5, 780, 781, 782, 1024])
def test_glpe_run_bound_before_at_or_after_the_pattern_change(monkeypatch, bound):
    # edge_glpe leaves its pattern at iterate 781, and every step is
    # structured: each step call is one run, which tests its pattern once
    import jointmm.apps

    G, x0 = edge_glpe()
    cfg = GlpeConfig(x0=x0, outer_cap=2000)
    want = glpe_structured(G, cfg)
    steps, tests = [], []
    loop, test = jointmm.apps.iterate, jointmm.apps.on_pattern
    monkeypatch.setattr(jointmm.apps, "iterate", lambda x0, step, *rest: loop(
        x0, lambda *a: steps.append(1) or step(*a), *rest))
    monkeypatch.setattr(jointmm.apps, "on_pattern", lambda *a: tests.append(1) or test(*a))
    monkeypatch.setattr(jointmm.apps, "GLPE_RUN_ROWS", bound)
    assert_same_run(run_glpe(G, cfg), want)
    assert len(tests) == len(steps)


@pytest.mark.parametrize("scale, eps", [(1.0, 1e-10), (1e3, 1e-7)])
@pytest.mark.parametrize("cone_kind, x_star, calls", [
    (NONNEG_ORTHANT, [1.0, 0.0, 2.0, -1.0, 0.5], 77), (L1_NORM, [0.0, 1.0, 2.0, 0.5, -1.0], 12)])
def test_glpe_runs_on_a_degenerate_solution_stay_long(
        monkeypatch, cone_kind, x_star, calls, scale, eps):
    # x* lies on the edge of its piece (a zero entry; a zero head on the
    # 1-norm boundary), so iterates near it sit on its pattern with no room
    # to spare. Blocks and runs both cut by on_pattern's exact test, so the
    # 71,400 and 6,642 steps take 77 and 12 step calls at either scale. A
    # test with a margin relative to ||z||_1 cut them every few rows at
    # scale 1e3: 4,321 and 966 step calls for the same steps
    import jointmm.apps

    steps, loop = [], jointmm.apps.iterate
    monkeypatch.setattr(jointmm.apps, "iterate", lambda x0, step, *rest: loop(
        x0, lambda *a: steps.append(1) or step(*a), *rest))
    G = builtin_glpe(cone_kind)
    x_star = scale * np.array(x_star)
    b = G.A @ x_star + G.B @ project_cone(G.cone, x_star)
    r = run_glpe(GlpeInstance(A=G.A, B=G.B, b=b, cone=G.cone),
                 GlpeConfig(eps=eps, record_trace=False))
    assert r.converged and len(steps) < 1.5 * calls


@pytest.mark.parametrize("cone_kind", list(GLPE_PINS))
def test_glpe_trace_csv_bytes_are_the_records_csv_bytes(stock_glpe, tmp_path, cone_kind):
    assert_trace_csv_is_the_records_csv(stock_glpe[cone_kind].trace, tmp_path)


def test_glpe_stock_trace_holds_at_most_64_bytes_a_row(stock_glpe):
    # 115,328 steps: rows 0..115,328, as a float64 array the trace owns
    trace = stock_glpe[NONNEG_ORTHANT].trace
    assert len(trace) == GLPE_PINS[NONNEG_ORTHANT][0] + 1
    assert trace.flags.owndata and trace.nbytes <= 64 * len(trace)


def test_glpe_patterns_count_the_linearizations(stock_glpe):
    # the orthant and 1-norm patterns settle within the first steps; the
    # second-order cone builds its linearization on every step
    assert stock_glpe[NONNEG_ORTHANT].patterns == 3
    assert stock_glpe[L1_NORM].patterns == 4
    assert stock_glpe[SECOND_ORDER].patterns == stock_glpe[SECOND_ORDER].iterations


def test_glpe_rate_explains_the_orthant_step_count(stock_glpe):
    r = stock_glpe[NONNEG_ORTHANT]
    assert r.rate == pytest.approx(0.9997670, abs=1e-6)
    G = builtin_glpe(NONNEG_ORTHANT)
    predicted = math.log(1e-13 / np.linalg.norm(G.b)) / math.log(r.rate)
    assert r.iterations / 1.5 <= predicted <= 1.5 * r.iterations
    assert all(0.0 < res.rate < 1.0 for res in stock_glpe.values())


def test_glpe_orthant_paper_instance(stock_glpe):
    G = builtin_glpe(NONNEG_ORTHANT)
    r = stock_glpe[NONNEG_ORTHANT]
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
    assert (r.trace[:, 3] <= 1e-10).all()


def _stock_linreg_config(**overrides):
    return SolverConfig(**{"alpha_x": 0.3, "alpha_y": 1.0, "inner_steps": 3,
                           "outer_cap": 200000, "eps": 1e-8, **overrides})


# run_linreg on make_linreg(40, 40, 8, seed 3) at the stock settings (the
# affine path of x): outer iterations and the sha256 of the bytes of x, y
# and lambda in that order
LINREG_PIN = (1241, "33e714a4cd2ba4c0e4324a862d5464334e3bf1cfa0df5f167f2fbb31ccc07620")
# the same on make_linreg(130, 130, 26, seed 3), where j = 1: each block of
# 64 steps is filled at two levels, the even iterates by one matvec with M^2
# per two steps and the odd ones by one product with M. The count is the
# one-matvec fill's; x, y and lambda moved by up to 5.5e-14 relative from
# its bits
LINREG_J1_PIN = (3298, "e20d6ed89bedb6461a989a9debb593a6692cb83ba610b46b3cfa541a213a000c")


def assert_stock_linreg_run(n, pin, offset=None):
    """The stock run on make_linreg(n, n, n // 5, seed 3) gives pin; given an
    offset, with its K, A and B copied to offset bytes past a 64-byte
    boundary (views the problem keeps: as_matrix does not copy them)."""
    _, P = make_linreg(n, n, n // 5, seed=3)
    if offset is not None:
        P = dataclasses.replace(P, **{name: misaligned(getattr(P, name), offset) for name in "KAB"})
        assert {address(getattr(P, name)) % 64 for name in "KAB"} == {offset}
    r = run_linreg(P, _stock_linreg_config())
    assert r.converged
    digest = hashlib.sha256(b"".join(v.tobytes() for v in (r.state.x, r.state.y, r.state.lam)))
    assert (r.state.t, digest.hexdigest()) == pin


def test_run_linreg_stock_run_is_pinned():
    assert_stock_linreg_run(40, LINREG_PIN)


def test_run_linreg_two_level_fill_is_pinned():
    assert_stock_linreg_run(130, LINREG_J1_PIN)


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
@pytest.mark.parametrize("n, pin", [(40, LINREG_PIN), (130, LINREG_J1_PIN)],
                         ids=["stacked", "two-level"])
def test_run_linreg_pins_hold_at_any_alignment(shift_aligned, n, pin, offset):
    # the problem's matrices, and every array numerics.aligned gives the
    # package, offset bytes past a 64-byte boundary
    shift_aligned(offset)
    assert_stock_linreg_run(n, pin, offset)


def count_linreg_products(T, alpha_y):
    """The products with K and K^T of a T-step run_linreg on make_linreg(10, 10, 2)."""
    _, P = make_linreg(10, 10, 2, seed=3)
    P.K = CountingMatrix(P.K)
    r = run_linreg(P, _stock_linreg_config(alpha_y=alpha_y, outer_cap=T, eps=0.0))
    assert r.state.t == T
    return P.K.counts


def test_run_linreg_takes_three_products_with_K_per_outer_iteration():
    # alpha_y = 0.5: the ascent weight (1 - 0.5)^3 is not 0, so the
    # structured steps run. Per iterate: K^T x and K y, shared by the
    # multiplier, the residuals and the next drive; per step: K y+ of the
    # ascended y. The start point's two draws are the other two products:
    # 3 T + 4 in all.
    for T in (4, 5):
        assert count_linreg_products(T, 0.5) == {"K": 2 * T + 2, "K.T": T + 2}


def test_run_linreg_affine_path_forms_K_only_outside_its_steps():
    # stock alpha_y = 1: one ascent lands on y*(x), and K is reached by the
    # start's draws, the build of the maps, iterate 0's row and the returned
    # multiplier, whatever the number of steps
    assert count_linreg_products(4, 1.0) == count_linreg_products(5, 1.0)


def test_run_linreg_rejects_nonsmooth():
    G = builtin_gave("gave-a")
    P = gave_to_minimax(G)
    cfg = SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1)
    with pytest.raises(ConfigurationError, match="smooth"):
        run_linreg(P, cfg)


def test_builtin_names():
    with pytest.raises(ConfigurationError, match="unknown built-in"):
        builtin_gave("gave-z")
    with pytest.raises(ConfigurationError, match="unknown built-in instance 'gave-z'; choose from"):
        builtin_gave_config("gave-z")
    for name in ("gave-a", "gave-b", "gave-c"):
        G = builtin_gave(name)
        cfg = builtin_gave_config(name)
        assert cfg.alpha_x > 0 and G.A.shape[0] >= G.A.shape[1]


def _assert_finite_state(state):
    assert all(np.all(np.isfinite(v)) for v in (state.x, state.y, state.lam))


def _diverging_gave_config(record_trace):
    cfg = builtin_gave_config("gave-a")
    return GaveConfig(alpha_x=50.0, alpha_y=50.0, inner_steps=cfg.inner_steps,
                      outer_cap=cfg.outer_cap, penalty=cfg.penalty, eps=cfg.eps,
                      record_trace=record_trace)


@pytest.mark.filterwarnings("error")
def test_gave_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    with pytest.raises(DivergenceError) as err:
        run_gave(builtin_gave("gave-a"), _diverging_gave_config(True))
    _assert_finite_state(err.value.state)
    assert len(err.value.trace) == err.value.state.t + 1


@pytest.mark.filterwarnings("error")
def test_gave_divergence_without_trace_carries_state():
    # the certificate row is built without a trace too, so y, z and lambda are covered
    from jointmm.errors import DivergenceError

    with pytest.raises(DivergenceError, match="res_y, res_feas") as err:
        run_gave(builtin_gave("gave-a"), _diverging_gave_config(False))
    _assert_finite_state(err.value.state)
    assert err.value.state.t > 0 and err.value.trace.shape == (0, 5)


@pytest.mark.filterwarnings("error")
def test_glpe_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    # the stacked powers overflow, so no block is filled and every step is
    # structured: the same iterate, columns and last finite state
    G, cfg = builtin_glpe(NONNEG_ORTHANT), GlpeConfig(alpha=5.0)
    with pytest.raises(DivergenceError) as err:
        run_glpe(G, cfg)
    with pytest.raises(DivergenceError) as ref:
        glpe_structured(G, cfg)
    assert str(err.value) == str(ref.value)
    assert np.array_equal(err.value.state, ref.value.state)
    assert err.value.state.shape == (5,) and np.all(np.isfinite(err.value.state))
    assert len(err.value.trace) == len(ref.value.trace) > 0


@pytest.mark.parametrize("cone_kind, alpha, fills", [
    (NONNEG_ORTHANT, None, 73), (L1_NORM, None, 15), (NONNEG_ORTHANT, 5.0, 0)])
def test_glpe_fills_blocks_only_from_finite_stacked_powers(monkeypatch, cone_kind, alpha, fills):
    # at alpha 5 every pattern's powers overflow (spectral radius of the step
    # map 1.6e8 to 2.3e10): a block filled from them would be thrown away.
    # The blocks grow: each one kept whole is followed by one twice as long,
    # from k = 51 iterates up to 1,020 (the largest multiple of k within
    # GLPE_RUN_ROWS), so the stock runs fill 73 and 15 blocks, where
    # blocks of 51 took 1,298 and 106
    import jointmm.apps
    from jointmm.errors import DivergenceError

    calls, fill = [], jointmm.apps.fill_iterates
    monkeypatch.setattr(jointmm.apps, "fill_iterates", lambda *a: calls.append(a[1]) or fill(*a))
    try:
        run_glpe(builtin_glpe(cone_kind), GlpeConfig(alpha=alpha))
    except DivergenceError:
        assert alpha == 5.0
    assert len(calls) == fills and set(calls) <= {51, 102, 204, 408, 816, 1020}


@pytest.mark.filterwarnings("error")
def test_linreg_divergence_carries_state_and_trace():
    from jointmm.errors import DivergenceError

    # the affine path of x (alpha_y = 1) against the structured steps: the
    # same iterate and columns, and the last finite state with its multiplier
    _, P = make_linreg(10, 10, 2, seed=3)
    cfg = SolverConfig(alpha_x=50.0, alpha_y=1.0, inner_steps=3, outer_cap=200000, eps=1e-8)
    with pytest.raises(DivergenceError) as err:
        run_linreg(P, cfg)
    with pytest.raises(DivergenceError) as ref:
        linreg_structured(P, cfg)
    assert str(err.value) == str(ref.value)
    got, want = err.value.state, ref.value.state
    _assert_finite_state(got)
    assert got.t == want.t > 0
    for u, v in ((got.x, want.x), (got.y, want.y), (got.lam, want.lam)):
        assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
    assert len(err.value.trace) == got.t + 1


# the iterates in one of run_glpe's blocks at n = 5
GLPE_BLOCK = _block_shape(5, GLPE_BLOCK_MIN)[1]


@pytest.mark.parametrize("cone_kind", [NONNEG_ORTHANT, SECOND_ORDER, L1_NORM])
def test_glpe_trace_rows_each_iterate_once(cone_kind):
    G = builtin_glpe(cone_kind)
    # from near the solution the polyhedral cones' first block holds rows
    # 1..GLPE_BLOCK, so the caps stop the run before it, in it, on its edge
    # and in the next block; from x0 = 0 the pattern changes first
    near = run_glpe(G, GlpeConfig(eps=1e-3)).x
    for x0, cap in [(None, 40)] + [(near, cap) for cap in (0, 1, GLPE_BLOCK - 1, GLPE_BLOCK,
                                                            GLPE_BLOCK + 1)]:
        cfg = GlpeConfig(outer_cap=cap, x0=x0)
        r, ref = run_glpe(G, cfg), glpe_structured(G, cfg)
        assert r.iterations == cap and not r.converged
        assert len(r.trace) == r.iterations + 1
        # row t: equation error at iterate t; correction and inner residual of step t
        assert r.trace[0, 1:3].tolist() == [0.0, 0.0]
        assert r.trace[-1, 3] == r.error == r.trace[-1, 4]
        assert (r.trace[1:, 1] > 0.0).all()
        # near the solution the rows are far below b, the scale of their rounding
        assert_traces_agree(r.trace, ref.trace, scale=np.linalg.norm(G.b))
        assert np.abs(r.x - ref.x).max() <= 1e-12 * np.abs(ref.x).max()
        assert np.array_equal(r.x_cone, project_cone(G.cone, r.x))
    # rows 1..GLPE_BLOCK come from one block (orthant, 1-norm) or one run of
    # structured steps (second-order cone): they share one stamp
    stamps = set(r.trace[1 : GLPE_BLOCK + 1, 0].tolist())
    assert len(stamps) == 1


def test_config_checks_reject_nan_and_fractional_counts():
    with pytest.raises(ConfigurationError, match="alpha_x"):
        GaveConfig(alpha_x=float("nan"), alpha_y=0.1, inner_steps=1, outer_cap=1)
    with pytest.raises(ConfigurationError, match="penalty"):
        GaveConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1, penalty=float("nan"))
    with pytest.raises(ConfigurationError, match="inner_steps"):
        GlpeConfig(inner_steps=2.5)
    with pytest.raises(ConfigurationError, match="inner_steps must be at least 1"):
        GlpeConfig(inner_steps=0)
    with pytest.raises(ConfigurationError, match="alpha"):
        GlpeConfig(alpha=0.0)
    with pytest.raises(ConfigurationError, match="seed"):
        SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=1, seed=1.5)
    with pytest.raises(ConfigurationError, match="outer_cap"):
        SolverConfig(alpha_x=0.1, alpha_y=0.1, inner_steps=1, outer_cap=-1)


def _linreg_start(field):
    # the regression problem has n = m = 10 and q = 2
    config = SolverConfig(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=5, **{field: [1.0]})
    return make_linreg(10, 10, 2, seed=0)[1], config


# each driver with a start of length 1, the wrong length for every field
START_DRIVERS = {
    "run_pgmsad": lambda field: run_pgmsad(*_linreg_start(field)),
    "run_framework": lambda field: run_framework(
        make_linreg(10, 10, 2, seed=0)[1], None, lambda t: 0.0, 0.3, 5, **{field: [1.0]}
    ),
    "run_gave": lambda field: run_gave(
        builtin_gave("gave-a"),
        dataclasses.replace(builtin_gave_config("gave-a"), **{field: [1.0]}),
    ),
    "run_glpe": lambda field: run_glpe(builtin_glpe(), GlpeConfig(**{field: [1.0]})),
    "run_linreg": lambda field: run_linreg(*_linreg_start(field)),
}


@pytest.mark.parametrize(
    "driver, field",
    [
        ("run_pgmsad", "x0"),
        ("run_pgmsad", "y0"),
        ("run_pgmsad", "lambda0"),
        ("run_framework", "x0"),
        ("run_framework", "y0"),
        ("run_framework", "lambda0"),
        ("run_gave", "x0"),
        ("run_gave", "y0"),
        ("run_gave", "z0"),
        ("run_gave", "lambda0"),
        ("run_glpe", "x0"),
        ("run_linreg", "x0"),
        ("run_linreg", "y0"),
    ],
)
def test_wrong_length_start_names_the_field(driver, field):
    with pytest.raises(ConfigurationError, match=f"^{field} must have length"):
        START_DRIVERS[driver](field)
