"""The four benchmark workloads: set-up, the timed solves, and output checks.

Each workload is three functions, bundled in a Workload:

- prepare(seed, workdir) is set-up. It generates the instances, writes any
  input files and computes step sizes: everything before the first solve.
- solve(prep) is the timed part. It calls the library once per instance, one
  call at a time, and returns one (label, result, seconds) triple per call. An
  exception is caught and returned as that call's result, so a failure never
  ends the run.
- check(prep, solves) is untimed. It verifies every output with numpy,
  independently of the library's own residual code, and returns one Outcome
  per solve.

Seeds. At a workload's default seed the instances are the stock ones, whose
iteration counts are pinned in PINNED. Any other seed draws an orthogonal
change of coordinates under which the solver's steps are equivariant:
rotations of free variables, permutations or tail rotations that map a cone
onto itself, and orthogonal mixing of constraint or equation rows. The numbers
the solver sees change; the work it must do, and so the iteration count, stays
the same up to rounding. Drawing fresh instances instead moves the counts far
more than any regression bound: the criterion-11 generator gives 15,992 to
26,132 outer iterations over seeds 1-4 and 11, and a random GLPE start lands
the orthant instance at either about 8,000 or 110,000-127,000 iterations.

Library calls go through module attributes (solver.run_pgmsad, apps.run_glpe,
cli.main, ...) so that the traced run's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from typing import Callable, NamedTuple

import numpy as np

from jointmm import apps, cli, matio, problem, prox, solver
from jointmm import rng as jrng


class Outcome(NamedTuple):
    """The checked result of one solve."""

    label: str
    iters: int
    ok: bool
    detail: str
    digest: str


class Workload(NamedTuple):
    default_seed: int
    prepare: Callable
    solve: Callable
    check: Callable
    why: str


def _orthogonal(rng, d):
    """Haar-distributed orthogonal d x d matrix, or the identity when rng is None."""
    if rng is None:
        return np.eye(d)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _permutation(rng, d, signed=False):
    if rng is None:
        return np.eye(d)
    P = np.eye(d)[rng.permutation(d)]
    if signed:
        P = P * rng.choice([-1.0, 1.0], size=d)
    return P


def _coords_rng(seed, default_seed):
    return None if seed == default_seed else np.random.default_rng(seed % 2**64)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _call(label, fn, *args):
    """One timed library call: (label, result or the exception raised, seconds)."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed solve is an outcome, not a crash
        result = exc
    return label, result, time.perf_counter() - start


def _failed(label, result):
    return Outcome(label, 0, False, f"raised {type(result).__name__}: {result}", "")


# ---------------------------------------------------------------- saddle-batch

SADDLE_GENERATOR_SEED = 11
SADDLE_COUNT = 20
SADDLE_INNER = 60
SADDLE_EPS = 1e-10
SADDLE_KKT_TOL = 1e-6


def _stock_saddles():
    """The 20 quadratic saddles of acceptance criterion 11, drawn the same way."""
    rng = np.random.default_rng(SADDLE_GENERATOR_SEED)
    out = []
    for _ in range(SADDLE_COUNT):
        while True:
            a = 1.0 + rng.random()
            b = 1.0 + rng.random()
            K = 0.3 * rng.standard_normal((2, 2))
            A = 0.15 * rng.standard_normal((2, 2))
            B = 0.5 * rng.standard_normal((2, 2))
            c = 0.4 * rng.standard_normal(2)
            H = np.block(
                [
                    [a * np.eye(2) + K @ K.T / b, A.T + K @ B.T / b],
                    [A + B @ K.T / b, B @ B.T / b],
                ]
            )
            ev = np.linalg.eigvalsh(0.5 * (H + H.T))
            if ev.min() > 0.02 and np.linalg.matrix_rank(np.hstack([A, B])) == 2:
                break
        out.append((a, b, K, A, B, c))
    return out


def prepare_saddle(seed, workdir):
    rng = _coords_rng(seed, SADDLE_GENERATOR_SEED)
    instances = []
    for a, b, K, A, B, c in _stock_saddles():
        Qx, Qy, R = _orthogonal(rng, 2), _orthogonal(rng, 2), _orthogonal(rng, 2)
        K, A, B, c = Qx.T @ K @ Qy, R @ A @ Qx, R @ B @ Qy, R @ c
        P = problem.MinimaxProblem(
            g=prox.smooth_scaled_sq_norm(a), phi=prox.prox_zero(),
            h=prox.smooth_scaled_sq_norm(b), psi=prox.prox_zero(),
            K=K, A=A, B=B, c=c, mu=b,
        )
        C = problem.compute_constants(P)
        cfg = solver.SolverConfig(
            alpha_x=0.9 / C.L_theta, alpha_y=0.9 / C.L_h, inner_steps=SADDLE_INNER,
            outer_cap=300000, eps=SADDLE_EPS, x0=Qx.T @ np.ones(2), y0=Qy.T @ np.ones(2),
            project_final=False,
        )
        instances.append((P, cfg, (a, b, K, A, B, c)))
    return instances


def solve_saddle(prep):
    return [_call(f"saddle-{i}", solver.run_pgmsad, P, cfg) for i, (P, cfg, _) in enumerate(prep)]


def saddle_kkt(a, b, K, A, B, c):
    """Exact saddle of (a/2)|x|^2 + x'Ky - (b/2)|y|^2 subject to Ax + By + c = 0."""
    n, m = K.shape
    q = c.shape[0]
    M = np.block(
        [
            [a * np.eye(n), K, A.T],
            [K.T, -b * np.eye(m), B.T],
            [A, B, np.zeros((q, q))],
        ]
    )
    sol = np.linalg.solve(M, np.concatenate([np.zeros(n + m), -c]))
    return sol[:n], sol[n : n + m]


def check_saddle(prep, solves):
    out = []
    for (_, _, data), (label, r, _) in zip(prep, solves):
        if isinstance(r, Exception):
            out.append(_failed(label, r))
            continue
        xs, ys = saddle_kkt(*data)
        dist = float(np.linalg.norm(np.concatenate([r.state.x - xs, r.state.y - ys])))
        ok = bool(r.converged) and dist <= SADDLE_KKT_TOL
        out.append(
            Outcome(label, r.state.t, ok, f"kkt_dist={dist:.2e} converged={r.converged}",
                    _digest(r.state.x, r.state.y, r.state.lam))
        )
    return out


# ------------------------------------------------------------------ linreg-400

LINREG_SIZE = (400, 400, 80)
LINREG_INSTANCE_SEED = 3
LINREG_RESIDUAL_TOL = 1e-7


def prepare_linreg(seed, workdir):
    """make_linreg(400, 400, 80, seed 3) in seeded coordinates, stock settings.

    The start is what run_linreg draws at config seed 0 (x0 = K z, y0 = K^T w
    with z, w from PCG64(0)), carried into the new coordinates. The rotations
    leave g, h and the zero prox terms unchanged because make_linreg's b is 0.
    """
    rng = _coords_rng(seed, 0)
    _, P = apps.make_linreg(*LINREG_SIZE, LINREG_INSTANCE_SEED)
    start_rng = jrng.make_rng(0)
    x0 = P.K @ jrng.standard_normal(start_rng, P.m)
    y0 = P.K.T @ jrng.standard_normal(start_rng, P.n)
    Qx, Qy, R = _orthogonal(rng, P.n), _orthogonal(rng, P.m), _orthogonal(rng, P.q)
    P = problem.MinimaxProblem(
        g=P.g, phi=P.phi, h=P.h, psi=P.psi,
        K=Qx.T @ P.K @ Qy, A=R @ P.A @ Qx, B=R @ P.B @ Qy, c=R @ P.c, mu=P.mu,
    )
    cfg = solver.SolverConfig(
        alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=200000, eps=1e-8, seed=0,
        x0=Qx.T @ x0, y0=Qy.T @ y0,
    )
    return P, cfg


def solve_linreg(prep):
    P, cfg = prep
    return [_call("linreg-400", apps.run_linreg, P, cfg)]


def check_linreg(prep, solves):
    P, _ = prep
    (label, r, _), = solves
    if isinstance(r, Exception):
        return [_failed(label, r)]
    x, y, lam = r.state.x, r.state.y, r.state.lam
    # with zero prox terms the gradient mappings are the plain gradients
    res = (
        np.linalg.norm(P.g.gradient(x) + P.K @ y + P.A.T @ lam),
        np.linalg.norm(P.K.T @ x + P.B.T @ lam - P.h.gradient(y)),
        np.linalg.norm(P.A @ x + P.B @ y + P.c),
    )
    ok = bool(r.converged and max(res) <= LINREG_RESIDUAL_TOL)
    detail = "res=({:.1e},{:.1e},{:.1e}) converged={}".format(*res, r.converged)
    return [Outcome(label, r.state.t, ok, detail, _digest(x, y, lam))]


# ------------------------------------------------------------------ glpe-cones

GLPE_CONES = (prox.NONNEG_ORTHANT, prox.SECOND_ORDER, prox.L1_NORM)
GLPE_EPS = 1e-13
GLPE_ERROR_TOL = 1e-12
GLPE_CONE_TOL = 1e-8


def _cone_symmetry(rng, kind, d):
    """An orthogonal T with P_K(T z) = T P_K(z) for the cone kind."""
    if kind == prox.NONNEG_ORTHANT:
        return _permutation(rng, d)
    T = np.eye(d)
    if kind == prox.SECOND_ORDER:
        T[1:, 1:] = _orthogonal(rng, d - 1)
    else:  # the 1-norm cone is kept by signed permutations of the tail
        T[1:, 1:] = _permutation(rng, d - 1, signed=True)
    return T


def prepare_glpe(seed, workdir):
    """glpe-paper under the three cones, rows mixed and coordinates moved by a
    cone symmetry: A' = R A T, B' = R B T, b' = R b. |det(A' + B')| and so the
    preset step size are unchanged; the start stays at zero."""
    rng = _coords_rng(seed, 0)
    out = []
    for kind in GLPE_CONES:
        G = apps.builtin_glpe(kind)
        d = G.A.shape[1]
        R, T = _orthogonal(rng, d), _cone_symmetry(rng, kind, d)
        G = apps.GlpeInstance(A=R @ G.A @ T, B=R @ G.B @ T, b=R @ G.b, cone=G.cone)
        out.append((kind, G, apps.GlpeConfig(eps=GLPE_EPS)))
    return out


def solve_glpe(prep):
    return [_call(f"glpe-{kind}", apps.run_glpe, G, cfg) for kind, G, cfg in prep]


def cone_violation(kind, z):
    """How far z is outside the cone kind (0 inside)."""
    s0, tail = z[0], z[1:]
    if kind == prox.NONNEG_ORTHANT:
        return max(0.0, -float(z.min()))
    if kind == prox.SECOND_ORDER:
        return max(0.0, float(np.linalg.norm(tail)) - s0)
    return max(0.0, float(np.abs(tail).sum()) - s0)


def polar_violation(kind, z):
    """How far z is outside the polar of the cone kind (0 inside)."""
    s0, tail = z[0], z[1:]
    if kind == prox.NONNEG_ORTHANT:
        return max(0.0, float(z.max()))
    if kind == prox.SECOND_ORDER:
        return max(0.0, float(np.linalg.norm(tail)) + s0)
    # the polar of the 1-norm cone is {(t0, t): |t|_inf <= -t0}
    return max(0.0, float(np.abs(tail).max()) + s0)


def check_glpe(prep, solves):
    out = []
    for (kind, G, _), (label, r, _) in zip(prep, solves):
        if isinstance(r, Exception):
            out.append(_failed(label, r))
            continue
        xk = r.x_cone
        polar = r.x - xk
        err = float(np.linalg.norm(G.A @ r.x + G.B @ xk - G.b))
        member = cone_violation(kind, xk)
        polar_gap = polar_violation(kind, polar)
        comp = abs(float(xk @ polar))
        ok = (
            bool(r.converged) and err <= GLPE_ERROR_TOL and member <= GLPE_CONE_TOL
            and polar_gap <= GLPE_CONE_TOL and comp <= GLPE_CONE_TOL
        )
        detail = (f"error={err:.1e} cone={member:.1e} polar={polar_gap:.1e} "
                  f"complementarity={comp:.1e}")
        out.append(Outcome(label, r.iterations, ok, detail, _digest(r.x)))
    return out


# ---------------------------------------------------------------- cli-manifest

CLI_BASE_SEED = 2204
CLI_N = 400
CLI_Q = 20
CLI_INNER = 5
CLI_EPS = 1e-8
CLI_RESIDUAL_SLACK = 1e-12
# acceptance thresholds of criteria 1-3: (equation error, iteration cap)
GAVE_LIMITS = {"gave-a": (1e-3, 200), "gave-b": (5e-2, 100), "gave-c": (1e-8, 10)}


def _cli_base():
    """A 400 x 400 strongly convex-concave saddle scaled like criterion 11
    (entries divided by sqrt(n) so the operator norms stay O(1), constraint
    rows twice as strong so the multiplier converges in about 1,000 outer
    iterations), with y in the nonnegative orthant and 20 joint constraint rows."""
    rng = np.random.default_rng(CLI_BASE_SEED)
    n, q = CLI_N, CLI_Q
    a = 1.0 + rng.random()
    b = 1.0 + rng.random()
    K = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A = 0.3 * rng.standard_normal((q, n)) / np.sqrt(n)
    B = 1.0 * rng.standard_normal((q, n)) / np.sqrt(n)
    c = 0.4 * rng.standard_normal(q)
    return a, b, K, A, B, c


def prepare_cli(seed, workdir):
    """Write the saddle as K.mtx (coordinate), A.csv, B.mtx (array), c.csv and
    problem.json, plus run.json with step sizes 0.9/L_theta, 0.9/L_h, the
    feasibility projection every outer step and the start (ones, carried into
    the seeded coordinates). x is rotated, y only permuted, since a
    permutation is what keeps the orthant.

    Projecting every step keeps each iterate feasible, and the point solve
    returns is the one its convergence test passed. With the default single
    final projection solve exits 0 on this instance after 765 iterations while
    the returned point's res_y is 2.1e-8 against eps 1e-8, which the output
    check below would count as a failure on every pass."""
    rng = _coords_rng(seed, 0)
    a, b, K, A, B, c = _cli_base()
    Qx, Py, R = _orthogonal(rng, CLI_N), _permutation(rng, CLI_N), _orthogonal(rng, CLI_Q)
    K, A, B, c = Qx.T @ K @ Py, R @ A @ Qx, R @ B @ Py, R @ c
    matio.write_matrix_mm(K, os.path.join(workdir, "K.mtx"))
    matio.write_matrix_csv(A, os.path.join(workdir, "A.csv"))
    matio.write_matrix_mm(B, os.path.join(workdir, "B.mtx"), layout="array")
    matio.write_matrix_csv(c[:, None], os.path.join(workdir, "c.csv"))
    manifest = {
        "K": "K.mtx", "A": "A.csv", "B": "B.mtx", "c": "c.csv",
        "g": {"kind": "scaled_sq_norm", "c": a},
        "h": {"kind": "scaled_sq_norm", "c": b},
        "phi": {"kind": "zero_function"},
        "psi": {"kind": "indicator", "cone": {"kind": "nonneg_orthant", "dim": CLI_N}},
        "mu": b,
    }
    problem_path = os.path.join(workdir, "problem.json")
    with open(problem_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    P = problem.MinimaxProblem(
        g=prox.smooth_scaled_sq_norm(a), phi=prox.prox_zero(),
        h=prox.smooth_scaled_sq_norm(b),
        psi=prox.prox_indicator(prox.ConeSpec(kind=prox.NONNEG_ORTHANT, dim=CLI_N)),
        K=K, A=A, B=B, c=c, mu=b,
    )
    C = problem.compute_constants(P)
    run = {
        "alpha_x": 0.9 / C.L_theta, "alpha_y": 0.9 / C.L_h, "inner_n": CLI_INNER,
        "outer_t": 20000, "eps": CLI_EPS, "project_each_outer": True,
        "x0": list(Qx.T @ np.ones(CLI_N)), "y0": list(Py.T @ np.ones(CLI_N)),
    }
    run_path = os.path.join(workdir, "run.json")
    with open(run_path, "w", encoding="utf-8") as fh:
        json.dump(run, fh)
    return {"dir": workdir, "problem": problem_path, "run": run_path,
            "data": (a, b, K, A, B, c), "alpha_y": run["alpha_y"]}


def _cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv), sink.getvalue()


def solve_cli(prep):
    d = prep["dir"]
    solves = [_call("cli-solve", _cli, ["solve", "--problem", prep["problem"], "--config",
                                         prep["run"], "--out", os.path.join(d, "solve")])]
    for name in GAVE_LIMITS:
        solves.append(_call(f"cli-{name}", _cli, ["gave", "--builtin", name, "--out",
                                                   os.path.join(d, name)]))
    return solves


def _read_state(prep, label):
    path = os.path.join(prep["dir"], label[len("cli-"):], "state.json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _check_cli_solve(prep, label):
    a, b, K, A, B, c = prep["data"]
    state = _read_state(prep, label)
    x, y, lam = (np.asarray(state[k]) for k in ("x", "y", "lambda"))
    reported = state["residuals"]
    L2 = 1.0 / prep["alpha_y"]
    gy = K.T @ x + B.T @ lam - b * y
    mine = (
        float(np.linalg.norm(a * x + K @ y + A.T @ lam)),
        float(np.linalg.norm(L2 * (y - np.maximum(y + gy / L2, 0.0)))),
        float(np.linalg.norm(A @ x + B @ y + c)),
    )
    rep = tuple(reported[k] for k in ("res_x", "res_y", "res_feas"))
    ok = max(rep) <= CLI_EPS and max(mine) <= CLI_EPS + CLI_RESIDUAL_SLACK
    detail = "res=({:.1e},{:.1e},{:.1e})".format(*mine)
    return state["iterations"], ok, detail, _digest(x, y, lam)


def _check_cli_gave(prep, label):
    name = label[len("cli-"):]
    state = _read_state(prep, label)
    G = apps.builtin_gave(name)
    x = np.asarray(state["x"])
    err = float(np.linalg.norm(G.A @ x + G.B @ np.abs(x) - G.b))
    tol, cap = GAVE_LIMITS[name]
    ok = err <= tol and state["iterations"] <= cap
    return state["iterations"], ok, f"error={err:.1e}", _digest(x)


def check_cli(prep, solves):
    out = []
    for label, r, _ in solves:
        if isinstance(r, Exception):
            out.append(_failed(label, r))
            continue
        code, text = r
        if code != 0:
            out.append(Outcome(label, 0, False, f"exit code {code}: {text.strip()[-200:]}", ""))
            continue
        check = _check_cli_solve if label == "cli-solve" else _check_cli_gave
        try:
            iters, ok, detail, digest = check(prep, label)
        except (OSError, KeyError, ValueError) as exc:
            out.append(Outcome(label, 0, False, f"unreadable output: {exc}", ""))
            continue
        out.append(Outcome(label, int(iters), ok, detail, digest))
    return out


WORKLOADS = {
    "saddle-batch": Workload(
        SADDLE_GENERATOR_SEED, prepare_saddle, solve_saddle, check_saddle,
        "tiny 2x2 data, so the time is per-step Python overhead in inner_ascent and prox_eval",
    ),
    "linreg-400": Workload(
        0, prepare_linreg, solve_linreg, check_linreg,
        "400-dimensional dense matvecs and the Gram solve dominate; prox does nothing",
    ),
    "glpe-cones": Workload(
        0, prepare_glpe, solve_glpe, check_glpe,
        "the run_glpe loop, cone projections and Jacobians, 126k trace records",
    ),
    "cli-manifest": Workload(
        0, prepare_cli, solve_cli, check_cli,
        "the only path through cli, matio reads and writes, and run_gave",
    ),
}

# per-solve outer iteration counts at each workload's default seed
PINNED = {
    "saddle-batch": [360, 273, 1750, 183, 1981, 2688, 3045, 607, 478, 1689,
                     286, 546, 532, 1057, 2872, 234, 286, 2926, 257, 680],
    "linreg-400": [8987],
    "glpe-cones": [115328, 1946, 8467],
    "cli-manifest": [985, 183, 53, 1],
}
