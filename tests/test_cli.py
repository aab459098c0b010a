import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jointmm
from jointmm.cli import (
    BENCH_HEADER,
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_OK,
    build_parser,
    command_spec,
    main,
    resolve,
)
from jointmm.matio import write_matrix_csv


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_strict_json(out, directory):
    """The stdout of a command (a summary line or budget's report, if any)
    and the state.json it wrote to directory, if any, are JSON with no
    Infinity, -Infinity or NaN, which json.loads would otherwise accept."""
    if out:
        json.loads(out, parse_constant=_reject_constant)
    if (directory / "state.json").exists():
        json.loads((directory / "state.json").read_text(), parse_constant=_reject_constant)


def test_python_m_jointmm_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(jointmm.__file__)))
    argv = [sys.executable, "-m", "jointmm", "budget", "--n", "4", "--theta-gap", "1",
            "--beta1", "1"]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == EXIT_OK and json.loads(proc.stdout)["N"] >= 1


def test_gave_c_builtin_exits_ok(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--builtin", "gave-c", "--out", str(out)])
    assert code == EXIT_OK
    state = read_json(out / "state.json")
    assert state["app_error"] <= 1e-8
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,elapsed_s,res_x,res_y,res_feas,app_error"


def test_unknown_builtin_exits_error(tmp_path, capsys):
    code = main(["solve", "--builtin", "gave-zzz", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "gave-zzz" in capsys.readouterr().err


def test_solve_problem_manifest_huge_eps_immediate(tmp_path):
    # tiny strongly convex-concave instance; huge eps stops at iteration 0
    write_matrix_csv(np.array([[0.2]]), tmp_path / "K.csv")
    write_matrix_csv(np.array([[0.1]]), tmp_path / "A.csv")
    write_matrix_csv(np.array([[0.3]]), tmp_path / "B.csv")
    problem = {
        "K": "K.csv", "A": "A.csv", "B": "B.csv", "c": [0.0], "mu": 1.0,
        "g": {"kind": "scaled_sq_norm", "c": 1.0},
        "h": {"kind": "scaled_sq_norm", "c": 1.0},
        "phi": {"kind": "zero_function"},
        "psi": {"kind": "zero_function"},
    }
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    out = tmp_path / "run"
    code = main([
        "solve", "--problem", str(tmp_path / "problem.json"),
        "--out", str(out), "--eps", "1e12",
    ])
    assert code == EXIT_OK
    assert read_json(out / "state.json")["iterations"] == 0


def test_solve_missing_matrix_file_names_path(tmp_path, capsys):
    problem = {
        "K": "missing_matrix.csv", "A": [[1.0]], "B": [[1.0]], "c": [0.0],
        "g": {"kind": "zero"}, "h": {"kind": "zero"},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code = main(["solve", "--problem", str(path), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "missing_matrix.csv" in capsys.readouterr().err


def test_solve_huge_declared_matrix_size_exits_error(tmp_path, capsys):
    # a 10^9 x 10^9 size line asks for 8 EB, which no machine can allocate
    (tmp_path / "K.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 0.5\n"
    )
    problem = {
        "K": "K.mtx", "A": [[1.0]], "B": [[1.0]], "c": [0.0],
        "g": {"kind": "zero"}, "h": {"kind": "zero"},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "K.mtx" in err and "1000000000x1000000000" in err
    assert "Traceback" not in err


def test_solve_cap_exhausted_exits_two(tmp_path):
    write_matrix_csv(np.array([[0.2]]), tmp_path / "K.csv")
    problem = {
        "K": "K.csv", "A": [[0.1]], "B": [[0.3]], "c": [1.0], "mu": 1.0,
        "g": {"kind": "scaled_sq_norm", "c": 1.0},
        "h": {"kind": "scaled_sq_norm", "c": 1.0},
        "phi": {"kind": "zero_function"},
        "psi": {"kind": "zero_function"},
    }
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    code = main([
        "solve", "--problem", str(tmp_path / "problem.json"),
        "--out", str(tmp_path / "r"), "--eps", "1e-12",
        "--outer-t", "2", "--alpha-x", "0.05", "--alpha-y", "0.3",
    ])
    assert code == EXIT_CAP


def test_builtin_rerun_reproduces_state(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--builtin", "gave-a", "--out", str(out1)]) == EXIT_OK
    assert main(["solve", "--builtin", "gave-a", "--out", str(out2)]) == EXIT_OK
    s1, s2 = read_json(out1 / "state.json"), read_json(out2 / "state.json")
    s1.pop("wall_time_s")
    s2.pop("wall_time_s")
    assert s1 == s2


def test_linreg_command(tmp_path):
    out = tmp_path / "lr"
    code = main(["linreg", "--n", "10", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    state = read_json(out / "state.json")
    assert state["residuals"]["res_x"] <= 1e-7


def test_glpe_command(tmp_path):
    out = tmp_path / "gl"
    code = main(["glpe", "--cone", "second_order", "--out", str(out), "--eps", "1e-12"])
    assert code == EXIT_OK
    state = read_json(out / "state.json")
    assert state["app_error"] <= 1e-12
    assert 0.0 < state["rate"] < 1.0 and state["patterns"] == state["iterations"]


def test_budget_command_linreg(capsys):
    code = main(["budget", "--n", "10", "--seed", "3", "--theta-gap", "10",
                 "--beta1", "1.0", "--eps", "1e-2"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["N"] >= 1 and report["T"] >= 1
    import math

    expected_T = math.ceil(2 * report["budget_constants"]["gamma2"] * 10 / 1e-4)
    assert report["T"] == expected_T


def test_budget_eps_halving_quadruples_T(capsys):
    base = ["budget", "--n", "10", "--seed", "3", "--theta-gap", "10", "--beta1", "1.0"]
    assert main(base + ["--eps", "1e-2"]) == EXIT_OK
    t1 = json.loads(capsys.readouterr().out)["T"]
    assert main(base + ["--eps", "5e-3"]) == EXIT_OK
    t2 = json.loads(capsys.readouterr().out)["T"]
    assert t2 == pytest.approx(4 * t1, rel=1e-9)


@pytest.mark.parametrize("bound", ["--beta1", "--omega1"])
def test_budget_with_a_tiny_bound_plans_one_inner_step(capsys, bound):
    # 8 gamma1 beta1^2 underflows to 0 at beta1 = 1e-320, but its log is
    # taken as a sum of logs: N clamps to 1, and T does not read the bound
    base = ["budget", "--n", "4", "--theta-gap", "1"]
    assert main(base + [bound, "1"]) == EXIT_OK
    stock = json.loads(capsys.readouterr().out)
    assert main(base + [bound, "1e-320"]) == EXIT_OK
    tiny = json.loads(capsys.readouterr().out)
    assert (tiny["N"], tiny["T"]) == (1, stock["T"]) and stock["N"] > 1


def test_budget_relaxed_mode_exits_error(tmp_path, capsys):
    problem = {
        "K": [[1.0]], "A": [[1.0]], "B": [[1.0]], "c": [0.0], "mu": 0.0,
        "g": {"kind": "zero"}, "h": {"kind": "zero"},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code = main(["budget", "--problem", str(path), "--theta-gap", "1", "--beta1", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "relaxed" in err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flags, manifest, named",
    [
        ({"--eps": "nan"}, {}, "eps"),
        ({"--eps": "inf"}, {}, "eps"),
        ({"--eps": "1e-200"}, {}, "overflows"),
        ({"--beta1": "0"}, {}, "beta1"),
        ({"--omega1": "-1", "--beta1": None}, {}, "omega1"),
        ({"--theta-gap": "nan"}, {}, "theta_gap"),
        ({"--theta-gap": "inf"}, {}, "theta_gap"),
        ({"--theta-gap": "-1"}, {}, "theta_gap"),
        ({}, {"alpha_x": "abc"}, "alpha_x"),
        ({}, {"alpha_y": -1.0}, "alpha_y"),
        ({"--alpha-x": "1e-160"}, {}, "alpha_x 1e-160"),
        ({"--alpha-y": "1e-160"}, {}, "alpha_y 1e-160"),
        ({"--alpha-y": "1e-320"}, {}, "alpha_y 1e-320"),
    ],
)
def test_budget_bad_settings_exit_error(tmp_path, capsys, flags, manifest, named):
    # flags override the base flags; None drops one
    flags = {"--n": "20", "--theta-gap": "1", "--beta1": "1", **flags}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(manifest))
    argv = ["budget", "--config", str(cfg)]
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, value]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_budget_nonfinite_mu_exits_error(tmp_path, capsys, mu):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_manifest_2x2(mu=mu)))
    code = main(["budget", "--problem", str(path), "--theta-gap", "1", "--beta1", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "mu must be >= 0 and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, manifest, named",
    [(["solve", "--builtin", "gave-a"], {"alpha_x": True, "alpha_y": True},
      "step size alpha_x must be positive and finite, got True"),
     (["glpe"], {"eps": True}, "eps must be >= 0, got True")],
    ids=["gave-a-steps", "glpe-eps"],
)
def test_bool_settings_exit_error(tmp_path, capsys, argv, manifest, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(manifest))
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_bench_empty_run_list(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [], "out": str(tmp_path)}))
    code = main(["bench", "--config", str(cfg)])
    assert code == EXIT_OK
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines == [BENCH_HEADER]


@pytest.mark.parametrize("runs", [5, "a.json", [1, 2], {"name": "c"}])
def test_bench_runs_not_a_list_of_objects_exits_error(tmp_path, capsys, runs):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": runs, "out": str(tmp_path)}))
    code = main(["bench", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: runs must be a list")
    assert not (tmp_path / "bench.csv").exists()


def test_bench_runs_and_failure_marking(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "out": str(tmp_path),
                "runs": [
                    {"name": "c", "kind": "gave", "builtin": "gave-c"},
                    {"name": "lr", "kind": "linreg", "n": 10, "seed": 3},
                    {"name": "broken", "kind": "gave", "builtin": "no-such"},
                    {"name": "odd", "kind": "nope"},
                ],
            }
        )
    )
    code = main(["bench", "--config", str(cfg)])
    assert code == EXIT_CAP
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 5
    assert "failed" in lines[3]
    assert lines[4].startswith("odd,") and "failed: unknown run kind 'nope'" in lines[4]
    assert lines[1].split(",")[-1] == "ok"


def test_bench_parallel_workers(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "out": str(tmp_path),
                "runs": [
                    {"name": "c1", "kind": "gave", "builtin": "gave-c"},
                    {"name": "c2", "kind": "gave", "builtin": "gave-c"},
                ],
            }
        )
    )
    # two runs of the same rows agree, apart from wall_time_s
    assert main(["bench", "--config", str(cfg)]) == EXIT_OK
    first = (tmp_path / "bench.csv").read_text().splitlines()
    assert main(["bench", "--config", str(cfg)]) == EXIT_OK
    second = (tmp_path / "bench.csv").read_text().splitlines()
    assert len(first) == 3

    def without_wall_time(lines):
        wall = BENCH_HEADER.split(",").index("wall_time_s")
        return [[v for i, v in enumerate(line.split(",")) if i != wall] for line in lines]

    assert without_wall_time(first) == without_wall_time(second)


def test_linreg_wrong_length_start_exits_error(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"n": 10, "x0": [1.0, 2.0], "out": str(tmp_path)}))
    assert main(["linreg", "--config", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: x0 must have length 10") and "Traceback" not in err


def test_linreg_given_lambda0_exits_error(tmp_path, capsys):
    # linreg recovers the multiplier, so a start lambda0 (here of the wrong
    # length too: q = 2) would be ignored
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"n": 10, "lambda0": [1, 2, 3, 4, 5, 6, 7], "out": str(tmp_path)}))
    assert main(["linreg", "--config", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: lambda0 cannot be given") and "Traceback" not in err


def test_solve_exits_cap_when_final_projection_leaves_tolerance(tmp_path):
    # the loop meets eps 1e-8 after 176 steps, but the feasibility projection
    # of the returned point moves res_y to 1.6e-8: converged must say no
    from jointmm import MinimaxProblem, compute_constants
    from jointmm.prox import ConeSpec, prox_indicator, prox_zero, smooth_scaled_sq_norm

    rng = np.random.default_rng(23)
    a, b = 1 + rng.random(), 1 + rng.random()
    K = 0.3 * rng.standard_normal((2, 3))
    A = 0.3 * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 3))
    c = 0.4 * rng.standard_normal(2)
    orthant = {"kind": "nonneg_orthant", "dim": 3}
    problem = {
        "K": K.tolist(), "A": A.tolist(), "B": B.tolist(), "c": c.tolist(), "mu": b,
        "g": {"kind": "scaled_sq_norm", "c": a}, "h": {"kind": "scaled_sq_norm", "c": b},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "indicator", "cone": orthant},
    }
    C = compute_constants(MinimaxProblem(
        g=smooth_scaled_sq_norm(a), phi=prox_zero(), h=smooth_scaled_sq_norm(b),
        psi=prox_indicator(ConeSpec(kind="nonneg_orthant", dim=3)),
        K=K, A=A, B=B, c=c, mu=b,
    ))
    run = {"alpha_x": 0.9 / C.L_theta, "alpha_y": 0.9 / C.L_h, "inner_n": 5,
           "outer_t": 5000, "eps": 1e-8, "x0": [1.0, 1.0], "y0": [1.0, 1.0, 1.0]}
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    (tmp_path / "run.json").write_text(json.dumps(run))
    out = tmp_path / "r"
    code = main(["solve", "--problem", str(tmp_path / "problem.json"),
                 "--config", str(tmp_path / "run.json"), "--out", str(out)])
    state = read_json(out / "state.json")
    assert state["iterations"] == 176
    assert state["residuals"]["res_y"] > 1e-8
    assert code == EXIT_CAP


def test_gave_invalid_overrides_exit_error(tmp_path, capsys):
    code = main(["gave", "--alpha-x", "0", "--penalty", "-1", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "alpha_x" in capsys.readouterr().err
    assert not (tmp_path / "state.json").exists()


def test_nan_step_size_exits_error(tmp_path, capsys):
    code = main(["solve", "--builtin", "gave-a", "--alpha-y", "nan", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "step size alpha_y" in capsys.readouterr().err


def test_glpe_fractional_inner_n_exits_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"inner_n": 2.5}))
    code = main(["glpe", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "inner_steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [("K.mtx", "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 0.2\n"),
     ("K.mtx", "%%MatrixMarket matrix coordinate real general\n1 1\n1 1 0.2\n"),
     ("K.csv", "0.2x\n")],
)
def test_solve_malformed_matrix_file_exits_error(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    problem = {
        "K": name, "A": [[0.1]], "B": [[0.3]], "c": [0.0], "mu": 1.0,
        "g": {"kind": "zero"}, "h": {"kind": "scaled_sq_norm", "c": 1.0},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    code = main(["solve", "--problem", str(tmp_path / "problem.json"), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def nested_json(key, depth):
    """A JSON object whose entry key is an empty list nested depth deep."""
    return f'{{"{key}": {"[" * depth}{"]" * depth}}}'


# nesting of 5,000 is past the recursion limit of json.load; 800 loads, and
# is then too deep for the manifest's recursive checks, or is rejected. A
# bad setting's value is shown by reprlib.repr, cut to a short line
@pytest.mark.parametrize("text, named", [
    ('{"eps": 1e-8,', "not valid JSON"),
    (nested_json("x0", 800), "x0"),
    (nested_json("x0", 5000), "nested too deeply"),
    (nested_json("eps", 800), "eps must be >= 0, got [[[[[["),
    (json.dumps({"eps": list(range(100000))}), "eps must be >= 0, got [0, 1, 2,"),
], ids=["truncated", "depth-800", "depth-5000", "eps-depth-800", "eps-long-list"])
def test_malformed_run_manifest_exits_error(tmp_path, capsys, text, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code = main(["gave", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert len(err[0]) < 200


@pytest.mark.parametrize("text, named", [
    ("{'K': [[1.0]]}", "not valid JSON"),
    (nested_json("K", 800), "nested too deeply"),
    (nested_json("K", 5000), "nested too deeply"),
], ids=["single-quotes", "depth-800", "depth-5000"])
def test_malformed_problem_manifest_exits_error(tmp_path, capsys, text, named):
    path = tmp_path / "problem.json"
    path.write_text(text)
    code = main(["solve", "--problem", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def _manifest_2x2(**changes):
    problem = {
        "K": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0, 0.0]], "B": [[0.0, 1.0]], "c": [0.0],
        "mu": 1.0, "g": {"kind": "scaled_sq_norm", "c": 1.0},
        "h": {"kind": "scaled_sq_norm", "c": 1.0},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    problem.update(changes)
    return problem


@pytest.mark.parametrize(
    "problem, named",
    [
        (_manifest_2x2(g={"kind": "linear", "b": [1.0]}), "b must have length 2, got 1"),
        (_manifest_2x2(h={"kind": "quadratic_diag", "d": [2.0]}), "d must have length 2, got 1"),
        (_manifest_2x2(g={"kind": "linear", "b": [1.0, 2.0, 3.0]}), "must have length 2, got 3"),
        (_manifest_2x2(g={"kind": "linear", "b": [1.0, float("nan")]}), "b contains nonfinite"),
        (_manifest_2x2(g={"kind": "scaled_sq_norm", "c": -1}), "d must be >= 0"),
        (_manifest_2x2(g={"kind": "scaled_sq_norm", "c": "abc"}), "malformed entry"),
        (_manifest_2x2(phi={"kind": "scaled_sq_norm", "c": "abc"}), "malformed entry"),
        (_manifest_2x2(h={"kind": "quadratic_diag", "d": ["x", 1]}), "malformed entry"),
        (_manifest_2x2(phi={"kind": "indicator", "cone": {"kind": "free", "dim": "x"}}),
         "malformed entry"),
        (_manifest_2x2(g=3), "malformed entry"),
        ([_manifest_2x2()], "must hold a JSON object"),
        (_manifest_2x2(phi={"kind": "scaled_sq_norm", "c": float("nan")}),
         "coefficient must be >= 0"),
        (_manifest_2x2(psi={"kind": "linear_shift", "v": [1.0, 2.0, 3.0]}),
         "prox term psi: shift length must be 2, got 3"),
        (_manifest_2x2(phi={"kind": "indicator", "cone": {"kind": "free", "dim": 3}}),
         "prox term phi: cone dim must be 2, got 3"),
        (_manifest_2x2(psi={"kind": "polar_indicator",
                            "cone": {"kind": "nonneg_orthant", "dim": 1}}),
         "prox term psi: cone dim must be 2, got 1"),
        (_manifest_2x2(psi={"kind": "blocks", "blocks": [
            {"op": {"kind": "zero_function"}, "dim": 1},
            {"op": {"kind": "zero_function"}, "dim": 2}]}),
         "prox term psi: block dims sum must be 2, got 3"),
        (_manifest_2x2(phi={"kind": "blocks", "blocks": [
            {"op": {"kind": "linear_shift", "v": [1.0, 2.0]}, "dim": 1},
            {"op": {"kind": "zero_function"}, "dim": 1}]}),
         "prox term phi: shift length must be 1, got 2"),
        # a bool would read as the number 1, which each of these fields accepts
        (_manifest_2x2(mu=True), "'mu' holds a boolean"),
        (_manifest_2x2(g={"kind": "scaled_sq_norm", "c": True}), "'g' holds a boolean"),
        (_manifest_2x2(psi={"kind": "blocks", "blocks": [
            {"op": {"kind": "zero_function"}, "dim": True},
            {"op": {"kind": "zero_function"}, "dim": 1}]}), "'psi' holds a boolean"),
        # float() and int() would read these as 0.5, 1.0, 1 and 1
        (_manifest_2x2(phi={"kind": "scaled_sq_norm", "c": "0.5"}), "'0.5' is not a JSON number"),
        (_manifest_2x2(g={"kind": "scaled_sq_norm", "c": "0.5"}), "'0.5' is not a JSON number"),
        (_manifest_2x2(mu="1"), "'1' is not a JSON number"),
        (_manifest_2x2(phi={"kind": "indicator", "cone": {"kind": "free", "dim": 1.9}}),
         "1.9 is not a JSON integer"),
        (_manifest_2x2(psi={"kind": "blocks", "blocks": [
            {"op": {"kind": "zero_function"}, "dim": "1"},
            {"op": {"kind": "zero_function"}, "dim": 1}]}), "'1' is not a JSON integer"),
        # np.asarray(..., dtype=float) would read these strings as numbers too
        (_manifest_2x2(K=[["1", "0"], ["0", "1"]]), "'1' is not a JSON number"),
        (_manifest_2x2(A=[[1.0, "0"]]), "'0' is not a JSON number"),
        (_manifest_2x2(B=[[0.0, "1"]]), "'1' is not a JSON number"),
        (_manifest_2x2(c=["0.5"]), "'0.5' is not a JSON number"),
        (_manifest_2x2(g={"kind": "linear", "b": ["0.5", "1"]}), "'0.5' is not a JSON number"),
        (_manifest_2x2(h={"kind": "quadratic_diag", "d": "2"}), "'2' is not a JSON number"),
        (_manifest_2x2(h={"kind": "quadratic_diag", "d": [2.0, "2"]}), "'2' is not a JSON number"),
        (_manifest_2x2(psi={"kind": "linear_shift", "v": [1.0, "2"]}), "'2' is not a JSON number"),
        (_manifest_2x2(phi={"kind": "indicator", "cone": {
            "kind": "box", "dim": 2, "lower": ["0", "0"], "upper": [1, 1]}}),
         "'0' is not a JSON number"),
        (_manifest_2x2(phi={"kind": "indicator", "cone": {
            "kind": "box", "dim": 2, "lower": [0, 0], "upper": [1, "1"]}}),
         "'1' is not a JSON number"),
        (_manifest_2x2(K=[[1.0, 0.0], [0.0, None]]), "None is not a JSON number"),
    ],
)
def test_bad_problem_manifest_terms_exit_error(tmp_path, capsys, problem, named):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "run")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_solve_glpe_paper_builtin_runs_the_glpe_kind(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--builtin", "glpe-paper", "--cone", "l1_norm", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["instance"] == "glpe-paper/l1_norm" and summary["iterations"] == 8467
    assert read_json(out / "state.json")["iterations"] == 8467


def test_glpe_command_and_bench_spec_share_stock_settings():
    args = build_parser().parse_args(["glpe"])
    from_command = resolve("glpe", command_spec(args)).config
    from_bench = resolve("glpe", {"kind": "glpe"}).config
    assert from_command == from_bench
    assert from_command.eps == 1e-13


def test_bench_glpe_step_key_is_the_flag_name():
    assert resolve("glpe", {"kind": "glpe", "alpha_x": 0.02}).config.alpha == 0.02
    assert resolve("glpe", {"kind": "glpe", "alpha": 0.02}).config.alpha is None


@pytest.mark.parametrize(
    "command, manifest, named",
    [("linreg", {"n": "10"}, "n must be"), ("gave", {"x0": "abc"}, "x0 is not numeric"),
     ("linreg", {"y0": [1.0, "a"]}, "y0 is not numeric")],
)
def test_non_numeric_manifest_values_exit_error(tmp_path, capsys, command, manifest, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(manifest))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_ERROR
    assert named in capsys.readouterr().err


def test_budget_rank_deficient_constraints_exit_error(tmp_path, capsys):
    # the second rows of A and B are twice the first: [A B] has rank 1
    problem = {
        "K": [[1.0, 0.0], [0.0, 1.0]], "A": [[1, 0], [2, 0]], "B": [[0, 1], [0, 2]],
        "c": [0.0, 0.0], "mu": 1.0,
        "g": {"kind": "scaled_sq_norm", "c": 1.0}, "h": {"kind": "scaled_sq_norm", "c": 1.0},
        "phi": {"kind": "zero_function"}, "psi": {"kind": "zero_function"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code = main(["budget", "--problem", str(path), "--theta-gap", "1", "--beta1", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "full row rank" in err and "Traceback" not in err


def test_config_that_is_a_directory_exits_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_out_that_is_an_existing_file_exits_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["gave", "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, named",
    [
        # no Richardson sweeps: x would never move over the 200 steps
        (["glpe", "--inner-n", "0", "--outer-t", "200"], "inner_steps must be at least 1"),
        # K alone would take 8 TB: the allocation is refused at once
        (["linreg", "--n", "1000000"], "n = 1000000, m = 1000000, p = 200000 is too large"),
        # past the largest array numpy's generator draws (its ValueError)
        (["linreg", "--n", "100000000000000", "--m", "100000000000000", "--p", "2"],
         "n = 100000000000000, m = 100000000000000, p = 2 is too large"),
    ],
)
def test_settings_that_cannot_run_exit_error(tmp_path, capsys, argv, named):
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["glpe", "--cone", "bogus"], "argument --cone: invalid choice: 'bogus'"),
        (["glpe", "--bogus"], "unrecognized arguments: --bogus"),
        (["glpe", "--eps", "x"], "argument --eps: invalid float value: 'x'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["choice", "flag", "type", "no-command"],
)
def test_usage_errors_exit_error_not_the_cap_code(capsys, argv, named):
    # argparse alone exits 2, which reads as an exhausted iteration cap
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: jointmm") and named in err and "Traceback" not in err


def test_help_still_exits_ok(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["glpe", "--help"])
    assert exit_.value.code == 0 and "--cone" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, manifest, named",
    [
        (["glpe", "--penalty", "3"], None, "glpe runs do not read 'penalty'"),
        (["gave", "--seed", "7", "--cone", "l1_norm", "--n", "4"], None,
         "gave runs do not read 'cone', 'n', 'seed'"),
        # the flag is --inner-n: inner_steps is the config field it sets
        (["linreg"], {"inner_steps": 50}, "linreg runs do not read 'inner_steps'"),
        (["solve", "--builtin", "glpe-paper"], {"lambda0": [1.0]},
         "glpe runs do not read 'lambda0'"),
        (["solve", "--builtin", "gave-a", "--n", "4"], None, "gave runs do not read 'n'"),
        (["budget", "--n", "10", "--theta-gap", "10", "--beta1", "1", "--cone", "l1_norm",
          "--penalty", "3", "--outer-t", "5"], None,
         "budget runs do not read 'cone', 'outer_t', 'penalty'"),
        (["bench", "--penalty", "3", "--alpha-x", "9", "--n", "4"], {"runs": []},
         "bench runs do not read 'alpha_x', 'n', 'penalty'"),
        # budget writes no files; kind and name are read in bench rows only
        (["budget", "--n", "10", "--theta-gap", "10", "--beta1", "1"], None,
         "budget runs do not read 'out'"),
        (["gave"], {"kind": "glpe"}, "gave runs do not read 'kind'"),
        (["glpe", "--eps", "1e-3"], {"name": "g"}, "glpe runs do not read 'name'"),
        # z steps at alpha_y: there is no alpha_z setting
        (["gave"], {"alpha_z": 0.05}, "gave runs do not read 'alpha_z'"),
    ],
    ids=["glpe-penalty", "gave-glpe-keys", "linreg-field-name", "glpe-redirect", "gave-redirect",
         "budget-keys", "bench-keys", "budget-out", "gave-kind", "glpe-name", "gave-alpha-z"],
)
def test_settings_the_run_kind_does_not_read_exit_error(tmp_path, capsys, argv, manifest, named):
    if manifest is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(manifest))
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "run" / "state.json").exists()


def test_unread_out_creates_no_directory(tmp_path, capsys):
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"kind": "glpe"}))
    for argv in (["budget", "--n", "10", "--theta-gap", "10", "--beta1", "1"],
                 ["gave", "--config", str(cfg)]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_bench_rows_do_not_read_out(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"out": str(tmp_path), "runs": [
        {"name": "c", "kind": "gave", "builtin": "gave-c", "out": str(tmp_path / "c")},
    ]}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_CAP
    line = (tmp_path / "bench.csv").read_text().splitlines()[1]
    assert line.startswith("c,") and line.endswith("failed: gave runs do not read 'out'")


def test_perfbench_run_manifest_keys_still_load(tmp_path, capsys):
    # the keys of the run.json that perfbench's cli-manifest workload writes
    problem, cfg = tmp_path / "problem.json", tmp_path / "run.json"
    problem.write_text(json.dumps(_manifest_2x2()))
    cfg.write_text(json.dumps({"alpha_x": 0.2, "alpha_y": 0.3, "inner_n": 4, "outer_t": 7,
                               "eps": 1e-30, "project_each_outer": True,
                               "x0": [1.0, 2.0], "y0": [3.0, 4.0]}))
    argv = ["solve", "--problem", str(problem), "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == EXIT_CAP
    assert json.loads(capsys.readouterr().out)["iterations"] == 7


def test_bench_rows_with_keys_their_kind_does_not_read_fail(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"out": str(tmp_path), "runs": [
        {"name": "c", "kind": "gave", "builtin": "gave-c", "outer_t": 50},
        {"name": "odd", "kind": "gave", "builtin": "gave-c", "cone": "l1_norm"},
    ]}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_CAP
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[1].startswith("c,") and lines[1].endswith(",ok")
    assert lines[2].startswith("odd,") and lines[2].endswith("failed: gave runs do not read 'cone'")


# each command with the float flags it reads; the runs stop after 20 steps
GRID_COMMANDS = [
    (["solve", "--builtin", "gave-b", "--outer-t", "20"],
     ["--eps", "--alpha-x", "--alpha-y", "--penalty"]),
    (["gave", "--outer-t", "20"], ["--eps", "--alpha-x", "--alpha-y", "--penalty"]),
    (["glpe", "--outer-t", "20"], ["--eps", "--alpha-x"]),
    (["linreg", "--n", "4", "--outer-t", "20"], ["--eps", "--alpha-x", "--alpha-y"]),
    (["budget", "--n", "4", "--theta-gap", "1", "--beta1", "1"],
     ["--eps", "--alpha-x", "--alpha-y", "--beta1", "--theta-gap"]),
]
GRID_VALUES = ["0", "-1", "1e-320", "1e-160", "1e160", "1e308", "nan", "inf"]


@pytest.mark.parametrize("cap", [[], ["--outer-t", "0"]], ids=["own-cap", "outer-t-0"])
@pytest.mark.parametrize("argv", [
    [*command, flag, value] for command, flags in GRID_COMMANDS
    for flag in flags for value in GRID_VALUES
], ids=" ".join)
def test_float_flags_exit_with_a_code_or_one_error_line(tmp_path, capsys, argv, cap):
    # a later flag wins, so the cap overrides the command's own --outer-t;
    # a warning fails the test (filterwarnings = error)
    if argv[0] != "budget":
        argv = [*argv, "--out", str(tmp_path)]
    code = main([*argv, *cap])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_CAP)
    err = err.splitlines()
    assert err == [] or (len(err) == 1 and err[0].startswith("error:"))
    assert_strict_json(out, tmp_path)


# the integer flags on 0, -1 and 2**63; --inner-n 2**63 would run that many
# sweeps per step, and --outer-t 2**63 runs each command to its own stop
INT_GRID = [(flag, value) for flag in ["--inner-n", "--outer-t", "--seed", "--n", "--m", "--p"]
            for value in ["0", "-1", str(2**63)] if (flag, value) != ("--inner-n", str(2**63))]


@pytest.mark.parametrize("argv", [
    [*command, flag, value] for command, _ in GRID_COMMANDS for flag, value in INT_GRID
], ids=" ".join)
def test_int_flags_exit_with_a_code_or_one_error_line(tmp_path, capsys, argv):
    if argv[0] != "budget":
        argv = [*argv, "--out", str(tmp_path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_CAP)
    err = err.splitlines()
    assert err == [] or (len(err) == 1 and err[0].startswith("error:"))
    assert_strict_json(out, tmp_path)
