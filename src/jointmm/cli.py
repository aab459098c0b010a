"""Command-line interface: load instances, run solvers, emit traces and reports.

Commands: solve, gave, glpe, linreg, budget, bench. Settings come from an
optional JSON run manifest (--config) with command-line flags taking
precedence. Traces are CSV with a frozen header; final states and reports
are JSON. Exit codes: 0 on success/stationarity, 2 when the iteration cap
was exhausted before the target, 1 on configuration or data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import apps
from .errors import ConfigurationError, JointmmError
from .problem import (
    compute_budget_constants,
    compute_constants,
    load_json_object,
    load_problem_manifest,
)
from .solver import (
    SolverConfig,
    check_settings,
    plan_budget,
    run_pgmsad,
    write_state_json,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP = 2


def command_spec(args):
    """The run spec of a command: its manifest entries, overridden by the flags given."""
    spec = {} if args.config is None else load_json_object(args.config, "run manifest")
    spec.update((key, val) for key, val in vars(args).items() if val is not None)
    return spec


# stock settings of each run kind, shared by its command and by bench
STOCK = {
    "solve": lambda spec: SolverConfig(
        alpha_x=0.1, alpha_y=0.1, inner_steps=5, outer_cap=1000, eps=1e-8
    ),
    "linreg": lambda spec: SolverConfig(
        alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=200000, eps=1e-8
    ),
    "gave": lambda spec: apps.builtin_gave_config(spec.get("builtin", "gave-a")),
    "glpe": lambda spec: apps.GlpeConfig(),
}

# run-spec key (the flag name; x0, y0, z0, lambda0 from manifests) -> config field
SPEC_FIELDS = {
    "alpha_x": "alpha_x",
    "alpha_y": "alpha_y",
    "penalty": "penalty",
    "inner_n": "inner_steps",
    "outer_t": "outer_cap",
    "eps": "eps",
    "seed": "seed",
    "project_each_outer": "project_each_outer",
    "trace": "record_trace",
    "x0": "x0",
    "y0": "y0",
    "z0": "z0",
    "lambda0": "lambda0",
}

# spec keys read besides a kind's settings and its SPEC_EXTRA (the keys of its
# instance): by every command (the command line's own keys), by the commands
# that run a kind and write its files to out, and by a bench row (its name
# and kind; bench writes its report to its own out)
SPEC_READ = {"command", "func", "config"}
RUN_READ = SPEC_READ | {"out"}
ROW_READ = {"name", "kind"}
SPEC_EXTRA = dict(solve={"problem"}, linreg={"n", "m", "p"}, gave={"builtin"}, glpe={"cone"},
                  budget={"problem", "n", "m", "p", "seed", "alpha_x", "alpha_y", "eps",
                          "beta1", "omega1", "theta_gap"}, bench={"runs", "report", "out"})


class RunPlan(NamedTuple):
    config: object
    solve: Callable  # () -> the driver's result
    report: Callable  # result -> (summary, state.json payload or None for write_state_json)


def _minimax_report(P):
    def report(r):
        res = r.residuals
        summary = {"n": P.n, "m": P.m, "q": P.q, "iterations": r.state.t}
        summary.update(res_x=res.res_x, res_y=res.res_y, res_feas=res.res_feas)
        return summary, None

    return report


def _app_report(name, G, r, **extra):
    """Summary and state.json payload of a gave or glpe run; the residual
    columns are the last trace row."""
    rows, cols = G.A.shape
    summary = {"instance": name, "n": cols, "m": rows, "q": cols, "iterations": r.iterations}
    if r.trace:
        last = r.trace[-1]
        summary.update(res_x=last.res_x, res_y=last.res_y, res_feas=last.res_feas)
    summary["app_error"] = r.error
    state = {"instance": name, "x": [float(v) for v in r.x], **extra, "app_error": r.error}
    state.update(iterations=r.iterations, converged=r.converged)
    return summary, state


def _linreg_problem(spec, seed):
    n = spec.get("n", 10)
    check_settings({"n": n}, counts=("n",))
    _, P = apps.make_linreg(n, spec.get("m", n), spec.get("p", max(1, n // 5)), seed)
    return P


def spec_fields(kind, stock):
    """Spec key -> config field, for the keys that set a field of stock, the
    kind's config (glpe's step alpha is set by alpha_x, the flag name)."""
    fields = dict(SPEC_FIELDS, alpha_x="alpha") if kind == "glpe" else SPEC_FIELDS
    names = {f.name for f in dataclasses.fields(stock)}
    return {key: field for key, field in fields.items() if field in names}


def check_spec(kind, spec, config=None, read=SPEC_READ):
    """Raise ConfigurationError naming the keys of a spec resolved to config
    (None for budget and bench) that neither its kind nor the caller (the
    keys read) reads; the settings come first, then an unread out."""
    fields = set() if config is None else spec_fields(kind, config).keys()
    unread = set(spec) - fields - read - SPEC_EXTRA[kind]
    if unread:
        names = sorted(unread, key=lambda key: (key == "out", key))
        raise ConfigurationError(f"{kind} runs do not read {', '.join(map(repr, names))}")


def resolve(kind, spec) -> RunPlan:
    """Map a run spec to its config, its solve and its report.

    The config is the kind's STOCK config with the spec's settings applied
    by dataclasses.replace, so the config's own checks run on the result.
    Keys that set no field are left to check_spec, which run and bench call.
    """
    if kind not in STOCK:
        raise ConfigurationError(f"unknown run kind {kind!r}; choose from {sorted(STOCK)}")
    stock = STOCK[kind](spec)
    fields = spec_fields(kind, stock)
    config = dataclasses.replace(
        stock, **{fields[k]: val for k, val in spec.items() if k in fields and val is not None}
    )
    if kind == "solve":
        if spec.get("problem") is None:
            raise JointmmError("solve needs --builtin or a problem manifest path")
        P = load_problem_manifest(spec["problem"])
        return RunPlan(config, lambda: run_pgmsad(P, config), _minimax_report(P))
    if kind == "linreg":
        P = _linreg_problem(spec, config.seed)
        return RunPlan(config, lambda: apps.run_linreg(P, config), _minimax_report(P))
    if kind == "gave":
        name = spec.get("builtin", "gave-a")
        G = apps.builtin_gave(name)
        return RunPlan(
            config,
            lambda: apps.run_gave(G, config),
            lambda r: _app_report(name, G, r, recovery_sign=r.recovery_sign),
        )
    cone = spec.get("cone", "nonneg_orthant")
    G = apps.builtin_glpe(cone)
    return RunPlan(
        config,
        lambda: apps.run_glpe(G, config),
        lambda r: _app_report(
            f"glpe-paper/{cone}", G, r,
            x_cone=[float(v) for v in r.x_cone], rate=r.rate, patterns=r.patterns,
        ),
    )


def run(kind, spec):
    """Resolve and solve one run spec; write trace.csv and state.json to its
    out directory, print its summary line, and return the exit code."""
    plan = resolve(kind, spec)
    check_spec(kind, spec, plan.config, RUN_READ)
    out = spec.get("out", ".")
    os.makedirs(out, exist_ok=True)
    start = time.perf_counter()
    result = plan.solve()
    wall = time.perf_counter() - start
    summary, state = plan.report(result)
    if plan.config.record_trace:
        write_trace_csv(result.trace, os.path.join(out, "trace.csv"))
    path = os.path.join(out, "state.json")
    if state is None:
        write_state_json(result.state, result.residuals, wall, path)
    else:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(dict(state, wall_time_s=wall), fh, indent=2)
            fh.write("\n")
    print(json.dumps(summary))
    return EXIT_OK if result.converged else EXIT_CAP


def cmd_run(args):
    spec = command_spec(args)
    kind = args.command
    builtin = spec.get("builtin")
    if kind == "solve" and builtin is not None:
        if builtin in apps.GAVE_BUILTINS:
            kind = "gave"
        elif builtin == "glpe-paper":
            kind = "glpe"
            del spec["builtin"]  # the glpe kind's only instance
        else:
            names = (*apps.GAVE_BUILTINS, "glpe-paper")
            raise JointmmError(f"unknown builtin {builtin!r}; choose from {names}")
    return run(kind, spec)


def cmd_budget(args):
    spec = command_spec(args)
    check_spec("budget", spec)
    if spec.get("problem") is None and spec.get("n") is None:
        raise JointmmError("budget needs a problem manifest or regression sizes (--n)")
    if spec.get("problem") is not None:
        P = load_problem_manifest(spec["problem"])
    else:
        P = _linreg_problem(spec, spec.get("seed", 0))
    if P.mu <= 0:
        raise ConfigurationError("relaxed mode (mu = 0): no smoothness constant, no budget")
    C = compute_constants(P)
    alpha_x = spec.get("alpha_x")
    alpha_y = spec.get("alpha_y")
    if alpha_x is None:
        alpha_x = 0.9 / C.L_theta
    if alpha_y is None:
        alpha_y = 0.9 / C.L_h if C.L_h > 0 else 1.0
    check_settings({"alpha_x": alpha_x, "alpha_y": alpha_y}, steps=("alpha_x", "alpha_y"))
    B = compute_budget_constants(P, C, alpha_x, alpha_y)
    B = dataclasses.replace(
        B,
        beta1=spec.get("beta1"),
        omega1=spec.get("omega1"),
        theta_gap=spec.get("theta_gap"),
    )
    eps = spec.get("eps", 1e-2)
    N, T = plan_budget(C, B, alpha_x, alpha_y, P.mu, eps)
    print(
        json.dumps(
            {
                "constants": dataclasses.asdict(C),
                "budget_constants": dataclasses.asdict(B),
                "alpha_x": alpha_x,
                "alpha_y": alpha_y,
                "eps": eps,
                "N": N,
                "T": T,
            },
            indent=2,
        )
    )
    return EXIT_OK


BENCH_HEADER = "name,n,m,q,N,T_used,wall_time_s,res_x,res_y,res_feas,app_error,status"


def _bench_one(spec):
    name = spec.get("name", spec.get("kind", "run"))
    start = time.perf_counter()
    try:
        plan = resolve(spec.get("kind"), spec)
        check_spec(spec["kind"], spec, plan.config, ROW_READ)
        result = plan.solve()
        wall = time.perf_counter() - start
        summary, _ = plan.report(result)
        return (
            name,
            summary["n"],
            summary["m"],
            summary["q"],
            plan.config.inner_steps,
            summary["iterations"],
            wall,
            *(summary.get(key, "") for key in ("res_x", "res_y", "res_feas", "app_error")),
            "ok" if result.converged else "cap",
        )
    except Exception as exc:  # noqa: BLE001 - a failed run is a row, not a crash
        wall = time.perf_counter() - start
        return (name, "", "", "", "", "", wall, "", "", "", "", f"failed: {exc}")


def cmd_bench(args):
    spec = command_spec(args)
    check_spec("bench", spec)
    runs = spec.get("runs", [])
    if not (isinstance(runs, list) and all(isinstance(entry, dict) for entry in runs)):
        raise ConfigurationError(f"runs must be a list of run objects, got {runs!r}")
    out = spec.get("out", ".")
    os.makedirs(out, exist_ok=True)
    # rows run serially: no pool beat serial by 1.2x on a 4-row bench.
    rows = [_bench_one(spec) for spec in runs]
    path = os.path.join(out, spec.get("report", "bench.csv"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(BENCH_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(path)
    failed = any(str(row[-1]).startswith("failed") for row in rows)
    return EXIT_CAP if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 as a ConfigurationError, not 2 (the cap code)."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="jointmm",
        description="solvers for minimax problems with joint linear constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("solve", cmd_run),
        ("gave", cmd_run),
        ("glpe", cmd_run),
        ("linreg", cmd_run),
        ("budget", cmd_budget),
        ("bench", cmd_bench),
    ]:
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="run manifest (JSON)")
        p.add_argument("--builtin", help="built-in instance name")
        p.add_argument("--problem", help="problem manifest path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--eps", type=float)
        p.add_argument("--alpha-x", dest="alpha_x", type=float)
        p.add_argument("--alpha-y", dest="alpha_y", type=float)
        p.add_argument("--inner-n", dest="inner_n", type=int)
        p.add_argument("--outer-t", dest="outer_t", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--penalty", type=float)
        p.add_argument("--cone", choices=["nonneg_orthant", "second_order", "l1_norm"])
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--beta1", type=float)
        p.add_argument("--omega1", type=float)
        p.add_argument("--theta-gap", dest="theta_gap", type=float)
        p.add_argument(
            "--project-each-outer",
            dest="project_each_outer",
            action="store_true",
            default=None,
        )
        trace_group = p.add_mutually_exclusive_group()
        trace_group.add_argument("--trace", dest="trace", action="store_true", default=None)
        trace_group.add_argument("--no-trace", dest="trace", action="store_false")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (JointmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
