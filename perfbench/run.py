#!/usr/bin/env python3
"""The jointmm benchmark: time to a certified solution, per workload.

    python3 perfbench/run.py --workload saddle-batch --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

One process, one solve at a time (a closed loop with a single client). BLAS
threads are pinned before numpy is imported (--blas-threads, default 1).

A run sets the workload up SETUP_REPEATS times (setup_s is the median), then
repeats the whole workload, one pass after another, for about --seconds
(at least one pass, and the last ends less than half a pass past the
window); solve_s is the median pass time. Times are in reference seconds:
wall time scaled by the machine's speed, which a probe samples in this
process while it measures (see speed.py); the report gives wall time too. Every
solve's output is checked after its pass, outside the timed region. With
--trace 1 the run then sets up and solves once more with every public
function of the package wrapped in a span (see tracing.py) and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything above it is a readable report. The
full result, with the run facts, goes to .perfbench_out/ in the checkout, and
the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("saddle-batch", "linreg-400", "glpe-cones", "cli-manifest")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import jointmm; dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; p = speed.SpeedProbe(); p.sample(); print(dt, p.probe_s[0])"
)

END_TO_END = (
    ("solve_s", "s"), ("us_per_outer", "us"), ("outer_iters", "count"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# span name -> reported fields: calls, s (inclusive), self_s, bytes
PER_FUNCTION = {
    "numerics.spd_solve_factored": ("calls", "self_s"),
    "numerics.spd_factor": ("calls",),
    "numerics.operator_norm": ("calls", "s"),
    "problem.residuals": ("calls", "self_s"),
    "problem.recover_multiplier": ("calls", "self_s"),
    "problem.gram_solve": ("calls",),
    "problem.load_problem_manifest": ("s",),
    "prox.prox_eval": ("calls", "self_s"),
    "prox.project_cone": ("calls", "self_s"),
    "prox.projection_jacobian": ("calls", "self_s"),
    "solver.inner_ascent": ("calls", "self_s"),
    "solver.outer_step": ("calls", "self_s"),
    "solver.project_feasible": ("calls", "self_s"),
    "solver.run_pgmsad": ("self_s",),
    "solver.write_trace_csv": ("s", "bytes"),
    "solver.write_state_json": ("s",),
    "apps.run_glpe": ("self_s",),
    "apps.run_linreg": ("self_s",),
    "apps.run_gave": ("s",),
    "apps.make_linreg": ("s",),
    "matio.read_matrix": ("calls", "s", "bytes"),
    "matio.write_matrix_mm": ("s", "bytes"),
    "matio.write_matrix_csv": ("s", "bytes"),
    "cli.main": ("calls", "self_s"),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "bytes"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, help="default: the workload's stock seed")
    p.add_argument("--seconds", type=float, default=20.0, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    return p.parse_args(argv)


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples, unit):
    tail = tail_percentile(samples)
    text = f"median {statistics.median(samples):.4g} {unit}, n={len(samples)}"
    if tail is None:
        return text + ", no percentile has 10 samples above it"
    return text + f", p{tail[0]:.0f} {tail[1]:.4g} {unit}"


def import_seconds(probe):
    """Time to import jointmm (numpy included) in a fresh interpreter, in
    reference seconds: wall time scaled by a speed probe taken here just before
    and in the fresh interpreter just after."""
    import speed

    probe.sample()
    with probe.paused():
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=120,
        )
    wall, after = map(float, out.stdout.strip().splitlines()[-1].split())
    return wall, wall * speed.scale(probe.probe_s[-1], after)


def blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(args, seed):
    import hashlib

    import numpy as np

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "jointmm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "jointmm_commit": commit,
        "jointmm_src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_setting": args.blas_threads,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
    }


def timed(probe, fn, *args):
    """fn(*args), its wall time and its time in reference seconds."""
    probe.sample()
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    probe.sample()
    return result, end - start, probe.reference_seconds(start, end)


def set_up(wl, seed, workdir, probe):
    """SETUP_REPEATS timed set-ups: import in a fresh interpreter plus prepare.
    Returns the wall and reference-second samples and the last set-up's state."""
    wall, ref = [], []
    prep = None
    for i in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        imported_wall, imported_ref = import_seconds(probe)
        prep, prepare_wall, prepare_ref = timed(probe, wl.prepare, seed, d)
        wall.append(imported_wall + prepare_wall)
        ref.append(imported_ref + prepare_ref)
    return wall, ref, prep


def measure(wl, prep, seconds, probe):
    """Whole passes over the workload, at least one, as long as the next pass
    is expected to end less than half a pass past the window (in wall time).
    Returns each pass's wall and reference seconds and its checked outcomes."""
    wall, ref, passes = [], [], []
    began = time.perf_counter()
    while not wall or time.perf_counter() - began + statistics.median(wall) / 2 < seconds:
        solves, pass_wall, pass_ref = timed(probe, wl.solve, prep)
        wall.append(pass_wall)
        ref.append(pass_ref)
        passes.append((wl.check(prep, solves), [dt for _, _, dt in solves]))
        del solves
    return wall, ref, passes


def traced_pass(wl, seed, workdir):
    import tracing

    tracer = tracing.Tracer()
    d = os.path.join(workdir, "traced")
    os.makedirs(d)
    with tracer.patch():
        with tracer.span("bench.setup"):
            prep = wl.prepare(seed, d)
        with tracer.span("bench.solve"):
            solves = wl.solve(prep)
    return tracer, (wl.check(prep, solves), [dt for _, _, dt in solves])


def per_layer_metrics(tracer, untraced_solve_s):
    import tracing

    by_name, by_root_layer, roots = tracer.rollup()
    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    for name, fields in PER_FUNCTION.items():
        calls, incl, self_s = by_name.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": incl, "self_s": self_s, "bytes": tracer.file_bytes[name]}
        for field in fields:
            put(f"{name}.{field}", values[field], FIELD_UNITS[field])
    grams = by_name.get("problem.gram_solve", (0,))[0]
    factors = by_name.get("numerics.spd_factor", (0,))[0]
    put("problem.gram_solve.per_factor", grams / factors if factors else 0.0, "ratio")
    put("apps.trace_records", sum(tracer.trace_records[n] for n in
                                  ("apps.run_glpe", "apps.run_linreg", "apps.run_gave")), "count")
    put("solver.trace_records", tracer.trace_records["solver.run_pgmsad"], "count")
    for phase in ("setup", "solve"):
        for layer in tracing.LAYERS:
            seconds = by_root_layer.get((f"bench.{phase}", layer), 0.0)
            put(f"layer.{layer}.{phase}_self_s", seconds, "s")
    put("trace.setup_s", roots["bench.setup"], "s")
    put("trace.solve_s", roots["bench.solve"], "s")
    put("trace.overhead_s", roots["bench.solve"] - untraced_solve_s, "s")
    put("trace.spans", len(tracer.start), "count")
    return metrics


def verdict(wl_name, seed, default_seed, passes):
    """Problems with the outputs: failed checks, counts that differ between
    passes, and counts that differ from the pinned stock counts."""
    import workloads

    problems = [f"{o.label}: {o.detail}" for outcomes, _ in passes for o in outcomes if not o.ok]
    counts = [[o.iters for o in outcomes] for outcomes, _ in passes]
    if any(c != counts[0] for c in counts):
        problems.append(f"outer iteration counts differ between passes: {counts}")
    pinned = workloads.PINNED.get(wl_name)
    if seed == default_seed and pinned is not None and counts[0] != pinned:
        problems.append(f"stock counts {counts[0]} differ from the pinned {pinned}")
    return problems


def run_workload(args):
    sys.path.insert(0, SRC)
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    facts = run_facts(args, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        with speed.SpeedProbe() as probe:
            setup_wall, setup_ref, prep = set_up(wl, seed, workdir, probe)
            pass_wall, pass_ref, passes = measure(wl, prep, args.seconds, probe)
        del prep
        tracer = None
        if args.trace:
            tracer, traced = traced_pass(wl, seed, workdir)
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solve_s = statistics.median(pass_ref)
    outer_iters = sum(o.iters for o in passes[0][0])
    end_to_end = {
        "solve_s": solve_s,
        "us_per_outer": 1e6 * solve_s / outer_iters if outer_iters else 0.0,
        "outer_iters": outer_iters,
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(len(outcomes) for outcomes, _ in passes)
    failed = sum(not o.ok for outcomes, _ in passes for o in outcomes)
    problems = verdict(args.workload, seed, wl.default_seed, passes)

    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    wall_solve_s = statistics.median(pass_wall)
    layer = per_layer_metrics(tracer, wall_solve_s) if tracer is not None else None

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"blas threads {args.blas_threads} (in effect: {facts['blas_threads_in_effect']})")
    print(f"  why: {wl.why}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {end_to_end[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<14} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} solves)")
    print(f"  solve_s over passes:  {describe(pass_ref, 's')} (reference seconds)")
    print(f"  wall time of passes:  {describe(pass_wall, 's')}")
    single = [dt for _, dts in passes[:len(pass_wall)] for dt in dts]
    print(f"  wall time of solves:  {describe(single, 's')}")
    print(f"  setup_s over set-ups: {describe(setup_ref, 's')} (reference seconds)")
    print(f"  wall time of set-ups: {describe(setup_wall, 's')}")
    print(f"  speed probe:          {describe([1e3 * p for p in probe.probe_s], 'ms')}, "
          f"reference {1e3 * speed.NOMINAL_PROBE_S:g} ms")
    if layer is not None:
        print("  per layer (one traced set-up and pass):")
        for key, entry in layer.items():
            print(f"    {key:<40} {entry['value']:>14.6g} {entry['unit']}")
    for line in problems:
        print(f"  CHECK FAILED {line}")
    print(f"  facts: {json.dumps(facts)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}-blas{args.blas_threads}"
    record = {
        "facts": facts,
        "end_to_end": metrics,
        "per_layer": layer,
        "failed_frac": failed / attempted,
        "pass_s": pass_ref,
        "pass_wall_s": pass_wall,
        "setup_s_samples": setup_ref,
        "setup_wall_s_samples": setup_wall,
        "probe_s": probe.probe_s,
        "problems": problems,
        "outcomes": [[o._asdict() for o in outcomes] for outcomes, _ in passes],
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(os.path.join(OUT_DIR, f"spans-{stem}.npz"))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer if layer is not None else metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another, then a summary."""
    rows, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--blas-threads", str(args.blas_threads)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((name, result))
        for key, entry in result["metrics"].items():
            metrics[f"{name}.{key}"] = entry
    if not args.trace:
        names = [n for n, _ in END_TO_END]
        print("summary " + " ".join(f"{n:>14}" for n in ["workload"] + names + ["failed_frac"]))
        for name, result in rows:
            cells = [f"{result['metrics'][n]['value']:>14.6g}" for n in names]
            frac = result["failed"] / result["attempted"]
            print("        " + f"{name:>14} " + " ".join(cells) + f" {frac:>14.6g}")
        print("        " + f"{'unit':>14} " + " ".join(f"{u:>14}" for _, u in END_TO_END)
              + f" {'ratio':>14}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"error: --blas-threads must be between 1 and {nproc}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "jointmm", "__init__.py")):
        print(f"error: no jointmm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy loads it
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
