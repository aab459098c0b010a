#!/usr/bin/env python3
"""One-off check: the stock workloads give the same counts and the same bits
whatever the BLAS thread count.

    python3 perfbench/thread_check.py [--threads 1 2]

Runs every workload once at its default seed (a single pass, no tracing) for
each thread setting, then compares, solve by solve, the outer iteration count
and a digest of the returned iterates. Also confirms each run's counts match
the pinned stock counts (run.py reports a failed check otherwise). Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own runner, for its paths and names)


def one_pass(workload, threads):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", "0.001", "--trace", "0", "--blas-threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} at {threads} threads exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    seed = lines[0].split()[3]  # "workload <name>  seed <seed>  ..."
    path = os.path.join(run.OUT_DIR, f"{workload}-seed{seed}-trace0-blas{threads}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return result["correct"], [(o["label"], o["iters"], o["digest"]) for o in record["outcomes"][0]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    args = p.parse_args(argv)
    same = True
    for workload in run.WORKLOAD_NAMES:
        results = {t: one_pass(workload, t) for t in args.threads}
        base_ok, base = results[args.threads[0]]
        for t in args.threads[1:]:
            ok, solves = results[t]
            match = solves == base
            same &= match and ok and base_ok
            counts = [iters for _, iters, _ in solves]
            print(f"{workload:<14} threads {args.threads[0]} vs {t}: "
                  f"{'identical' if match else 'DIFFERENT'} counts and digests "
                  f"(pinned counts {'met' if ok and base_ok else 'NOT met'}), counts {counts}")
            if not match:
                print(f"  {args.threads[0]} threads: {base}\n  {t} threads: {solves}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
