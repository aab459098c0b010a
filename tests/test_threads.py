"""The same bits at 1 and 2 BLAS threads: each run below goes in a fresh
interpreter with OPENBLAS_NUM_THREADS set, and the digests of the results
must agree. The runs are large enough that a plain product of a batch, or
of the Gram matrix, would be split among the threads; the GLPE runs compare
their step counts too (the seeded one its pattern count as well), and the
linreg, traced GLPE and structured PGmsAD runs their trace rows, elapsed_s
aside."""

import json
import os
import subprocess
import sys

import pytest

import jointmm

RUNS = r"""
import hashlib, json
import numpy as np
from jointmm import problem
from jointmm.apps import (GlpeConfig, GlpeInstance, builtin_glpe, make_linreg, run_glpe,
                         run_linreg)
from jointmm.problem import MinimaxProblem
from jointmm.prox import NONNEG_ORTHANT, ConeSpec, SmoothOracle, prox_zero
from jointmm.solver import SolverConfig, run_pgmsad


def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


out = {}
# the affine path of x, whose maps are built from 401 x 400 batches: 20
# steps inside one block, and 150 steps over two full blocks of 64, whose
# residual rows each come from one 883 x 400 by 400 x 64 product
_, P = make_linreg(400, 400, 80, seed=3)
for cap, name in ((20, "run_linreg"), (150, "run_linreg_150")):
    r = run_linreg(P, SolverConfig(alpha_x=0.3, alpha_y=1.0, inner_steps=3, outer_cap=cap))
    s = r.state
    out[name] = digest(s.x, s.y, s.lam)
    # its trace rows, elapsed aside
    out[f"{name}_trace"] = digest(r.trace[:, 1:])
# the affine path of run_pgmsad at n + m + q = 256, projected every step:
# 100 steps, a block of 64 and one of 36 filled at two levels. The step map
# grows the iterates about 10x a step, so they overflow by step 150
rng = np.random.default_rng(7)
n, q = 110, 36
P = MinimaxProblem(g=SmoothOracle(1.0), phi=prox_zero(), h=SmoothOracle(1.0), psi=prox_zero(),
                   K=rng.standard_normal((n, n)) / n**0.5, A=rng.standard_normal((q, n)),
                   B=rng.standard_normal((q, n)), c=rng.standard_normal(q), mu=1.0)
cfg = SolverConfig(alpha_x=0.05, alpha_y=0.5, inner_steps=5, outer_cap=100,
                   project_each_outer=True, seed=1)
s = run_pgmsad(P, cfg).state
out["run_pgmsad"] = digest(s.x, s.y, s.lam)
# the Gram matrix A A^T + B B^T at q = 300, as handed to its factorization
# (the inverse np.linalg.inv takes of it is not thread-independent there)
_, P = make_linreg(400, 400, 300, seed=3)
built = []
problem.spd_factor = lambda S: built.append(S) or S
P.gram_inverse()
out["gram"] = digest(built[0])
# the stock GLPE runs, whose blocks take products with stacked powers, and
# their traces, whose structured rows take batched products
for kind in ("nonneg_orthant", "l1_norm"):
    r = run_glpe(builtin_glpe(kind), GlpeConfig(record_trace=False))
    out[f"glpe_{kind}"] = [r.iterations, digest(r.x)]
    out[f"glpe_{kind}_trace"] = digest(run_glpe(builtin_glpe(kind)).trace[:, 1:])
# the seeded orthant GLPE at n = 50 of tests/test_apps.py (seeded_orthant_glpe),
# run to eps 1e-10: its stacked powers, 250 x 50, are aligned arrays
n = 50
rng = np.random.default_rng(7)
A = rng.standard_normal((n, n)) + 3 * np.eye(n)
B = rng.standard_normal((n, n)) / np.sqrt(n)
x_star = rng.standard_normal(n)
G = GlpeInstance(A=A, B=B, b=A @ x_star + B @ np.maximum(x_star, 0.0),
                 cone=ConeSpec(kind=NONNEG_ORTHANT, dim=n))
r = run_glpe(G, GlpeConfig(alpha=1 / np.linalg.norm(A + B, 2) ** 2, eps=1e-10,
                           record_trace=False))
out["glpe_seeded_50"] = [r.iterations, r.patterns, digest(r.x)]
# the structured steps of tests/test_solver.py's cli-like pin, projected
# every step (q = 8, where the Gram inverse is thread-stable), with its trace
from oracles import cli_like_saddle
r = run_pgmsad(*cli_like_saddle(True))
out["pgmsad_structured"] = [r.state.t, digest(r.state.x, r.state.y, r.state.lam,
                                               np.ascontiguousarray(r.trace[:, 1:4]))]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def digests():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("fewer than 2 CPUs: OpenBLAS would run one thread either way")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jointmm.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", RUNS], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        out[threads] = json.loads(proc.stdout)
    return out


@pytest.mark.parametrize(
    "run", ["run_linreg", "run_linreg_trace", "run_linreg_150", "run_linreg_150_trace",
            "run_pgmsad", "gram", "glpe_nonneg_orthant", "glpe_l1_norm",
            "glpe_nonneg_orthant_trace", "glpe_l1_norm_trace", "glpe_seeded_50",
            "pgmsad_structured"]
)
def test_same_bits_at_one_and_two_blas_threads(digests, run):
    assert digests["1"][run] == digests["2"][run]
