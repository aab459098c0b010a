"""Minimax problem model, smoothness/curvature constants, and stationarity residuals.

The problem is

    min_x max_y  phi(x) + g(x) + x^T K y - h(y) - psi(y)
    subject to   A x + B y + c = 0,

with g, h smooth convex, phi, psi proper closed convex accessed through
their prox mappings, and mu >= 0 the strong-convexity modulus of h + psi.
A Lagrange multiplier lambda turns the constraint into the smooth coupling

    f(x, y, lambda) = g(x) + x^T K y - h(y) + <lambda, A x + B y + c>,

and stationarity is certified by three gradient-mapping residuals: the
x-block (prox of phi against grad_x f), the y-block (prox of psi against
grad_y f, ascent sign), and the plain constraint residual.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matio
from .errors import ConfigurationError
from .numerics import (
    apply,
    as_matrix,
    as_vector,
    ascent_coefficients,
    json_array,
    json_number,
    norm2,
    operator_norm,
    spd_factor,
    spd_solve_factored,
)
from .prox import (
    PROX_ZERO,
    ProxOperator,
    SmoothOracle,
    check_prox_dim,
    cone_from_json,
    prox_blocks,
    prox_eval,
    prox_indicator,
    prox_linear_shift,
    prox_polar_indicator,
    prox_scaled_sq_norm,
    prox_zero,
    smooth_linear,
    smooth_quadratic_diag,
    smooth_scaled_sq_norm,
    smooth_zero,
)


@dataclass
class MinimaxProblem:
    """A full problem instance with oracles, matrices, and the modulus mu.

    Shapes: K is n x m, A is q x n, B is q x m, c has length q. mu may be 0
    only in relaxed mode, where no smoothness constant for the reduced
    objective exists and step sizes must be supplied explicitly.
    """

    g: SmoothOracle
    phi: ProxOperator
    h: SmoothOracle
    psi: ProxOperator
    K: np.ndarray
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    mu: float = 0.0

    def __post_init__(self):
        self.K = as_matrix(self.K, "K")
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.c = as_vector(self.c, "c")
        n, m = self.K.shape
        q = self.c.shape[0]
        for name, M, cols in (("A", self.A, n), ("B", self.B, m)):
            if M.shape != (q, cols):
                msg = f"{name} must be {q}x{cols} to match K and c, got {M.shape}"
                raise ConfigurationError(msg)
        for name, term, dim in (("g", self.g, n), ("h", self.h, m)):
            for part, v in (("d", term.d), ("b", term.b)):
                if np.ndim(v) == 1 and v.shape[0] != dim:
                    raise ConfigurationError(
                        f"smooth term {name}: {part} must have length {dim}, got {v.shape[0]}"
                    )
        check_prox_dim("prox term phi", self.phi, n)
        check_prox_dim("prox term psi", self.psi, m)
        if not 0 <= self.mu < math.inf:  # NaN fails this too
            raise ConfigurationError(f"mu must be >= 0 and finite, got {self.mu!r}")
        self._gram_inv = None
        self._ascent_maps = {}

    @property
    def n(self):
        return self.K.shape[0]

    @property
    def m(self):
        return self.K.shape[1]

    @property
    def q(self):
        return self.c.shape[0]

    def gram_inverse(self):
        """The inverse of the constraint Gram matrix S = A A^T + B B^T.

        Built by spd_factor on first use and cached on the problem; raises
        SingularConstraintError when [A B] is rank deficient.
        """
        if self._gram_inv is None:
            # A A^T is A applied to the rows of A: the same bits at any BLAS thread count
            self._gram_inv = spd_factor(apply(self.A, self.A) + apply(self.B, self.B))
        return self._gram_inv

    def gram_solve(self, r):
        """Solve (A A^T + B B^T) zeta = r: one product with the cached inverse."""
        return spd_solve_factored(self.gram_inverse(), r)

    def ascent_map(self, n_steps, alpha_y):
        """Coefficients (p, w) of n_steps plain ascent steps on h at step alpha_y.

        With psi = 0, n_steps steps y <- y + alpha_y (drive - grad h(y)) end
        at y_N = p y_0 + w (drive - b) (see ascent_coefficients). Built on
        first use for each (n_steps, alpha_y) and cached on the problem.
        """
        key = (n_steps, alpha_y)
        coeffs = self._ascent_maps.get(key)
        if coeffs is None:
            coeffs = self._ascent_maps[key] = ascent_coefficients(self.h.d, n_steps, alpha_y)
        return coeffs


def grad_x(P: MinimaxProblem, x, y, lam, Ky=None, fixed=None):
    """Gradient of the smooth coupling in x: grad g(x) + K y + A^T lambda (IEEE, no raise).

    Ky, when given, is K y of this y, and fixed (grad g(x), A^T lambda, A x)
    of this (x, lambda), fixed while y moves: none is formed again.
    """
    gx, Atl = (P.g.gradient(x), apply(P.A.T, lam)) if fixed is None else fixed[:2]
    return gx + (apply(P.K, y) if Ky is None else Ky) + Atl


def grad_y(P: MinimaxProblem, x, y, lam, drive=None):
    """Gradient of the smooth coupling in y: K^T x + B^T lambda - grad h(y) (IEEE, no raise).

    drive, when given, is K^T x + B^T lambda of this (x, lambda), the
    inner ascent's drive, and is not formed again.
    """
    if drive is None:
        drive = apply(P.K.T, x) + apply(P.B.T, lam)
    return drive - P.h.gradient(y)


def feas(P: MinimaxProblem, x, y, Ax=None, By=None):
    """Constraint residual A x + B y + c; Ax and By, when given, are A x and
    B y and are not formed again."""
    return (apply(P.A, x) if Ax is None else Ax) + (apply(P.B, y) if By is None else By) + P.c


@dataclass(frozen=True)
class Residuals:
    """The three stationarity residuals at scalings (L1, L2)."""

    res_x: float
    res_y: float
    res_feas: float
    L1: float
    L2: float

    def within(self, eps):
        return self.res_x <= eps and self.res_y <= eps and self.res_feas <= eps


def gradient_mapping(op: ProxOperator, L, z, g, prox=None):
    """L (z - prox_{op/L}(z - g/L)), the gradient mapping of the prox term op
    at z for the gradient g at scaling L: g itself when op is the zero prox,
    where the formula would cancel to 0 once |g| < L ulp(|z|)/2. prox is
    prox_map(op, 1 / L) bound once by the caller, or None for prox_eval."""
    if op.kind == PROX_ZERO:
        return g
    u = z - g / L
    return L * (z - (prox_eval(op, 1.0 / L, u) if prox is None else prox(u)))


def residual_vectors(P: MinimaxProblem, x, y, lam, L1, L2, Ky=None, drive=None, fixed=None,
                     maps=(None, None)):
    """The three vectors whose norms are the residuals: the gradient mappings
    L1 (x - prox_{phi/L1}(x - grad_x/L1)) and the same on the ascent side with
    the gradient -grad_y, and A x + B y + c. Ky, drive and fixed are as in
    grad_x and grad_y, and maps the prox maps at 1 / L1 and 1 / L2 (see
    gradient_mapping). Like the gradients, feas and recover_multiplier, with
    phi = psi = 0 it takes a batch of points as rows (see numerics.apply)."""
    rx = gradient_mapping(P.phi, L1, x, grad_x(P, x, y, lam, Ky, fixed), maps[0])
    ry = gradient_mapping(P.psi, L2, y, -grad_y(P, x, y, lam, drive), maps[1])
    return rx, ry, feas(P, x, y, None if fixed is None else fixed[2])


def residuals(P: MinimaxProblem, x, y, lam, L1, L2, Ky=None, drive=None, fixed=None,
              maps=(None, None)) -> Residuals:
    """Gradient-mapping residuals certifying (eps-)stationarity: res_x, res_y
    and res_feas are the norms of the three residual_vectors.

    All three vanish exactly at a stationary triple. Nonfinite input gives
    nonfinite residuals, not an error: solver.iterate decides divergence.
    A loop that holds products of the iterate or bound prox maps passes
    them (see residual_vectors); the residuals are the same bits either way.
    """
    if L1 <= 0 or L2 <= 0:
        raise ConfigurationError("residual scalings L1, L2 must be positive")
    rx, ry, rf = residual_vectors(P, x, y, lam, L1, L2, Ky, drive, fixed, maps)
    return Residuals(norm2(rx), norm2(ry), norm2(rf), float(L1), float(L2))


def recover_multiplier(P: MinimaxProblem, x, y, Ky=None, Ktx=None):
    """Least-squares multiplier for a (near-)feasible primal pair.

    Minimizes ||grad_x f||^2 + ||grad_y f||^2 over lambda; the normal
    equations share the constraint Gram matrix A A^T + B B^T, so the cached
    inverse is reused. At an exact constrained saddle this returns the
    multiplier that zeroes both gradients. Ky and Ktx, when given, are K y
    and K^T x of this pair, and the products are not formed again.
    """
    gx0 = P.g.gradient(x) + (apply(P.K, y) if Ky is None else Ky)
    gy0 = (apply(P.K.T, x) if Ktx is None else Ktx) - P.h.gradient(y)
    return -P.gram_solve(apply(P.A, gx0) + apply(P.B, gy0))


def inner_residual(P: MinimaxProblem, x, y, lam, L=1.0):
    """Norm of the y-block gradient mapping at scaling L, for fixed (x, lambda).

    This is the quantity an inner maximizer must drive below its target; it
    vanishes exactly at y_*(x, lambda).
    """
    return norm2(gradient_mapping(P.psi, L, y, -grad_y(P, x, y, lam)))


@dataclass(frozen=True)
class ProblemConstants:
    """Operator norms and the derived curvature constants."""

    norm_K: float
    norm_A: float
    norm_B: float
    L_g: float
    L_h: float
    gamma: float
    L_theta: Optional[float]


def compute_constants(P: MinimaxProblem) -> ProblemConstants:
    """Compute ||K||, ||A||, ||B|| and assemble gamma and L_theta = gamma/mu.

    gamma bounds the Lipschitz modulus of the gradient of the reduced
    objective theta(x, lambda); it is finite for any data, but L_theta needs
    mu > 0 and is reported absent in relaxed mode.
    """
    nK = operator_norm(P.K)
    nA = operator_norm(P.A)
    nB = operator_norm(P.B)
    Lg = P.g.lipschitz
    mu = P.mu
    gamma = max(
        math.sqrt(2.0 * (Lg * mu + nK**2) ** 2 + 2.0 * (nA * mu + nK * nB) ** 2),
        math.sqrt(2.0 * (mu * nA + nK * nB) ** 2 + 2.0 * nB**4),
    )
    L_theta = gamma / mu if mu > 0 else None
    return ProblemConstants(
        norm_K=nK,
        norm_A=nA,
        norm_B=nB,
        L_g=Lg,
        L_h=P.h.lipschitz,
        gamma=gamma,
        L_theta=L_theta,
    )


@dataclass(frozen=True)
class BudgetConstants:
    """Constants feeding the inner/outer iteration budget.

    beta1 (domain radius of psi), omega1 (uniform gap bound), and theta_gap
    (upper bound on the initial reduced-objective gap) are user-supplied;
    the budget planner needs theta_gap and exactly one of beta1/omega1.
    """

    chi0: float
    chi1: float
    omega_x: float
    omega_y: float
    gamma1: float
    gamma2: float
    beta1: Optional[float] = None
    omega1: Optional[float] = None
    theta_gap: Optional[float] = None


def check_budget_steps(C: ProblemConstants, alpha_x: float, alpha_y: float):
    """Raise ConfigurationError unless 0 < alpha_x < 1/L_theta (when mu > 0
    defines L_theta) and 0 < alpha_y < 1/L_h (no upper bound when L_h = 0):
    the step-size ranges the budget formulas assume."""
    if C.L_theta is not None and not (0 < alpha_x < 1.0 / C.L_theta):
        raise ConfigurationError(
            f"alpha_x must lie in (0, 1/L_theta) = (0, {1.0 / C.L_theta:.6g}), got {alpha_x}"
        )
    hi = 1.0 / C.L_h if C.L_h > 0 else math.inf
    if not 0 < alpha_y < hi:
        raise ConfigurationError(f"alpha_y must lie in (0, 1/L_h) = (0, {hi:.6g}), got {alpha_y}")


def compute_budget_constants(
    P: MinimaxProblem, C: ProblemConstants, alpha_x: float, alpha_y: float
) -> BudgetConstants:
    """Assemble chi0, chi1, omega_x, omega_y, gamma1, gamma2 for given step sizes.

    Requires mu > 0 (so L_theta exists), 0 < alpha_x < 1/L_theta, and
    0 < alpha_y < 1/L_h. ||B|| must be nonzero because the y-side constants
    scale with mu^2 / ||B||^2.
    """
    if C.L_theta is None:
        raise ConfigurationError("budget constants need mu > 0 (L_theta undefined in relaxed mode)")
    check_budget_steps(C, alpha_x, alpha_y)
    if C.norm_B == 0:
        raise ConfigurationError("budget constants need B nonzero")

    mu = P.mu
    Lg = C.L_g
    S_inv = P.gram_inverse()
    norm_At_Sinv = operator_norm(P.A.T @ S_inv)
    norm_Bt_Sinv = operator_norm(P.B.T @ S_inv)
    try:
        shrink = 1.0 - alpha_x * C.L_theta
        chi0 = 1.0 / (alpha_x * shrink)
        chi1 = (C.norm_K**2 + C.norm_B**2) / shrink**2
        omega_y = (Lg + 2.0 / alpha_y) * norm_At_Sinv + C.norm_K * norm_Bt_Sinv
        omega_x = (Lg + 2.0 / alpha_x) * norm_At_Sinv + C.norm_K * norm_Bt_Sinv

        ratio = mu**2 / C.norm_B**2
        gamma1 = max(
            6.0 * (9.0 / alpha_y**2 + 2.0 * ratio * chi1 + 4.0 * chi1 * omega_y**2),
            8.0 * chi1 * ((1.0 + alpha_x * Lg) ** 2 + 3.0 * omega_x**2),
        )
        gamma2 = max(
            12.0 * chi0 * (ratio + 2.0 * omega_y**2),
            8.0 * chi0 * ((1.0 + alpha_x * Lg) ** 2 + 3.0 * omega_x**2),
        )
    except (OverflowError, ZeroDivisionError) as exc:
        msg = (f"compute_budget_constants: the budget constants overflow a float "
               f"(alpha_x {alpha_x!r}, alpha_y {alpha_y!r})")
        raise ConfigurationError(msg) from exc
    return BudgetConstants(
        chi0=chi0,
        chi1=chi1,
        omega_x=omega_x,
        omega_y=omega_y,
        gamma1=gamma1,
        gamma2=gamma2,
    )


# registry of smooth terms available in problem manifests
def smooth_term_from_json(data: dict) -> SmoothOracle:
    kind = data["kind"]
    if kind == "zero":
        return smooth_zero()
    if kind == "scaled_sq_norm":
        return smooth_scaled_sq_norm(float(json_number(data["c"])))
    if kind == "linear":
        return smooth_linear(json_array(data["b"]))
    if kind == "quadratic_diag":
        return smooth_quadratic_diag(json_array(data["d"]))
    raise ConfigurationError(f"unknown smooth term kind {kind!r}")


def prox_term_from_json(data: dict) -> ProxOperator:
    kind = data["kind"]
    if kind == "zero_function":
        return prox_zero()
    if kind == "indicator":
        return prox_indicator(cone_from_json(data["cone"]))
    if kind == "polar_indicator":
        return prox_polar_indicator(cone_from_json(data["cone"]))
    if kind == "scaled_sq_norm":
        return prox_scaled_sq_norm(float(json_number(data["c"])))
    if kind == "linear_shift":
        return prox_linear_shift(json_array(data["v"]))
    if kind == "blocks":
        return prox_blocks(
            [(prox_term_from_json(b["op"]), json_number(b["dim"], int)) for b in data["blocks"]]
        )
    raise ConfigurationError(f"unknown prox operator kind {kind!r}")


def _load_matrix_field(value, base_dir):
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        return matio.read_matrix(path)
    return json_array(value)


def load_json_object(path, what):
    """The JSON object held by the file at path; what names the file in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ConfigurationError(f"{what} {path} is nested too deeply") from exc
        except ValueError as exc:
            raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} {path} must hold a JSON object")
    return data


def _holds_bool(value):
    """Whether a JSON value is a boolean or holds one in its lists and objects."""
    items = list(value.values()) if isinstance(value, dict) else value
    types = set(map(type, items)) if isinstance(items, list) else {type(items)}
    return bool in types or (bool(types & {list, dict}) and any(map(_holds_bool, items)))


def load_problem_manifest(path) -> MinimaxProblem:
    """Build a MinimaxProblem from a JSON manifest.

    Matrix fields (K, A, B) may be inline nested lists or paths to CSV /
    MatrixMarket files, resolved relative to the manifest. The vector c may
    be inline or a single-column matrix file. Smooth terms come from the
    {zero, scaled_sq_norm, linear, quadratic_diag} registry and nonsmooth
    terms from the ProxOperator kinds. No entry may be a boolean, and a
    file nested too deeply to read is a ConfigurationError too.
    """
    data = load_json_object(path, "problem manifest")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        for key, value in data.items():
            if _holds_bool(value):
                raise ConfigurationError(f"problem manifest {path}: {key!r} holds a boolean")
        K, A, B, c = (_load_matrix_field(data[key], base_dir) for key in ("K", "A", "B", "c"))
        if isinstance(data["c"], str) and c.shape[1] != 1:
            raise ConfigurationError(f"problem manifest {path}: c must be a single-column "
                                     f"matrix file, got shape {c.shape}")
        c = c.reshape(-1) if isinstance(data["c"], str) else c
        return MinimaxProblem(
            g=smooth_term_from_json(data["g"]),
            phi=prox_term_from_json(data["phi"]),
            h=smooth_term_from_json(data["h"]),
            psi=prox_term_from_json(data["psi"]),
            K=K,
            A=A,
            B=B,
            c=c,
            mu=float(json_number(data.get("mu", 0.0))),
        )
    except KeyError as exc:
        field = exc.args[0]
        raise ConfigurationError(f"problem manifest {path} is missing field {field!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"problem manifest {path} has a malformed entry: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError(f"problem manifest {path} is nested too deeply") from exc
