"""Proximal operators, cone projections, and the forward-backward machinery.

The central objects are ConeSpec (a named cone or box with a closed-form
Euclidean projection), ProxOperator (a nonsmooth convex term accessed only
through its proximal mapping), and SmoothOracle (the smooth term
(1/2) z^T diag(d) z + b^T z, held as its data d >= 0 and b). All three are
plain data, so problems built from them pickle. The solver loops and the
residuals reach the nonsmooth terms through prox_eval, bound once per run
(prox_map), and the cones through project_cone and its helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError
from .numerics import as_vector, check_positive, json_array, json_number, norm2

# cone kinds
FREE = "free"
ZERO = "zero"
NONNEG_ORTHANT = "nonneg_orthant"
SECOND_ORDER = "second_order"
L1_NORM = "l1_norm"
BOX = "box"

_CONE_KINDS = (FREE, ZERO, NONNEG_ORTHANT, SECOND_ORDER, L1_NORM, BOX)


@dataclass(frozen=True)
class ConeSpec:
    """A named cone (or box) of a fixed dimension."""

    kind: str
    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _CONE_KINDS:
            raise ConfigurationError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigurationError("cone dimension must be at least 1")
        if self.kind in (SECOND_ORDER, L1_NORM) and self.dim < 2:
            raise ConfigurationError(f"{self.kind} cone needs dimension >= 2")
        if self.kind == BOX:
            if self.lower is None or self.upper is None:
                raise ConfigurationError("box needs lower and upper bounds")
            lo = np.asarray(self.lower, dtype=np.float64)
            hi = np.asarray(self.upper, dtype=np.float64)
            if lo.shape != (self.dim,) or hi.shape != (self.dim,):
                raise ConfigurationError("box bounds must match the box dimension")
            if np.any(lo > hi):
                raise ConfigurationError("box needs lower <= upper entrywise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)

    def is_cone(self):
        return self.kind != BOX


def cone_to_json(cone: ConeSpec) -> dict:
    out = {"kind": cone.kind, "dim": cone.dim}
    if cone.kind == BOX:
        out["lower"] = list(map(float, cone.lower))
        out["upper"] = list(map(float, cone.upper))
    return out


def cone_from_json(data: dict) -> ConeSpec:
    return ConeSpec(
        kind=data["kind"],
        dim=json_number(data["dim"], int),
        lower=json_array(data["lower"]) if "lower" in data else None,
        upper=json_array(data["upper"]) if "upper" in data else None,
    )


def project_soc(z):
    """Project onto the second-order cone {(s0, s): ||s|| <= s0}.

    Standard three-case closed form: inside stays put, the polar collapses
    to the origin, and everything else lands on the boundary ray.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] < 2:
        raise ConfigurationError("second-order cone projection needs dimension >= 2")
    s0 = z[0]
    tail = z[1:]
    # np.linalg.norm's bits: sqrt(t . t) of the contiguous tail, without its dispatch
    r = norm2(np.ascontiguousarray(tail))
    if r <= s0:
        return z.copy()
    if r <= -s0:
        return np.zeros_like(z)
    alpha = 0.5 * (s0 + r)
    out = np.empty_like(z)
    out[0] = alpha
    out[1:] = (alpha / r) * tail
    return out


def _project_linf_cone(z):
    """Project onto {(t0, t): ||t||_inf <= t0} by a sort-and-threshold search.

    For fixed t0 the tail projection is a clamp, so the objective reduces to
    a piecewise-quadratic scalar problem in t0 whose breakpoints are the
    sorted tail magnitudes.
    """
    a0 = z[0]
    tail = z[1:]
    mags = np.abs(tail)
    if mags.max(initial=0.0) <= a0:
        return z.copy()
    # stationarity of (t0-a0)^2 + sum((|a_i|-t0)_+^2): t0 = (a0 + sum of active mags)/(1+count)
    # with the k largest mags active. The derivative rises with t0, so the
    # first k whose candidate reaches d[k] holds the root, in [d[k], d[k-1]];
    # the clamp keeps a candidate that rounding put just above d[k-1] there
    # (the search runs on Python floats: the IEEE results of numpy's scalars)
    mags.sort()
    d = mags[::-1]
    csum = d.cumsum().tolist()
    d, a0 = d.tolist(), float(a0)
    for k in range(1, len(d) + 1):
        cand = (a0 + csum[k - 1]) / (1.0 + k)
        if k == len(d) or cand >= d[k]:
            break
    t0 = max(min(cand, d[k - 1]), 0.0)
    out = np.empty_like(z)
    out[0] = t0
    out[1:] = tail.clip(-t0, t0)
    return out


def project_l1cone(z):
    """Project onto the 1-norm cone {(s0, s): ||s||_1 <= s0}.

    Goes through the Moreau decomposition against the polar cone, which is a
    reflected infinity-norm cone, so the whole thing is exact up to sorting.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] < 2:
        raise ConfigurationError("1-norm cone projection needs dimension >= 2")
    s0 = z[0]
    tail = z[1:]
    if np.abs(tail).sum() <= s0:
        return z.copy()
    # polar of the 1-norm cone is -K_inf; P_K(z) = z - P_{K_polar}(z) = z + P_{K_inf}(-z)
    return z + _project_linf_cone(-z)


def projector(cone: ConeSpec):
    """project_cone(cone, .) bound once, for float64 points of the cone's
    dimension (as rows): its bits without its checks and dispatch (on the
    orthant np.maximum against zeros, which spares the scalar's conversion)."""
    if cone.kind == NONNEG_ORTHANT:
        zero = np.zeros(cone.dim)
        return lambda z: np.maximum(z, zero)
    if cone.kind == BOX:
        return lambda z: np.clip(z, cone.lower, cone.upper)
    # a ConeSpec has one of _CONE_KINDS
    return {FREE: np.ndarray.copy, ZERO: np.zeros_like, SECOND_ORDER: project_soc,
            L1_NORM: project_l1cone}[cone.kind]


def project_cone(cone: ConeSpec, z):
    """Euclidean projection onto the cone or box described by cone."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != cone.dim:
        raise ConfigurationError(
            f"projection dimension mismatch: cone has dim {cone.dim}, point has {z.shape[0]}"
        )
    return projector(cone)(z)


def project_polar(cone: ConeSpec, z):
    """Projection onto the polar cone via the Moreau decomposition z = P_K(z) + P_Kpolar(z)."""
    if not cone.is_cone():
        raise ConfigurationError("boxes have no polar cone; project_polar needs a cone kind")
    z = np.asarray(z, dtype=np.float64)
    return z - project_cone(cone, z)


def _soc_jacobian(z):
    s0 = z[0]
    tail = z[1:]
    r = norm2(np.ascontiguousarray(tail))
    d = z.shape[0]
    if r <= s0:
        return np.eye(d)
    if r <= -s0:
        return np.zeros((d, d))
    u = tail / r
    D = np.empty((d, d))
    D[0, 0] = 0.5
    D[0, 1:] = 0.5 * u
    D[1:, 0] = 0.5 * u
    uu = np.outer(u, u)
    D[1:, 1:] = ((s0 + r) / (2.0 * r)) * (np.eye(d - 1) - uu) + 0.5 * uu
    return D


def projection_jacobian(cone: ConeSpec, z):
    """Derivative of the cone/box projection at z (a subgradient choice on
    the measure-zero piece boundaries). Projections here are piecewise
    smooth, so away from breakpoints P(z + tv) = P(z) + t D v exactly for
    the polyhedral cones and to first order for the second-order cone."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != cone.dim:
        raise ConfigurationError(
            f"jacobian dimension mismatch: cone has dim {cone.dim}, point has {z.shape[0]}"
        )
    if cone.kind == FREE:
        return np.eye(cone.dim)
    if cone.kind == ZERO:
        return np.zeros((cone.dim, cone.dim))
    if cone.kind == NONNEG_ORTHANT:
        return np.diag((z > 0).astype(np.float64))
    if cone.kind == BOX:
        inside = (z > cone.lower) & (z < cone.upper)
        return np.diag(inside.astype(np.float64))
    if cone.kind == SECOND_ORDER:
        return _soc_jacobian(z)
    if cone.kind == L1_NORM:
        row = pattern_rows(cone, z[None])[0]
        if row[0] != 0:
            return np.eye(cone.dim) if row[0] > 0 else np.zeros((cone.dim, cone.dim))
        # boundary: P(z) = z + t (1, -s), t = (sum_active |z_i| - z0) / (1 + k)
        # over the k active entries; with r = (1, -s), D is I - r r^T / (1 + k)
        # on the head and the active entries, and 0 on the inactive ones
        s = row[1:]
        r = np.concatenate(([1.0], -s))
        D = np.eye(cone.dim) - np.outer(r, r / (1.0 + np.count_nonzero(s)))
        inactive = np.flatnonzero(s == 0) + 1
        D[inactive, inactive] = 0.0
        return D
    raise ConfigurationError(f"unknown cone kind {cone.kind!r}")


def _boundary_signs(Z):
    """Tail signs of project_l1cone(z) for each row z of Z off the 1-norm
    cone and its polar: _project_linf_cone's search on -z, for all finite
    rows at once with the same float64 operations, so the same bits.
    Nonfinite rows are projected one at a time: numpy's vector add can flip
    a NaN's sign bit, and keys compare bytes."""
    tail = Z[:, 1:]
    d = np.sort(np.abs(tail), axis=1)[:, ::-1]
    with np.errstate(invalid="ignore", over="ignore"):
        cand = (-Z[:, :1] + d.cumsum(axis=1)) / (1.0 + np.arange(1, d.shape[1] + 1))
        # the first k whose candidate reaches d[k], else the last
        stop = np.concatenate((cand[:, :-1] >= d[:, 1:], np.ones((len(Z), 1), bool)), axis=1)
        k = stop.argmax(axis=1)[:, None]
        t0 = np.minimum(np.take_along_axis(cand, k, 1), np.take_along_axis(d, k, 1))
        t0 = np.maximum(t0, 0.0)
        signs = np.sign(tail + np.clip(-tail, -t0, t0))
        bad = ~np.isfinite(Z).all(axis=1)
        if bad.any():
            signs[bad] = np.sign([project_l1cone(z)[1:] for z in Z[bad]])
    return signs


def pattern_rows(cone: ConeSpec, Z, PZ=None):
    """The active pattern of each row z of Z, as a row whose bytes are the
    key projection_pattern gives z. projection_jacobian is constant on a
    pattern: equal keys of one cone mean equal Jacobian bytes.

    Orthant: the mask z > 0. 1-norm cone: a float64 row whose head is -1 on
    the polar piece (P_K(z) = 0, tested first, so the apex is polar), 1
    inside (P_K(z) = z) and 0 on the boundary. On the boundary the tail is
    the signs of the tail of pz = P_K(z), its row of PZ: 0 exactly off the
    active set and the signs of z on it. Without PZ the boundary rows'
    signs are found in one batch (_boundary_signs) with project_l1cone's
    bits. Off the boundary the tail is 0 and PZ is not read. The tests have
    no margin. Other kinds raise ConfigurationError.
    """
    Z = np.asarray(Z)
    if cone.kind == NONNEG_ORTHANT:
        return Z > 0
    if cone.kind != L1_NORM:
        raise ConfigurationError(f"{cone.kind} cone has no pattern")
    head, mags = Z[:, 0], np.abs(Z[:, 1:])
    polar = mags.max(axis=1) <= -head
    inside = ~polar & (mags.sum(axis=1) <= head)
    rows = np.zeros(Z.shape)
    rows[:, 0] = np.where(polar, -1.0, inside)
    edge = ~polar & ~inside
    if edge.any():
        rows[edge, 1:] = (_boundary_signs(Z[edge]) if PZ is None
                          else np.sign(np.asarray(PZ)[edge][:, 1:]))
    return rows


def projection_pattern(cone: ConeSpec, z, pz=None):
    """Key of the active pattern of z: the bytes of its pattern_rows row,
    with pz = P_K(z) read on the 1-norm boundary only, and computed there
    when not given. The key costs less than the Jacobian it stands for.
    None for the other kinds: the second-order cone's Jacobian varies
    within its boundary piece, and the remaining kinds have no key yet.
    """
    if cone.kind in (NONNEG_ORTHANT, L1_NORM):
        return pattern_rows(cone, z[None], None if pz is None else pz[None]).tobytes()
    return None


def on_pattern(cone: ConeSpec, key, Z, PZ):
    """For each row z of Z, with pz its row of PZ = P_K(Z) (or PZ None, so
    pattern_rows finds the boundary signs itself), whether
    projection_pattern(cone, z, pz) == key: the bytes of its pattern_rows
    row against the key, with no margin.
    """
    rows = pattern_rows(cone, Z, PZ)
    return (rows.view(np.uint8) == np.frombuffer(key, dtype=np.uint8)).all(axis=1)


# prox operator kinds
PROX_ZERO = "zero_function"
PROX_INDICATOR = "indicator"
PROX_POLAR_INDICATOR = "polar_indicator"
PROX_SCALED_SQ_NORM = "scaled_sq_norm"
PROX_LINEAR_SHIFT = "linear_shift"
PROX_BLOCKS = "blocks"


@dataclass(frozen=True)
class ProxOperator:
    """A nonsmooth convex term represented by its proximal mapping.

    kind selects among: the zero function, a cone/box indicator, the scaled
    squared norm (coeff/2)||.||^2, a linear term <shift, .>, or a separable
    composition of blocks.
    """

    kind: str
    cone: Optional[ConeSpec] = None
    coeff: float = 0.0
    shift: Optional[np.ndarray] = None
    blocks: tuple = field(default=())

    def block_dims(self):
        return tuple(dim for _, dim in self.blocks)


def prox_zero() -> ProxOperator:
    return ProxOperator(kind=PROX_ZERO)


def prox_indicator(cone: ConeSpec) -> ProxOperator:
    return ProxOperator(kind=PROX_INDICATOR, cone=cone)


def prox_polar_indicator(cone: ConeSpec) -> ProxOperator:
    """Indicator of the polar of cone; its prox is the polar projection."""
    if not cone.is_cone():
        raise ConfigurationError("polar indicator needs a cone kind, not a box")
    return ProxOperator(kind=PROX_POLAR_INDICATOR, cone=cone)


def prox_scaled_sq_norm(coeff: float) -> ProxOperator:
    if not coeff >= 0:  # NaN fails this too
        raise ConfigurationError("scaled_sq_norm coefficient must be >= 0")
    return ProxOperator(kind=PROX_SCALED_SQ_NORM, coeff=float(coeff))


def prox_linear_shift(shift) -> ProxOperator:
    return ProxOperator(kind=PROX_LINEAR_SHIFT, shift=as_vector(shift, "linear_shift"))


def prox_blocks(blocks) -> ProxOperator:
    """Separable composition: blocks is a sequence of (ProxOperator, dim) pairs."""
    blocks = tuple((op, int(dim)) for op, dim in blocks)
    for op, dim in blocks:
        if dim < 1:
            raise ConfigurationError("block dimensions must be positive")
        if op.kind == PROX_BLOCKS:
            raise ConfigurationError("nested block prox operators are not supported")
    return ProxOperator(kind=PROX_BLOCKS, blocks=blocks)


def check_prox_dim(name, op: ProxOperator, dim):
    """Raise ConfigurationError unless the prox term op acts on vectors of
    length dim; name names the term in the message."""
    if op.kind == PROX_LINEAR_SHIFT:
        what, size = "shift length", op.shift.shape[0]
    elif op.kind in (PROX_INDICATOR, PROX_POLAR_INDICATOR):
        what, size = "cone dim", op.cone.dim
    elif op.kind == PROX_BLOCKS:
        what, size = "block dims sum", sum(op.block_dims())
    else:
        return
    if size != dim:
        raise ConfigurationError(f"{name}: {what} must be {dim}, got {size}")
    for sub, sub_dim in op.blocks:
        check_prox_dim(name, sub, sub_dim)


def prox_map(op: ProxOperator, t: float):
    """z -> prox_eval(op, t, z) bound once, for float64 points of op's
    dimension (as rows for the zero, norm and shift kinds): its bits without
    its per-call checks and dispatch. t must lie in (0, inf)."""
    check_positive("t", t, "prox step ")
    if op.kind == PROX_ZERO:
        return np.ndarray.copy
    if op.kind == PROX_INDICATOR:
        return projector(op.cone)
    if op.kind == PROX_POLAR_INDICATOR:
        project = projector(op.cone)
        return lambda z: z - project(z)
    if op.kind == PROX_SCALED_SQ_NORM:
        scale = 1.0 + t * op.coeff
        return lambda z: z / scale
    if op.kind == PROX_LINEAR_SHIFT:
        step = t * op.shift
        return lambda z: z - step
    if op.kind == PROX_BLOCKS:
        ends = np.cumsum(op.block_dims()).tolist()
        parts = [(slice(e - d, e), prox_map(sub, t)) for (sub, d), e in zip(op.blocks, ends)]
        return lambda z: np.concatenate([prox(z[part]) for part, prox in parts])
    raise ConfigurationError(f"unsupported prox operator kind {op.kind!r}")


def prox_eval(op: ProxOperator, t: float, z):
    """prox_{t*sigma}(z) = argmin_u t*sigma(u) + 0.5||u - z||^2, by prox_map(op, t)."""
    prox = prox_map(op, t)
    z = np.asarray(z, dtype=np.float64)
    check_prox_dim("prox point", op, z.shape[0] if z.ndim else 0)
    return prox(z)


@dataclass(frozen=True)
class SmoothOracle:
    """The smooth convex term (1/2) z^T diag(d) z + b^T z.

    d is a scalar or a vector, finite and >= 0 (so the term is convex);
    b is None (no linear part) or a finite vector. The gradient is d * z,
    plus b when b is given, and its Lipschitz constant is max d.
    """

    d: Union[float, np.ndarray]
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        d = as_vector(np.atleast_1d(self.d), "smooth term d")
        if np.any(d < 0):
            raise ConfigurationError("smooth term d must be >= 0 entrywise")
        object.__setattr__(self, "d", float(d[0]) if np.ndim(self.d) == 0 else d)
        if self.b is not None:
            object.__setattr__(self, "b", as_vector(self.b, "smooth term b"))

    @property
    def lipschitz(self):
        return float(np.max(self.d, initial=0.0))

    def value(self, z):
        v = 0.5 * float(z @ (self.d * z))
        return v if self.b is None else v + float(self.b @ z)

    def gradient(self, z):
        if self.b is None:
            return self.d * z
        return self.d * z + self.b


def smooth_zero() -> SmoothOracle:
    return SmoothOracle(0.0)


def smooth_scaled_sq_norm(coeff: float) -> SmoothOracle:
    """(coeff/2) ||z||^2."""
    return SmoothOracle(coeff)


def smooth_linear(b) -> SmoothOracle:
    return SmoothOracle(0.0, b)


def smooth_quadratic_diag(d) -> SmoothOracle:
    """(1/2) z^T diag(d) z with d >= 0 entrywise."""
    return SmoothOracle(d)
