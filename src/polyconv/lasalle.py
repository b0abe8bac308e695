"""Limit-set computation and weak-kernel queries for CT families.

The weak kernel of x'(t) = A(w) x is the set of states some admissible
weight can freeze: K = {x : A(w) x = 0 for some w in the simplex}.  With a
weak quadratic Lyapunov function V = x'Px the invariance principle bounds
every limit set by N = union of ker(-(A_i'P + P A_i)), and the gap
functions below measure the best achievable one-step decay of V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .family import MatrixFamily
from .feasibility import lp_simplex_membership
from .linalg import DEFAULT_TOL, Subspace, Tolerances, as_matrix, kernel
from .lti import _check_positive

__all__ = [
    "WeakKernelResult",
    "LaSalleSet",
    "TrivialityScan",
    "weak_kernel_membership",
    "weak_kernel_triviality_scan",
    "lasalle_set_quadratic",
    "lasalle_gap_dt",
    "euler_gap",
    "project_simplex",
]

GAP_TOL = 1e-8
GAP_MAX_ITER = 10_000


@dataclass
class WeakKernelResult:
    x: np.ndarray
    feasible: bool
    w: np.ndarray | None
    residual: float


@dataclass
class LaSalleSet:
    """Union of subspaces bounding the limit sets of a family."""

    subspaces: tuple
    provenance: str

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if not self.subspaces:
            return float(np.linalg.norm(x))
        return min(s.distance(x) for s in self.subspaces)

    def contains(self, x, tol: float = 1e-8) -> bool:
        x = np.asarray(x, dtype=float)
        return self.distance(x) <= tol * (1.0 + float(np.linalg.norm(x)))


@dataclass
class TrivialityScan:
    likely_trivial: bool
    witness: WeakKernelResult | None
    checked: int


def _require_ct(family: MatrixFamily, op: str) -> None:
    if family.mode != "ct":
        raise InputError(f"{op} needs a CT family, got mode {family.mode!r}")


def _state_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise InputError(f"state must have length {n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("state must be finite")
    return x


def weak_kernel_membership(family: MatrixFamily, x,
                           tol: Tolerances = DEFAULT_TOL) -> WeakKernelResult:
    """Decide whether some simplex weight freezes x: A(w) x = 0.

    A column A_i x with ||A_i x|| <= rank_rel n ||A_i||_F ||x|| is rounding
    noise of an exact zero (x in ker A_i) and enters the LP as zero: the LP
    normalizes M by its largest entry, which would turn an all-noise M into
    O(1) transverse columns.  The cutoff is relative to A_i and x, so
    scaling either leaves the answer unchanged.
    """
    _require_ct(family, "weak_kernel_membership")
    x = _state_vector(x, family.n)
    m_count = family.m_count
    xnorm = float(np.linalg.norm(x))
    if xnorm == 0.0:
        w = np.zeros(m_count)
        w[0] = 1.0
        return WeakKernelResult(x, True, w, 0.0)
    m = np.column_stack([a @ x for a in family.matrices])
    floors = [tol.rank_rel * family.n * float(np.linalg.norm(a)) * xnorm
              for a in family.matrices]
    noise = np.linalg.norm(m, axis=0) <= np.asarray(floors)
    w = lp_simplex_membership(np.where(noise, 0.0, m), tol)
    if w is None:
        return WeakKernelResult(x, False, None, float("inf"))
    return WeakKernelResult(x, True, w, float(np.linalg.norm(m @ w)))


def _simplex_grid(m_count: int, per_edge: int):
    """Integer-composition grid on the simplex, per_edge cells per edge."""
    if m_count == 1:
        yield np.array([1.0])
        return

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for comp in rec([], per_edge, m_count):
        yield np.asarray(comp, dtype=float) / per_edge


def _singular_weight_candidates(family: MatrixFamily, per_edge: int):
    """Weights where A(w) is (nearly) singular, found by a determinant
    sign scan over edge segments of the simplex grid; a generator, so the
    pair scan runs only as far as the caller reads."""
    n = family.n
    scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in family.matrices)

    def det_at(w):
        return float(np.linalg.det(family.a_of(w)))

    grid = list(_simplex_grid(family.m_count, per_edge))
    dets = [det_at(w) for w in grid]
    cutoff = 1e-10 * scale ** n
    for w, d in zip(grid, dets):
        if abs(d) <= cutoff:
            yield w
    # refine sign changes along straight segments between grid neighbours:
    # the pairs (i < j) one lattice move apart, L1 distance 2 / per_edge
    comp = np.rint(np.array(grid) * per_edge).astype(np.int64)
    dist = np.zeros((len(grid), len(grid)), dtype=np.int64)
    for c in comp.T:
        dist += np.abs(c[:, None] - c[None, :])
    sign = np.sign(dets)
    mask = (dist <= 2) & (sign[:, None] * sign[None, :] < 0)
    for i, j in zip(*np.nonzero(np.triu(mask, 1))):
        lo, hi, flo = grid[i], grid[j], dets[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = det_at(mid)
            if fm == 0.0:
                lo = mid
                break
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        yield 0.5 * (lo + hi)


def weak_kernel_triviality_scan(family: MatrixFamily, samples: int = 200,
                                seed: int = 0,
                                tol: Tolerances = DEFAULT_TOL
                                ) -> TrivialityScan:
    """Heuristic scan for nonzero weak-kernel points.

    Candidates, in this order: per-vertex kernel basis vectors, kernel
    vectors of A(w) at nearly singular grid weights (determinant sign
    scan), and random unit samples.  They are built one at a time, so the
    scan stops paying at its first witness.  Any feasible membership at
    x != 0 is returned as a witness; otherwise the result is
    likely-trivial, explicitly non-certified.  A negative samples or seed
    is an InputError.
    """
    _require_ct(family, "weak_kernel_triviality_scan")
    if samples < 0 or seed < 0:
        raise InputError("samples and seed must be nonnegative, got "
                         f"samples={samples}, seed={seed}")
    rng = np.random.default_rng(seed)
    n = family.n
    scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in family.matrices)
    per_edge = max(4, min(24, int(round(samples ** (1.0 / max(
        1, family.m_count - 1))))))

    def candidates():
        for a in family.matrices:
            yield from kernel(a, tol, scale=scale).basis.T
        for w in _singular_weight_candidates(family, per_edge):
            yield from kernel(family.a_of(w), tol, scale=scale).basis.T
        for _ in range(samples):
            v = rng.normal(size=n)
            nv = float(np.linalg.norm(v))
            if nv > 0:
                yield v / nv

    checked = 0
    for x in candidates():
        if float(np.linalg.norm(x)) < 1e-12:
            continue
        checked += 1
        res = weak_kernel_membership(family, x, tol)
        if res.feasible:
            return TrivialityScan(False, res, checked)
    return TrivialityScan(True, None, checked)


def _check_pd(p, n: int) -> np.ndarray:
    p = as_matrix(p, name="P")
    if p.shape != (n, n):
        raise InputError(f"P must be {n} x {n}, got {p.shape}")
    sym = 0.5 * (p + p.T)
    if float(np.linalg.norm(p - p.T, 2)) > 1e-10 * (
            1.0 + float(np.linalg.norm(p, 2))):
        raise InputError("P must be symmetric")
    if float(np.linalg.eigvalsh(sym)[0]) <= 0.0:
        raise InputError("P must be positive definite")
    return sym


def lasalle_set_quadratic(family: MatrixFamily, p,
                          tol: Tolerances = DEFAULT_TOL) -> LaSalleSet:
    """Bound limit sets by the union of ker(Q_i), Q_i = -(A_i'P + P A_i).

    P must be a weak quadratic Lyapunov function: every Q_i positive
    semidefinite at tolerance, else the violating vertex is named.
    """
    _require_ct(family, "lasalle_set_quadratic")
    p = _check_pd(p, family.n)
    kernels = []
    for i, a in enumerate(family.matrices):
        q = -(a.T @ p + p @ a)
        qn = float(np.linalg.norm(q, 2)) if q.size else 0.0
        if q.size and float(np.linalg.eigvalsh(0.5 * (q + q.T))[0]) < (
                -tol.residual_tol * (1.0 + qn)):
            raise InputError(
                f"P is not a weak Lyapunov function: vertex {i + 1} "
                "increases V along some direction")
        kernels.append(kernel(q, tol, scale=1.0 + qn))
    return LaSalleSet(tuple(kernels), "smooth-quadratic")


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sorting method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _minimize_quadratic_on_simplex(h: np.ndarray, g: np.ndarray,
                                   c: float) -> tuple:
    """Minimize w'Hw + g'w + c over the simplex by projected gradient with
    fixed step 1/L, L = 2 lambda_max(H); convex since H >= 0."""
    m = g.size
    w = np.full(m, 1.0 / m)

    def value(wv):
        return float(wv @ h @ wv + g @ wv + c)

    lip = 2.0 * max(float(np.linalg.eigvalsh(0.5 * (h + h.T))[-1]), 0.0)
    if lip <= 0.0:
        # linear objective: the minimum sits on a vertex
        j = int(np.argmin(g))
        w = np.zeros(m)
        w[j] = 1.0
        return value(w), w
    step = 1.0 / lip
    for _ in range(GAP_MAX_ITER):
        grad = 2.0 * (h @ w) + g
        w_next = project_simplex(w - step * grad)
        # fixed-point residual of the projected step is the stationarity
        # measure for this convex problem
        if float(np.linalg.norm(w_next - w)) <= GAP_TOL / max(1.0, lip):
            return value(w_next), w_next
        w = w_next
    raise NumericalError("projected-gradient simplex solver did not reach "
                         f"tolerance within {GAP_MAX_ITER} iterations")


def lasalle_gap_dt(family: MatrixFamily, p, x) -> float:
    """min over simplex weights of V(A(w)x) - V(x), V = x'Px.

    Nonpositive whenever P is a weak Lyapunov function; zero gap marks
    membership in the DT limit-set bound.
    """
    if family.mode != "dt":
        raise InputError("lasalle_gap_dt needs a DT family")
    p = _check_pd(p, family.n)
    x = _state_vector(x, family.n)
    m = np.column_stack([a @ x for a in family.matrices])
    vx = float(x @ p @ x)
    if family.m_count == 1:
        y = m[:, 0]
        return float(y @ p @ y) - vx
    h = m.T @ p @ m
    val, _w = _minimize_quadratic_on_simplex(h, np.zeros(family.m_count),
                                             -vx)
    return val


def euler_gap(family: MatrixFamily, p, tau: float, x) -> float:
    """min over weights of (V(x + tau A(w)x) - V(x)) / tau for a CT family.

    The Euler difference quotient of V along the family; strictly positive
    values witness that no admissible direction decreases V at x.
    """
    _require_ct(family, "euler_gap")
    _check_positive("tau", tau)
    p = _check_pd(p, family.n)
    x = _state_vector(x, family.n)
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    m = np.column_stack([a @ x for a in family.matrices])
    vx = float(x @ p @ x)
    if family.m_count == 1:
        y = x + tau * m[:, 0]
        return (float(y @ p @ y) - vx) / tau
    # V(x + tau M w) = w'(tau^2 M'PM)w + 2 tau (M'Px)'w + V(x)
    h = (tau * tau) * (m.T @ p @ m)
    g = 2.0 * tau * (m.T @ (p @ x))
    val, _w = _minimize_quadratic_on_simplex(h, g, vx)
    return (val - vx) / tau
