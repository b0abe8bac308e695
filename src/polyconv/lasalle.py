"""Limit-set computation and weak-kernel queries for CT families.

The weak kernel of x'(t) = A(w) x is the set of states some admissible
weight can freeze: K = {x : A(w) x = 0 for some w in the simplex}.  With a
weak quadratic Lyapunov function V = x'Px the invariance principle bounds
every limit set by N = union of ker(-(A_i'P + P A_i)), and the gap
functions below measure the best achievable one-step decay of V.
"""

from __future__ import annotations

import itertools
import math
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


def _row_norms(xs: np.ndarray) -> np.ndarray:
    """||x|| of each row by one dot product, as np.linalg.norm(x) takes
    it, so that batched and single answers agree bit for bit."""
    return np.sqrt(np.matmul(xs[:, None, :], xs[:, :, None])[:, 0, 0])


def _membership_matrices(family: MatrixFamily, xs: np.ndarray,
                         tol: Tolerances):
    """For each row x of xs: M = [A_1 x ... A_m x], the LP's matrix M~
    (M with its noise columns zeroed, see weak_kernel_membership), ||x||,
    and whether the separating-direction screen settles x as infeasible.

    The screen (Farkas, with x itself as the separating direction): let
    q_i = x'M~e_i.  The LP returns w only if ||M~w|| <= tau =
    residual_tol (1 + max|M~|).  If every q_i has one strict sign with
    |q_i| >= delta, then |x'M~w| >= delta for every simplex w, so
    ||M~w|| >= delta / ||x|| and no w passes once delta > tau ||x||.

    Rounding.  Let u be the unit roundoff, a = max_i ||A_i||_F and
    g_k = k u / (1 - k u).  A computed column (these, or the LP's own,
    summed in another order) is within g_n a ||x|| of the exact A_i x and
    has norm at most (1 + g_n) a ||x||; a computed q_i is within g_n ||x||
    times that norm of the exact x'(A_i x).  So each column c_i the LP
    gets has x'c_i of the sign of q_i, with |x'c_i| >= delta -
    3.1 g_n a ||x||^2, and for the LP's w >= 0 with sum s >= 1 - g_m,
    ||M~w|| >= s (delta - 3.1 g_n a ||x||^2) / ||x||.  The LP's computed
    final norm is at least (1 - g_n) (||M~w|| - 1.01 g_m s a ||x||).  So
    where
        delta > 2 ||x|| (tau + f) + 4 (n + m) u a ||x||^2,
    f = rank_rel n a ||x|| the largest noise floor, that norm is above
    (1 - g_n) (1 - g_m) 2 tau > tau: the factor 2 covers the relative
    rounding of ||x||, tau, s and the norm, all below (n + m) u.  The f
    term keeps every column of a screened x above its noise floor in any
    summation order, so the LP gets no zeroed column for it.  A noise
    column of M~ has q_i = 0, so an x with one is never screened.
    """
    mats = np.stack(family.matrices)
    n, m_count = family.n, family.m_count
    fro = np.array([float(np.linalg.norm(a)) for a in family.matrices])
    # matrix-vector products, the ones a @ x makes for one state, so that
    # batched and single answers agree bit for bit
    m = np.ascontiguousarray(np.matmul(mats, xs[:, None, :, None])[..., 0]
                             .transpose(0, 2, 1))
    xnorm = _row_norms(xs)
    floors = tol.rank_rel * n * fro[None, :] * xnorm[:, None]
    noise = np.linalg.norm(m, axis=1) <= floors
    mt = np.where(noise[:, None, :], 0.0, m)
    q = np.matmul(xs[:, None, :], mt)[:, 0, :]
    tau = tol.residual_tol * (1.0 + np.abs(mt).max(axis=(1, 2)))
    bound = (2.0 * xnorm * (tau + tol.rank_rel * n * fro.max() * xnorm)
             + 2.0 * (n + m_count) * np.finfo(float).eps * fro.max()
             * xnorm ** 2)
    one_sign = np.all(q > 0.0, axis=1) | np.all(q < 0.0, axis=1)
    settled = one_sign & (np.abs(q).min(axis=1) > bound)
    return m, mt, xnorm, settled


def weak_kernel_membership(family: MatrixFamily, x,
                           tol: Tolerances = DEFAULT_TOL) -> WeakKernelResult:
    """Decide whether some simplex weight freezes x: A(w) x = 0.

    A column A_i x with ||A_i x|| <= rank_rel n ||A_i||_F ||x|| is rounding
    noise of an exact zero (x in ker A_i) and enters the LP as zero: the LP
    normalizes M by its largest entry, which would turn an all-noise M into
    O(1) transverse columns.  The cutoff is relative to A_i and x, so
    scaling either leaves the answer unchanged.

    Before the LP, x itself is tried as a separating direction: if every
    x'A_i x (noise columns zeroed) has one strict sign and clears the
    LP's own acceptance threshold with a rounding allowance (derived in
    _membership_matrices), no simplex w can pass the LP's final residual
    check, and the answer is the LP's infeasible one without solving it.
    Every other x is decided by lp_simplex_membership.
    """
    _require_ct(family, "weak_kernel_membership")
    x = _state_vector(x, family.n)
    if float(np.linalg.norm(x)) == 0.0:
        w = np.zeros(family.m_count)
        w[0] = 1.0
        return WeakKernelResult(x, True, w, 0.0)
    m, mt, _, settled = _membership_matrices(family, x[None, :], tol)
    if settled[0]:
        return WeakKernelResult(x, False, None, float("inf"))
    w = lp_simplex_membership(mt[0], tol)
    if w is None:
        return WeakKernelResult(x, False, None, float("inf"))
    return WeakKernelResult(x, True, w, float(np.linalg.norm(m[0] @ w)))


def _compositions(m_count: int, per_edge: int) -> np.ndarray:
    """The integer compositions of per_edge into m_count parts, one per
    row in lexicographic order: the simplex grid with per_edge cells per
    edge, times per_edge."""
    comp = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([per_edge])
    for _ in range(m_count - 1):
        reps = rest + 1
        row = np.repeat(np.arange(rest.size), reps)
        first = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps,
                                                  reps)
        comp = np.column_stack([comp[row], first])
        rest = rest[row] - first
    return np.column_stack([comp, rest])


def _lex_rank(comp: np.ndarray, per_edge: int) -> np.ndarray:
    """Row index of each composition in _compositions order: the
    compositions before c that agree with it before slot j and are smaller
    there number C(R_j + s_j, s_j) - C(R_j - c_j + s_j, s_j), with R_j what
    is left for slot j and the s_j = m - 1 - j slots after it."""
    m_count = comp.shape[1]
    table = np.array([[math.comb(r + s, s) for s in range(m_count)]
                      for r in range(per_edge + 1)], dtype=np.int64)
    left = per_edge - np.cumsum(comp, axis=1) + comp
    slots = np.arange(m_count - 1, -1, -1)
    return (table[left, slots] - table[left - comp, slots]).sum(axis=1)


# grid points whose A(w) are stacked for one determinant call
DET_CHUNK = 256


def _singular_weight_candidates(family: MatrixFamily, per_edge: int):
    """Weights where A(w) is (nearly) singular, found by a determinant
    sign scan over edge segments of the simplex grid; a generator, so the
    bisections run only as far as the caller reads.  Memory is linear in
    the number of grid points: determinants are taken DET_CHUNK stacked
    A(w) at a time, and the segments are the grid's lattice neighbours
    c + e_a - e_b, looked up by rank."""
    n = family.n
    scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in family.matrices)

    def det_at(w):
        return float(np.linalg.det(family.a_of(w)))

    comp = _compositions(family.m_count, per_edge)
    grid = comp / per_edge
    dets = np.empty(len(grid))
    for lo in range(0, len(grid), DET_CHUNK):
        chunk = grid[lo:lo + DET_CHUNK]
        a = np.zeros((len(chunk), n, n))
        for wi, ai in zip(chunk.T, family.matrices):
            a += wi[:, None, None] * ai
        dets[lo:lo + len(chunk)] = np.linalg.det(a)
    cutoff = 1e-10 * scale ** n
    for w, d in zip(grid, dets):
        if abs(d) <= cutoff:
            yield w
    # refine sign changes along straight segments between grid neighbours,
    # the pairs i < j one lattice move c_j = c_i + e_a - e_b apart (a < b,
    # so that c_j follows c_i), in the order of i, then j
    sign = np.sign(dets)
    lower, upper = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for a, b in itertools.combinations(range(family.m_count), 2):
        i = np.flatnonzero(comp[:, b] > 0)
        move = np.zeros(family.m_count, dtype=np.int64)
        move[[a, b]] = 1, -1
        j = _lex_rank(comp[i] + move, per_edge)
        change = sign[i] * sign[j] < 0
        lower.append(i[change])
        upper.append(j[change])
    lower, upper = np.concatenate(lower), np.concatenate(upper)
    order = np.lexsort((upper, lower))
    for i, j in zip(lower[order], upper[order]):
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
    scan), and random unit samples, all drawn at once.  They are built a
    batch at a time (one kernel basis, or all samples), so the scan stops
    paying at its first witness.  Each batch goes through
    weak_kernel_membership's separating-direction screen in one call;
    weak_kernel_membership runs, in order, only on the candidates the
    screen leaves, and checked counts every candidate, screened or not.
    Any feasible membership at x != 0 is returned as a witness; otherwise
    the result is likely-trivial, explicitly non-certified.  A negative
    samples or seed is an InputError.
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

    def batches():
        for a in family.matrices:
            yield kernel(a, tol, scale=scale).basis.T
        for w in _singular_weight_candidates(family, per_edge):
            yield kernel(family.a_of(w), tol, scale=scale).basis.T
        v = rng.normal(size=(samples, n))
        nv = _row_norms(v)
        yield v[nv > 0] / nv[nv > 0, None]

    checked = 0
    for xs in batches():
        if not len(xs):
            continue
        _, _, xnorm, settled = _membership_matrices(family, xs, tol)
        for x, x_norm, skip in zip(xs, xnorm, settled):
            if x_norm < 1e-12:
                continue
            checked += 1
            if skip:
                continue
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
