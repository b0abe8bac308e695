"""Feasibility kernels: a projection-based semidefinite feasibility solver
and a phase-1 simplex for simplex-membership linear programs.

Problem class.  Every LMI problem here is homogeneous with strictly
definite variables: find symmetric X_v > 0 (X_v >= delta I, delta =
Tolerances.psd_margin) such that every constraint

    C(X) = sum_t coeff_t * sym(L_t^T X_{v_t} R_t)
           + sum_u cf_u * tr(X_{v_u}) * I  <=  0

with sym(M) = (M + M^T)/2.  Examples: A^T P A       -> Term(P, 1, A, A)
                                      A^T P + P A   -> Term(P, 2, A, I)
                                      (A-I)^T Q (A-I) -> Term(Q, 1, A-I, A-I)

The Lyapunov, damped, rank-reduced and common-Lyapunov certificates all
have this form.  Homogeneity is what the trust base rests on: any
positive multiple of a solution is a solution, so verify_lmi measures
residuals relative to the candidate's own scale and to its weakest
eigenvalue (an absolute threshold would accept a shrunken
non-certificate), and verify_dual's theorem of alternatives bounds the
pairing by that same scale, summed over every factor (the trace bracket)
or for one two-column factor on its own (the pair bound, which decides
weakly infeasible problems such as the damped LMI of a Jordan block, after
the facial reduction argument of Liu & Pataki, Math. Program. 2018).  The
solver normalizes the scale with a trace constraint.

The problems are small (a handful of variable blocks, dimensions in the
tens), so Douglas-Rachford splitting between an affine lift and a product
of shifted PSD cones is adequate and keeps the trust base tiny.  (Plain
alternating projections degrade to sublinear rates when the solution
touches a cone face, which rank-pinned certificates do routinely.)  The
solver itself is not part of the trust base.  Two answers carry evidence
that an eigenvalue-only check re-derives: "Feasible" (values that
verify_lmi accepts, found by the solver or built by the caller as a
candidate before any iteration, e.g. a Lyapunov-equation solution) and
"Infeasible" (dual factors that verify_dual accepts, built by the caller
before any iteration).  A caller-built answer reports 0 iterations.
"Infeasible-at-tolerance" is the solver's stall heuristic and carries no
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, InputError, NumericalError
from .linalg import DEFAULT_TOL, Tolerances, as_matrix

__all__ = [
    "FEASIBLE",
    "CERTIFIED_INFEASIBLE",
    "INFEASIBLE",
    "MAX_ITERATIONS",
    "VarBlock",
    "Term",
    "Constraint",
    "LmiProblem",
    "FeasibilityResult",
    "evaluate_constraint",
    "sdp_feasible",
    "verify_lmi",
    "dual_ratios",
    "verify_dual",
    "lp_simplex_membership",
]

FEASIBLE = "Feasible"
CERTIFIED_INFEASIBLE = "Infeasible"
INFEASIBLE = "Infeasible-at-tolerance"
MAX_ITERATIONS = "MaxIterations"

# cap keeping the dense projection solver honest about its size envelope
MAX_SCALAR_UNKNOWNS = 4000

# Douglas-Rachford iteration budget, and how often the iterate is checked
ITERATION_BUDGET = 20000
CHECK_EVERY = 10

# strict definiteness must exceed the residual acceptance level by this
# factor (both relative to certificate scale), separating strictly feasible
# problems from ones that are only feasible in closure
STRICT_SEP = 10.0

# constraint residuals must also be small relative to the weakest variable
# eigenvalue (floored near machine noise): a candidate that parks
# floor-level mass on a direction the constraint genuinely rejects shows a
# violation proportional to that mass, which a threshold relative to the
# overall certificate scale alone would wave through
REL_SLACK = 1e-3
NOISE_FLOOR = 1e-12

# rounding allowance of verify_dual, per unit of |coeff| ||L F|| ||R F||
# (the magnitude of one term's pairing before cancellation)
DUAL_ROUNDING = 1e-13

# verify_lmi absorbs BLAS jitter in its margins by these factors
_JITTER = 1e-9


@dataclass(frozen=True)
class VarBlock:
    """Symmetric matrix unknown X >= delta*I."""

    name: str
    dim: int


@dataclass(frozen=True)
class Term:
    var: str
    coeff: float
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class Constraint:
    """sum_t coeff * sym(L^T X R) + sum_u coeff * tr(X) * I <= 0.

    trace_terms entries are (var_name, coeff) pairs; they express relative
    strictness margins such as + gamma*tr(P)/n * I.
    """

    name: str
    dim: int
    terms: tuple
    trace_terms: tuple = ()


@dataclass
class LmiProblem:
    variables: list
    constraints: list
    tol: Tolerances = DEFAULT_TOL

    def variable(self, name: str) -> VarBlock:
        for v in self.variables:
            if v.name == name:
                return v
        raise InputError(f"unknown variable {name!r}")


@dataclass
class FeasibilityResult:
    """A feasibility answer.  check is the verify_lmi report that accepted
    values, set on every Feasible result by its producer, else None."""

    status: str
    values: dict
    iterations: int
    diagnostics: str = ""
    # constraint name -> F_c of a certificate of infeasibility (verify_dual)
    factors: dict = field(default_factory=dict)
    check: dict | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _svec_dim(n: int) -> int:
    return n * (n + 1) // 2


_SQRT2 = np.sqrt(2.0)
_SVEC_IDX: dict = {}


def _svec_idx(n: int):
    """Cached (rows, cols, weights) for row-major upper-triangle order."""
    cached = _SVEC_IDX.get(n)
    if cached is None:
        iu, ju = np.triu_indices(n)
        w = np.where(iu == ju, 1.0, _SQRT2)
        cached = _SVEC_IDX[n] = (iu, ju, w)
    return cached


def _svec(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diag * sqrt2)."""
    iu, ju, w = _svec_idx(m.shape[0])
    return m[iu, ju] * w


def _smat(v: np.ndarray, n: int) -> np.ndarray:
    iu, ju, w = _svec_idx(n)
    vals = v / w
    m = np.zeros((n, n))
    m[iu, ju] = vals
    m[ju, iu] = vals
    return m


def _svec_basis(n: int):
    """Orthonormal symmetric basis matrices E_k with svec(E_k) = e_k."""
    d = _svec_dim(n)
    out = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        out.append(_smat(e, n))
    return out


def evaluate_constraint(con: Constraint, values: dict) -> np.ndarray:
    """Instantiate C(vars) for given variable values."""
    acc = np.zeros((con.dim, con.dim))
    for t in con.terms:
        x = values[t.var]
        acc += t.coeff * _sym(t.left.T @ x @ t.right)
    for vn, cf in con.trace_terms:
        acc += cf * float(np.trace(np.asarray(values[vn]))) * np.eye(con.dim)
    return _sym(acc)


def _check_problem(problem: LmiProblem):
    names = set()
    for v in problem.variables:
        if v.name in names:
            raise InputError(f"duplicate variable {v.name!r}")
        names.add(v.name)
        if v.dim < 0:
            raise InputError("negative variable dimension")
    total = sum(_svec_dim(v.dim) for v in problem.variables)
    total += sum(_svec_dim(c.dim) for c in problem.constraints)
    if total > MAX_SCALAR_UNKNOWNS:
        raise CapabilityError(
            f"problem has {total} scalar unknowns, cap is {MAX_SCALAR_UNKNOWNS}")
    for c in problem.constraints:
        for t in c.terms:
            v = problem.variable(t.var)
            lt = as_matrix(t.left, square=False, name="term.left")
            rt = as_matrix(t.right, square=False, name="term.right")
            if lt.shape != (v.dim, c.dim) or rt.shape != (v.dim, c.dim):
                raise InputError(
                    f"term shapes in {c.name!r} do not match (need "
                    f"{v.dim}x{c.dim})")
        for vn, _cf in c.trace_terms:
            problem.variable(vn)


def _svec_index(i: int, j: int, d: int) -> int:
    """Index of entry (i, j), i <= j, in the svec ordering for dim d."""
    return i * d - i * (i - 1) // 2 + (j - i)


def _assemble(problem: LmiProblem):
    """Build the homogeneous affine system G z = 0 over
    z = [svec(vars); svec(slacks)].

    For each constraint: sum_t M_t svec(X) + svec(S_c) = 0, i.e.
    S_c = -C(vars), so S_c >= 0 encodes C(vars) <= 0.
    """
    var_offset = {}
    off = 0
    for v in problem.variables:
        var_offset[v.name] = off
        off += _svec_dim(v.dim)
    nvar = off
    con_offset = {}
    con_rows = []
    for c in problem.constraints:
        con_offset[c.name] = off
        off += _svec_dim(c.dim)
    ntot = off

    rows = sum(_svec_dim(c.dim) for c in problem.constraints)
    g = np.zeros((rows, ntot))
    r0 = 0
    basis_cache = {}
    for c in problem.constraints:
        rdim = _svec_dim(c.dim)
        con_rows.append((c, r0))
        for t in c.terms:
            v = problem.variable(t.var)
            if v.dim not in basis_cache:
                basis_cache[v.dim] = _svec_basis(v.dim)
            col0 = var_offset[t.var]
            for k, ek in enumerate(basis_cache[v.dim]):
                img = t.coeff * _sym(t.left.T @ ek @ t.right)
                g[r0:r0 + rdim, col0 + k] += _svec(img)
        svec_eye = _svec(np.eye(c.dim))
        for vn, cf in c.trace_terms:
            v = problem.variable(vn)
            col0 = var_offset[vn]
            for i in range(v.dim):
                g[r0:r0 + rdim, col0 + _svec_index(i, i, v.dim)] += cf * svec_eye
        s0 = con_offset[c.name]
        g[r0:r0 + rdim, s0:s0 + rdim] = np.eye(rdim)
        r0 += rdim
    return g, var_offset, con_offset, con_rows, nvar, ntot


def _facial_reduction(g, nvar, con_rows, con_offset, ntot):
    """Detect slack diagonal entries that no variable reaches, so the
    affine map forces them to 0.  A diagonal forced to 0 pins its whole
    row/column inside the PSD cone, so selector equalities for the
    off-diagonals are returned as extra rows of the affine system.
    """
    extra = []
    seen = set()
    for c, r0 in con_rows:
        d = c.dim
        rows = slice(r0, r0 + _svec_dim(d))
        # zero-detection is relative to this constraint's own coefficient
        # magnitude; a single heavily weighted constraint must not raise
        # the cutoff for its unweighted neighbours
        scale = 1.0 + (np.abs(g[rows, :nvar]).max() if nvar and d else 0.0)
        ztol = 1e-11 * scale
        forced = [i for i in range(d)
                  if nvar == 0 or np.abs(
                      g[r0 + _svec_index(i, i, d), :nvar]).max() <= ztol]
        s0 = con_offset[c.name]
        for i in forced:
            for j in range(d):
                if j == i:
                    continue
                lo, hi = min(i, j), max(i, j)
                key = (c.name, lo, hi)
                if key in seen:
                    continue
                seen.add(key)
                r = r0 + _svec_index(lo, hi, d)
                if nvar and np.abs(g[r, :nvar]).max() > ztol:
                    row = np.zeros(ntot)
                    row[s0 + _svec_index(lo, hi, d)] = 1.0
                    extra.append(row)
    return extra


def _extract(problem, z, var_offset):
    values = {}
    for v in problem.variables:
        o = var_offset[v.name]
        values[v.name] = _smat(z[o:o + _svec_dim(v.dim)], v.dim)
    return values


def sdp_feasible(problem: LmiProblem) -> FeasibilityResult:
    """Douglas-Rachford feasibility search.

    Returns Feasible only when the independent verify_lmi check passes on
    the candidate.  A stalled violation measure reports
    Infeasible-at-tolerance, a heuristic answer without a certificate;
    steady improvement that runs out of budget reports MaxIterations.  The
    certified answer Infeasible never comes from here: callers that can
    build dual factors check them with verify_dual before calling.
    """
    _check_problem(problem)
    tol = problem.tol
    g, var_offset, con_offset, con_rows, nvar, ntot = _assemble(problem)

    if ntot == 0:
        # only zero-size blocks: the empty matrices are the certificate
        values = {v.name: np.zeros((0, 0)) for v in problem.variables}
        return FeasibilityResult(FEASIBLE, values, 0,
                                 check=verify_lmi(problem, values))

    extra = _facial_reduction(g, nvar, con_rows, con_offset, ntot)
    if extra:
        g = np.vstack([g, np.array(extra)])
    b = np.zeros(g.shape[0])

    # the trace pin fixes the scale of the homogeneous problem, so the
    # iterate can neither collapse to the delta floor (which masks genuine
    # infeasibility) nor need to travel to a faraway scale.  It bounds every
    # variable norm by trace_total, so a fixed strict floor above
    # STRICT_SEP * residual_tol * scale keeps the cone a fixed set while
    # still separating strictness from closure feasibility
    trace_total = float(sum(v.dim for v in problem.variables))
    if trace_total:
        row = np.zeros(ntot)
        for v in problem.variables:
            o = var_offset[v.name]
            for i in range(v.dim):
                row[o + _svec_index(i, i, v.dim)] = 1.0
        g = np.vstack([g, row[None, :]])
        b = np.concatenate([b, [trace_total]])
    strict_floor = max(tol.psd_margin,
                       STRICT_SEP * tol.residual_tol * trace_total)

    # row equilibration: damped LMI forms carry 1/eps coefficient weights,
    # so raw rows can differ by four-plus orders of magnitude and defeat both
    # the pseudoinverse cutoff and the consistency test below; rescaling rows
    # of [g | b] leaves the affine set (hence its projector) unchanged
    row_scale = np.maximum(np.abs(g).max(axis=1), 1e-30)
    g = g / row_scale[:, None]
    b = b / row_scale

    # pinv-based affine projector tolerates redundant selector rows
    try:
        gpinv = np.linalg.pinv(g, rcond=1e-12)
    except np.linalg.LinAlgError:
        raise NumericalError("affine projector factorization failed") from None
    zstar = gpinv @ b
    if np.linalg.norm(g @ zstar - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        values = {v.name: np.zeros((v.dim, v.dim)) for v in problem.variables}
        return FeasibilityResult(
            INFEASIBLE, values, 0,
            diagnostics="affine constraint system is inconsistent")

    def proj_affine(z):
        return z - gpinv @ (g @ z - b)

    # cone floors: variables target twice the accepted floor internally,
    # which is sound by homogeneity (scale any exact solution up); every
    # slack block, forced-zero diagonals included, goes onto the PSD cone
    floors = [(var_offset[v.name], v.dim, 2.0 * strict_floor)
              for v in problem.variables]
    floors += [(con_offset[c.name], c.dim, 0.0) for c in problem.constraints]

    # group equal-dimension blocks so the eigendecompositions batch
    groups = []
    by_dim = {}
    for off, dim, floor in floors:
        if dim == 0:
            continue
        by_dim.setdefault(dim, []).append((off, floor))
    for dim, entries in by_dim.items():
        d = _svec_dim(dim)
        offs = np.array([e[0] for e in entries])
        idx = offs[:, None] + np.arange(d)[None, :]
        fl = np.array([e[1] for e in entries])
        iu, ju, wgt = _svec_idx(dim)
        groups.append((dim, idx, fl, iu, ju, wgt))

    def proj_cone(z):
        out = z.copy()
        for dim, idx, fl, iu, ju, wgt in groups:
            vs = z[idx] / wgt
            mats = np.zeros((idx.shape[0], dim, dim))
            mats[:, iu, ju] = vs
            mats[:, ju, iu] = vs
            w, u = np.linalg.eigh(mats)
            w = np.maximum(w, fl[:, None])
            mats = (u * w[:, None, :]) @ u.transpose(0, 2, 1)
            out[idx] = mats[:, iu, ju] * wgt
        return out

    def violation(values):
        scale, mins, accept, resids = _acceptance(problem, values)
        worst = max([0.0] + [strict_floor - me for me in mins.values()]
                    + [r - accept for r in resids.values()])
        return worst, scale

    x = np.zeros(ntot)
    for v in problem.variables:
        o = var_offset[v.name]
        x[o:o + _svec_dim(v.dim)] = _svec(np.eye(v.dim))
    history = []
    for it in range(1, ITERATION_BUDGET + 1):
        z = proj_affine(x)
        y = proj_cone(2.0 * z - x)
        x = x + y - z
        if it % CHECK_EVERY:
            continue
        if not np.all(np.isfinite(x)):
            raise NumericalError("feasibility iterate diverged")
        values = _extract(problem, z, var_offset)
        worst, scale = violation(values)
        if worst <= 0.0:
            check = verify_lmi(problem, values)
            if check["pass"]:
                return FeasibilityResult(FEASIBLE, values, it, check=check)
            # should not happen: internal acceptance is stricter
            return FeasibilityResult(
                MAX_ITERATIONS, values, it,
                diagnostics="verify_lmi rejected candidate")
        rel = worst / max(scale, 1e-300)
        history.append(rel)
        # track the scale-relative violation: the absolute one shrinks
        # with a drifting iterate and masks plateaus.  Blatant
        # violations plateau fast; near-threshold ones get the patient
        # window before the run is declared stalled
        fired = False
        if len(history) > 30 and rel > 1e-2:
            prev = history[-31]
            fired = prev - rel <= 1e-3 * max(prev, 1e-300)
        if not fired and len(history) > 120:
            prev = history[-121]
            fired = prev - rel <= 1e-4 * max(prev, 1e-300)
        if not fired and it >= 4000:
            # still orders of magnitude above tolerance after a long
            # budget: the slow O(1/k) crawl of an infeasible instance
            fired = rel > 1e3 * tol.residual_tol
        if fired:
            return FeasibilityResult(
                INFEASIBLE, values, it,
                diagnostics=f"stalled with violation {worst:.3e}")
    values = _extract(problem, z, var_offset)
    worst, _ = violation(values)
    return FeasibilityResult(
        MAX_ITERATIONS, values, ITERATION_BUDGET,
        diagnostics=f"budget exhausted with violation {worst:.3e}")


def _acceptance(problem: LmiProblem, values: dict) -> tuple:
    """(scale, var_min_eigs, accept, constraint_max_eigs): what a candidate
    is accepted by, the one computation behind verify_lmi and the solver's
    own stopping test.

    scale, the certificate scale for relative thresholds, is the largest
    variable spectral norm (1.0 when there are no sized variables).
    accept, the constraint residual acceptance level, is relative to that
    scale and additionally to the weakest variable eigenvalue (see
    REL_SLACK), floored near machine noise.  The eigenvalues are those of
    sym(X) and of the constraints evaluated at sym(X).
    """
    values = {v.name: np.asarray(values[v.name], dtype=float)
              for v in problem.variables}
    scale = max((float(np.linalg.norm(x, 2)) for x in values.values()
                 if x.size), default=1.0)
    sym_values = {name: _sym(x) for name, x in values.items()}
    mins = {v.name: (float(np.linalg.eigvalsh(sym_values[v.name])[0])
                     if v.dim else np.inf) for v in problem.variables}
    accept = problem.tol.residual_tol * scale
    weakest = min((mins[v.name] for v in problem.variables if v.dim),
                  default=None)
    if weakest is not None:
        accept = min(accept, max(REL_SLACK * weakest, NOISE_FLOOR * scale))
    maxs = {c.name: (float(np.linalg.eigvalsh(
                evaluate_constraint(c, sym_values))[-1]) if c.dim else 0.0)
            for c in problem.constraints}
    return scale, mins, accept, maxs


def verify_lmi(problem: LmiProblem, values: dict) -> dict:
    """Independent certificate check at problem.tol: symmetry,
    definiteness margins, and constraint residuals, using eigenvalue
    computations only.

    Residuals are accepted at residual_tol relative to the certificate
    scale (largest variable norm) and to the weakest variable eigenvalue
    (REL_SLACK): a candidate hiding floor-level mass on a genuinely
    rejected direction produces a violation proportional to that mass, so
    scaling the threshold the same way rejects it at any mass level.
    Every variable eigenvalue must clear the residual acceptance level by
    the separation factor (STRICT_SEP * residual_tol relative to scale,
    never below delta): without that, a problem whose closure is feasible
    but whose strict form is not (a variable forced to the floor) would
    pass.  The margins absorb BLAS jitter via the (1 - 1e-9) factor.  A
    quadratic form sees only the symmetric part of its matrix, so after
    the symmetry check the constraints are evaluated at sym(X).
    """
    tol = problem.tol
    report = {"pass": True, "symmetry_residuals": {}}
    for v in problem.variables:
        if v.name not in values:
            raise InputError(f"missing value for variable {v.name!r}")
        x = as_matrix(values[v.name], name=v.name)
        if x.shape != (v.dim, v.dim):
            raise InputError(f"value for {v.name!r} has wrong shape")
        sym_resid = float(np.linalg.norm(x - x.T)) / (1.0 + np.linalg.norm(x))
        report["symmetry_residuals"][v.name] = sym_resid
        if sym_resid > 1e-9:
            report["pass"] = False
    scale, mins, accept, maxs = _acceptance(problem, values)
    need = max(tol.psd_margin, STRICT_SEP * tol.residual_tol * scale)
    if (any(me < need * (1.0 - _JITTER) for me in mins.values())
            or any(r > accept * (1.0 + _JITTER) for r in maxs.values())):
        report["pass"] = False
    report.update(constraint_max_eigs=maxs, var_min_eigs=mins, scale=scale)
    return report


def dual_ratios(tol: Tolerances) -> tuple:
    """(a, b) with accept <= a * weakest and scale <= b * weakest for every
    candidate that verify_lmi passes (see verify_dual)."""
    b = 1.0 / (STRICT_SEP * tol.residual_tol * (1.0 - _JITTER))
    a = max(REL_SLACK, NOISE_FLOOR * b) * (1.0 + _JITTER)
    return a, b


def _adjoint(problem: LmiProblem, con: Constraint, f: np.ndarray,
             g: np.ndarray) -> tuple:
    """(W, tr Z, rounding) for Z = sym(f g') on constraint con: the adjoint
    image W (variable name -> matrix), so that <C(X), Z> = sum_v <X_v, W_v>
    for symmetric X, and the magnitude of the pairing's terms before
    cancellation, sum |coeff| ||L f|| ||R g|| (averaged with f and g
    swapped) plus |cf| dim_v ||f|| ||g|| per trace term."""
    w = {}
    tz = float(np.sum(f * g))
    mag = tz if g is f else float(np.linalg.norm(f) * np.linalg.norm(g))
    rounding = 0.0
    for t in con.terms:
        lf, rg = t.left @ f, t.right @ g
        img = lf @ rg.T
        size = np.linalg.norm(lf) * np.linalg.norm(rg)
        if g is not f:
            lg, rf = t.left @ g, t.right @ f
            img = 0.5 * (img + lg @ rf.T)
            size = 0.5 * (size + np.linalg.norm(lg) * np.linalg.norm(rf))
        w[t.var] = w.get(t.var, 0.0) + t.coeff * _sym(img)
        rounding += abs(t.coeff) * size
    for vn, cf in con.trace_terms:
        dim = problem.variable(vn).dim
        w[vn] = w.get(vn, 0.0) + cf * tz * np.eye(dim)
        rounding += abs(cf) * dim * mag
    return w, tz, rounding


def _pairing_bounds(w: dict, b: float) -> tuple:
    """(tr W+ - b tr W-, tr W- - b tr W+), summed over the variables: per
    unit of the weakest eigenvalue, lower bounds on <X, W> and <X, -W>
    for every X that verify_lmi passes (see verify_dual)."""
    pos = neg = 0.0
    for x in w.values():
        if np.size(x):
            e = np.linalg.eigvalsh(x)
            pos += float(e[e > 0.0].sum())
            neg -= float(e[e < 0.0].sum())
    return pos - b * neg, neg - b * pos


def verify_dual(problem: LmiProblem, factors: dict) -> dict:
    """Independent check of a certificate of infeasibility at problem.tol:
    it passes only when no values can pass verify_lmi on the problem.
    Eigenvalue checks only.

    factors maps constraint names to F_c (dim_c x r_c), so that
    Z_c = F_c F_c' >= 0 by construction; a constraint without an entry has
    Z_c = 0.  The adjoint image of a symmetric Z on constraint c and
    variable v is

        W_v(Z) = sum_{t on v} coeff_t sym(L_t Z R_t')
                 + sum_{(v, cf) in trace_terms} cf tr(Z) I,

    so <C_c(X), Z> = sum_v <X_v, W_v(Z)> for symmetric X (verify_lmi
    evaluates sym(X)).  Take X that passes verify_lmi; weakest is its
    smallest variable eigenvalue and scale its largest variable norm.
    Every variable eigenvalue clears STRICT_SEP residual_tol scale, so
    scale <= b * weakest with b = 1/(STRICT_SEP residual_tol), and
    lambda_max(C_c(X)) <= accept <= a * weakest with
    a = max(REL_SLACK, NOISE_FLOOR b); dual_ratios(tol) gives (a, b),
    widened by verify_lmi's jitter factors.  Then for every W

      <X, W> >= weakest tr W+ - scale tr W- >= weakest * l(W),
      l(W) = tr W+ - b tr W-   (summed over the variables).

    Trace bracket.  With W = sum_c W(Z_c): sum_c <C_c(X), Z_c> <= accept
    sum_c tr Z_c, because Z_c >= 0.  Together, weakest * (l(W) - a sum
    tr Z_c) <= 0 and weakest > 0, so a positive bracket rules out every
    X.

    Pair bound.  When the bracket fails, a constraint whose factor has
    exactly two columns f1, f2 is tried on its own.  With V = [f1 f2],
    H = accept V'V - V'C(X)V >= 0, so H12^2 <= H11 H22.  Each
    g_ij = f_i'C(X)f_j = <X, W_ij>, W_ij = W(sym(f_i f_j')), is at least
    weakest * l_ij with l_ij = l(W_ij); so H_ii <= weakest (a|f_i|^2 -
    l_ii), and |H12| >= weakest * d with
    d = max(l(W_12), l(-W_12)) - a |f1'f2|.  Hence d > 0 and
    d^2 > (a|f1|^2 - l_11)(a|f2|^2 - l_22) rule out every X (a negative
    factor on the right is the 1x1 case: then H_ii < 0 already).  The
    trace bracket is this bound's 1x1 case.  It decides the damped LMI of
    a Jordan block at the critical value (lti.vertex_duals' chain pairs),
    which is only weakly infeasible: every Z whose image is >= 0 pairs to
    zero, so no trace bracket passes, but a chain's cross term g_12 is
    bounded away from zero where its g_22 can stay small.

    Rounding.  Every l above must clear b * DUAL_ROUNDING times the
    magnitude of its pairing's terms, sum |coeff| ||L f|| ||R g|| (plus
    |cf| dim_v ||f|| ||g|| per trace term): the floating-point error of
    the pairing, whose terms can cancel.  All-zero factors are rejected.

    The report's margin is the bracket per unit sum tr Z_c, or, when a
    pair passes, (d^2 - rhs) / (|f1|^2 |f2|^2) with the passing
    constraint named under "pair".
    """
    names = {c.name for c in problem.constraints}
    for name in factors:
        if name not in names:
            raise InputError(f"factor for unknown constraint {name!r}")
    report = {"pass": False, "margin": float("nan"), "reason": ""}
    a, b = dual_ratios(problem.tol)
    allowance = b * DUAL_ROUNDING
    w = {}
    trace_z = 0.0
    rounding = 0.0
    pairs = []
    for c in problem.constraints:
        if c.name not in factors:
            continue
        f = as_matrix(factors[c.name], square=False, name=f"factor {c.name}")
        if f.shape[0] != c.dim:
            raise InputError(f"factor for {c.name!r} needs {c.dim} rows")
        wc, tz, rc = _adjoint(problem, c, f, f)
        for vn, x in wc.items():
            w[vn] = w.get(vn, 0.0) + x
        trace_z += tz
        rounding += rc
        if f.shape[1] == 2:
            pairs.append((c, f[:, :1], f[:, 1:]))
    if trace_z == 0.0:
        report["reason"] = "every factor is zero"
        return report
    bracket = (_pairing_bounds(w, b)[0] - a * trace_z
               - allowance * rounding)
    report["margin"] = bracket / trace_z
    report["pass"] = bool(bracket > 0.0)

    def bounds(c, f, g):
        """(l(W), l(-W), tr Z) for Z = sym(f g') on c, each l less its
        rounding allowance."""
        wz, tz, rz = _adjoint(problem, c, f, g)
        lo, lo_neg = _pairing_bounds(wz, b)
        return lo - allowance * rz, lo_neg - allowance * rz, tz

    for c, f1, f2 in pairs:
        if report["pass"]:
            break
        l11, _, n11 = bounds(c, f1, f1)
        l22, _, n22 = bounds(c, f2, f2)
        l12, l21, n12 = bounds(c, f1, f2)
        d = max(l12, l21) - a * abs(n12)
        rhs = (a * n11 - l11) * (a * n22 - l22)
        if d > 0.0 and d * d > rhs:
            report["pass"] = True
            report.update(margin=(d * d - rhs) / (n11 * n22), pair=c.name)
    if not report["pass"]:
        report["reason"] = "the pairing does not exclude every candidate"
    return report


def lp_simplex_membership(m, tol: Tolerances = DEFAULT_TOL):
    """Find w in the unit simplex with M w = 0, or None.

    Phase-1 simplex with Bland's rule on: minimize sum(a) subject to
    [M; 1^T] w + a = [0; 1], w >= 0, a >= 0.  M is normalized by its
    largest entry first (the solution set is scale-invariant), and a
    candidate is accepted only if ||M w|| <= residual_tol (1 + max |M|)
    afterwards.  M alone cannot tell rounding noise from a small genuine
    column; a caller whose M is a product zeroes its noise columns first
    (see lasalle.weak_kernel_membership).
    """
    m = as_matrix(m, square=False, name="membership matrix")
    nrow, ncol = m.shape
    if ncol == 0:
        return None
    scale = float(np.abs(m).max())
    mn = m / scale if scale > 0 else m
    rows = nrow + 1
    cols = ncol + rows
    # tableau rows: [A | I | rhs], objective = sum of artificials
    a = np.zeros((rows, cols + 1))
    a[:nrow, :ncol] = mn
    a[nrow, :ncol] = 1.0
    a[:, ncol:ncol + rows] = np.eye(rows)
    a[nrow, cols] = 1.0
    basis = np.arange(ncol, ncol + rows)
    # objective coefficients: 1 on the artificials
    cost = (np.arange(cols) >= ncol).astype(float)

    piv_tol = 1e-11
    max_pivots = 200 * (cols + 1)
    for _ in range(max_pivots):
        # reduced costs c_j - z_j, z_j summing a[i, j] over the rows whose
        # basic variable is artificial
        red = cost - a[basis >= ncol, :cols].sum(axis=0)
        eligible = red < -1e-9
        eligible[basis] = False
        candidates = np.flatnonzero(eligible)
        if not candidates.size:
            break
        entering = candidates[0]  # Bland: smallest eligible index
        col = a[:, entering]
        rows_ok = np.flatnonzero(col > piv_tol)
        if not rows_ok.size:
            raise NumericalError("phase-1 LP unbounded (should not happen)")
        # smallest ratio, ties to the smallest basic index
        ratios = a[rows_ok, cols] / col[rows_ok]
        r = rows_ok[np.lexsort((basis[rows_ok], ratios))[0]]
        a[r] /= a[r, entering]
        f = a[:, entering].copy()
        f[r] = 0.0
        a -= np.outer(f, a[r])
        basis[r] = entering
    else:
        raise NumericalError("simplex pivot cap exceeded")

    artificial = basis >= ncol
    objective = sum(a[artificial, cols].tolist())
    if objective > 1e-9:
        return None
    w = np.zeros(ncol)
    w[basis[~artificial]] = a[~artificial, cols]
    w = np.maximum(w, 0.0)
    s = w.sum()
    if s <= 0:
        return None
    w /= s
    if float(np.linalg.norm(m @ w)) > tol.residual_tol * (1.0 + scale):
        return None
    return w
