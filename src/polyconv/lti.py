"""Single-matrix (LTI) convergence analysis, and the vertex LMI forms and
kernel-aligned decomposition shared with the polytopic routes.

A discrete-time x(k+1) = A x(k) converges for every x0 iff every eigenvalue
has modulus < 1 or equals 1 and is semisimple; continuous-time xdot = A x
converges iff every eigenvalue has negative real part or equals 0 and is
semisimple.  Both are decided spectrally through the nested kernel test,
with tolerance bands adjudicated as follows: critical eigenvalues captured
by the rank cutoff are removed as the semisimple cluster; of the remaining
ones, a modulus (real part) that is machine-exactly critical is Disproven,
one strictly inside the (1e-12, 1e-8) band returns Unknown.

Every per-vertex quantity these verdicts and the kernel facts rest on
comes from one stacked vertex pass (VertexPass): ||A_i||_2, the SVDs of
A_i - lam0 I and of its square, and eigvals(A_i), one LAPACK call each
over the (m, n, n) vertex stack.  The vertex verdicts, the vertex
kernels, the Jordan chains and the report all read it; a single matrix
is the one-vertex pass (lti_convergent_dt/_ct).

The LMI routes assemble the corresponding feasibility problems in
kernel-aligned coordinates (which exposes the structurally-zero rows to the
solver's facial reduction) and adjudicate purely through the two
solver-free checks: verify_lmi for a certificate (found by sdp_feasible,
or for the common-Lyapunov LMI first tried as a Lyapunov-equation
solution, see lyapunov_candidates) and verify_dual for a certificate of
infeasibility.  Eigenvectors, and on the damped form the Jordan chains at
the critical value, enter only as candidates for the latter (see
vertex_duals).  A candidate that its check rejects costs the solver run it
was meant to save, never a verdict.

This module owns the one implementation of each object that the family
routes in `inclusion` pose at every vertex: the vertex pass, the vertex
fixed spaces and their intersection (KernelFacts, built by kernel_facts,
the only code that computes them), the kernel-aligned decomposition and
per-vertex bases read from those facts, the damped vertex LMI, the
rank-reduced vertex LMI, the common quadratic Lyapunov (CQLF) LMI and the
DT eta-scan.  Each is written over a tuple of vertex matrices A_1..A_m; a
single matrix is the one-vertex case (a,).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import InputError
from .feasibility import (
    CERTIFIED_INFEASIBLE,
    FEASIBLE,
    Constraint,
    FeasibilityResult,
    LmiProblem,
    Term,
    VarBlock,
    dual_ratios,
    sdp_feasible,
    verify_dual,
    verify_lmi,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    as_matrix,
    kernel,
    kernel_from_svd,
    norms_2,
    orthogonal_complement,
    spectra,
    subspace_intersection,
    subspaces_equal,
    svd_stack,
)

__all__ = [
    "PROVEN",
    "DISPROVEN",
    "UNKNOWN",
    "ETA_GRID",
    "EPS_GRID",
    "Verdict",
    "Decomposition",
    "VertexPass",
    "KernelFacts",
    "LmiOutcome",
    "kernel_facts",
    "is_semisimple_at",
    "check_grid_parameter",
    "dt_aux",
    "ct_aux",
    "eas",
    "lti_convergent_dt",
    "lti_convergent_ct",
    "lti_decompose_dt",
    "lti_decompose_ct",
    "lti_lmi_dt_e",
    "lti_lmi_dt_f",
    "lti_lmi_ct_f",
    "lti_lmi_ct_g",
    "lti_limit",
]

PROVEN = "Proven"
DISPROVEN = "Disproven"
UNKNOWN = "Unknown"

# eta = 1 - 10^-j for j in {0.3, 1, 2, 3}
ETA_GRID = tuple(1.0 - 10.0 ** (-j) for j in (0.3, 1.0, 2.0, 3.0))
EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)

# moduli this close to critical (relative to 1 + ||A||) count as exactly
# critical; between this and the 1e-8 band the verdict is Unknown
EXACT_BAND = 1e-12
UNKNOWN_BAND = 1e-8

# relative strictness margin of the common-Lyapunov inequalities, posed as
# a trace term: any gamma > 0 certifies strict vertex decay by homogeneity
CQLF_GAMMA = 1e-3


@dataclass
class Verdict:
    status: str
    method: str
    details: dict = field(default_factory=dict)

    @property
    def proven(self) -> bool:
        return self.status == PROVEN

    @property
    def disproven(self) -> bool:
        return self.status == DISPROVEN


@dataclass
class Decomposition:
    """One orthogonal T = [complement basis | kernel basis] for vertices
    A_1..A_m sharing the kernel, with per-vertex blocks
    T' A_i T = [[a_as[i], 0], [a_r[i], I_m]] (dt) or
    [[a_as[i], 0], [a_r[i], 0_m]] (ct)."""

    t: np.ndarray
    m: int
    kernel: Subspace
    complement: Subspace
    a_as: tuple
    a_r: tuple
    residual: float


@dataclass
class LmiOutcome:
    parameter: float | None
    result: FeasibilityResult
    problem: LmiProblem

    @property
    def feasible(self) -> bool:
        return self.result.feasible


# ---------------------------------------------------------------- aux maps

def _check_mode(mode: str) -> str:
    if mode not in ("dt", "ct"):
        raise InputError(f"mode must be 'dt' or 'ct', got {mode!r}")
    return mode


def _check_positive(name: str, value: float) -> None:
    """A step or damping value must be positive and finite (NaN is not)."""
    if not 0.0 < value < np.inf:
        raise InputError(f"{name} must be positive and finite, got {value}")


def _check_damping(mode: str, parameter: float) -> None:
    """The damping range of the mode: eta in (0, 1) (dt), eps > 0 (ct)."""
    if mode == "dt" and not 0.0 < parameter < 1.0:
        raise InputError(f"eta must be in (0, 1), got {parameter}")
    if mode == "ct":
        _check_positive("eps", parameter)


def check_grid_parameter(mode: str, parameter) -> None:
    """InputError unless parameter is a point of the damping grid that the
    weak scan searches and verify_report accepts: ETA_GRID (dt), EPS_GRID
    (ct).  Off the grid a margin can recompute at an edited parameter."""
    grid = ETA_GRID if mode == "dt" else EPS_GRID
    if parameter not in grid:
        name = "eta" if mode == "dt" else "eps"
        raise InputError(f"{name} must be on its grid {grid}, got {parameter}")


def dt_aux(a, eta: float) -> np.ndarray:
    """(1/eta) A - ((1-eta)/eta) I; eigenvalues map nu = (lam-(1-eta))/eta."""
    a = as_matrix(a)
    _check_damping("dt", eta)
    return a / eta - ((1.0 - eta) / eta) * np.eye(a.shape[0])


def ct_aux(a, eps: float) -> np.ndarray:
    """A (I + eps A)^-1; eigenvalues map nu = lam / (1 + eps lam)."""
    a = as_matrix(a)
    _check_damping("ct", eps)
    n = a.shape[0]
    shifted = np.eye(n) + eps * a
    sv = np.linalg.svd(shifted, compute_uv=False) if n else np.array([1.0])
    if n and sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise InputError("I + eps*A is numerically singular")
    return a @ np.linalg.inv(shifted)


def eas(a, tau: float) -> np.ndarray:
    """Explicit Euler step map I + tau A; eigenvalues map nu = 1 + tau lam."""
    a = as_matrix(a)
    _check_positive("tau", tau)
    return np.eye(a.shape[0]) + tau * a


def _critical(mode: str) -> float:
    """The critical eigenvalue lam0 of the mode: 1 (dt) or 0 (ct)."""
    return 1.0 if _check_mode(mode) == "dt" else 0.0


# ---------------------------------------------------------------- spectral

class VertexPass:
    """The one vertex pass: the per-vertex facts of vertices A_1..A_m
    (mats) at lam0 that the vertex verdicts, the kernel facts and the
    report read, each from one LAPACK call over the (m, n, n) vertex
    stack: ||A_i||_2 (norms), the full SVD of S_i = A_i - lam0 I (svd)
    and, built on first use, the full SVD of S_i^2 (squared_svd); the
    vertex verdicts add eigvals(A_i) (linalg.spectra, once per
    KernelFacts).  A stacked call gives each vertex the bits of its own
    call, so every cutoff and verdict read from here is the one a
    per-vertex computation gives.

    The vertex kernels are cut from these SVDs at the scales the caller
    chooses (kernels); the nested kernel dimensions of each vertex
    (nested_dims) are cut at its own scale 1 + ||A_i|| + |lam0| (squared
    for S_i^2), so that e.g. A = I at lam0 = 1 resolves exactly even
    though A - I vanishes.
    """

    def __init__(self, mats, lam0: float, tol: Tolerances = DEFAULT_TOL):
        self.mats, self.lam0, self.tol = tuple(mats), lam0, tol
        self.stack = np.array([as_matrix(a) for a in self.mats])
        n = self.stack.shape[-1]
        self.shifted = self.stack - lam0 * np.eye(n)
        self.norms = norms_2(self.stack) if n else np.zeros(len(self.mats))
        self.svd = svd_stack(self.shifted)

    @cached_property
    def squared_svd(self) -> tuple:
        squared = self.shifted @ self.shifted
        if not np.all(np.isfinite(squared)):
            raise InputError("matrix contains non-finite entries")
        return svd_stack(squared)

    def kernels(self, scales, squared: bool = False) -> tuple:
        """ker S_i (ker S_i^2 when squared) of every vertex, cut at
        scales[i] as linalg.kernel cuts it."""
        _, s, vt = self.squared_svd if squared else self.svd
        return tuple(kernel_from_svd(si, vti, vti.shape, self.tol, scale)[1]
                     for si, vti, scale in zip(s, vt, scales))

    @cached_property
    def nested_dims(self) -> tuple:
        """(dim ker S_i, dim ker S_i^2, scale) of each vertex at its own
        scale."""
        scales = [1.0 + float(x) + abs(self.lam0) for x in self.norms]
        squared = self.kernels([c * c for c in scales], squared=True)
        return tuple((k.dim, k2.dim, c) for k, k2, c in zip(
            self.kernels(scales), squared, scales))


def is_semisimple_at(a, lam0: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nested kernel test: dim ker(A - lam0 I) == dim ker((A - lam0 I)^2)
    (VertexPass.nested_dims).  Vacuously true when lam0 is not an
    eigenvalue (trivial kernel)."""
    d1, d2, _ = VertexPass((a,), float(lam0), tol).nested_dims[0]
    return d1 == 0 or d1 == d2


def _vertex_verdicts(vp: VertexPass, mode: str) -> tuple:
    """The spectral convergence verdict of each vertex of a pass made at
    the critical value of mode."""
    return tuple(_spectral_verdict(eigs, *dims, mode)
                 for eigs, dims in zip(spectra(vp.stack), vp.nested_dims))


def _spectral_verdict(eigs, g: int, g2: int, scale: float,
                      mode: str) -> Verdict:
    lam0 = _critical(mode)
    details = {
        "eigenvalues": eigs,
        "kernel_dim": g,
        "nested_kernel_dim": g2,
        "critical_value": lam0,
    }
    # a defect verdict needs an actual kernel: with g = 0 the squared
    # matrix's larger rank cutoff can capture a spurious kernel for
    # eigenvalues that merely sit near the critical value
    if g >= 1 and g2 > g:
        details["defect"] = g2 - g
        return Verdict(DISPROVEN, "spectral-defective", details)
    # drop the g eigenvalues nearest the critical value: that cluster is
    # exactly the semisimple critical part captured by the kernel
    order = np.argsort(np.abs(eigs - lam0))
    rest = eigs[order[g:]]
    if mode == "dt":
        excess = np.abs(rest) - 1.0
    else:
        excess = rest.real
    exact = EXACT_BAND * scale
    if np.any(excess >= UNKNOWN_BAND):
        details["worst_excess"] = float(excess.max()) if excess.size else 0.0
        return Verdict(DISPROVEN, "spectral-unstable", details)
    if np.any(np.abs(excess) <= exact):
        # machine-exactly critical but not captured at lam0 (e.g. modulus-1
        # rotation pairs, a critical real part with nonzero imag): these
        # are genuinely non-convergent modes
        return Verdict(DISPROVEN, "spectral-critical", details)
    if np.any(excess > -UNKNOWN_BAND):
        details["band"] = True
        return Verdict(UNKNOWN, "spectral-band", details)
    return Verdict(PROVEN, "spectral", details)


def lti_convergent_dt(a, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    return _vertex_verdicts(VertexPass((a,), 1.0, tol), "dt")[0]


def lti_convergent_ct(a, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    return _vertex_verdicts(VertexPass((a,), 0.0, tol), "ct")[0]


# ------------------------------------------------------------- decompose

def block_form(mats, mode: str, wc: np.ndarray, wk: np.ndarray):
    """Blocks of T' A_i T for T = [wc | wk]: the off-kernel blocks
    wc' A_i wc, the couplings wk' A_i wc, and the largest deviation of the
    other two blocks from 0 and I (dt) resp. 0 (ct), which is zero when
    span(wk) is fixed (dt) resp. annihilated (ct) by every vertex.  The
    deviations' 2-norms come from one stacked SVD per block."""
    target = _critical(mode) * np.eye(wk.shape[1])
    devs = [[wk.T @ a @ wk - target for a in mats]] if wk.shape[1] else []
    if wc.shape[1] and wk.shape[1]:
        devs.append([wc.T @ a @ wk for a in mats])
    residual = max([0.0] + [float(x) for d in devs for x in norms_2(d)])
    return (tuple(wc.T @ a @ wc for a in mats),
            tuple(wk.T @ a @ wc for a in mats), residual)


@dataclass(frozen=True, eq=False)
class KernelFacts:
    """The fixed spaces ker(A_i - lam0 I) of vertices A_1..A_m, lam0 = 1
    (dt) or 0 (ct), their intersection (the common kernel), the
    matrices, mode, tolerances and rank-cutoff scale they were computed
    with, and the vertex pass they were cut from (vertices).

    Everything else that rests on the vertices is read from here, built on
    first use: the vertex verdicts, the kernel-sharing facts (holds,
    kernel_dims, common_dim), the family-wide decomposition, the
    per-vertex aligned bases, eigenpairs and Jordan chains.
    """

    mats: tuple
    mode: str
    tol: Tolerances
    kernels: tuple
    common: Subspace
    scale: float
    vertices: VertexPass

    @cached_property
    def vertex_verdicts(self) -> tuple:
        """The spectral convergence verdict of each vertex: the necessary
        condition that inclusion.verdicts_from_evidence reads first."""
        return _vertex_verdicts(self.vertices, self.mode)

    @cached_property
    def holds(self) -> bool:
        """Whether every vertex kernel equals the common one."""
        return subspaces_equal(self.kernels, self.common, self.tol)

    @property
    def kernel_dims(self) -> tuple:
        return tuple(k.dim for k in self.kernels)

    @property
    def common_dim(self) -> int:
        return self.common.dim

    @cached_property
    def decomposition(self) -> Decomposition:
        """Block form of every vertex in T = [complement | common kernel];
        InputError unless every vertex kernel equals the common one."""
        if not self.holds:
            raise InputError(
                "family-wide decomposition needs every vertex fixed space "
                f"to equal the common one (dims {self.kernel_dims} vs "
                f"common {self.common_dim}); a shared kernel is necessary "
                "for strong convergence")
        comp = orthogonal_complement(self.common, self.tol)
        a_as, a_r, residual = block_form(self.mats, self.mode, comp.basis,
                                         self.common.basis)
        return Decomposition(np.hstack([comp.basis, self.common.basis]),
                             self.common_dim, self.common, comp, a_as, a_r,
                             residual)

    @cached_property
    def bases(self) -> tuple:
        """Orthogonal T_i = [complement basis | kernel basis] of each
        vertex kernel."""
        return tuple(np.hstack([orthogonal_complement(k, self.tol).basis,
                                k.basis]) for k in self.kernels)

    @cached_property
    def eigenpairs(self) -> tuple:
        """(eigenvalues, eigenvectors) of each vertex, which vertex_duals
        reads at every damped problem."""
        return tuple(np.linalg.eig(a) for a in self.mats)

    @cached_property
    def chains(self) -> tuple:
        """Per vertex, a Jordan chain [S v, v] at lam0 (n x 2), S = A_i -
        lam0 I, with v a unit vector of ker S^2 orthogonal to ker S; None
        where ker S is trivial or equals ker S^2.  ker S^2 is cut from the
        vertex pass at the squared scale, and only when some ker S is
        nontrivial."""
        squared = (self.vertices.kernels([self.scale ** 2] * len(self.mats),
                                         squared=True)
                   if any(self.kernel_dims) else self.kernels)
        out = []
        for k, k2, s in zip(self.kernels, squared, self.vertices.shifted):
            if not k.dim or k2.dim <= k.dim:
                out.append(None)
                continue
            # the part of ker S^2 orthogonal to ker S
            v = k2.basis @ kernel(k.basis.T @ k2.basis, self.tol,
                                  scale=1.0).basis[:, 0]
            out.append(np.column_stack([s @ v, v]))
        return tuple(out)


def kernel_facts(mats, mode: str,
                 tol: Tolerances = DEFAULT_TOL) -> KernelFacts:
    """The KernelFacts of vertices mats: the one vertex pass of an analysis
    (VertexPass), and the vertex fixed spaces cut from its SVDs.

    The rank cutoffs of the fixed spaces are guarded by one scale,
    1 + max ||A_i|| + |lam0| (the shifted matrix can vanish by
    cancellation, e.g. A - I with A near I).
    """
    lam0 = _critical(mode)
    vp = VertexPass(mats, lam0, tol)
    scale = 1.0 + float(vp.norms.max()) + abs(lam0)
    kernels = vp.kernels([scale] * len(vp.mats))
    return KernelFacts(vp.mats, mode, tol, kernels,
                       subspace_intersection(kernels, tol), scale, vp)


def lti_decompose_dt(a, tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    return kernel_facts((as_matrix(a),), "dt", tol).decomposition


def lti_decompose_ct(a, tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    return kernel_facts((as_matrix(a),), "ct", tol).decomposition


# ---------------------------------------------------------------- LMIs

def damped_problem(facts: KernelFacts, parameter: float) -> LmiProblem:
    """Damped vertex inequalities for one parameter, eta in (0, 1) (dt) or
    eps > 0 (ct), each conjugated by that vertex's own kernel-aligned basis
    T_i (KernelFacts.bases):
    eta (A'PA - P) + (1-eta) (A-I)'P(A-I) <= 0 (dt) or
    A'P + PA + eps A'PA <= 0 (ct), and P > 0.

    Each constraint is scaled by 1/(1-eta) resp. 1/eps, which leaves the
    feasible set unchanged but keeps the damped term at unit weight: for
    eta near 1 (eps near 0), a damping-shrunk violation could otherwise
    hide inside the residual acceptance threshold.
    """
    mode = facts.mode
    _check_damping(mode, parameter)
    n = facts.mats[0].shape[0]
    cons = []
    for i, (a, t) in enumerate(zip(facts.mats, facts.bases)):
        at = a @ t
        if mode == "dt":
            amt = (a - np.eye(n)) @ t
            k = parameter / (1.0 - parameter)
            terms = (Term("P", k, at, at),
                     Term("P", -k, t, t),
                     Term("P", 1.0, amt, amt))
        else:
            terms = (Term("P", 2.0 / parameter, at, t),
                     Term("P", 1.0, at, at))
        cons.append(Constraint(f"vertex{i + 1}", n, terms))
    return LmiProblem([VarBlock("P", n)], cons, facts.tol)


def reduced_problem(mats, mode: str, wc: np.ndarray,
                    tol: Tolerances = DEFAULT_TOL) -> LmiProblem:
    """Rank-reduced vertex inequalities over a shared kernel: P = Wc P1 Wc'
    (rank n - m, Wc = wc the complement basis), Q > 0, and for every vertex
    A'PA - P + (A-I)'Q(A-I) <= 0 (dt) or A'P + PA + A'QA <= 0 (ct).

    Every term vanishes identically on the kernel coordinates (A fixes
    resp. annihilates them and P ignores them), so each constraint is posed
    on the complement coordinates only; keeping the null rows would pin the
    slack to a face of the PSD cone and stall the projection solver.
    """
    n = mats[0].shape[0]
    r = wc.shape[1]
    eye_r = np.eye(r)
    cons = []
    for i, a in enumerate(mats):
        l_p_a = wc.T @ a @ wc
        if mode == "dt":
            l_q = (a - np.eye(n)) @ wc
            terms = (Term("P1", 1.0, l_p_a, l_p_a),
                     Term("P1", -1.0, eye_r, eye_r),
                     Term("Q", 1.0, l_q, l_q))
        else:
            l_q = a @ wc
            terms = (Term("P1", 2.0, l_p_a, eye_r),
                     Term("Q", 1.0, l_q, l_q))
        cons.append(Constraint(f"vertex{i + 1}", r, terms))
    return LmiProblem([VarBlock("P1", r), VarBlock("Q", n)], cons, tol)


def cqlf_problem(blocks, mode: str,
                 tol: Tolerances = DEFAULT_TOL) -> LmiProblem:
    """Common quadratic Lyapunov LMI: A_i'PA_i - P (dt) or A_i'P + PA_i
    (ct) below -gamma (tr P / n) I for every block, P > 0.  Blocks of size
    0 leave nothing to constrain."""
    _check_mode(mode)
    nb = blocks[0].shape[0]
    if nb == 0:
        return LmiProblem([VarBlock("P", 0)], [], tol)
    eye = np.eye(nb)
    cons = []
    for i, b in enumerate(blocks):
        if mode == "dt":
            terms = (Term("P", 1.0, b, b), Term("P", -1.0, eye, eye))
        else:
            terms = (Term("P", 2.0, b, eye),)
        cons.append(Constraint(f"vertex{i + 1}", nb, terms,
                               trace_terms=(("P", CQLF_GAMMA / nb),)))
    return LmiProblem([VarBlock("P", nb)], cons, tol)


def vertex_duals(facts: KernelFacts, parameter: float | None = None,
                 wc: np.ndarray | None = None) -> dict:
    """Candidate factors for verify_dual from vertex eigenpairs: of the
    damped problem (parameter given, see damped_problem) or of the reduced
    one (wc given, see reduced_problem).

    Damped form: A_i v = lam v gives F = T_i'[Re v, Im v], so
    T_i Z T_i' = Re(vv*) and, as A Re(vv*) A' = |lam|^2 Re(vv*), the
    adjoint image is s Re(vv*) with the pairing scalar
    s = k(|lam|^2 - 1) + |lam - 1|^2, k = eta/(1-eta) (dt), resp.
    s = 2 Re(lam)/eps + |lam|^2 (ct).
    Reduced form: B_i u = lam u with B_i = wc' A_i wc gives F = [Re u, Im u]
    with image (|lam|^2 - 1) Re(uu*) (dt) resp. 2 Re(lam) Re(uu*) (ct) on P1
    and Re(ww*) on Q, w = (A_i - I) wc u (dt) resp. A_i wc u (ct).

    An eigenpair is kept when its closed-form pairing passes verify_dual's
    bound on its own (see dual_ratios), so a stable vertex pays one eig
    (KernelFacts.eigenpairs) and yields nothing.  The kept pairs of vertex
    i are stacked into the factor of its constraint.

    Chain pairs.  When the damped form keeps no eigenpair, each vertex
    with a Jordan chain at the critical value (KernelFacts.chains) gives
    F = T_i'[S v, v], S = A_i - lam0 I, for verify_dual's pair bound.  On
    a Jordan block every eigenpair pairs to exactly 0 (s = 0 at lam0), but
    the chain's cross pairing is k <P S v, S v> (dt) resp.
    <P S v, S v>/eps (ct) in the original coordinates, bounded away from 0
    by the weakest eigenvalue of P, while the pairing of v alone can stay
    small.  The filters carry no trust: verify_dual checks the result, and
    a chain it rejects costs the solver run it was meant to save.
    """
    mode = facts.mode
    a_ratio, b_ratio = dual_ratios(facts.tol)
    factors = {}
    for i, a in enumerate(facts.mats):
        if wc is None:
            lam, vec = facts.eigenpairs[i]
            if mode == "dt":
                k = parameter / (1.0 - parameter)
                s = k * (np.abs(lam) ** 2 - 1.0) + np.abs(lam - 1.0) ** 2
            else:
                s = 2.0 * lam.real / parameter + np.abs(lam) ** 2
            q_part = 0.0
            lift = facts.bases[i].T
        else:
            lam, vec = np.linalg.eig(wc.T @ a @ wc)
            s = (np.abs(lam) ** 2 - 1.0 if mode == "dt"
                 else 2.0 * lam.real)
            lq = ((a - np.eye(a.shape[0])) if mode == "dt" else a) @ wc
            q_part = np.sum(np.abs(lq @ vec) ** 2, axis=0)
            lift = np.eye(wc.shape[1])
        # verify_dual's bracket for this pair alone, per unit tr Z
        keep = np.where(s >= 0.0, s, b_ratio * s) + q_part > a_ratio
        if np.any(keep):
            factors[f"vertex{i + 1}"] = lift @ np.hstack(
                [vec[:, keep].real, vec[:, keep].imag])
    if wc is None and not factors:
        factors = {f"vertex{i + 1}": t.T @ chain
                   for i, (t, chain) in enumerate(zip(facts.bases,
                                                      facts.chains))
                   if chain is not None}
    return factors


def certified_infeasible(problem: LmiProblem,
                         factors: dict) -> FeasibilityResult | None:
    """The certified Infeasible result when verify_dual accepts factors,
    else None (the caller falls back to sdp_feasible)."""
    if not factors:
        return None
    report = verify_dual(problem, factors)
    if not report["pass"]:
        return None
    return FeasibilityResult(
        CERTIFIED_INFEASIBLE, {}, 0, factors=factors,
        diagnostics=f"verify_dual margin {report['margin']:.3e}")


def lyapunov_candidate(b, mode: str) -> np.ndarray | None:
    """The Lyapunov-equation solution P of B'PB - P = -I (dt) or
    B'P + PB = -I (ct), symmetrized, or None.

    The equation is solved only for a B strictly stable by its
    eigenvalues, spectral radius below 1 - UNKNOWN_BAND (dt) or spectral
    abscissa below -UNKNOWN_BAND (1 + ||B||) (ct): only then does it have
    a unique solution, and the margin keeps the solver clear of the
    near-singular Sylvester systems it would perturb.  None also for an
    empty B, a failed solve or a non-finite P.
    """
    mode = _check_mode(mode)
    if b.shape[0] == 0:
        return None
    lam = np.linalg.eigvals(b)
    if mode == "dt":
        stable = float(np.abs(lam).max()) < 1.0 - UNKNOWN_BAND
    else:
        stable = float(lam.real.max()) < -UNKNOWN_BAND * (
            1.0 + float(np.linalg.norm(b, 2)))
    if not stable:
        return None
    eye = np.eye(b.shape[0])
    try:
        if mode == "dt":
            p = scipy.linalg.solve_discrete_lyapunov(b.T, eye)
        else:
            p = scipy.linalg.solve_continuous_lyapunov(b.T, -eye)
    except np.linalg.LinAlgError:
        return None
    return 0.5 * (p + p.T) if np.all(np.isfinite(p)) else None


def _labelled_candidates(labelled, mode: str):
    for label, b in labelled:
        p = lyapunov_candidate(b, mode)
        if p is not None:
            yield f"Lyapunov-equation candidate of the {label}", {"P": p}


def mean_block_candidate(blocks, mode: str):
    """The first of lyapunov_candidates alone: the mean block's
    (label, {"P": P}) pair, if lyapunov_candidate gives one."""
    return _labelled_candidates([("mean block", sum(blocks) / len(blocks))],
                                mode)


def lyapunov_candidates(blocks, mode: str):
    """Candidate values for the common-Lyapunov problem (cqlf_problem) from
    Lyapunov equations (lyapunov_candidate), first for the mean block
    (mean_block_candidate), then for each block in turn.  Yields
    (label, {"P": P}) pairs lazily, so a candidate that passes spares the
    rest.  The candidates carry no trust: certified_feasible checks them
    with verify_lmi.
    """
    yield from mean_block_candidate(blocks, mode)
    if len(blocks) > 1:
        yield from _labelled_candidates(
            ((f"block {i + 1}", b) for i, b in enumerate(blocks)), mode)


def certified_feasible(problem: LmiProblem,
                       candidates) -> FeasibilityResult | None:
    """The Feasible result for the first of candidates, (label, values)
    pairs, that verify_lmi accepts, else None (the caller falls back to
    sdp_feasible).  The primal mirror of certified_infeasible; the result
    carries the accepting report as its check."""
    for label, values in candidates:
        check = verify_lmi(problem, values)
        if check["pass"]:
            return FeasibilityResult(
                FEASIBLE, values, 0, check=check,
                diagnostics=f"{label} passes verify_lmi")
    return None


def reduced_lmi(facts: KernelFacts, wc: np.ndarray) -> LmiOutcome:
    """The reduced vertex LMI over complement basis wc: a certified
    infeasibility from vertex eigenpairs when verify_dual accepts one,
    else sdp_feasible."""
    prob = reduced_problem(facts.mats, facts.mode, wc, facts.tol)
    res = (certified_infeasible(prob, vertex_duals(facts, wc=wc))
           or sdp_feasible(prob))
    return LmiOutcome(None, res, prob)


def damped_lmi(facts: KernelFacts,
               parameter: float | None = None) -> LmiOutcome:
    """The damped vertex LMI at one parameter, or over its grid when
    parameter is None.  Each problem first tries a certified infeasibility
    from vertex eigenpairs or, failing those, Jordan chains (vertex_duals,
    verify_dual); sdp_feasible runs only when that fails.  A Jordan block
    at the critical value is certified too: its chain passes verify_dual's
    pair bound at the grid points probed first, EPS_GRID[-1] (ct) and
    ETA_GRID[-1] (dt), so no solve runs for it.

    DT feasibility is monotone increasing in eta, so the scan first probes
    the largest grid eta (infeasible there means infeasible on the whole
    grid) and then reports the smallest feasible grid point.

    CT feasibility is monotone decreasing in eps (the damping term
    A'PA >= 0 only tightens), so the outcome is reported at the smallest
    grid eps, EPS_GRID[-1], which decides the whole grid.  Its dual is
    tried first: when verify_dual accepts it, the grid is infeasible and
    nothing else runs.  Otherwise, the EPS_GRID[-1] problem being badly
    conditioned for the solver (the Lyapunov term carries the weight
    2/eps), the best-conditioned point EPS_GRID[0] is probed next.  Its P
    is returned only if verify_lmi also accepts it on the EPS_GRID[-1]
    problem: monotonicity holds in exact arithmetic, but the acceptance
    margins are relative to each problem's own scale, so the reported
    problem is re-checked (certified_feasible) rather than assumed.
    Otherwise the EPS_GRID[-1] problem is solved directly.

    The returned iteration count covers every probe (a certified probe
    takes none); a grid outcome that is infeasible carries no parameter.
    """
    mode = facts.mode

    def dual(prob: LmiProblem, par: float):
        return certified_infeasible(prob, vertex_duals(facts, parameter=par))

    def solve(par: float) -> LmiOutcome:
        prob = damped_problem(facts, par)
        res = dual(prob, par) or sdp_feasible(prob)
        return LmiOutcome(par, res, prob)

    if parameter is not None:
        return solve(parameter)
    spent = 0
    if mode == "ct":
        fine = EPS_GRID[-1]
        prob = damped_problem(facts, fine)
        res = dual(prob, fine)
        if res is not None:
            return LmiOutcome(None, res, prob)
        coarse = solve(EPS_GRID[0])
        spent = coarse.result.iterations
        solved = ([(f"the eps={EPS_GRID[0]:g} solution", coarse.result.values)]
                  if coarse.feasible else [])
        res = certified_feasible(prob, solved) or sdp_feasible(prob)
        out = LmiOutcome(fine, res, prob)
    else:
        out = solve(ETA_GRID[-1])
    spent += out.result.iterations
    if out.feasible and mode == "dt":
        for eta in ETA_GRID[:-1]:
            probe = solve(eta)
            spent += probe.result.iterations
            if probe.feasible:
                out = probe
                break
    out.result.iterations = spent
    if not out.feasible:
        out.parameter = None
    return out


def lti_lmi_dt_e(a, eta: float | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    """Feasibility of the eta-damped DT LMI; with eta=None scans the grid
    (see damped_lmi)."""
    return damped_lmi(kernel_facts((as_matrix(a),), "dt", tol), eta)


def _reduced_lmi(a, mode: str, tol: Tolerances) -> LmiOutcome:
    facts = kernel_facts((as_matrix(a),), mode, tol)
    return reduced_lmi(facts, orthogonal_complement(facts.common, tol).basis)


def lti_lmi_dt_f(a, tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    return _reduced_lmi(a, "dt", tol)


def lti_lmi_ct_f(a, eps: float | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    """Feasibility of the eps-damped CT LMI; with eps=None probes the grid
    (see damped_lmi)."""
    return damped_lmi(kernel_facts((as_matrix(a),), "ct", tol), eps)


def lti_lmi_ct_g(a, tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    return _reduced_lmi(a, "ct", tol)


# ---------------------------------------------------------------- limits

def lti_limit(a, x0, mode: str, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Limit of the trajectory from x0 for a convergent A.

    In T coordinates z = T' x with z = (z1, z2): the limit is
    (0, z2 + a_r (I - a_as)^-1 z1) for dt and (0, z2 - a_r a_as^-1 z1)
    for ct, mapped back by T.
    """
    a = as_matrix(a)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != a.shape[0]:
        raise InputError("x0 dimension does not match A")
    facts = kernel_facts((a,), mode, tol)
    verdict = facts.vertex_verdicts[0]
    if not verdict.proven:
        raise InputError(
            f"limit undefined: convergence verdict is {verdict.status}")
    dec = facts.decomposition
    k = a.shape[0] - dec.m
    z = dec.t.T @ x0
    z1, z2 = z[:k], z[k:]
    a_as, a_r = dec.a_as[0], dec.a_r[0]
    if k == 0:
        zbar2 = z2
    elif mode == "dt":
        zbar2 = z2 + a_r @ np.linalg.solve(np.eye(k) - a_as, z1)
    else:
        zbar2 = z2 - a_r @ np.linalg.solve(a_as, z1)
    zbar = np.concatenate([np.zeros(k), zbar2])
    return dec.t @ zbar
