"""Convergence analysis of polytopic matrix families.

Weak convergence means every trajectory of x(k+1) = A(w(k)) x(k) (or
xdot = A(w(t)) x) has a limit; strong convergence means every limit lies
in the common fixed space intersecting ker(A_i - I) (DT) or ker(A_i) (CT)
over all vertices.  Verdicts are tri-state: sufficient certificates prove,
violated necessary conditions or verified periodic orbits disprove, and
everything else stays Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .family import MatrixFamily, family_from_dict, family_to_dict
from .feasibility import FeasibilityResult, LmiProblem, sdp_feasible
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    as_matrix,
    induced_norm_1,
    lozinski_measure_1,
    subspace_equal,
    subspace_intersection,
)
from .lti import (
    DISPROVEN,
    PROVEN,
    UNKNOWN,
    Decomposition,
    LmiOutcome,
    Verdict,
    aligned_bases,
    cqlf_problem,
    damped_lmi,
    decompose,
    lti_convergent_ct,
    lti_convergent_dt,
    reduced_lmi,
    vertex_kernels,
)
from .sim import find_nonconvergence_witness

__all__ = [
    "MatrixFamily",
    "family_to_dict",
    "family_from_dict",
    "KspResult",
    "StrongCertificate",
    "WeakCertificate",
    "RateEstimate",
    "AnalysisReport",
    "common_fixed_kernel",
    "ksp_check",
    "strong_decompose",
    "cqlf_stability",
    "strong_lmi",
    "weak_lmi",
    "verify_polyhedral_strong",
    "euler_family",
    "convergence_rate",
    "dual_family",
    "analyze",
]


@dataclass
class KspResult:
    holds: bool
    kernel_dims: tuple
    common_dim: int


@dataclass
class StrongCertificate:
    mode: str
    kernel: Subspace
    decomposition: Decomposition
    cqlf: LmiOutcome | None = None
    lmi: LmiOutcome | None = None


@dataclass
class WeakCertificate:
    mode: str
    p: np.ndarray
    parameter: float
    result: FeasibilityResult
    problem: LmiProblem


@dataclass
class RateEstimate:
    beta: float
    c0: float
    c1: float
    mode: str

    def bound(self, t) -> np.ndarray:
        """The transient envelope (c0 c1 / beta) e^(-beta t) scaling the
        off-kernel initial size."""
        t = np.asarray(t, dtype=float)
        return (self.c0 * self.c1 / self.beta) * np.exp(-self.beta * t)


@dataclass
class AnalysisReport:
    family: MatrixFamily
    strong: Verdict
    weak: Verdict
    kernel: Subspace
    ksp: KspResult
    strong_certificate: StrongCertificate | None = None
    weak_certificate: WeakCertificate | None = None
    witness: dict | None = None
    rate: RateEstimate | None = None
    vertex_verdicts: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _kernel_facts(family: MatrixFamily, tol: Tolerances):
    """The common fixed kernel and the kernel-sharing facts, from one pass
    over the vertex kernels."""
    kernels = vertex_kernels(family.matrices, family.mode, tol)
    common = subspace_intersection(kernels, tol)
    holds = all(subspace_equal(k, common, tol) for k in kernels)
    return common, KspResult(holds, tuple(k.dim for k in kernels), common.dim)


def common_fixed_kernel(family: MatrixFamily,
                        tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """DT: intersection of ker(A_i - I); CT: intersection of ker(A_i)."""
    return subspace_intersection(
        vertex_kernels(family.matrices, family.mode, tol), tol)


def ksp_check(family: MatrixFamily,
              tol: Tolerances = DEFAULT_TOL) -> KspResult:
    """True when every per-vertex kernel equals the common one."""
    return _kernel_facts(family, tol)[1]


def strong_decompose(family: MatrixFamily,
                     tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    common, ksp = _kernel_facts(family, tol)
    if not ksp.holds:
        raise InputError(
            "family-wide decomposition needs every vertex fixed space to "
            f"equal the common one (dims {ksp.kernel_dims} vs common "
            f"{ksp.common_dim}); a shared kernel is necessary for strong "
            "convergence")
    return decompose(family.matrices, family.mode, common, tol)


def cqlf_stability(blocks, mode: str,
                   tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    """Common quadratic Lyapunov certificate for a set of matrices:
    A_i'PA_i - P (dt) or A_i'P + PA_i (ct) below -gamma (tr P / n) I.

    Sufficient only: stable inclusions without a common quadratic function
    exist, so infeasibility means Unknown upstream.
    """
    blocks = [as_matrix(b, name=f"block{i + 1}") for i, b in enumerate(blocks)]
    if not blocks:
        raise InputError("cqlf_stability needs at least one block")
    nb = blocks[0].shape[0]
    for b in blocks:
        if b.shape != (nb, nb):
            raise InputError("blocks must share one square size")
    problem = cqlf_problem(blocks, mode, tol)
    res = sdp_feasible(problem)
    return LmiOutcome(res.feasible, None, res, problem)


def strong_lmi(family: MatrixFamily,
               tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    """Joint rank-reduced certificate of strong convergence.  Needs the
    shared-kernel property (the rank condition on P is stated against the
    common fixed space), and is sufficient only."""
    dec = strong_decompose(family, tol)
    return reduced_lmi(family.matrices, family.mode, dec.complement.basis,
                       tol)


def weak_lmi(family: MatrixFamily, parameter: float | None = None,
             tol: Tolerances = DEFAULT_TOL):
    """Grid scan of the damped vertex inequalities; a feasible point yields
    a WeakCertificate, otherwise None.

    DT feasibility is monotone increasing in eta, so the largest grid eta
    decides the grid and the scan then reports the smallest feasible one.
    CT feasibility is monotone decreasing in eps, so the smallest grid eps
    decides the grid on its own (see damped_lmi).
    """
    mats, mode = family.matrices, family.mode
    bases = aligned_bases(vertex_kernels(mats, mode, tol), tol)
    out = damped_lmi(mats, mode, parameter, bases, tol)
    if not out.feasible:
        return None
    return WeakCertificate(mode, out.result.values["P"], out.parameter,
                           out.result, out.problem)


def verify_polyhedral_strong(family: MatrixFamily, x,
                             tol: Tolerances = DEFAULT_TOL) -> dict:
    """Check a polyhedral-function candidate X: per vertex solve
    A_i X = X P_i, require the kernel-aligned columns of P_i to be exact
    unit/zero columns, and the off-kernel block to contract in the 1-norm
    (dt) or have negative Lozinski measure (ct).

    Verification only: with more columns than rows P_i is not unique and
    the least-squares representative is the one checked.
    """
    x = as_matrix(x, square=False, name="candidate X")
    n, r = x.shape
    if n != family.n:
        raise InputError("candidate X row count must match the family")
    if np.linalg.matrix_rank(x, tol=tol.rank_rel * max(1.0, float(
            np.linalg.norm(x, 2))) * max(n, r)) < n:
        raise InputError("candidate X must have full row rank")
    ker = common_fixed_kernel(family, tol)
    xnorm = float(np.linalg.norm(x, 2))
    in_kernel = np.array([
        ker.dim > 0 and np.linalg.norm(x[:, j]) > 0
        and ker.distance(x[:, j]) <= 1e-8 * np.linalg.norm(x[:, j])
        for j in range(r)])
    nonk = np.where(~in_kernel)[0]
    kcols = np.where(in_kernel)[0]
    report = {"pass": True, "p_blocks": [], "residuals": [],
              "as_norms": [], "reasons": []}
    xp = np.linalg.pinv(x)
    for i, a in enumerate(family.matrices):
        p = xp @ a @ x
        resid = float(np.linalg.norm(a @ x - x @ p, 2))
        report["residuals"].append(resid)
        if resid > tol.residual_tol * max(1.0, xnorm):
            report["pass"] = False
            report["reasons"].append(
                f"vertex {i + 1}: A X = X P unsolvable (residual {resid:.2e})")
        target = np.eye(r) if family.mode == "dt" else np.zeros((r, r))
        col_err = max((float(np.linalg.norm(p[:, j] - target[:, j]))
                       for j in kcols), default=0.0)
        if col_err > tol.residual_tol:
            report["pass"] = False
            report["reasons"].append(
                f"vertex {i + 1}: kernel-aligned columns deviate "
                f"({col_err:.2e})")
        p_as = p[np.ix_(nonk, nonk)]
        report["p_blocks"].append(p)
        if family.mode == "dt":
            norm = induced_norm_1(p_as) if p_as.size else 0.0
            report["as_norms"].append(norm)
            if norm >= 1.0:
                report["pass"] = False
                report["reasons"].append(
                    f"vertex {i + 1}: off-kernel 1-norm {norm:.6f} >= 1")
        else:
            mu = lozinski_measure_1(p_as) if p_as.size else -1.0
            report["as_norms"].append(mu)
            if mu >= 0.0:
                report["pass"] = False
                report["reasons"].append(
                    f"vertex {i + 1}: off-kernel measure {mu:.6f} >= 0")
    return report


def euler_family(family: MatrixFamily, tau: float) -> MatrixFamily:
    """DT family of Euler step maps I + tau A_i."""
    if family.mode != "ct":
        raise InputError("euler_family needs a CT family")
    if tau <= 0:
        raise InputError(f"tau must be positive, got {tau}")
    eye = np.eye(family.n)
    mats = tuple(eye + tau * a for a in family.matrices)
    return MatrixFamily("dt", mats, family.labels, {"tau": tau})


def convergence_rate(family: MatrixFamily, cert: StrongCertificate,
                     tol: Tolerances = DEFAULT_TOL) -> RateEstimate:
    """Exponential envelope for the off-kernel state from the CQLF:
    the largest beta with A'P + PA <= -2 beta P per block (ct), or the
    smallest contraction rho with A'PA <= rho^2 P (dt, beta = -ln rho);
    c0 = sqrt(cond(P)), c1 = max vertex coupling norm."""
    if cert.cqlf is None or not cert.cqlf.feasible:
        raise InputError("rate estimation needs a feasible common-Lyapunov "
                         "certificate for the off-kernel blocks")
    dec = cert.decomposition
    blocks = dec.a_as
    k = family.n - dec.m
    if k == 0:
        raise InputError("rate estimation needs a nonempty off-kernel block")
    p = cert.cqlf.result.values["P"]
    c1 = max((float(np.linalg.norm(ar, 2)) for ar in dec.a_r if ar.size),
             default=0.0)
    eigp = np.linalg.eigvalsh((p + p.T) / 2.0)
    c0 = float(np.sqrt(eigp[-1] / eigp[0]))

    if family.mode == "ct":
        def ok(b):
            return all(float(np.linalg.eigvalsh(
                a.T @ p + p @ a + 2.0 * b * p)[-1]) <= 0.0 for a in blocks)
    else:
        def contracts(rho):
            return all(float(np.linalg.eigvalsh(
                a.T @ p @ a - rho * rho * p)[-1]) <= 0.0 for a in blocks)

        def ok(b):
            return contracts(np.exp(-b))
    lo, hi = 0.0, 1.0
    while ok(hi) and hi < 1e12:
        hi *= 2.0
    if not ok(lo):
        raise InputError("certificate P does not decay strictly on the "
                         "off-kernel blocks")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return RateEstimate(lo, c0, c1, family.mode)


def dual_family(family: MatrixFamily) -> MatrixFamily:
    return MatrixFamily(family.mode, tuple(a.T for a in family.matrices),
                        family.labels)


def analyze(family: MatrixFamily, tol: Tolerances = DEFAULT_TOL,
            search_witness: bool = True) -> AnalysisReport:
    """Tri-state strong/weak verdict pipeline.

    Order: per-vertex necessary spectra, kernel sharing (necessary for
    strong), decomposition + common-Lyapunov or the joint rank-reduced
    certificate (strong sufficient, implies weak), damped vertex
    inequalities (weak sufficient), the shared-kernel upgrade of a weak
    certificate to strong, then periodic-orbit search (disproves weak and
    with it strong).  The orbit search tries vertex cycles up to
    sim.WITNESS_PERIOD_MAX vertices at the dwells sim.WITNESS_DWELLS, and
    takes its candidate start states only from the fixed space of each
    cycle's period map.  Whatever remains is Unknown.

    A vertex inside the spectral tolerance band caps Proven down to
    Unknown: the necessary condition is unresolved at exactly the size
    the LMI residual tolerance would absorb, so an at-tolerance
    certificate cannot overrule it.  Disproofs are exact and stand.
    """
    report = _analyze_pipeline(family, tol, search_witness)
    if report.diagnostics.get("vertices_in_tolerance_band"):
        for attr in ("strong", "weak"):
            v = getattr(report, attr)
            if v.status == PROVEN:
                setattr(report, attr, Verdict(
                    UNKNOWN, "vertex-band",
                    {"certificate_method": v.method}))
        report.rate = None
    return report


def _analyze_pipeline(family: MatrixFamily, tol: Tolerances,
                      search_witness: bool) -> AnalysisReport:
    vertex_check = (lti_convergent_dt if family.mode == "dt"
                    else lti_convergent_ct)
    vertex_verdicts = tuple(vertex_check(a, tol) for a in family.matrices)
    ker, ksp = _kernel_facts(family, tol)
    report = AnalysisReport(family, Verdict(UNKNOWN, "pending"),
                            Verdict(UNKNOWN, "pending"), ker, ksp,
                            vertex_verdicts=vertex_verdicts)

    for i, v in enumerate(vertex_verdicts):
        if v.disproven:
            detail = {"vertex": i + 1, "vertex_method": v.method}
            report.strong = Verdict(DISPROVEN, "vertex", detail)
            report.weak = Verdict(DISPROVEN, "vertex", detail)
            return report
    band = [i + 1 for i, v in enumerate(vertex_verdicts)
            if v.status == UNKNOWN]
    if band:
        report.diagnostics["vertices_in_tolerance_band"] = band

    if not ksp.holds:
        report.strong = Verdict(
            DISPROVEN, "kernel-mismatch",
            {"kernel_dims": list(ksp.kernel_dims),
             "common_dim": ksp.common_dim})

    if report.strong.status == UNKNOWN:
        # reached only when the kernels are shared, so the common kernel
        # already computed is the decomposition's
        dec = decompose(family.matrices, family.mode, ker, tol)
        cqlf = cqlf_stability(dec.a_as, family.mode, tol)
        if cqlf.feasible:
            cert = StrongCertificate(family.mode, ker, dec, cqlf=cqlf)
            report.strong_certificate = cert
            report.strong = Verdict(PROVEN, "decomposition-cqlf",
                                    {"m": dec.m})
            report.weak = Verdict(PROVEN, "implied-by-strong", {})
            if family.n - dec.m > 0:
                report.rate = convergence_rate(family, cert, tol)
            return report
        joint = strong_lmi(family, tol)
        if joint.feasible:
            cert = StrongCertificate(family.mode, ker, dec, lmi=joint)
            report.strong_certificate = cert
            report.strong = Verdict(PROVEN, "strong-lmi", {"m": dec.m})
            report.weak = Verdict(PROVEN, "implied-by-strong", {})
            return report

    weak_cert = weak_lmi(family, tol=tol)
    if weak_cert is not None:
        report.weak_certificate = weak_cert
        report.weak = Verdict(PROVEN, "weak-lmi",
                              {"parameter": weak_cert.parameter})
        if report.strong.status == UNKNOWN and ksp.holds:
            # with every vertex sharing the common fixed space, any weak
            # limit already lies in it, so weak convergence is strong
            report.strong = Verdict(PROVEN, "ksp-weak-upgrade",
                                    {"parameter": weak_cert.parameter})
        if report.strong.status == UNKNOWN:
            report.strong = Verdict(UNKNOWN, "exhausted", {})
        return report

    if search_witness:
        found = find_nonconvergence_witness(family)
        if found is not None:
            signal, evidence = found
            report.witness = evidence
            report.weak = Verdict(DISPROVEN, "periodic-orbit", {
                "cycle": evidence["cycle"], "dwell": evidence["dwell"]})
            if report.strong.status == UNKNOWN:
                report.strong = Verdict(DISPROVEN, "implied-by-weak", {})
            return report

    report.weak = Verdict(UNKNOWN, "exhausted", {})
    if report.strong.status == UNKNOWN:
        report.strong = Verdict(UNKNOWN, "exhausted", {})
    return report
