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
import scipy.linalg

from .errors import InputError
from .family import MatrixFamily, family_from_dict, family_to_dict
from .feasibility import sdp_feasible
from .linalg import DEFAULT_TOL, Tolerances, as_matrix
from .lti import (
    DISPROVEN,
    PROVEN,
    UNKNOWN,
    Decomposition,
    KernelFacts,
    LmiOutcome,
    Verdict,
    certified_feasible,
    check_grid_parameter,
    cqlf_problem,
    damped_lmi,
    eas,
    kernel_facts,
    lyapunov_candidates,
    mean_block_candidate,
    reduced_lmi,
)
from .sim import divergent_cycle, find_nonconvergence_witness

__all__ = [
    "MatrixFamily",
    "family_to_dict",
    "family_from_dict",
    "KernelFacts",
    "kernel_facts",
    "StrongCertificate",
    "RateEstimate",
    "AnalysisReport",
    "cqlf_stability",
    "strong_lmi",
    "weak_lmi",
    "euler_family",
    "rate_constants",
    "decay_margins",
    "convergence_rate",
    "dual_family",
    "verdicts_from_evidence",
    "analyze",
    "certify",
]

# largest decay rate convergence_rate reports (a zero DT block, or a CT
# block far faster than P can resolve, has no finite rate)
RATE_CAP = 1e12

# the certificate stages, in analyze's order: strong, then weak
STAGES = ("cqlf_stability", "weak_lmi")


@dataclass
class StrongCertificate:
    """The kernel-aligned decomposition and a common quadratic Lyapunov
    function of its off-kernel blocks: the one strong certificate kind."""

    decomposition: Decomposition
    cqlf: LmiOutcome
    kind = "decomposition-cqlf"


@dataclass
class RateEstimate:
    """The envelope, and the decay margin at beta of each off-kernel block
    (decay_margins), all <= 0: the check that accepted beta."""

    beta: float
    c0: float
    c1: float
    mode: str
    block_margins: list

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
    facts: KernelFacts
    strong_certificate: StrongCertificate | None = None
    weak_certificate: LmiOutcome | None = None
    witness: dict | None = None
    rate: RateEstimate | None = None
    diagnostics: dict = field(default_factory=dict)


def cqlf_stability(blocks, mode: str,
                   tol: Tolerances = DEFAULT_TOL) -> LmiOutcome:
    """Common quadratic Lyapunov certificate for a set of matrices:
    A_i'PA_i - P (dt) or A_i'P + PA_i (ct) below -gamma (tr P / n) I.

    The Lyapunov-equation solutions of the mean block and then of each
    block (lti.lyapunov_candidates) are tried first; the first that
    verify_lmi accepts is the certificate, with 0 iterations and
    diagnostics naming it.  sdp_feasible runs only when none passes.

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
    res = (certified_feasible(problem, lyapunov_candidates(blocks, mode))
           or sdp_feasible(problem))
    return LmiOutcome(None, res, problem)


def strong_lmi(facts: KernelFacts) -> LmiOutcome:
    """The paper's joint rank-reduced LMI of strong convergence: sufficient
    only, and needs the shared-kernel property (KernelFacts.decomposition).
    Its Q-terms have the full-column-rank factors [a_as - I; a_r] (dt) and
    [a_as; a_r] (ct) in the kernel-aligned frame, so it is feasible exactly
    when cqlf_stability is on the off-kernel blocks a_as.  No entry point
    runs it."""
    return reduced_lmi(facts, facts.decomposition.complement.basis)


def weak_lmi(facts: KernelFacts,
             parameter: float | None = None) -> LmiOutcome | None:
    """Grid scan of the damped vertex inequalities: the feasible outcome,
    or None.

    DT feasibility is monotone increasing in eta, so the largest grid eta
    decides the grid and the scan then reports the smallest feasible one.
    CT feasibility is monotone decreasing in eps, so the smallest grid eps
    decides the grid on its own (see damped_lmi).
    """
    out = damped_lmi(facts, parameter)
    return out if out.feasible else None


def euler_family(family: MatrixFamily, tau: float) -> MatrixFamily:
    """DT family of Euler step maps I + tau A_i."""
    if family.mode != "ct":
        raise InputError("euler_family needs a CT family")
    mats = tuple(eas(a, tau) for a in family.matrices)
    return MatrixFamily("dt", mats, family.labels, {"tau": tau})


def rate_constants(p, couplings) -> tuple:
    """(c0, c1) of the rate envelope: c0 = sqrt(cond(P)) and c1 = the
    largest vertex coupling norm."""
    eigp = np.linalg.eigvalsh((p + p.T) / 2.0)
    c1 = max((float(np.linalg.norm(c, 2)) for c in couplings if c.size),
             default=0.0)
    return float(np.sqrt(eigp[-1] / eigp[0])), c1


def decay_margins(p, blocks, beta: float, mode: str) -> list:
    """The decay predicate of the rate: per block, the largest eigenvalue
    of A'P + PA + 2 beta P (ct) or A'PA - rho^2 P with rho = e^-beta (dt).
    P decays at rate beta on every block iff every margin is <= 0."""
    if mode == "ct":
        mats = (a.T @ p + p @ a + 2.0 * beta * p for a in blocks)
    else:
        rho = np.exp(-beta)
        mats = (a.T @ p @ a - rho * rho * p for a in blocks)
    return [float(np.linalg.eigvalsh(m)[-1]) for m in mats]


def convergence_rate(family: MatrixFamily,
                     cert: StrongCertificate) -> RateEstimate:
    """Exponential envelope for the off-kernel state from the CQLF:
    the largest beta with A'P + PA <= -2 beta P per block (ct), or the
    smallest contraction rho with A'PA <= rho^2 P (dt, beta = -ln rho);
    c0 and c1 from rate_constants.

    beta comes in closed form from the largest generalized eigenvalue
    lam of (S_i, P) over the blocks, S_i = A_i'P + PA_i with
    beta = -lam/2 (ct), or S_i = A_i'PA_i with rho^2 = lam (dt), capped
    at RATE_CAP.  It is then shaved by a few relative ulps (the step
    doubling each time) until the one decay predicate, decay_margins,
    holds, so rounding in the eigensolver never reports a rate that P does
    not support; its margins at that beta are kept as block_margins.
    InputError when P does not decay."""
    if not cert.cqlf.feasible:
        raise InputError("rate estimation needs a feasible common-Lyapunov "
                         "certificate for the off-kernel blocks")
    dec = cert.decomposition
    blocks = dec.a_as
    k = family.n - dec.m
    if k == 0:
        raise InputError("rate estimation needs a nonempty off-kernel block")
    p = cert.cqlf.result.values["P"]
    c0, c1 = rate_constants(p, dec.a_r)

    def top(s):
        try:
            return float(scipy.linalg.eigh(s, p, eigvals_only=True)[-1])
        except np.linalg.LinAlgError:
            raise InputError("certificate P must be positive definite") \
                from None

    if family.mode == "ct":
        beta = -0.5 * max(top(a.T @ p + p @ a) for a in blocks)
    else:
        rho2 = max(top(a.T @ p @ a) for a in blocks)
        beta = -0.5 * float(np.log(rho2)) if rho2 > 0.0 else np.inf
    beta = min(beta, RATE_CAP)
    shave = 4.0 * float(np.finfo(float).eps)
    while beta > 0.0:
        margins = decay_margins(p, blocks, beta, family.mode)
        if max(margins) <= 0.0:
            return RateEstimate(beta, c0, c1, family.mode, margins)
        beta -= shave * beta
        shave *= 2.0
    raise InputError("certificate P does not decay strictly on the "
                     "off-kernel blocks")


def dual_family(family: MatrixFamily) -> MatrixFamily:
    return MatrixFamily(family.mode, tuple(a.T for a in family.matrices),
                        family.labels)


def verdicts_from_evidence(facts: KernelFacts, strong_kind, m,
                           weak_parameter, orbit) -> tuple:
    """The (strong, weak) verdict pair that the evidence gives: the one
    rule from evidence to verdicts, which analyze applies to what it found
    and cli.verify_report to the report sections that check out.

    A non-convergent vertex (facts.vertex_verdicts) disproves weak
    convergence, and with it strong.  Vertex kernels that differ from the
    common one (facts) disprove strong.  A strong certificate (strong_kind
    'decomposition-cqlf', kernel block dimension m) proves strong, and
    strong implies weak.  A weak certificate (its grid parameter
    weak_parameter) proves weak, and with every vertex sharing
    the common fixed space any weak limit already lies in it, so weak
    convergence is strong.  A periodic orbit (the witness evidence dict
    orbit) disproves weak, and with it strong.  Evidence earlier in this
    list wins; whatever none of it decides is Unknown.

    A vertex inside the spectral tolerance band caps Proven down to
    Unknown: the necessary condition is unresolved at exactly the size
    the LMI residual tolerance would absorb, so an at-tolerance
    certificate cannot overrule it.  Disproofs are exact and stand.
    """
    for i, v in enumerate(facts.vertex_verdicts):
        if v.disproven:
            detail = {"vertex": i + 1, "vertex_method": v.method}
            return (Verdict(DISPROVEN, "vertex", detail),
                    Verdict(DISPROVEN, "vertex", dict(detail)))
    strong, weak = Verdict(UNKNOWN, "exhausted"), Verdict(UNKNOWN, "exhausted")
    if facts.holds and strong_kind is not None:
        strong = Verdict(PROVEN, strong_kind, {"m": m})
        weak = Verdict(PROVEN, "implied-by-strong")
    elif weak_parameter is not None:
        weak = Verdict(PROVEN, "weak-lmi", {"parameter": weak_parameter})
        strong = Verdict(PROVEN, "ksp-weak-upgrade",
                         {"parameter": weak_parameter})
    elif orbit is not None:
        weak = Verdict(DISPROVEN, "periodic-orbit",
                       {"cycle": orbit["cycle"], "dwell": orbit["dwell"]})
        strong = Verdict(DISPROVEN, "implied-by-weak")
    if not facts.holds:
        strong = Verdict(DISPROVEN, "kernel-mismatch",
                         {"kernel_dims": list(facts.kernel_dims),
                          "common_dim": facts.common_dim})
    if any(v.status == UNKNOWN for v in facts.vertex_verdicts):
        strong, weak = (Verdict(UNKNOWN, "vertex-band",
                                {"certificate_method": v.method})
                        if v.proven else v for v in (strong, weak))
    return strong, weak


def analyze(family: MatrixFamily,
            tol: Tolerances = DEFAULT_TOL) -> AnalysisReport:
    """Tri-state strong/weak verdict pipeline.

    Collects evidence in order and stops once it settles the verdicts:
    1. the one vertex pass (lti.VertexPass, made by kernel_facts): each
       vertex's norm, SVDs of A_i - lam0 I and of its square, and
       eigenvalues, one stacked LAPACK call each; the per-vertex spectral
       verdicts read from it are necessary (a vertex disproof ends here);
    2. the vertex kernels, cut from the same SVDs (kernel_facts), whose
       sharing is necessary for strong; every later stage reads them, the
       decomposition and the aligned bases from these facts;
    3. the Lyapunov-equation candidate of the mean off-kernel block
       (lti.mean_block_candidate, checked by lti.certified_feasible),
       which proves strong without the solver;
    4. the cycle screen: the periodic-orbit search
       (sim.find_nonconvergence_witness), then the first vertex cycle
       whose period map the DT spectral test disproves
       (sim.divergent_cycle); each walk builds the period maps in stacks
       and settles most of them with one stacked SVD of Phi - I (and, for
       the spectral test, eigvals) per stack, so that only the maps that
       might hold a fixed vector or a disproof get the exact tests;
    5. the solver stages, only when the screen finds neither: the
       common-Lyapunov stage on the off-kernel blocks (cqlf_stability,
       strong sufficient), which tries the Lyapunov-equation candidates
       of the mean block and of each block before its solve, then the
       damped vertex inequalities (weak sufficient).  The joint
       rank-reduced LMI (strong_lmi) is no stage: it proves exactly what
       cqlf_stability proves.
    verdicts_from_evidence turns the evidence into the verdict pair, and
    the rate is estimated only when that pair rests on the
    common-Lyapunov certificate.  Every stage decides at tol, which the
    report carries as facts.tol, except the orbit search: it cuts its
    kernels at linalg.DEFAULT_TOL.  Its evidence is tol-free all the
    same, because sim.verify_witness re-checks an orbit against fixed
    thresholds.

    The screen goes before the solver because it cannot hide a
    certificate.  The samples x(kT) = Phi^k x of a periodic vertex signal
    form an LTI system, so a spectrally disproven Phi (in DT,
    rho(Phi)^(1/L) for a cycle of L steps bounds the joint spectral
    radius from below) or a periodic orbit
    rules out weak convergence, and with it every certificate that
    stages 3 and 5 look for; the solver could only stall to infeasible.
    Only the mean block's candidate runs before the screen, so a family
    without a certificate pays one Lyapunov solve, not one per block; a
    family that a per-block candidate certifies pays the screen first.
    A verified orbit disproves weak convergence (periodic-orbit).  A
    divergent period map ends the analysis Unknown/exhausted: it is
    recorded in diagnostics["divergent_cycle"], outside the evidence that
    verify_report checks, because no evidence kind for it exists yet.
    The orbit search and the spectral test walk the cycles up to
    sim.WITNESS_PERIOD_MAX vertices at the dwells sim.WITNESS_DWELLS.

    When a vertex verdict sits in the spectral tolerance band, the screen
    runs after the solver stages instead: its powers of a band vertex can
    leave the band and read as divergent, where an at-tolerance
    certificate of the solver stages is capped to Unknown/vertex-band.
    """
    facts = kernel_facts(family.matrices, family.mode, tol)
    report = AnalysisReport(family, None, None, facts)

    def screen() -> bool:
        found = find_nonconvergence_witness(family)
        if found is not None:
            report.witness = found[1]
            return True
        divergent = divergent_cycle(family, tol)
        if divergent is not None:
            report.diagnostics["divergent_cycle"] = divergent
        return divergent is not None

    if not any(v.disproven for v in facts.vertex_verdicts):
        band = [i + 1 for i, v in enumerate(facts.vertex_verdicts)
                if v.status == UNKNOWN]
        if band:
            report.diagnostics["vertices_in_tolerance_band"] = band
        if facts.holds:
            dec = facts.decomposition
            problem = cqlf_problem(dec.a_as, family.mode, tol)
            res = certified_feasible(
                problem, mean_block_candidate(dec.a_as, family.mode))
            if res is not None:
                report.strong_certificate = StrongCertificate(
                    dec, cqlf=LmiOutcome(None, res, problem))
        # cqlf_stability tries the mean block's candidate again before the
        # per-block ones and its solve, one Lyapunov solve against the solve
        if report.strong_certificate is None and (band or not screen()):
            found = any(_run_stage(report, stage) for stage in STAGES)
            if not found and band:
                screen()
    return _conclude(report)


def certify(family: MatrixFamily, stage: str, parameter: float | None = None,
            tol: Tolerances = DEFAULT_TOL) -> AnalysisReport:
    """analyze limited to one certificate stage, 'cqlf_stability' or
    'weak_lmi' (at the grid point parameter, if given), recorded in
    diagnostics["stage"]; any other stage, strong_lmi included, is an
    InputError.  No cycle screen runs, and the verdicts and rate come from
    analyze's ending, so verify_report re-checks the report."""
    if stage not in STAGES:
        raise InputError(f"unknown certificate stage {stage!r}")
    if parameter is not None:
        check_grid_parameter(family.mode, parameter)
    facts = kernel_facts(family.matrices, family.mode, tol)
    report = AnalysisReport(family, None, None, facts,
                            diagnostics={"stage": stage})
    if not any(v.disproven for v in facts.vertex_verdicts):
        _run_stage(report, stage, parameter)
    return _conclude(report)


def _run_stage(report: AnalysisReport, stage: str,
               parameter: float | None = None) -> bool:
    """Run one certificate stage and keep the certificate it finds; whether
    it found one.  The strong stage needs the vertex kernels shared."""
    facts = report.facts
    if stage == "weak_lmi":
        report.weak_certificate = weak_lmi(facts, parameter)
        return report.weak_certificate is not None
    if not facts.holds:
        return False
    dec = facts.decomposition
    out = cqlf_stability(dec.a_as, facts.mode, facts.tol)
    if out.feasible:
        report.strong_certificate = StrongCertificate(dec, out)
    return out.feasible


def _conclude(report: AnalysisReport) -> AnalysisReport:
    """The ending of analyze and certify: verdicts_from_evidence on the
    report's evidence, and the rate exactly when verify_report needs one."""
    facts = report.facts
    cert, weak_cert = report.strong_certificate, report.weak_certificate
    report.strong, report.weak = verdicts_from_evidence(
        facts, None if cert is None else cert.kind, facts.common_dim,
        None if weak_cert is None else weak_cert.parameter, report.witness)
    if (report.strong.method == "decomposition-cqlf"
            and report.family.n > facts.common_dim):
        report.rate = convergence_rate(report.family, cert)
    return report
