"""Command-line front end: family JSON I/O, analysis reports, and
solver-independent report verification.

numpy and the analysis modules are imported inside functions so that
--threads can cap the BLAS thread pools before numpy first loads.

Exit codes: 0 = command completed (Unknown verdicts included), 1 = input
error (bad arguments, malformed files, failed verification), 2 = numerical
failure.  Errors are written to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import InputError, NumericalError

__all__ = ["main", "report_to_dict", "verify_report"]

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# where each verdict method keeps its evidence inside the report
_EVIDENCE_REF = {
    "vertex": "vertex_verdicts",
    "kernel-mismatch": "ksp",
    "decomposition-cqlf": "certificates/strong",
    "implied-by-strong": "certificates/strong",
    "weak-lmi": "certificates/weak",
    "ksp-weak-upgrade": "certificates/weak",
    "periodic-orbit": "witness",
    "implied-by-weak": "witness",
}


# ------------------------------------------------------------ JSON helpers

def _reject_constant(token):
    raise InputError(f"non-finite number {token!r} in JSON input")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {what}: {exc}") from None


def _read_json(path: str, what: str):
    if path == "-":
        return _parse_json(sys.stdin.read(), what)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None
    return _parse_json(text, what)


def _read_json_arg(value: str, what: str):
    """Inline JSON (starts with '[' or '{') or a file path."""
    if value.lstrip()[:1] in ("[", "{"):
        return _parse_json(value, what)
    return _read_json(value, what)


def _load_family(path: str):
    from .family import family_from_dict
    return family_from_dict(_read_json(path, "family file"))


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return (obj.tolist() if obj.dtype.kind in "biuf"
                else [_jsonable(v) for v in obj.tolist()])
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _tolerances_from(value: float | None):
    from .linalg import DEFAULT_TOL, Tolerances
    return DEFAULT_TOL if value is None else Tolerances(residual_tol=value)


def _tol_doc(tol) -> dict:
    return {"rank_rel": tol.rank_rel, "psd_margin": tol.psd_margin,
            "residual_tol": tol.residual_tol, "sim_tol": tol.sim_tol}


# ------------------------------------------------------- report emission

def _vertex_doc(verdict) -> dict:
    return {"status": verdict.status, "method": verdict.method,
            "details": _jsonable(verdict.details)}


def _verdict_doc(verdict) -> dict:
    return {**_vertex_doc(verdict),
            "evidence": _EVIDENCE_REF.get(verdict.method)}


def _ksp_doc(facts) -> dict:
    return {"holds": facts.holds, "kernel_dims": list(facts.kernel_dims),
            "common_dim": facts.common_dim}


def _finite_or_none(value):
    import math
    value = float(value)
    return value if math.isfinite(value) else None


def _lmi_checks_doc(check) -> dict:
    """The margins a verify_lmi report accepted a certificate with."""
    # zero-size blocks report infinite margins; record those as null
    return {"var_min_eigs": {k: _finite_or_none(v)
                             for k, v in check["var_min_eigs"].items()},
            "constraint_max_eigs": {k: _finite_or_none(v)
                                    for k, v in
                                    check["constraint_max_eigs"].items()},
            "scale": check["scale"]}


def _strong_certificate_doc(cert) -> dict:
    from .lti import CQLF_GAMMA
    dec = cert.decomposition
    return {
        "t": dec.t.tolist(),
        "kernel_dim": dec.m,
        "blocks": [b.tolist() for b in dec.a_as],
        "couplings": [b.tolist() for b in dec.a_r],
        "decomposition_residual": dec.residual,
        "kind": cert.kind,
        "gamma": CQLF_GAMMA,
        "p": _jsonable(cert.cqlf.result.values["P"]),
        "checks": _lmi_checks_doc(cert.cqlf.result.check),
    }


def _weak_certificate_doc(out) -> dict:
    """The weak section from the feasible damped-LMI outcome."""
    return {"kind": "weak-lmi",
            "p": out.result.values["P"].tolist(),
            "parameter": out.parameter,
            "checks": _lmi_checks_doc(out.result.check)}


def _rate_doc(rate) -> dict:
    """The rate section: the envelope, and the decay margin at beta of
    each off-kernel block under P that accepted beta."""
    return {"beta": rate.beta, "c0": rate.c0, "c1": rate.c1,
            "mode": rate.mode,
            "checks": {"block_margins": list(rate.block_margins)}}


def report_to_dict(report) -> dict:
    """Flatten an AnalysisReport into the JSON report document.

    Formatting only: nothing is recomputed.  The tolerances section
    records the ones the analysis ran at (report.facts.tol).  Every
    Proven/Disproven verdict points at an evidence section.  Each LMI
    certificate records the margins of the verify_lmi report that
    accepted it (FeasibilityResult.check), and the rate the decay margins
    that accepted beta (RateEstimate.block_margins); verify_report
    re-derives them from the evidence.
    """
    fam, facts = report.family, report.facts
    doc = {
        "version": __version__,
        "mode": fam.mode,
        "n": fam.n,
        "m_count": fam.m_count,
        "tolerances": _tol_doc(facts.tol),
        "verdicts": {"strong": _verdict_doc(report.strong),
                     "weak": _verdict_doc(report.weak)},
        "kernel": {"basis": facts.common.basis.tolist(),
                   "dim": facts.common_dim},
        "ksp": _ksp_doc(facts),
        "vertex_verdicts": [_vertex_doc(v) for v in facts.vertex_verdicts],
        "certificates": {},
        "witness": _jsonable(report.witness),
        "rate": None,
        "diagnostics": _jsonable(report.diagnostics),
    }
    if report.strong_certificate is not None:
        doc["certificates"]["strong"] = _strong_certificate_doc(
            report.strong_certificate)
    if report.weak_certificate is not None:
        doc["certificates"]["weak"] = _weak_certificate_doc(
            report.weak_certificate)
    if report.rate is not None:
        doc["rate"] = _rate_doc(report.rate)
    return doc


# ---------------------------------------------------- report verification

class _Checks:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "pass": bool(ok),
                           "detail": "" if ok else detail})
        return bool(ok)

    def ok(self, start: int = 0) -> bool:
        """Whether every check from item `start` on passed."""
        return all(c["pass"] for c in self.items[start:])


def _matches(recorded, rebuilt, slack: float) -> bool:
    """Whether a recorded JSON value equals the one rebuilt from the
    evidence: the same keys, lengths and types throughout, and each float
    within slack."""
    if isinstance(rebuilt, dict):
        return (isinstance(recorded, dict)
                and recorded.keys() == rebuilt.keys()
                and all(_matches(recorded[k], v, slack)
                        for k, v in rebuilt.items()))
    if isinstance(rebuilt, list):
        return (isinstance(recorded, list) and len(recorded) == len(rebuilt)
                and all(_matches(a, b, slack)
                        for a, b in zip(recorded, rebuilt)))
    if isinstance(rebuilt, float):
        return (isinstance(recorded, (int, float))
                and not isinstance(recorded, bool)
                and abs(recorded - rebuilt) <= slack)
    return type(recorded) is type(rebuilt) and recorded == rebuilt


def _eigs_match(recorded, computed, slack: float) -> bool:
    """Greedy multiset match of recorded eigenvalues (plain reals or
    [re, im] pairs) against recomputed ones."""
    import numpy as np
    try:
        rec = [complex(p[0], p[1]) if isinstance(p, (list, tuple))
               else complex(p) for p in recorded]
    except (TypeError, IndexError, ValueError):
        return False
    if len(rec) != computed.size:
        return False
    used = np.zeros(computed.size, dtype=bool)
    for z in rec:
        d = np.abs(computed - z)
        d[used] = np.inf
        j = int(np.argmin(d)) if d.size else -1
        if j < 0 or d[j] > slack:
            return False
        used[j] = True
    return True


def _verify_kernel(doc, family, facts, checks) -> None:
    import numpy as np
    from .linalg import Subspace, subspace_equal
    name = "kernel"
    basis = np.asarray(doc["kernel"]["basis"], dtype=float)
    dim = doc["kernel"]["dim"]
    n = family.n
    if basis.ndim != 2 or basis.shape[0] != n or basis.shape[1] != dim:
        checks.add(name, False, "kernel basis shape mismatch")
        return
    if basis.shape[1]:
        gram = basis.T @ basis - np.eye(basis.shape[1])
        if not checks.add(name, float(np.abs(gram).max()) <= 1e-7,
                          "kernel basis not orthonormal"):
            return
    scale = 1.0 + float(facts.vertices.norms.max())
    for i, shifted in enumerate(facts.vertices.shifted):
        resid = float(np.linalg.norm(shifted @ basis)) if basis.size else 0.0
        if not checks.add(name, resid <= facts.tol.residual_tol * scale,
                          f"kernel not fixed by vertex {i + 1}"):
            return
    checks.add(name, facts.common_dim == dim
               and subspace_equal(Subspace(basis), facts.common, facts.tol),
               "recorded kernel differs from the recomputed one")


def _verify_ksp(doc, family, facts, checks):
    """Returns the recomputed kernel facts."""
    checks.add("ksp", _matches(doc["ksp"], _ksp_doc(facts), 0.0),
               "kernel sharing facts do not recompute")
    return facts


def _verify_vertices(doc, family, facts, checks):
    """Rebuilds every vertex verdict; returns the rebuilt ones."""
    import numpy as np
    name = "vertex_verdicts"
    rebuilt = facts.vertex_verdicts
    recs = doc["vertex_verdicts"]
    if not checks.add(name, isinstance(recs, list)
                      and len(recs) == len(rebuilt),
                      "vertex verdict count mismatch"):
        return None
    for i, (rec, verdict) in enumerate(zip(recs, rebuilt)):
        scale = 1.0 + float(facts.vertices.norms[i])
        # eigenvalues match as a multiset; every other field as rebuilt
        eigs = rec["details"]["eigenvalues"]
        want = _vertex_doc(verdict)
        want["details"]["eigenvalues"] = eigs
        checks.add(name,
                   _eigs_match(eigs, np.asarray(
                       verdict.details["eigenvalues"]), 1e-6 * scale)
                   and _matches(rec, want, facts.tol.residual_tol * scale),
                   f"vertex {i + 1}: recorded verdict does not recompute")
    return rebuilt


def _check_lmi(name, problem, values, recorded, checks) -> None:
    """verify_lmi must pass and reproduce the recorded margins."""
    from .feasibility import verify_lmi
    check = verify_lmi(problem, values)
    if checks.add(name, check["pass"], "certificate infeasible"):
        slack = problem.tol.residual_tol * (1.0 + check["scale"])
        checks.add(name, _matches(recorded, _lmi_checks_doc(check), slack),
                   "recorded margins do not recompute")


def _square(value, dim: int):
    """A recorded dim x dim matrix (JSON keeps no shape for 0 x 0)."""
    import numpy as np
    a = np.asarray(value, dtype=float)
    return a.reshape(0, 0) if dim == 0 else a


def _verify_strong_certificate(doc, family, facts, checks):
    """Rebuilds the decomposition in the recorded frame T and re-checks
    the common-Lyapunov LMI of its off-kernel blocks; returns the
    certificate kind and its kernel block dimension."""
    import numpy as np
    from .lti import CQLF_GAMMA, block_form, cqlf_problem
    name = "certificates/strong"
    tol = facts.tol
    sec = doc["certificates"]["strong"]
    n = family.n
    t = np.asarray(sec["t"], dtype=float)
    if not checks.add(name, t.shape == (n, n) and float(
            np.abs(t.T @ t - np.eye(n)).max()) <= 1e-7,
            "T is not an orthonormal n x n frame"):
        return None
    # the kernel block must be the full common kernel, not a slice of it
    m = facts.common_dim
    r = n - m
    a_as, a_r, resid = block_form(family.matrices, family.mode, t[:, :r],
                                  t[:, r:])
    slack = tol.residual_tol * (1.0 + float(facts.vertices.norms.max()))
    rebuilt = _jsonable({"kernel_dim": m, "blocks": a_as, "couplings": a_r,
                         "decomposition_residual": resid})
    if not checks.add(name, resid <= slack and _matches(
            {k: sec[k] for k in rebuilt}, rebuilt, slack),
            "decomposition does not recompute, or its kernel block is not "
            "the common kernel fixed by every vertex"):
        return None
    kind = sec["kind"]
    if kind != "decomposition-cqlf":
        checks.add(name, False, f"unknown strong certificate kind {kind!r}")
        return None
    if not checks.add(name, sec["gamma"] == CQLF_GAMMA,
                      "unexpected definiteness offset"):
        return None
    _check_lmi(name, cqlf_problem(a_as, family.mode, tol),
               {"P": _square(sec["p"], r)}, sec["checks"], checks)
    return kind, m


def _verify_weak_certificate(doc, family, facts, checks):
    """Returns the certificate's grid parameter."""
    import numpy as np
    from .lti import check_grid_parameter, damped_problem
    name = "certificates/weak"
    sec = doc["certificates"]["weak"]
    parameter = sec["parameter"]
    try:
        check_grid_parameter(family.mode, parameter)
    except InputError as exc:
        checks.add(name, False, str(exc))
        return None
    _check_lmi(name, damped_problem(facts, parameter),
               {"P": np.asarray(sec["p"], dtype=float)}, sec["checks"],
               checks)
    return parameter


def _verify_rate(doc, family, facts, checks) -> None:
    """Rebuilds the rate section at the recorded beta from the strong
    certificate's P, blocks and couplings."""
    import numpy as np
    from .inclusion import RateEstimate, decay_margins, rate_constants
    name = "rate"
    sec = doc["rate"]
    strong = doc["certificates"].get("strong") or {}
    if not checks.add(name, strong.get("kind") == "decomposition-cqlf",
                      "rate needs the common-Lyapunov strong certificate"):
        return
    p = np.asarray(strong["p"], dtype=float)
    couplings = [np.asarray(b, dtype=float) for b in strong["couplings"]]
    blocks = [np.asarray(b, dtype=float) for b in strong["blocks"]]
    beta = float(sec["beta"])
    rebuilt = _rate_doc(RateEstimate(
        beta, *rate_constants(p, couplings), family.mode,
        decay_margins(p, blocks, beta, family.mode)))
    slack = facts.tol.residual_tol * (1.0 + float(np.linalg.norm(p, 2)))
    checks.add(name, beta > 0 and _matches(sec, rebuilt, slack)
               and max(rebuilt["checks"]["block_margins"]) <= slack,
               "rate does not recompute, or P does not decay at beta")


def _verify_witness_section(doc, family, facts, checks):
    """Rebuilds the orbit numbers from the recorded signal and start
    state, then re-simulates the orbit; returns the rebuilt evidence."""
    import numpy as np
    from .sim import verify_witness, witness_evidence
    name = "witness"
    ev = doc["witness"]
    rebuilt = witness_evidence(family, ev["cycle"], ev["dwell"],
                               np.asarray(ev["start_state"], dtype=float))
    if checks.add(name, _matches(ev, rebuilt, 1e-9),
                  "recorded orbit does not recompute"):
        checks.add(name, verify_witness(family, ev),
                   "periodic orbit fails re-simulation")
    return rebuilt


def _verify_verdicts(doc, family, found, checks) -> None:
    """The recorded verdicts must be the ones the rule gives on the
    evidence of the sections that checked out (found), and a rate section
    must be recorded exactly when analyze computes one: for a strong
    verdict on the common-Lyapunov certificate with a nonempty off-kernel
    block."""
    from .inclusion import verdicts_from_evidence
    name = "verdicts"
    if not checks.add(name, "vertex_verdicts" in found and "ksp" in found,
                      "the verdicts rest on vertex verdicts and kernel "
                      "facts that did not check out"):
        return
    strong_kind, m = found.get("certificates/strong") or (None, None)
    rebuilt = verdicts_from_evidence(
        found["ksp"], strong_kind, m, found.get("certificates/weak"),
        found.get("witness"))
    for side, verdict in zip(("strong", "weak"), rebuilt):
        checks.add(name, _matches(doc["verdicts"][side],
                                  _verdict_doc(verdict), 0.0),
                   f"{side}: recorded verdict is not the one its evidence "
                   "gives")
    needs_rate = (rebuilt[0].method == "decomposition-cqlf"
                  and family.n > m)
    checks.add(name, (doc.get("rate") is not None) == needs_rate,
               "a rate section is recorded exactly when the strong verdict "
               "rests on the common-Lyapunov certificate and the off-kernel "
               "block is nonempty")


def _report_tolerances(doc):
    """The Tolerances a report records: an object with exactly the four
    Tolerances keys."""
    from .linalg import DEFAULT_TOL, Tolerances
    tdoc = doc.get("tolerances")
    keys = sorted(_tol_doc(DEFAULT_TOL))
    if not isinstance(tdoc, dict) or sorted(tdoc) != keys:
        raise InputError("report tolerances must be an object with the keys "
                         + ", ".join(keys))
    return Tolerances(**tdoc)


# what a wrongly typed field raises inside a section check (InputError is a
# ValueError); the section then fails instead of the whole verification
_MALFORMED = (AttributeError, TypeError, KeyError, IndexError, ValueError)


def verify_report(doc, family):
    """Re-check every piece of recorded evidence without the solver, at
    the tolerances the report records (its tolerances section).

    Each section is rebuilt from the family and the recorded evidence with
    the code that wrote it, and compared with the recorded one: the vertex
    kernels are recomputed once (lti.kernel_facts) and every section reads
    them from those facts, vertex verdicts are recomputed with eig, each LMI
    certificate's constraints are rebuilt and re-checked with verify_lmi,
    and a periodic orbit's numbers are rebuilt and the orbit re-simulated.
    So a report edited after the fact fails even when the edited value
    would itself be feasible.  The recorded verdict pair must then be
    inclusion.verdicts_from_evidence of the sections that checked out,
    status, method, details and evidence reference alike.  A section that
    is missing or wrongly typed is a failed check; a report that is not an
    object, or whose tolerances are malformed, raises InputError.  Returns
    (verified, checks).
    """
    if not isinstance(doc, dict):
        raise InputError("report must be a JSON object")
    from .lti import kernel_facts
    facts = kernel_facts(family.matrices, family.mode,
                         _report_tolerances(doc))
    checks = _Checks()
    checks.add("mode", doc.get("mode") == family.mode
               and doc.get("n") == family.n
               and doc.get("m_count") == family.m_count,
               "family does not match the report header")
    sections = [("kernel", _verify_kernel), ("ksp", _verify_ksp),
                ("vertex_verdicts", _verify_vertices)]
    certs = doc.get("certificates")
    if not isinstance(certs, dict):
        checks.add("certificates", False, "certificates must be an object")
        certs = {}
    if "strong" in certs:
        sections.append(("certificates/strong", _verify_strong_certificate))
    if "weak" in certs:
        sections.append(("certificates/weak", _verify_weak_certificate))
    if doc.get("witness") is not None:
        sections.append(("witness", _verify_witness_section))
    if doc.get("rate") is not None:
        sections.append(("rate", _verify_rate))
    # the evidence of each section that checked out; the verdicts come
    # last, as they rest on it
    found = {}
    sections.append(("verdicts", lambda doc, family, facts, checks:
                     _verify_verdicts(doc, family, found, checks)))
    for name, verify in sections:
        start = len(checks.items)
        try:
            evidence = verify(doc, family, facts, checks)
        except _MALFORMED as exc:
            checks.add(name, False,
                       f"malformed section: {type(exc).__name__}: {exc}")
        else:
            if checks.ok(start):
                found[name] = evidence
    return checks.ok(), checks.items


# ------------------------------------------------------------ subcommands

def _cmd_analyze(args) -> int:
    from .inclusion import analyze
    family = _load_family(args.family)
    tol = _tolerances_from(args.tol)
    _emit(report_to_dict(analyze(family, tol)), args.out)
    return 0


def _cmd_certify(args) -> int:
    """inclusion.certify at the stage --method names: analyze's report
    document, with the stage in diagnostics["stage"]."""
    from .inclusion import certify
    family = _load_family(args.family)
    stage = {"cqlf": "cqlf_stability", "weak-lmi": "weak_lmi"}[args.method]
    _emit(report_to_dict(certify(family, stage, args.parameter,
                                 _tolerances_from(args.tol))), args.out)
    return 0


def _signal_from_doc(doc):
    from .examples import spike_schedule_signal
    from .sim import SwitchingSignal
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("signal spec must be a JSON object with 'kind'")
    kind = doc["kind"]
    known = ("constant", "vertex-cycle", "iid-random", "explicit",
             "spike-schedule")
    extra = set(doc) - {"kind", "weights", "sequence", "dwell", "seed",
                        "sampling", "segments", "h_max"}
    if extra:
        raise InputError(f"unknown signal fields: {sorted(extra)}")
    if kind == "constant":
        return SwitchingSignal.constant(doc.get("weights", ()))
    if kind == "vertex-cycle":
        return SwitchingSignal.vertex_cycle(doc.get("sequence", ()),
                                            doc.get("dwell", 1))
    if kind == "iid-random":
        if "seed" not in doc:
            raise InputError("iid-random signal needs a 'seed'")
        return SwitchingSignal.iid_random(
            int(doc["seed"]), doc.get("sampling", "vertex"),
            doc.get("dwell", 1.0))
    if kind == "explicit":
        return SwitchingSignal.explicit(
            [(seg[0], seg[1]) for seg in doc.get("segments", ())])
    if kind == "spike-schedule":
        return spike_schedule_signal(int(doc.get("h_max", 40)))
    raise InputError(f"unknown signal kind {kind!r}; one of {known}")


def _parse_vector(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{what} must be comma-separated reals, "
                         f"got {text!r}") from None


def _cmd_simulate(args) -> int:
    import numpy as np
    from .sim import (residual_diagnostics, simulate_ct, simulate_dt,
                      trajectory_to_csv)
    family = _load_family(args.family)
    tol = _tolerances_from(args.tol)
    spec = _read_json_arg(args.signal, "signal spec")
    try:
        signal = _signal_from_doc(spec)
    except InputError:
        raise
    except _MALFORMED as exc:
        # a wrongly typed field, as in verify_report
        raise InputError(f"malformed signal spec: {type(exc).__name__}: "
                         f"{exc}") from None
    x0 = _parse_vector(args.x0, "--x0")
    if family.mode == "dt":
        steps = int(round(args.horizon))
        if abs(args.horizon - steps) > 1e-9:
            raise InputError("DT horizon must be an integer step count")
        traj = simulate_dt(family, signal, x0, steps, tol)
    else:
        sample_dt = (args.horizon / 1000.0 if args.sample_dt is None
                     else args.sample_dt)
        traj = simulate_ct(family, signal, x0, args.horizon, sample_dt, tol)
    doc = {
        "mode": family.mode,
        "samples": int(traj.times.shape[0]),
        "t_final": float(traj.times[-1]),
        "final_state": traj.states[-1].tolist(),
        "converged": traj.converged,
        "limit": None if traj.limit is None else traj.limit.tolist(),
        "residual": None,
    }
    if traj.limit is not None:
        diag = residual_diagnostics(family, traj)
        res = {"pointwise_final": float(diag["pointwise"][-1])}
        if family.mode == "ct":
            res.update({
                "running_average_final": float(diag["running_average"][-1]),
                "averaged_weight": diag["averaged_weight"].tolist(),
                "witness_residual": diag["witness_residual"],
            })
        doc["residual"] = res
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            trajectory_to_csv(traj, fh)
        doc["csv"] = args.csv
    _emit(doc, args.out)
    return 0


def _cmd_weak_kernel(args) -> int:
    from .lasalle import weak_kernel_membership, weak_kernel_triviality_scan
    family = _load_family(args.family)
    tol = _tolerances_from(args.tol)
    if (args.x is None) == (args.scan is None):
        raise InputError("weak-kernel needs exactly one of --x or --scan")
    if args.x is not None:
        res = weak_kernel_membership(family, _parse_vector(args.x, "--x"),
                                     tol)
        doc = {"x": res.x.tolist(), "feasible": res.feasible,
               "weights": None if res.w is None else res.w.tolist(),
               "residual": res.residual}
    else:
        scan = weak_kernel_triviality_scan(family, samples=args.scan,
                                           seed=args.seed, tol=tol)
        witness = None
        if scan.witness is not None:
            witness = {"x": scan.witness.x.tolist(),
                       "weights": scan.witness.w.tolist(),
                       "residual": scan.witness.residual}
        doc = {"likely_trivial": scan.likely_trivial,
               "checked": scan.checked, "witness": witness}
    _emit(doc, args.out)
    return 0


def _cmd_lasalle(args) -> int:
    from .lasalle import lasalle_set_quadratic
    family = _load_family(args.family)
    tol = _tolerances_from(args.tol)
    p = _read_json_arg(args.p, "P matrix")
    las = lasalle_set_quadratic(family, p, tol)
    _emit({"provenance": las.provenance,
           "subspaces": [{"basis": s.basis.tolist(), "dim": s.dim}
                         for s in las.subspaces]}, args.out)
    return 0


def _cmd_dual(args) -> int:
    from .family import family_to_dict
    from .inclusion import dual_family
    _emit(family_to_dict(dual_family(_load_family(args.family))), args.out)
    return 0


def _cmd_rate(args) -> int:
    from .inclusion import analyze
    family = _load_family(args.family)
    tol = _tolerances_from(args.tol)
    report = analyze(family, tol)
    if report.rate is None:
        raise InputError(
            "no rate available: strong convergence was not established "
            f"through the common-Lyapunov route (strong verdict: "
            f"{report.strong.status}, {report.strong.method})")
    _emit(_rate_doc(report.rate), args.out)
    return 0


def _cmd_examples(args) -> int:
    from .examples import catalogue, catalogue_names
    from .family import family_to_dict
    if args.name is None:
        listing = []
        for name in catalogue_names():
            e = catalogue(name)
            listing.append({
                "name": e.name, "mode": e.family.mode, "n": e.family.n,
                "m_count": e.family.m_count,
                "expected_strong": e.expected_strong,
                "expected_weak": e.expected_weak,
                "description": e.description,
                "parameters": _jsonable(e.parameters),
            })
        _emit({"examples": listing}, args.out)
        return 0
    _emit(family_to_dict(catalogue(args.name).family), args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = _read_json(args.report, "report file")
    family = _load_family(args.family)
    verified, checks = verify_report(doc, family)
    _emit({"verified": verified, "checks": checks}, args.out)
    if not verified:
        failed = sorted({c["name"] for c in checks if not c["pass"]})
        raise InputError("report verification failed: " + ", ".join(failed))
    return 0


# ------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _finite_float(text: str) -> float:
    """The argparse type of every real-valued option."""
    import math
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _add_common(sp, tol_help: str = "override the certificate acceptance "
                "tolerance (residual_tol)") -> None:
    sp.add_argument("--tol", type=_finite_float, default=None, help=tol_help)
    sp.add_argument("--out", default=None,
                    help="write the JSON result here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polyconv",
                description="Convergence analysis of switched linear "
                            "systems over matrix polytopes")
    p.add_argument("--threads", type=int, default=None,
                   help="cap the BLAS thread pools (set at process start; "
                        "default: machine parallelism)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full strong/weak verdict report")
    sp.add_argument("family", help="family JSON file, or - for stdin")
    _add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("certify", help="the report of one certificate "
                        "stage (diagnostics.stage), which verify re-checks")
    sp.add_argument("family")
    sp.add_argument("--method", required=True,
                    choices=("weak-lmi", "cqlf"))
    sp.add_argument("--parameter", type=_finite_float, default=None,
                    help="fix the weak-lmi damping to one point of its "
                         "search grid (eta in dt, eps in ct)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("simulate", help="integrate one switching signal")
    sp.add_argument("family")
    sp.add_argument("--signal", required=True,
                    help="signal spec (JSON file or inline object); dwells "
                         "and segment durations are integer steps (dt) or "
                         "time (ct)")
    sp.add_argument("--x0", required=True, help="initial state, e.g. 1,0")
    sp.add_argument("--horizon", type=_finite_float, required=True,
                    help="steps (dt) or final time (ct)")
    sp.add_argument("--sample-dt", type=_finite_float, default=None,
                    help="ct sampling interval (default horizon/1000)")
    sp.add_argument("--csv", default=None,
                    help="write t,x1..xn,w1..wM samples to this file")
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("weak-kernel",
                        help="weak kernel membership or triviality scan")
    sp.add_argument("family")
    sp.add_argument("--x", default=None, help="state to test, e.g. 1,0")
    sp.add_argument("--scan", type=int, default=None,
                    help="sample count for the triviality scan")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_weak_kernel)

    sp = sub.add_parser("lasalle",
                        help="invariance candidate set from a wQLF")
    sp.add_argument("family")
    sp.add_argument("--P", dest="p", required=True,
                    help="P matrix (JSON file or inline)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_lasalle)

    sp = sub.add_parser("dual", help="emit the transposed family")
    sp.add_argument("family")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("rate", help="exponential envelope of the "
                                     "off-kernel state")
    sp.add_argument("family")
    _add_common(sp)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("examples",
                        help="catalogue listing or one named family")
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_examples)

    sp = sub.add_parser("verify",
                        help="re-check a report's evidence without the "
                             "solver")
    sp.add_argument("report", help="report JSON file, or - for stdin")
    sp.add_argument("family", help="family JSON file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)
    return p


def _cap_threads(n: int) -> None:
    import os
    if n < 1:
        raise InputError(f"--threads must be at least 1, got {n}")
    for key in _THREAD_ENV:
        os.environ[key] = str(n)


def _error_json(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": str(exc)}}) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None:
            _cap_threads(args.threads)
        return args.func(args)
    except InputError as exc:
        _error_json("input", exc)
        return 1
    except NumericalError as exc:
        _error_json("numerical", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
