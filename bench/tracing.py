"""Spans at polyconv's module boundaries, recorded from outside the program.

install() replaces each traced public function with a wrapper in every
polyconv module that holds it by name (``polyconv.inclusion.sdp_feasible``
and ``polyconv.lti.sdp_feasible`` as well as
``polyconv.feasibility.sdp_feasible``), so calls between modules are seen
too.  Spans stay in memory until the run ends.  Each span is
[name, start, end, parent index, operation id, phase, extra]; the phase is
"op" inside a timed operation and "check" inside the benchmark's checks.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name): the layer boundaries that are traced
TRACED = (
    ("feasibility", "sdp_feasible", "feasibility.sdp"),
    ("feasibility", "verify_lmi", "feasibility.verify_lmi"),
    ("feasibility", "lp_simplex_membership", "feasibility.lp"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "matrix_exponential", "linalg.expm"),
    ("lti", "lti_convergent_dt", "lti.spectral"),
    ("lti", "lti_convergent_ct", "lti.spectral"),
    ("lti", "lti_lmi_dt_e", "lti.route"),
    ("lti", "lti_lmi_dt_f", "lti.route"),
    ("lti", "lti_lmi_ct_f", "lti.route"),
    ("lti", "lti_lmi_ct_g", "lti.route"),
    ("inclusion", "analyze", "inclusion.analyze"),
    ("inclusion", "cqlf_stability", "inclusion.cqlf"),
    ("inclusion", "convergence_rate", "inclusion.rate"),
    ("inclusion", "strong_lmi", "inclusion.strong_lmi"),
    ("inclusion", "weak_lmi", "inclusion.weak_lmi"),
    ("sim", "find_nonconvergence_witness", "sim.witness"),
    ("sim", "simulate_ct", "sim.simulate_ct"),
    ("lasalle", "weak_kernel_triviality_scan", "lasalle.scan"),
    ("lasalle", "weak_kernel_membership", "lasalle.membership"),
    ("cli", "report_to_dict", "cli.report"),
    ("cli", "verify_report", "cli.verify"),
)

MODULES = ("linalg", "feasibility", "family", "lti", "inclusion", "lasalle",
           "sim", "examples", "cli")

NAME, START, END, PARENT, OP, PHASE, EXTRA = range(7)


def _get(span, key, default=0):
    """A fact from a span's extra; a call that raised recorded none."""
    return (span[EXTRA] or {}).get(key, default)


def _unknowns(problem) -> int:
    """Scalar unknowns of an LMI problem, as the solver counts them."""
    dims = [v.dim for v in problem.variables]
    dims += [c.dim for c in problem.constraints]
    return sum(d * (d + 1) // 2 for d in dims)


def _extra(name: str, args, result) -> dict | None:
    """The per-call facts the layer metrics need, read from the call's own
    arguments and result."""
    if name == "feasibility.sdp":
        return {"status": result.status, "iterations": int(result.iterations),
                "unknowns": _unknowns(args[0])}
    if name == "sim.simulate_ct":
        return {"samples": int(result.times.shape[0])}
    if name == "sim.witness":
        return {"found": result is not None}
    if name == "lasalle.scan":
        return {"checked": int(result.checked)}
    if name == "inclusion.analyze":
        return {"decided": sum(v.status != "Unknown"
                               for v in (result.strong, result.weak))}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.phase = "setup"

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[EXTRA] = _extra(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever polyconv binds it."""
        import importlib
        mods = [importlib.import_module(f"polyconv.{m}") for m in MODULES]
        for origin, attr, name in TRACED:
            fn = getattr(sys.modules[f"polyconv.{origin}"], attr)
            wrapper = self.wrap(name, fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    # ------------------------------------------------------------ results

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the timed operations.

        Times and call counts are per operation (run total / n_ops);
        ratios are per call of the named parent layer.
        """
        ops = [s for s in self.spans if s[PHASE] == "op"]
        per_op = max(n_ops, 1)

        def of(name, spans=ops):
            return [s for s in spans if s[NAME] == name]

        def total_s(spans):
            return sum(s[END] - s[START] for s in spans)

        def under(parent_name, child_name):
            """Child spans nested anywhere below a parent_name span."""
            count = 0
            for s in of(child_name):
                p = s[PARENT]
                while p >= 0 and self.spans[p][NAME] != parent_name:
                    p = self.spans[p][PARENT]
                count += p >= 0
            return count

        sdp = of("feasibility.sdp")
        routes = of("lti.route")
        analyses = of("inclusion.analyze")
        scans = of("lasalle.scan")
        checks = [s for s in self.spans if s[PHASE] == "check"]
        infeasible = [s for s in sdp
                      if _get(s, "status") == "Infeasible-at-tolerance"]
        m = {
            "feasibility.sdp.calls": (len(sdp) / per_op, "count"),
            "feasibility.sdp.s": (total_s(sdp) / per_op, "s"),
            "feasibility.sdp.iterations": (
                sum(_get(s, "iterations") for s in sdp) / per_op, "count"),
            "feasibility.sdp.infeasible_s": (total_s(infeasible) / per_op,
                                             "s"),
            "feasibility.sdp.feasible": (
                sum(_get(s, "status") == "Feasible" for s in sdp) / per_op,
                "count"),
            "feasibility.sdp.unknowns_max": (
                max((_get(s, "unknowns") for s in sdp), default=0), "count"),
            "feasibility.verify_lmi.s": (
                total_s(of("feasibility.verify_lmi")) / per_op, "s"),
            "feasibility.lp.calls": (len(of("feasibility.lp")) / per_op,
                                     "count"),
            "feasibility.lp.s": (total_s(of("feasibility.lp")) / per_op, "s"),
            "linalg.kernel.calls": (len(of("linalg.kernel")) / per_op,
                                    "count"),
            "linalg.kernel.s": (total_s(of("linalg.kernel")) / per_op, "s"),
            "linalg.expm.calls": (len(of("linalg.expm")) / per_op, "count"),
            "linalg.expm.s": (total_s(of("linalg.expm")) / per_op, "s"),
            "lti.spectral.s": (total_s(of("lti.spectral")) / per_op, "s"),
            "lti.route.s": (total_s(routes) / per_op, "s"),
            "lti.sdp_calls_per_route": (
                under("lti.route", "feasibility.sdp") / len(routes)
                if routes else 0.0, "ratio"),
            "inclusion.analyze.s": (total_s(analyses) / per_op, "s"),
            "inclusion.kernel_calls_per_analyze": (
                under("inclusion.analyze", "linalg.kernel") / len(analyses)
                if analyses else 0.0, "ratio"),
            "inclusion.cqlf.s": (total_s(of("inclusion.cqlf")) / per_op, "s"),
            "inclusion.rate.s": (total_s(of("inclusion.rate")) / per_op, "s"),
            "inclusion.strong_lmi.s": (
                total_s(of("inclusion.strong_lmi")) / per_op, "s"),
            "inclusion.weak_lmi.s": (
                total_s(of("inclusion.weak_lmi")) / per_op, "s"),
            "inclusion.verdicts_decided": (
                sum(_get(s, "decided") for s in analyses) / len(analyses)
                if analyses else 0.0, "count"),
            "sim.witness.s": (total_s(of("sim.witness")) / per_op, "s"),
            "sim.witness.found": (
                sum(_get(s, "found") for s in of("sim.witness")) / per_op,
                "count"),
            "sim.simulate_ct.s": (total_s(of("sim.simulate_ct")) / per_op,
                                  "s"),
            "sim.simulate_ct.samples": (
                sum(_get(s, "samples") for s in of("sim.simulate_ct"))
                / per_op, "count"),
            "lasalle.scan.s": (total_s(scans) / per_op, "s"),
            "lasalle.scan.checked": (
                sum(_get(s, "checked") for s in scans) / len(scans)
                if scans else 0.0, "count"),
            "lasalle.membership.calls": (
                len(of("lasalle.membership")) / per_op, "count"),
            "cli.report.s": (total_s(of("cli.report")) / per_op, "s"),
            "cli.verify.s": (total_s(of("cli.verify", checks)) / per_op, "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def summary(self) -> dict:
        """Calls, total and self seconds per span name and phase."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(f"{s[PHASE]}:{s[NAME]}",
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += own
        return out

    def write(self, path) -> None:
        own = self.self_times()
        doc = {"fields": ["name", "start", "end", "parent", "op", "phase",
                          "extra", "self_s"],
               "spans": [s + [o] for s, o in zip(self.spans, own)],
               "summary": self.summary()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
