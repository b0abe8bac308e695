"""The benchmark's own tests: every generator plants the truth it claims,
checked with numpy and scipy alone, and every workload's checker rejects
a deliberately wrong answer.

    python3 -m pytest bench -q
"""

import copy
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import generators as gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(6)


def _rng(*stream):
    return np.random.default_rng(list(stream))


def _max_eig(m):
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


# ------------------------------------------------------ planted truths

@pytest.mark.parametrize("mode", ["ct", "dt"])
@pytest.mark.parametrize("seed", SEEDS)
def test_cqlf_family_has_its_kernel_and_lyapunov_matrix(mode, seed):
    n, m, k = 7, 3, 1 + seed % 2
    g = gen.cqlf_family(_rng(seed), n, m, k, mode)
    crit = 1.0 if mode == "dt" else 0.0
    ker, comp, p0 = g["kernel"], g["complement"], g["p0"]
    assert np.allclose(np.hstack([comp, ker]).T @ np.hstack([comp, ker]),
                       np.eye(n), atol=1e-12)
    for a in g["matrices"]:
        shifted = a - crit * np.eye(n)
        assert workloads.kernel_dim(shifted, 1.0 + np.linalg.norm(a, 2)) == k
        assert np.abs(shifted @ ker).max() <= 1e-12 * (1 + np.abs(a).max())
        b = comp.T @ a @ comp
        lyap = b.T @ p0 + p0 @ b if mode == "ct" else b.T @ p0 @ b - p0
        assert _max_eig(lyap) < -1e-3
    assert np.linalg.eigvalsh(p0)[0] >= 1.0 - 1e-12


def _archetype_convergent(a, mode):
    """Convergence from the eigenvalues: every eigenvalue strictly stable,
    or equal to the critical value and semisimple."""
    n = a.shape[0]
    crit = 1.0 if mode == "dt" else 0.0
    eig = np.linalg.eigvals(a)
    critical = np.abs(eig - crit) <= 1e-8
    rest = eig[~critical]
    inside = (np.abs(rest) < 1 - 1e-8 if mode == "dt"
              else rest.real < -1e-8)
    if not np.all(inside):
        return False
    shifted = a - crit * np.eye(n)
    scale = 1.0 + np.linalg.norm(a, 2)
    return (workloads.kernel_dim(shifted, scale)
            == workloads.kernel_dim(shifted @ shifted, scale * scale)
            == int(critical.sum()))


@pytest.mark.parametrize("archetype", gen.ARCHETYPES)
@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_archetype_convergence_from_eigenvalues(archetype, mode):
    for seed in SEEDS:
        for n in (2, 4, 6):
            a = gen.archetype_matrix(_rng(seed, n), n, mode, archetype)
            assert _archetype_convergent(a, mode) == \
                gen.CONVERGENT[archetype], (seed, n)


def _period_map(mats, mode, cycle, dwell):
    prop = np.eye(mats[0].shape[0])
    for v in cycle:
        step = (np.linalg.matrix_power(mats[v], int(dwell)) if mode == "dt"
                else scipy.linalg.expm(mats[v] * dwell))
        prop = step @ prop
    return prop


@pytest.mark.parametrize("case", range(0, 40, 3))
def test_orbit_family_plants_its_orbit_or_diverging_cycle(case):
    n, m, mode, cycle, d, growth = workloads.witness_cases()[case]
    dwell = (1, 2, 3)[d] if mode == "dt" else (0.5, 1.0, 2.0)[d]
    g = gen.orbit_family(_rng(case), n, m, mode, cycle, dwell, growth)
    mats = g["matrices"]
    for a in mats:
        if mode == "dt":
            assert gen.spectral_radius(a) <= 0.95 + 1e-9
        else:
            assert gen.spectral_abscissa(a) <= -0.05 + 1e-9
    prop = _period_map(mats, mode, cycle, dwell)
    eig = np.linalg.eigvals(prop)
    top = eig[np.argmax(np.abs(eig))]
    assert abs(top - growth) <= 1e-9
    w, v = np.linalg.eig(prop)
    y0 = np.real(v[:, np.argmin(np.abs(w - growth))])
    y0 /= np.linalg.norm(y0)
    assert np.linalg.norm(y0 - g["plane"] @ (g["plane"].T @ y0)) <= 1e-9
    assert workloads.orbit_ok(mats, mode, cycle, dwell, y0) == (
        growth == 1.0)


def test_network_generators_have_their_structure():
    rng = _rng(7)
    lap = gen.ring_laplacian(rng, 6)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    for kind, axis in (("row", 1), ("column", 0)):
        for a in gen.generator_matrices(rng, 6, 3, kind):
            off = a - np.diag(np.diag(a))
            assert off.min() >= 0.0
            assert np.allclose(a.sum(axis=axis), 0.0, atol=1e-12)
    for a in gen.dissipative_matrices(rng, 6, 3):
        assert _max_eig(a + a.T) <= -1.0 + 1e-12


# ------------------------------------------- checkers reject wrong answers

def _first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def test_cqlf_checker_rejects_flipped_verdict_and_foreign_kernel():
    op = workloads.cqlf_scaling(3)[0]
    doc = op.call()
    assert op.check(doc) is None
    flipped = copy.deepcopy(doc)
    flipped["verdicts"]["strong"]["status"] = "Disproven"
    assert op.check(flipped) is not None
    foreign = np.eye(doc["n"])[:, :doc["kernel"]["dim"]]
    assert workloads.check_report(doc, op.inputs["family"],
                                  workloads.CQLF_EXPECT, foreign) is not None


def test_cqlf_recheck_rejects_a_non_decaying_certificate():
    op = workloads.cqlf_scaling(4)[1]
    doc = op.call()
    fam = op.inputs["family"]
    assert workloads.recheck_cqlf(doc, fam.matrices, fam.mode) is None
    bad = copy.deepcopy(doc)
    p = np.asarray(bad["certificates"]["strong"]["p"])
    bad["certificates"]["strong"]["p"] = (-p).tolist()
    assert workloads.recheck_cqlf(bad, fam.matrices, fam.mode) is not None


def test_witness_checker_rejects_perturbed_start_state():
    ops = workloads.witness_search(5)
    op = next(o for o in ops if "orbit" in o.label and " dt " in o.label)
    doc = op.call()
    assert op.check(doc) is None
    assert doc["witness"] is not None
    bad = copy.deepcopy(doc)
    y0 = np.asarray(bad["witness"]["start_state"])
    bad["witness"]["start_state"] = (y0 + 1e-3 * _rng(1).standard_normal(
        y0.shape)).tolist()
    assert op.check(bad) is not None
    fam = op.inputs["family"]
    w = doc["witness"]
    assert workloads.orbit_ok(fam.matrices, fam.mode, w["cycle"], w["dwell"],
                              w["start_state"])
    assert not workloads.orbit_ok(fam.matrices, fam.mode, w["cycle"],
                                  w["dwell"], bad["witness"]["start_state"])


def test_witness_checker_rejects_a_flipped_exhausted_verdict():
    ops = workloads.witness_search(5)
    op = next(o for o in ops if "diverging" in o.label)
    doc = op.call()
    assert op.check(doc) is None
    bad = copy.deepcopy(doc)
    bad["verdicts"]["weak"]["status"] = "Proven"
    assert op.check(bad) is not None


class _Outcome:
    def __init__(self, feasible):
        self.feasible = feasible


def test_lti_checker_rejects_flipped_answer():
    for op in workloads.lti_routes(2)[::7]:
        out = op.call()
        assert op.check(out) is None, op.label
        assert op.check(_Outcome(not out.feasible)) is not None


def test_network_checkers_reject_wrong_answers():
    ops = workloads.network_kernel(1)
    sim_op = _first(ops, "simulate row")
    traj = sim_op.call()
    assert sim_op.check(traj) is None
    traj.states[-1] += 1e-4
    assert sim_op.check(traj) is not None
    col_op = _first(ops, "simulate column")
    traj = col_op.call()
    assert col_op.check(traj) is None
    traj.states[5] *= 1.001
    assert col_op.check(traj) is not None

    mem = _first(ops, "membership stationary")
    res = mem.call()
    assert mem.check(res) is None
    res.w = np.roll(res.w, 1)
    assert mem.check(res) is not None
    res.feasible = False
    assert mem.check(res) is not None

    scan = _first(ops, "scan dissipative")
    out = scan.call()
    assert scan.check(out) is None
    out.likely_trivial = False
    assert scan.check(out) is not None


def test_consensus_membership_shows_the_known_fault():
    ops = [op for op in workloads.network_kernel(0)
           if op.fault is not None]
    assert len(ops) == 3
    for op in ops:
        res = op.call()
        x = op.inputs["x"]
        mats = op.inputs["family"].matrices
        # A_i x vanishes up to rounding for every vertex: x is in the
        # weak kernel with any weight
        assert max(np.abs(a @ x).max() for a in mats) <= 1e-14
        assert op.fault(res)


# ------------------------------------------------------------- harness

def test_tail_is_read_with_ten_operations_beyond_it():
    times = [[float(i)] for i in range(40)]
    e2e = worker.end_to_end(times, 40)
    assert e2e["op_s.tail"]["value"] == 29.0
    assert e2e["op_s.p50"]["value"] == 19.5


def test_tracer_wraps_every_binding_and_nests_spans():
    import polyconv.feasibility as feasibility
    import polyconv.inclusion as inclusion
    import polyconv.lti as lti
    saved = {m: dict(vars(sys.modules[f"polyconv.{m}"]))
             for m in tracing.MODULES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lti.sdp_feasible is feasibility.sdp_feasible
        assert inclusion.sdp_feasible is feasibility.sdp_feasible
        tracer.phase, tracer.op = "op", 0
        a = gen.archetype_matrix(_rng(1), 3, "dt", "stable")
        assert lti.lti_lmi_dt_f(a).feasible
        metrics = tracer.layer_metrics(1)
    finally:
        for m, attrs in saved.items():
            vars(sys.modules[f"polyconv.{m}"]).update(attrs)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "lti.route"
    sdp = [s for s in tracer.spans if s[tracing.NAME] == "feasibility.sdp"]
    assert sdp and all(s[tracing.PARENT] == 0 for s in sdp)
    assert metrics["lti.sdp_calls_per_route"]["value"] == len(sdp)
    assert metrics["feasibility.sdp.feasible"]["value"] == 1.0
    own = tracer.self_times()
    assert own[0] <= tracer.spans[0][tracing.END] - tracer.spans[0][
        tracing.START]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lti-routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_printed_metric():
    import json
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = worker.end_to_end([[1.0]] * 40, 40)
    assert {m["name"] for m in doc["end_to_end"]} == set(e2e) | {"setup_s"}
    layers = tracing.Tracer().layer_metrics(1)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (k, v["unit"]) for k, v in layers.items()]
    import run
    assert [w["name"] for w in doc["workloads"]] == list(
        workloads.WORKLOADS) == list(run.WORKLOADS)
