"""Acceptance suite: twelve end-to-end guarantees, one test per guarantee.

Each test states an externally checkable behavior of the analyzer (on the
shipped example families plus seeded random sweeps) and checks it at its
stated tolerance.  Run with -v to get one pass/fail line per guarantee.
"""

import copy
import json
import time

import numpy as np
import pytest

import polyconv.feasibility
import polyconv.inclusion
from polyconv.cli import report_to_dict, verify_report
from polyconv.feasibility import CERTIFIED_INFEASIBLE, verify_dual
from polyconv.examples import (catalogue, catalogue_names,
                               opinion_social_family, spike_schedule_signal)
from polyconv.family import MatrixFamily
from polyconv.inclusion import analyze, dual_family, euler_family, kernel_facts
from polyconv.lasalle import lasalle_set_quadratic
from polyconv.lti import (DISPROVEN, PROVEN, UNKNOWN, lti_convergent_ct,
                          lti_convergent_dt, lti_lmi_ct_f, lti_lmi_ct_g,
                          lti_lmi_dt_e, lti_lmi_dt_f)
from polyconv.linalg import matrix_exponential
from polyconv.sim import (SwitchingSignal, find_nonconvergence_witness,
                          residual_diagnostics, simulate_ct, verify_witness)


# 1 ------------------------------------------------------------------------

def test_scalar_half_one_is_weakly_but_not_strongly_convergent():
    report = analyze(catalogue("scalar-half-one").family)
    assert report.strong.disproven
    assert report.weak.proven
    assert report.weak.method == "weak-lmi"
    assert report.weak_certificate.parameter >= 0.25


# 2 ------------------------------------------------------------------------

def test_sign_flip_family_has_period_two_orbit_despite_weak_lyapunov():
    fam = catalogue("pm-one-dt").family
    # V(x) = x^2 never increases along either vertex, yet orbits recur
    for a in fam.matrices:
        assert float(a[0, 0] ** 2 - 1.0) <= 0.0
    assert analyze(fam).weak.disproven
    found = find_nonconvergence_witness(fam)
    assert found is not None
    _, evidence = found
    assert evidence["period_length"] == pytest.approx(2.0)
    assert verify_witness(fam, evidence)


# 3 ------------------------------------------------------------------------

def test_vanishing_spikes_converge_without_pointwise_residual_decay():
    fam = catalogue("spike-schedule").family
    signal = spike_schedule_signal(h_max=1000)
    traj = simulate_ct(fam, signal, [1.0], 1000.0, 0.5)
    assert traj.limit is not None
    assert abs(float(traj.limit[0]) - 0.5) <= 1e-6
    diag = residual_diagnostics(fam, traj)
    # constant-height spikes recur forever, so no pointwise decay
    assert float(max(diag["segment_pointwise"][-2:])) >= 0.4
    # the limit is 1/2 and the decay vertex is active for ln(2) in total
    # (the tail past T=100 is below 2^-100 of it), so the running average
    # is exactly 0.5*ln(2)/T there: it decays like 1/T, to zero
    late = traj.times >= 100.0
    scaled = traj.times[late] * diag["running_average"][late]
    worst = float(np.abs(scaled / (0.5 * np.log(2.0)) - 1.0).max())
    assert worst <= 1e-9, (
        f"T * running average deviates from 0.5*ln(2) by {worst:.3e} "
        "(relative) for T >= 100: the running average is not "
        "0.5*ln(2)/T")


# 4 ------------------------------------------------------------------------

def test_triangular_pair_cycles_while_its_transpose_converges():
    fam = catalogue("dt-duality").family
    report = analyze(fam)
    assert report.weak.disproven
    assert report.weak.method == "periodic-orbit"
    evidence = report.witness
    states = [np.asarray(evidence["start_state"], dtype=float)]
    for v in evidence["cycle"]:
        y = states[-1]
        for _ in range(int(evidence["dwell"])):
            y = fam.matrices[v] @ y
        states.append(y)
    # the second coordinate is invariant; normalize each state to x2 = 1
    ratios = sorted(float(s[0] / s[1]) for s in states[:-1])
    assert ratios == pytest.approx([8.0 / 3.0, 10.0 / 3.0], abs=1e-9)
    dual_report = analyze(dual_family(fam))
    assert dual_report.strong.proven
    for block in dual_report.strong_certificate.decomposition.a_as:
        assert block.shape == (1, 1)
        assert float(block[0, 0]) == pytest.approx(0.5, abs=1e-9)


# 5 ------------------------------------------------------------------------

def test_mass_conserving_flow_stalls_while_its_dual_reaches_consensus():
    fam = catalogue("ct-duality").family
    assert not kernel_facts(fam.matrices, fam.mode).holds
    for seed in range(5):
        traj = simulate_ct(fam, SwitchingSignal.iid_random(seed),
                           [0.7, 0.3], 50.0, 0.1)
        sums = traj.states.sum(axis=1)
        assert float(np.abs(sums - 1.0).max()) <= 1e-10
    dual = dual_family(fam)
    assert analyze(dual).strong.proven
    ones = np.ones((2, 1)) / np.sqrt(2.0)
    from polyconv.linalg import Subspace
    span_ones = Subspace(ones)
    for seed in range(20):
        traj = simulate_ct(dual, SwitchingSignal.iid_random(seed),
                           [1.0, -0.4], 50.0, 0.1)
        assert span_ones.distance(traj.states[-1]) <= 1e-6


# 6 ------------------------------------------------------------------------

def test_two_node_consensus_rate_certificate_bounds_disagreement():
    fam = catalogue("path-consensus").family
    report = analyze(fam)
    assert report.strong.proven
    for block in report.strong_certificate.decomposition.a_as:
        assert float(block[0, 0]) == pytest.approx(-1.0, abs=1e-10)
    rate = report.rate
    assert rate is not None
    assert rate.beta == pytest.approx(1.0, rel=1e-9)
    kernel = report.facts.common
    x0 = np.array([1.0, -1.0])
    d0 = kernel.distance(x0)
    for seed in range(100):
        traj = simulate_ct(fam, SwitchingSignal.iid_random(seed),
                           x0, 6.0, 0.05)
        mask = traj.times >= 1.0
        envelope = (rate.c0 * rate.c1 / rate.beta) * d0 * np.exp(
            -rate.beta * traj.times[mask])
        gaps = np.array([kernel.distance(s)
                         for s in traj.states[mask]])
        assert np.all(gaps <= 1.05 * envelope), seed


# 7 ------------------------------------------------------------------------

def test_biased_influence_network_steers_opinions_to_the_input_ratio():
    graphs = ([[-1.0, 1.0], [2.0, -2.0]], [[-2.0, 2.0], [1.0, -1.0]])
    fam = opinion_social_family((1.0, 2.0), graphs, 1.0, (0.5, 1.0))
    assert fam.metadata["unbiased"]
    assert fam.metadata["beta_bar"] == pytest.approx(0.5)
    assert analyze(fam).strong.proven
    for seed in range(10):
        z0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=2)
        x0 = np.append(z0, 1.0)
        traj = simulate_ct(fam, SwitchingSignal.iid_random(seed),
                           x0, 100.0, 0.1)
        final = traj.states[-1]
        assert float(np.abs(final[:2] - 0.5).max()) <= 1e-6, seed
        assert final[2] == pytest.approx(1.0, abs=1e-12)


# 8 ------------------------------------------------------------------------

def test_axis_kernel_family_limits_land_on_the_two_axes():
    fam = catalogue("diag-kernels").family
    las = lasalle_set_quadratic(fam, 0.5 * np.eye(2))
    assert len(las.subspaces) == 2
    assert all(s.dim == 1 for s in las.subspaces)
    for axis in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert min(s.distance(axis) for s in las.subspaces) <= 1e-10
    signals = [SwitchingSignal.constant([1.0, 0.0]),
               SwitchingSignal.constant([0.0, 1.0]),
               SwitchingSignal.constant([0.3, 0.7]),
               SwitchingSignal.constant([0.7, 0.3]),
               SwitchingSignal.vertex_cycle([0, 1], 1.0),
               SwitchingSignal.vertex_cycle([1, 0], 2.0)]
    signals += [SwitchingSignal.iid_random(seed) for seed in range(14)]
    assert len(signals) == 20
    for signal in signals:
        traj = simulate_ct(fam, signal, [0.8, -0.6], 60.0, 0.1)
        x = traj.states[-1]
        assert min(s.distance(x) for s in las.subspaces) <= 1e-6


# 9 ------------------------------------------------------------------------

def _stable_core(rng, k: int, mode: str) -> np.ndarray:
    g = rng.standard_normal((k, k))
    if mode == "dt":
        rho = max(abs(np.linalg.eigvals(g))) if k else 1.0
        return g * (rng.uniform(0.2, 0.85) / max(rho, 1e-9))
    shift = max(np.linalg.eigvals(g).real) if k else 0.0
    return g - (shift + rng.uniform(0.3, 1.5)) * np.eye(k)


def _sweep_matrix(rng, n: int, mode: str, archetype: int) -> np.ndarray:
    lam0 = 1.0 if mode == "dt" else 0.0
    if archetype == 0:
        return _stable_core(rng, n, mode)
    if archetype == 1:
        g = rng.standard_normal((n, n))
        if mode == "dt":
            rho = max(abs(np.linalg.eigvals(g)))
            return g * (rng.uniform(1.1, 1.6) / max(rho, 1e-9))
        shift = max(np.linalg.eigvals(g).real)
        return g + (rng.uniform(0.1, 1.0) - shift) * np.eye(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    core = np.zeros((n, n))
    if archetype == 2:
        k = 1 if n < 4 else 2
        core[:k, :k] = lam0 * np.eye(k)
        core[k:, k:] = _stable_core(rng, n - k, mode)
    elif archetype == 3:
        core[0, 0] = core[1, 1] = lam0
        core[0, 1] = 1.0
        if n > 2:
            core[2:, 2:] = _stable_core(rng, n - 2, mode)
    else:
        theta = rng.uniform(0.3, 2.8)
        if mode == "dt":
            core[:2, :2] = [[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]]
        else:
            core[:2, :2] = [[0.0, theta], [-theta, 0.0]]
        if n > 2:
            core[2:, 2:] = _stable_core(rng, n - 2, mode)
    return q @ core @ q.T


def _cauchy_after_many_steps(a: np.ndarray, mode: str,
                             k_steps: int = 10_000) -> bool:
    step = a if mode == "dt" else matrix_exponential(a * 0.02)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.linalg.matrix_power(step, k_steps // 2)
        full = half @ half
        for x0 in [np.ones(a.shape[0]), *np.eye(a.shape[0])]:
            xh = half @ x0
            diff = float(np.linalg.norm(full @ x0 - xh))
            if not np.isfinite(diff) or diff > 1e-6 * (
                    1.0 + float(np.linalg.norm(xh))):
                return False
    return True


def test_single_matrix_routes_agree_on_a_seeded_sweep():
    rng = np.random.default_rng(20240814)
    start = time.monotonic()
    band_flags = 0
    for i in range(500):
        n = int(rng.integers(2, 7))
        mode = "dt" if i % 2 == 0 else "ct"
        archetype = int(rng.integers(0, 5))
        a = _sweep_matrix(rng, n, mode, archetype)
        verdict = (lti_convergent_dt(a) if mode == "dt"
                   else lti_convergent_ct(a))
        if verdict.status == UNKNOWN:
            band_flags += 1
            continue
        convergent = verdict.status == PROVEN
        if mode == "dt":
            damped, reduced = lti_lmi_dt_e(a), lti_lmi_dt_f(a)
        else:
            damped, reduced = lti_lmi_ct_f(a), lti_lmi_ct_g(a)
        for route, out in (("damped", damped), ("reduced", reduced)):
            assert out.feasible == convergent, (i, archetype, route)
            # unstable and rotation matrices have eigenvector duals on both
            # forms, a Jordan block eigenvector duals on the reduced one and
            # a chain pair on the damped one: their answers must be
            # certified, not the solver's stall
            if (archetype in (1, 4) and not out.feasible) or archetype == 3:
                assert out.result.status == CERTIFIED_INFEASIBLE, (
                    i, archetype, route, out.result.status)
            if out.result.status == CERTIFIED_INFEASIBLE:
                assert verify_dual(out.problem, out.result.factors)["pass"]
        assert _cauchy_after_many_steps(a, mode) == convergent, (
            i, archetype)
    elapsed = time.monotonic() - start
    assert band_flags < 25
    assert elapsed < 300.0


# 10 -----------------------------------------------------------------------

def test_euler_step_families_inherit_the_flow_verdict():
    for name in catalogue_names():
        fam = catalogue(name).family
        if fam.mode != "ct":
            continue
        tau = 0.1 / max(float(np.linalg.norm(a, 2)) for a in fam.matrices)
        stepped = euler_family(fam, tau)
        assert analyze(stepped).strong.status == analyze(fam).strong.status, (
            name)


# 11 -----------------------------------------------------------------------

def test_verdict_lattice_is_consistent_on_catalogue_and_random_families():
    families = [catalogue(name).family for name in catalogue_names()]
    rng = np.random.default_rng(77)
    for i in range(200):
        mode = "dt" if i % 2 == 0 else "ct"
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        shared = None
        if rng.random() < 0.35:
            shared = rng.standard_normal(n)
            shared /= np.linalg.norm(shared)
        mats = []
        for _ in range(m):
            a = rng.standard_normal((n, n)) * rng.uniform(0.3, 1.2)
            a /= np.sqrt(n)
            if shared is not None:
                if mode == "dt":
                    a = a - (a - np.eye(n)) @ np.outer(shared, shared)
                else:
                    a = a - a @ np.outer(shared, shared)
            mats.append(a)
        families.append(MatrixFamily(mode, mats))
    for idx, fam in enumerate(families):
        report = analyze(fam)
        assert report.strong.status in (PROVEN, DISPROVEN, UNKNOWN)
        assert report.weak.status in (PROVEN, DISPROVEN, UNKNOWN)
        assert not (report.strong.proven and report.weak.disproven), idx
        if not report.facts.holds:
            assert report.strong.disproven, idx
        if report.weak.disproven:
            assert report.strong.disproven, idx


# 12 -----------------------------------------------------------------------

def _float_leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _float_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from _float_leaves(value, path + (idx,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, doc


def _set_at(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def test_reports_reverify_without_the_solver_and_reject_tampering(
        monkeypatch):
    reports = {}
    for name in catalogue_names():
        fam = catalogue(name).family
        reports[name] = json.loads(json.dumps(
            report_to_dict(analyze(fam)), allow_nan=False))

    def solver_must_not_run(*args, **kwargs):
        raise AssertionError("report verification invoked the solver")

    monkeypatch.setattr(polyconv.feasibility, "sdp_feasible",
                        solver_must_not_run)
    monkeypatch.setattr(polyconv.inclusion, "sdp_feasible",
                        solver_must_not_run)
    corruptions = 0
    for name, doc in reports.items():
        fam = catalogue(name).family
        verified, checks = verify_report(doc, fam)
        assert verified, (name, [c for c in checks if not c["pass"]])
        for section in ("certificates", "rate", "kernel", "witness"):
            if doc.get(section) is None:
                continue
            for path, value in _float_leaves(doc[section], (section,)):
                damaged = copy.deepcopy(doc)
                _set_at(damaged, path, value + 1e-3)
                still_ok, _ = verify_report(damaged, fam)
                assert not still_ok, (name, path)
                corruptions += 1
    assert corruptions >= 100
