"""Tests for family-level convergence analysis.

Expected verdicts for the named families are frozen from hand derivations:
kernels and decomposition blocks are computed symbolically in the comments,
and certificate checks go through verify_lmi rather than the solver.
"""

import importlib.util
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import polyconv.inclusion as inclusion
from polyconv.cli import report_to_dict, verify_report
from polyconv.errors import InputError
from polyconv.examples import catalogue, catalogue_names
from polyconv.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityResult,
    verify_lmi,
)
from polyconv.inclusion import (
    MatrixFamily,
    StrongCertificate,
    analyze,
    convergence_rate,
    cqlf_stability,
    dual_family,
    euler_family,
    kernel_facts,
    strong_lmi,
    verdicts_from_evidence,
    weak_lmi,
)
from polyconv.lti import (
    DISPROVEN,
    EPS_GRID,
    ETA_GRID,
    PROVEN,
    UNKNOWN,
    LmiOutcome,
    certified_feasible,
    cqlf_problem,
    lyapunov_candidates,
)
from polyconv.sim import divergent_cycle, find_nonconvergence_witness

A11 = MatrixFamily("dt", [[[0.5, 0], [1, 1]], [[0.75, 0], [1, 1]]])
HALF_ONE = MatrixFamily("dt", [[[0.5]], [[1.0]]])
PM_ONE = MatrixFamily("dt", [[[-1.0]], [[1.0]]])
DT_DUALITY = MatrixFamily("dt", [[[0.5, 1], [0, 1]], [[0.5, 2], [0, 1]]])
CT_DUALITY = MatrixFamily("ct", [[[-1, 2], [1, -2]], [[-2, 1], [2, -1]]])
DIAG_KERNELS = MatrixFamily("ct", [[[-1, 0], [0, 0]], [[0, 0], [0, -1]]])
SPIKE = MatrixFamily("ct", [[[0.0]], [[-1.0]]])
PATH_CONSENSUS = MatrixFamily("ct", [[[-1, 1], [0, 0]], [[0, 0], [1, -1]]])


def facts(fam):
    return kernel_facts(fam.matrices, fam.mode)


def decaying_blocks(rng, n, m, mode):
    """m blocks that all decay strictly, with a wide margin, in one planted
    quadratic form P0: B'P0 + P0 B = -2R with R >= I/2 (ct), or
    B = P0^-1/2 M P0^1/2 with ||M|| <= 0.8 (dt)."""
    g = rng.standard_normal((n, n))
    w, u = np.linalg.eigh(g @ g.T / n + np.eye(n))
    p0 = (u * w) @ u.T
    blocks = []
    for _ in range(m):
        if mode == "ct":
            s = rng.standard_normal((n, n)) / np.sqrt(n)
            h = rng.standard_normal((n, n))
            blocks.append(np.linalg.solve(
                p0, 0.5 * (s - s.T) - h @ h.T / n - 0.5 * np.eye(n)))
        else:
            mm = rng.standard_normal((n, n))
            mm *= rng.uniform(0.3, 0.8) / np.linalg.norm(mm, 2)
            blocks.append((u / np.sqrt(w)) @ u.T @ mm @ (u * np.sqrt(w)) @ u.T)
    return blocks


def near_boundary_family(rng, mode: str) -> MatrixFamily:
    """A family Q [[B_i, 0], [R_i, c I_k]] Q' (c = 1 in dt, 0 in ct) with a
    planted common kernel of dimension k: n = 3-5, m = 2-3 random blocks
    B_i scaled to spectral radius 0.8-1.1 of the largest (dt), or shifted
    to spectral abscissa -0.3 to 0.1 of the largest (ct), so that a common
    quadratic Lyapunov function of the B_i sometimes exists."""
    n, m = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    k = int(rng.integers(1, n - 1))
    r = n - k
    gs = [rng.standard_normal((r, r)) for _ in range(m)]
    if mode == "dt":
        rho = max(np.abs(np.linalg.eigvals(g)).max() for g in gs)
        blocks = [rng.uniform(0.8, 1.1) / rho * g for g in gs]
    else:
        gs = [g / np.linalg.norm(g, 2) for g in gs]
        shift = (max(np.linalg.eigvals(g).real.max() for g in gs)
                 + rng.uniform(-0.1, 0.3))
        blocks = [g - shift * np.eye(r) for g in gs]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mats = []
    for b in blocks:
        core = np.zeros((n, n))
        core[:r, :r] = b
        core[r:, :r] = rng.standard_normal((k, r))
        core[r:, r:] = (1.0 if mode == "dt" else 0.0) * np.eye(k)
        mats.append(q @ core @ q.T)
    return MatrixFamily(mode, mats)


def tight_dt_pair(rng, rho=0.97, kmax=6):
    """A 2x2 DT pair scaled so that the largest rho(product)^(1/k) over
    the products of length k <= kmax is rho: stable, with a tight margin."""
    mats = rng.standard_normal((2, 2, 2))
    worst = 0.0
    for k in range(1, kmax + 1):
        for word in itertools.product(range(2), repeat=k):
            prod = np.eye(2)
            for i in word:
                prod = mats[i] @ prod
            worst = max(worst, float(
                np.abs(np.linalg.eigvals(prod)).max()) ** (1.0 / k))
    return [rho * a / worst for a in mats]


class TestKernelAndKsp:
    def test_a11_shares_e2(self):
        ker = facts(A11).common
        assert ker.dim == 1
        assert ker.distance(np.array([0.0, 1.0])) < 1e-12
        res = facts(A11)
        assert res.holds
        assert res.kernel_dims == (1, 1)
        assert res.common_dim == 1

    def test_duality_kernels_differ(self):
        # ker(A1 - I) = span (2, 1), ker(A2 - I) = span (4, 1)
        res = facts(DT_DUALITY)
        assert not res.holds
        assert res.kernel_dims == (1, 1)
        assert res.common_dim == 0

    def test_diag_kernels_differ(self):
        res = facts(DIAG_KERNELS)
        assert not res.holds
        assert res.common_dim == 0

    def test_spike_dims(self):
        res = facts(SPIKE)
        assert not res.holds
        assert res.kernel_dims == (1, 0)

    def test_path_consensus_agreement_line(self):
        ker = facts(PATH_CONSENSUS).common
        assert ker.dim == 1
        assert ker.distance(np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-12
        assert facts(PATH_CONSENSUS).holds

    def test_identity_family_full_kernel(self):
        fam = MatrixFamily("dt", [np.eye(3)])
        assert facts(fam).common.dim == 3


class TestStrongDecompose:
    def test_a11_blocks(self):
        dec = facts(A11).decomposition
        assert dec.m == 1
        assert np.allclose(dec.a_as[0], [[0.5]])
        assert np.allclose(dec.a_as[1], [[0.75]])
        # coupling row is the (2,1) entry of either vertex
        assert abs(abs(dec.a_r[0][0, 0]) - 1.0) < 1e-12
        assert dec.residual < 1e-12

    def test_path_consensus_blocks(self):
        dec = facts(PATH_CONSENSUS).decomposition
        assert dec.m == 1
        assert np.allclose(dec.a_as[0], [[-1.0]])
        assert np.allclose(dec.a_as[1], [[-1.0]])

    def test_requires_shared_kernel(self):
        with pytest.raises(InputError, match="shared kernel"):
            facts(DT_DUALITY).decomposition


class TestCqlf:
    def test_dt_scalar_blocks(self):
        out = cqlf_stability([[[0.5]], [[0.75]]], "dt")
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_ct_blocks(self):
        out = cqlf_stability([[[-1.0]], [[-1.0]]], "ct")
        assert out.feasible

    def test_unstable_dt_infeasible(self):
        assert not cqlf_stability([[[1.1]]], "dt").feasible

    def test_zero_matrix_not_hurwitz(self):
        assert not cqlf_stability([[[0.0]]], "ct").feasible

    def test_empty_blocks_trivially_feasible(self):
        out = cqlf_stability([np.zeros((0, 0))], "ct")
        assert out.feasible
        assert out.result.values["P"].shape == (0, 0)

    def test_unknown_mode_rejected(self):
        # posed as CT, the DT-unstable block -1.5 would get a CQLF
        with pytest.raises(InputError, match="mode"):
            cqlf_stability([[[-1.5]]], "DT")

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError):
            cqlf_stability([np.eye(2), np.eye(3)], "dt")
        with pytest.raises(InputError):
            cqlf_stability([], "dt")

    @pytest.mark.parametrize("mode", ["ct", "dt"])
    def test_wide_margin_family_needs_no_solver(self, monkeypatch, mode):
        calls = []
        solve = inclusion.sdp_feasible

        def counting(problem):
            calls.append(problem)
            return solve(problem)
        monkeypatch.setattr(inclusion, "sdp_feasible", counting)
        blocks = decaying_blocks(np.random.default_rng(3), 6, 3, mode)
        out = cqlf_stability(blocks, mode)
        assert calls == []
        assert out.feasible
        assert out.result.iterations == 0
        assert "Lyapunov-equation candidate" in out.result.diagnostics
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_tight_pair_falls_back_to_the_solver(self):
        # a stable pair with a CQLF that no Lyapunov-equation candidate
        # gives: 41 of the 118 such pairs among 135 draws of this generator
        blocks = tight_dt_pair(np.random.default_rng(0))
        problem = cqlf_problem(blocks, "dt")
        assert certified_feasible(
            problem, lyapunov_candidates(blocks, "dt")) is None
        out = cqlf_stability(blocks, "dt")
        assert out.feasible
        assert out.result.iterations > 0
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_block_candidate_decides_when_the_mean_block_fails(
            self, monkeypatch):
        # a tight pair whose mean block's candidate fails verify_lmi but
        # whose second block's candidate passes: 43 of the 118 pairs with
        # a CQLF among 135 draws of this generator are decided this way
        def no_solver(problem):
            raise AssertionError("sdp_feasible called")
        monkeypatch.setattr(inclusion, "sdp_feasible", no_solver)
        blocks = tight_dt_pair(np.random.default_rng(4))
        problem = cqlf_problem(blocks, "dt")
        label, values = next(lyapunov_candidates(blocks, "dt"))
        assert "mean block" in label
        assert not verify_lmi(problem, values)["pass"]
        out = cqlf_stability(blocks, "dt")
        assert out.feasible
        assert out.result.iterations == 0
        assert out.result.diagnostics == (
            "Lyapunov-equation candidate of the block 2 passes verify_lmi")
        assert verify_lmi(out.problem, out.result.values)["pass"]

    @pytest.mark.parametrize("blocks, mode", [
        ([[[0.0]]], "ct"), ([[[1e-17]]], "ct"), ([[[1.1]]], "dt"),
        ([[[1.0]]], "dt"), ([[[-1.0]]], "dt"), ([[[2.0]], [[-2.0]]], "ct"),
        ([[[0.0, 1.0], [-1.0, 0.0]]], "ct")])
    def test_singular_and_unstable_blocks_warn_nothing(self, blocks, mode):
        # no Lyapunov equation is solved for a block that is not strictly
        # stable (here every one but the block -2), so the candidate stage
        # adds no solver warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not cqlf_stability(blocks, mode).feasible

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-1, 1)))
    def test_dissipative_ct_always_feasible(self, w):
        # A + A' < 0 by construction, so P = I certifies decay
        a = w - (np.linalg.norm(w, 2) + 0.1) * np.eye(3)
        out = cqlf_stability([a], "ct")
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]


class TestStrongLmi:
    def test_a11_feasible_and_verified(self):
        out = strong_lmi(facts(A11))
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_path_consensus_feasible(self):
        out = strong_lmi(facts(PATH_CONSENSUS))
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_defective_vertex_infeasible(self):
        fam = MatrixFamily("dt", [[[1, 1], [0, 1]]])
        assert not strong_lmi(facts(fam)).feasible

    def test_requires_shared_kernel(self):
        with pytest.raises(InputError, match="shared kernel"):
            strong_lmi(facts(HALF_ONE))

    @pytest.mark.parametrize("mode", ["dt", "ct"])
    def test_equivalent_to_cqlf_on_shared_kernel_families(self, mode):
        """In the kernel-aligned frame the joint LMI's vertex constraint is
        a_as'P1 a_as - P1 + X'QX <= 0, X = [a_as - I; a_r] (dt), or
        a_as'P1 + P1 a_as + Y'QY <= 0, Y = [a_as; a_r] (ct).  X and Y have
        full column rank: a null vector would be a fixed (annihilated)
        vector outside the common kernel, which holds all of them.  So with
        Q > 0 the joint LMI is feasible exactly when the blocks a_as have a
        strict common quadratic Lyapunov function, cqlf_stability's
        problem, and the two stages must agree."""
        rng = np.random.default_rng([0, mode == "ct"])
        outcomes = []
        for i in range(10):
            f = facts(near_boundary_family(rng, mode))
            assert f.holds
            feasible = strong_lmi(f).feasible
            assert feasible == cqlf_stability(f.decomposition.a_as,
                                              mode).feasible, i
            outcomes.append(feasible)
        assert set(outcomes) == {True, False}


class TestWeakLmi:
    def test_half_one_smallest_eta(self):
        # vertex 0.5 needs eta >= 0.25, vertex 1 is identically zero,
        # so the smallest grid value already works
        cert = weak_lmi(facts(HALF_ONE))
        assert cert is not None
        assert cert.parameter == ETA_GRID[0]
        assert verify_lmi(cert.problem, cert.result.values)["pass"]

    def test_pm_one_infeasible(self):
        # vertex -1 forces 4 (1 - eta) P <= 0 against P > 0
        assert weak_lmi(facts(PM_ONE)) is None

    def test_dt_duality_infeasible(self):
        assert weak_lmi(facts(DT_DUALITY)) is None

    def test_ct_duality_infeasible(self):
        assert weak_lmi(facts(CT_DUALITY)) is None

    def test_diag_kernels_feasible(self):
        cert = weak_lmi(facts(DIAG_KERNELS))
        assert cert is not None
        assert cert.parameter == EPS_GRID[-1]
        assert verify_lmi(cert.problem, cert.result.values)["pass"]

    def test_spike_feasible(self):
        assert weak_lmi(facts(SPIKE)) is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_ct_one_vertex_semisimple_kernel_feasible(self, seed):
        # the matrices of test_lti's TestCtLmiF two-dim-kernel case, posed
        # as one-vertex families: solved directly at eps = 1e-4 these
        # exhaust the DR budget, so the grid scan must probe EPS_GRID[0]
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        q = q * np.sign(np.diag(r))
        g = rng.standard_normal((4, 4))
        g -= (max(np.linalg.eigvals(g).real) + 0.5) * np.eye(4)
        core = np.zeros((6, 6))
        core[2:, 2:] = g
        cert = weak_lmi(facts(MatrixFamily("ct", [q @ core @ q.T])))
        assert cert is not None
        assert cert.parameter == EPS_GRID[-1]
        assert verify_lmi(cert.problem, cert.result.values)["pass"]

    def test_explicit_parameter(self):
        assert weak_lmi(facts(DIAG_KERNELS), parameter=1e-2) is not None
        assert weak_lmi(facts(PM_ONE), parameter=0.9) is None


class TestEulerAndDual:
    def test_euler_family_matrices(self):
        fam = euler_family(PATH_CONSENSUS, 0.1)
        assert fam.mode == "dt"
        assert np.allclose(fam.matrices[0],
                           np.eye(2) + 0.1 * np.asarray(
                               PATH_CONSENSUS.matrices[0]))
        assert fam.metadata["tau"] == 0.1

    def test_euler_rejects_dt_and_bad_tau(self):
        with pytest.raises(InputError):
            euler_family(A11, 0.1)
        with pytest.raises(InputError):
            euler_family(PATH_CONSENSUS, 0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_euler_rejects_non_finite_tau(self, tau):
        with pytest.raises(InputError, match="positive and finite"):
            euler_family(PATH_CONSENSUS, tau)

    def test_dual_family_transposes(self):
        dual = dual_family(CT_DUALITY)
        assert dual.mode == "ct"
        for a, b in zip(dual.matrices, CT_DUALITY.matrices):
            assert np.allclose(a, np.asarray(b).T)


class TestAnalyzeCatalogue:
    def test_a11_strong_with_rate(self):
        rep = analyze(A11)
        assert rep.strong.status == PROVEN
        assert rep.strong.method == "decomposition-cqlf"
        assert rep.weak.status == PROVEN
        assert rep.rate is not None
        assert abs(rep.rate.beta + np.log(0.75)) < 1e-9
        assert rep.rate.c0 == pytest.approx(1.0)
        assert rep.rate.c1 == pytest.approx(1.0)

    def test_half_one_weak_only(self):
        rep = analyze(HALF_ONE)
        assert rep.strong.status == DISPROVEN
        assert rep.strong.method == "kernel-mismatch"
        assert rep.weak.status == PROVEN
        assert rep.weak.method == "weak-lmi"
        assert rep.weak_certificate.parameter == ETA_GRID[0]

    def test_pm_one_vertex_disproof(self):
        rep = analyze(PM_ONE)
        assert rep.strong.status == DISPROVEN
        assert rep.weak.status == DISPROVEN
        assert rep.strong.method == "vertex"

    def test_rotation_vertex_disproof(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rep = analyze(MatrixFamily("dt", [[[c, -s], [s, c]]]))
        assert rep.weak.status == DISPROVEN
        assert rep.weak.method == "vertex"

    def test_dt_duality_witness(self):
        rep = analyze(DT_DUALITY)
        assert rep.strong.status == DISPROVEN
        assert rep.strong.method == "kernel-mismatch"
        assert rep.weak.status == DISPROVEN
        assert rep.weak.method == "periodic-orbit"
        assert rep.witness is not None
        assert rep.witness["separation"] > 1e-3

    def test_ct_duality_witness(self):
        rep = analyze(CT_DUALITY)
        assert rep.weak.status == DISPROVEN
        assert rep.weak.method == "periodic-orbit"
        assert rep.witness is not None

    def test_diag_kernels_weak_only(self):
        rep = analyze(DIAG_KERNELS)
        assert rep.strong.status == DISPROVEN
        assert rep.weak.status == PROVEN
        assert rep.weak_certificate.parameter == EPS_GRID[-1]

    def test_spike_weak_only(self):
        rep = analyze(SPIKE)
        assert rep.strong.status == DISPROVEN
        assert rep.weak.status == PROVEN

    def test_path_consensus_unit_rate(self):
        rep = analyze(PATH_CONSENSUS)
        assert rep.strong.status == PROVEN
        assert rep.weak.status == PROVEN
        assert abs(rep.rate.beta - 1.0) < 1e-9
        assert rep.rate.bound(0.0) == pytest.approx(1.0)

    def test_single_matrix_reduces_to_lti(self):
        rep = analyze(MatrixFamily("dt", [[[0.5, 0], [1, 1]]]))
        assert rep.strong.status == PROVEN
        assert rep.weak.status == PROVEN
        assert abs(rep.rate.beta + np.log(0.5)) < 1e-9

    def test_identity_family_all_kernel(self):
        rep = analyze(MatrixFamily("dt", [np.eye(2)]))
        assert rep.strong.status == PROVEN
        assert rep.rate is None

    def test_tolerance_band_family_stays_unknown(self):
        # 1 + 1e-9 diverges, but its vertex sits inside the spectral band;
        # no certificate stage proves it, so the evidence is exhausted
        rep = analyze(MatrixFamily("dt", [[[1.0 + 1e-9]]]))
        assert (rep.strong.status, rep.strong.method) == (UNKNOWN,
                                                          "exhausted")
        assert (rep.weak.status, rep.weak.method) == (UNKNOWN, "exhausted")
        assert rep.rate is None
        assert rep.diagnostics["vertices_in_tolerance_band"] == [1]

    @pytest.mark.parametrize("name", ["diag-kernels", "scalar-half-one",
                                      "spike-schedule"])
    def test_each_vertex_eigendecomposition_is_computed_once(
            self, monkeypatch, name):
        # the weak stage probes several damped problems, and each asks
        # vertex_duals for the vertex eigenpairs
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        fam = catalogue(name).family
        assert analyze(fam).weak.status == PROVEN
        assert len(calls) == fam.m_count == 2

    @pytest.mark.parametrize("mats", [[[0.0, 1e3], [0.0, 0.0]],
                                      [[0.5, 1e3], [0.0, 0.5]]])
    def test_one_vertex_family_makes_no_joint_lmi_solve(self, monkeypatch,
                                                        mats):
        import polyconv.lti as lti

        def boom(*args, **kwargs):
            raise AssertionError("analyze ran the joint rank-reduced LMI")

        for module, name in ((inclusion, "strong_lmi"),
                             (inclusion, "reduced_lmi"),
                             (lti, "reduced_lmi")):
            monkeypatch.setattr(module, name, boom)
        analyze(MatrixFamily("dt", [mats]))

    def test_certify_has_no_joint_lmi_stage(self):
        with pytest.raises(InputError, match="strong_lmi"):
            inclusion.certify(PATH_CONSENSUS, "strong_lmi")


# non-convergent families whose every vertex sits in the spectral band
BAND_FAMILIES = [MatrixFamily("dt", [[[1.000000005]]]),
                 MatrixFamily("ct", [[[5e-9]]]),
                 MatrixFamily("dt", [np.diag([1.000000005, 0.5]),
                                     np.diag([1.000000005, 0.25])])]


@pytest.mark.parametrize("evidence", ["strong", "weak"])
@pytest.mark.parametrize("fam", BAND_FAMILIES)
def test_vertex_band_caps_a_proof_to_unknown(fam, evidence):
    # analyze finds no certificate here, so the cap is reached only from
    # evidence that passes at tolerance: a strong certificate, or a weak
    # one at a grid parameter
    f = facts(fam)
    assert f.holds and f.vertex_verdicts[0].status == UNKNOWN
    strong_kind, parameter = (("decomposition-cqlf", None)
                              if evidence == "strong"
                              else (None, (ETA_GRID if fam.mode == "dt"
                                           else EPS_GRID)[0]))
    verdicts = verdicts_from_evidence(f, strong_kind, f.common_dim,
                                      parameter, None)
    assert [(v.status, v.method) for v in verdicts] == [
        (UNKNOWN, "vertex-band")] * 2


class TestConvergenceRate:
    def test_hurwitz_singleton_rate_two(self):
        fam = MatrixFamily("ct", [[[-2.0]]])
        rep = analyze(fam)
        assert abs(rep.rate.beta - 2.0) < 1e-9
        assert rep.rate.c1 == 0.0
        assert rep.rate.c0 == pytest.approx(1.0)

    def test_requires_cqlf_evidence(self):
        dec = facts(A11).decomposition
        failed = FeasibilityResult(INFEASIBLE, {}, 0)
        cert = StrongCertificate(dec, LmiOutcome(
            None, failed, cqlf_problem(dec.a_as, "dt")))
        with pytest.raises(InputError, match="common-Lyapunov"):
            convergence_rate(A11, cert)

    def test_non_decaying_p_rejected(self):
        # rho(A) = 1/2, but |A x| > |x| for some x: P = I does not decay
        fam = MatrixFamily("dt", [[[0.5, 2.0], [0.0, 0.5]]])
        f = facts(fam)
        dec = f.decomposition
        fake = FeasibilityResult(FEASIBLE, {"P": np.eye(2)}, 0)
        cert = StrongCertificate(dec, cqlf=LmiOutcome(
            None, fake, cqlf_problem(dec.a_as, "dt")))
        with pytest.raises(InputError, match="does not decay"):
            convergence_rate(fam, cert)
        fake.values["P"] = -np.eye(2)
        with pytest.raises(InputError, match="positive definite"):
            convergence_rate(fam, cert)

    @pytest.mark.parametrize("family", [
        # the catalogue entries with a rate, then seeded families whose
        # certificate is a Lyapunov-equation candidate, and one whose
        # certificate comes from the solver
        catalogue("a11-switching").family,
        catalogue("path-consensus").family,
        *(MatrixFamily(mode, decaying_blocks(np.random.default_rng(seed),
                                             n, m, mode))
          for seed, (n, m) in enumerate([(2, 2), (4, 3), (7, 2)])
          for mode in ("ct", "dt")),
        MatrixFamily("dt", tight_dt_pair(np.random.default_rng(0)))])
    def test_closed_form_matches_bisection(self, family):
        rep = analyze(family)
        cert = rep.strong_certificate
        blocks = cert.decomposition.a_as
        p = cert.cqlf.result.values["P"]
        beta = rep.rate.beta
        assert type(beta) is float
        assert _decays_at(family.mode, blocks, p, beta)
        ref = _bisected_rate(family.mode, blocks, p)
        assert beta == pytest.approx(ref, rel=1e-9)

    def test_rate_on_a_cqlf_scaling_family_is_pinned(self):
        # the benchmark's cqlf-scaling operation 38 at seed 1, "analyze dt
        # n=10 m=4 k=2".  beta is the decay rate of whichever P certifies:
        # here the mean block's Lyapunov-equation solution, which decays
        # ten times slower than the solver's P for the same LMI.  A P
        # chosen for its rate should raise this pin.
        gen = _bench_generators()
        g = gen.cqlf_family(np.random.default_rng([20240814, 1, 38]),
                            10, 4, 2, "dt")
        q = gen.orthogonal(np.random.default_rng([1, 1, 38]), 10)
        fam = MatrixFamily("dt", [q.T @ a @ q for a in g["matrices"]])
        rep = analyze(fam)
        cert = rep.strong_certificate
        assert "mean block" in cert.cqlf.result.diagnostics
        assert rep.rate.beta == pytest.approx(0.0040937643, rel=1e-6)
        solved = inclusion.sdp_feasible(cert.cqlf.problem)
        by_solver = StrongCertificate(cert.decomposition, cqlf=LmiOutcome(
            None, solved, cert.cqlf.problem))
        assert convergence_rate(fam, by_solver).beta > 5.0 * rep.rate.beta

    def test_recorded_margins_are_the_ones_that_accepted_beta(self):
        # the benchmark's cqlf-scaling operation 9 at seed 1, "analyze dt
        # n=13 m=2 k=1": block 2 decays at beta with a margin at rounding
        # level, where the symmetrized e^(-2 beta) form of the predicate
        # reads +1.06e-16, so the report must record the accepting margins
        gen = _bench_generators()
        g = gen.cqlf_family(np.random.default_rng([20240814, 1, 9]),
                            13, 2, 1, "dt")
        q = gen.orthogonal(np.random.default_rng([1, 1, 9]), 13)
        fam = MatrixFamily("dt", [q.T @ a @ q for a in g["matrices"]])
        rep = analyze(fam)
        cert = rep.strong_certificate
        margins = report_to_dict(rep)["rate"]["checks"]["block_margins"]
        assert max(margins) <= 0.0
        assert margins == inclusion.decay_margins(
            cert.cqlf.result.values["P"], cert.decomposition.a_as,
            rep.rate.beta, "dt")


def _bench_generators():
    """The benchmark's seeded generators (bench/generators.py, numpy and
    scipy only), loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _decays_at(mode, blocks, p, b) -> bool:
    """The rate predicate: A'P + PA + 2bP <= 0 (ct) or
    A'PA - e^(-2b) P <= 0 (dt) for every block."""
    rho = np.exp(-b)
    return all(float(np.linalg.eigvalsh(
        a.T @ p + p @ a + 2.0 * b * p if mode == "ct"
        else a.T @ p @ a - rho * rho * p)[-1]) <= 0.0 for a in blocks)


def _bisected_rate(mode, blocks, p) -> float:
    """Reference rate: the largest b with _decays_at, by doubling to the
    1e12 cap and 80 bisection steps."""
    lo, hi = 0.0, 1.0
    while _decays_at(mode, blocks, p, hi) and hi < 1e12:
        hi *= 2.0
    assert _decays_at(mode, blocks, p, lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _decays_at(mode, blocks, p, mid):
            lo = mid
        else:
            hi = mid
    return lo


# seeded witness-search families (bench/generators.py orbit_family):
# (n, m, mode, planted cycle, planted dwell)
_SCREEN_CASES = ((3, 2, "dt", (0, 1), 1), (4, 3, "dt", (0, 1, 2), 2),
                 (5, 2, "ct", (0, 0, 1), 0.5), (4, 3, "ct", (0, 2), 1.0))


def _screen_families(growth):
    """growth 1 plants a periodic orbit, growth 1.3 a diverging cycle."""
    gen = _bench_generators()
    return [MatrixFamily(mode, gen.orbit_family(
        np.random.default_rng([7, i]), n, m, mode, cycle, dwell,
        growth)["matrices"])
            for i, (n, m, mode, cycle, dwell) in enumerate(_SCREEN_CASES)]


def _rebuilt_period_map(family, cycle, dwell):
    """The period map from numpy products (dt) or scipy.linalg.expm (ct)."""
    prop = np.eye(family.n)
    for v in cycle:
        a = family.matrices[v]
        prop = (np.linalg.matrix_power(a, int(dwell)) if family.mode == "dt"
                else scipy.linalg.expm(a * dwell)) @ prop
    return prop


class TestCycleScreen:
    @pytest.fixture(scope="class")
    def diverging(self):
        return _screen_families(1.3)

    @pytest.fixture(scope="class")
    def orbits(self):
        return _screen_families(1.0)

    def test_diverging_families_end_without_the_solver(self, diverging,
                                                       monkeypatch):
        import polyconv.lti as lti
        calls = []

        def counted(problem):
            calls.append(problem)
            return lti.sdp_feasible(problem)

        monkeypatch.setattr(inclusion, "sdp_feasible", counted)
        monkeypatch.setattr(lti, "sdp_feasible", counted)
        for fam in diverging:
            rep = analyze(fam)
            assert (rep.strong.status, rep.strong.method) == (UNKNOWN,
                                                              "exhausted")
            assert (rep.weak.status, rep.weak.method) == (UNKNOWN,
                                                          "exhausted")
            assert "divergent_cycle" in rep.diagnostics
            assert verify_report(report_to_dict(rep), fam)[0]
        assert calls == []

    def test_one_candidate_before_the_screen(self, diverging, orbits,
                                            monkeypatch):
        # the screen decides these families, so only the mean block's
        # Lyapunov-equation candidate is tried, not one per block too
        import polyconv.lti as lti
        calls = []

        def counted(b, mode):
            calls.append(b.shape)
            return candidate(b, mode)

        candidate = lti.lyapunov_candidate
        monkeypatch.setattr(lti, "lyapunov_candidate", counted)
        for fam in diverging + orbits:
            calls.clear()
            rep = analyze(fam)
            assert rep.strong_certificate is None
            assert len(calls) == 1

    def test_per_block_candidates_certify_in_the_solver_stage(self):
        # tight DT pairs, scaled so that the largest rho(product)^(1/k)
        # over products of length k <= 6 is 0.97; the first five that a
        # per-block candidate certifies get that certificate from analyze
        # too, after the screen
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 5:
            a, b = rng.standard_normal((2, 2, 2))
            worst = max(
                float(np.abs(np.linalg.eigvals(
                    np.linalg.multi_dot([np.eye(2), *seq]))).max())
                ** (1.0 / k)
                for k in range(1, 7)
                for seq in itertools.product((a, b), repeat=k))
            fam = MatrixFamily("dt", (0.97 / worst * a, 0.97 / worst * b))
            f = facts(fam)
            out = cqlf_stability(f.decomposition.a_as, "dt")
            if "of the block" not in (out.result.diagnostics or ""):
                continue
            checked += 1
            cert = analyze(fam).strong_certificate
            assert cert.cqlf.result.diagnostics == out.result.diagnostics
            assert np.array_equal(cert.cqlf.result.values["P"],
                                  out.result.values["P"])

    def test_divergent_period_map_re_derives(self, diverging):
        for fam in diverging:
            hit = analyze(fam).diagnostics["divergent_cycle"]
            prop = _rebuilt_period_map(fam, hit["cycle"], hit["dwell"])
            radius = float(np.abs(np.linalg.eigvals(prop)).max())
            assert radius > 1.0
            assert radius == pytest.approx(hit["spectral_radius"], rel=1e-6)

    def test_orbit_families_report_the_search_witness(self, orbits):
        for fam in orbits:
            rep = analyze(fam)
            _, ev = find_nonconvergence_witness(fam)
            assert (rep.weak.status, rep.weak.method) == (DISPROVEN,
                                                          "periodic-orbit")
            assert (rep.witness["cycle"], rep.witness["dwell"]) == (
                ev["cycle"], ev["dwell"])
            assert "divergent_cycle" not in rep.diagnostics

    def test_no_certificate_beside_a_divergent_cycle(self, diverging,
                                                     orbits):
        families = [catalogue(name).family for name in catalogue_names()]
        families += diverging + orbits
        checked = 0
        for fam in families:
            if divergent_cycle(fam) is None:
                continue
            checked += 1
            f = facts(fam)
            outs = [weak_lmi(f)]
            if f.holds:
                outs += [cqlf_stability(f.decomposition.a_as, fam.mode),
                         strong_lmi(f)]
            for out in outs:
                assert out is None or not (out.feasible and verify_lmi(
                    out.problem, out.result.values)["pass"])
        assert checked >= len(diverging) + 3


class TestAnalyzeProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 3))
    def test_norm_contractions_proven(self, seed, n, m):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(m):
            w = rng.normal(size=(n, n))
            mats.append(0.9 * w / np.linalg.norm(w, 2))
        fam = MatrixFamily("dt", mats)
        rep = analyze(fam)
        assert rep.strong.status == PROVEN
        assert rep.weak.status == PROVEN
        cq = rep.strong_certificate.cqlf
        assert verify_lmi(cq.problem, cq.result.values)["pass"]
        assert rep.rate.beta > 0
        assert verify_report(_json_round_trip(report_to_dict(rep)), fam)[0]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["dt", "ct"]))
    def test_verdict_lattice(self, seed, mode):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        fam = MatrixFamily(mode, rng.uniform(-1.5, 1.5, size=(m, n, n)))
        rep = analyze(fam)
        assert rep.strong.status in (PROVEN, DISPROVEN, UNKNOWN)
        assert rep.weak.status in (PROVEN, DISPROVEN, UNKNOWN)
        if rep.strong.status == PROVEN:
            assert rep.weak.status == PROVEN
        if rep.weak.status == DISPROVEN:
            assert rep.strong.status == DISPROVEN
        if not rep.facts.holds:
            assert rep.strong.status == DISPROVEN
        assert verify_report(_json_round_trip(report_to_dict(rep)), fam)[0]


def _planted_family(seed: int, mode: str, kind: str) -> MatrixFamily:
    """1-3 random vertices that converge, n = 2-3, one of them replaced by
    a rotated vertex that does not: a Jordan block at the critical value
    (1 in dt, 0 in ct) with coupling in [1e-8, 2] (kind 'jordan'), or an
    eigenvalue past it by 0.05-0.5 (kind 'unstable')."""
    rng = np.random.default_rng([seed, mode == "ct", kind == "jordan"])
    n, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    crit = 1.0 if mode == "dt" else 0.0
    mats = []
    for _ in range(m):
        g = rng.standard_normal((n, n))
        g *= 0.6 / np.abs(np.linalg.eigvals(g)).max()
        mats.append(g + (crit - 1.0) * np.eye(n))
    core = np.diag(rng.uniform(-0.5, 0.5, n) + crit - 1.0)
    if kind == "jordan":
        core[:2, :2] = [[crit, 10.0 ** rng.uniform(-8.0, 0.3)], [0.0, crit]]
    elif mode == "dt":
        core[0, 0] = rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(0.05, 0.5))
    else:
        core[0, 0] = rng.uniform(0.05, 0.5)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mats[int(rng.integers(m))] = q @ core @ q.T
    return MatrixFamily(mode, mats)


@pytest.mark.parametrize("kind", ["jordan", "unstable"])
@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_no_entry_point_proves_a_planted_nonconvergent_vertex(mode, kind):
    for seed in range(12):
        fam = _planted_family(seed, mode, kind)
        reports = [analyze(fam)] + [
            inclusion.certify(fam, stage) for stage in inclusion.STAGES]
        for rep in reports:
            assert PROVEN not in (rep.strong.status, rep.weak.status), (
                seed, rep.diagnostics)


def _json_round_trip(doc):
    return json.loads(json.dumps(doc, allow_nan=False))
