"""Tests for single-matrix convergence analysis.

Expected values are frozen from hand derivations noted inline; randomized
properties construct convergent matrices explicitly (orthogonal conjugation
of block forms) so the expected verdict is known by construction.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyconv.errors import InputError
from polyconv.feasibility import (
    CERTIFIED_INFEASIBLE,
    sdp_feasible,
    verify_dual,
    verify_lmi,
)
from polyconv.linalg import (
    Tolerances,
    kernel,
    matrix_exponential,
    subspace_contains,
    subspace_intersection,
)
from polyconv.lti import (
    DISPROVEN,
    EPS_GRID,
    ETA_GRID,
    PROVEN,
    UNKNOWN,
    _spectral_verdict,
    block_form,
    ct_aux,
    damped_lmi,
    damped_problem,
    dt_aux,
    eas,
    is_semisimple_at,
    kernel_facts,
    lti_convergent_ct,
    lti_convergent_dt,
    lti_decompose_ct,
    lti_decompose_dt,
    lti_limit,
    lti_lmi_ct_f,
    lti_lmi_ct_g,
    lti_lmi_dt_e,
    lti_lmi_dt_f,
    vertex_duals,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ------------------------------------------------------------------- aux

class TestAuxMaps:
    def test_dt_aux_fixes_identity(self):
        # (1/eta) - (1-eta)/eta = 1 for every eta
        assert np.allclose(dt_aux(np.eye(2), 0.7), np.eye(2))

    def test_dt_aux_scalar_half_at_half(self):
        # 2*0.5 - 1 = 0
        assert np.allclose(dt_aux([[0.5]], 0.5), [[0.0]])

    def test_dt_aux_half_is_reflection(self):
        a = rotation(np.pi / 3)
        assert np.allclose(dt_aux(a, 0.5), 2 * a - np.eye(2))

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.5])
    def test_dt_aux_rejects_eta_outside_open_interval(self, eta):
        with pytest.raises(InputError):
            dt_aux(np.eye(2), eta)

    def test_ct_aux_fixes_zero(self):
        assert np.allclose(ct_aux(np.zeros((2, 2)), 0.5), np.zeros((2, 2)))

    def test_ct_aux_scalar(self):
        # -1 / (1 - 0.5) = -2
        assert np.allclose(ct_aux([[-1.0]], 0.5), [[-2.0]])

    def test_ct_aux_singular_shift_rejected(self):
        with pytest.raises(InputError):
            ct_aux([[-1.0]], 1.0)

    def test_ct_aux_rejects_nonpositive_eps(self):
        with pytest.raises(InputError):
            ct_aux(np.eye(2), 0.0)

    def test_eas_scalar(self):
        assert np.allclose(eas([[-2.0]], 0.25), [[0.5]])

    def test_eas_rejects_nonpositive_tau(self):
        with pytest.raises(InputError):
            eas(np.eye(2), -0.1)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_eas_rejects_non_finite_tau(self, tau):
        with pytest.raises(InputError, match="positive and finite"):
            eas(np.eye(2), tau)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=5),
           st.floats(0.05, 0.95))
    def test_dt_aux_spectral_map_on_diagonals(self, diag, eta):
        a = np.diag(diag)
        nu = np.sort(np.linalg.eigvals(dt_aux(a, eta)).real)
        expected = np.sort((np.array(diag) - (1.0 - eta)) / eta)
        assert np.allclose(nu, expected, atol=1e-9)

    @given(st.lists(st.floats(-5, -0.1), min_size=1, max_size=5),
           st.floats(0.01, 0.5))
    def test_ct_aux_spectral_map_on_diagonals(self, diag, eps):
        # the map nu = lam / (1 + eps lam) has a pole at 1 + eps lam = 0
        assume(all(abs(1.0 + eps * d) > 1e-3 for d in diag))
        a = np.diag(diag)
        nu = np.sort(np.linalg.eigvals(ct_aux(a, eps)).real)
        expected = np.sort(np.array(diag) / (1.0 + eps * np.array(diag)))
        assert np.allclose(nu, expected, atol=1e-9)


# -------------------------------------------------------------- spectral

class TestSpectralVerdicts:
    def test_dt_stable_plus_semisimple_one(self):
        v = lti_convergent_dt([[0.5, 0.0], [1.0, 1.0]])
        assert v.status == PROVEN
        assert v.details["kernel_dim"] == 1

    def test_dt_identity(self):
        assert lti_convergent_dt(np.eye(3)).status == PROVEN

    def test_dt_jordan_block_at_one(self):
        v = lti_convergent_dt([[1.0, 1.0], [0.0, 1.0]])
        assert v.status == DISPROVEN
        assert v.method == "spectral-defective"

    def test_dt_rotation_disproven(self):
        v = lti_convergent_dt(rotation(np.pi / 4))
        assert v.status == DISPROVEN
        assert v.method == "spectral-critical"

    def test_dt_minus_one_disproven(self):
        assert lti_convergent_dt([[-1.0]]).status == DISPROVEN

    def test_dt_strictly_stable(self):
        assert lti_convergent_dt([[0.3]]).status == PROVEN

    def test_dt_unstable(self):
        v = lti_convergent_dt([[1.5]])
        assert v.status == DISPROVEN
        assert v.method == "spectral-unstable"

    def test_dt_band_is_unknown(self):
        # 1e-9 off the unit circle: outside the rank cutoff, inside the band
        assert lti_convergent_dt([[1.0 + 1e-9]]).status == UNKNOWN
        assert lti_convergent_dt([[1.0 - 1e-9]]).status == UNKNOWN

    def test_ct_stable_plus_semisimple_zero(self):
        v = lti_convergent_ct([[-1.0, 1.0], [0.0, 0.0]])
        assert v.status == PROVEN
        assert v.details["kernel_dim"] == 1

    def test_ct_nilpotent_defective(self):
        v = lti_convergent_ct([[0.0, 1.0], [0.0, 0.0]])
        assert v.status == DISPROVEN
        assert v.method == "spectral-defective"

    def test_ct_pure_rotation_disproven(self):
        v = lti_convergent_ct([[0.0, 1.0], [-1.0, 0.0]])
        assert v.status == DISPROVEN
        assert v.method == "spectral-critical"

    def test_ct_hurwitz(self):
        assert lti_convergent_ct([[-0.5]]).status == PROVEN

    def test_ct_unstable(self):
        assert lti_convergent_ct([[0.1]]).status == DISPROVEN

    def test_ct_band_is_unknown(self):
        assert lti_convergent_ct([[1e-9]]).status == UNKNOWN

    @given(st.integers(2, 5), st.integers(0, 2), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dt_constructed_convergent_proven(self, n, m, seed):
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n - m, n - m))
        s *= 0.8 / max(np.abs(np.linalg.eigvals(s)).max(), 1e-6)
        block = np.zeros((n, n))
        block[: n - m, : n - m] = s
        block[n - m :, : n - m] = rng.standard_normal((m, n - m))
        block[n - m :, n - m :] = np.eye(m)
        u = random_orthogonal(rng, n)
        assert lti_convergent_dt(u @ block @ u.T).status == PROVEN

    @given(st.integers(2, 5), st.integers(1, 2), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_ct_constructed_convergent_proven(self, n, m, seed):
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n - m, n - m))
        s -= (np.abs(np.linalg.eigvals(s).real).max() + 0.3) * np.eye(n - m)
        block = np.zeros((n, n))
        block[: n - m, : n - m] = s
        block[n - m :, : n - m] = rng.standard_normal((m, n - m))
        u = random_orthogonal(rng, n)
        assert lti_convergent_ct(u @ block @ u.T).status == PROVEN

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eas_preserves_ct_verdict(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        a -= (np.abs(np.linalg.eigvals(a).real).max() + 0.3) * np.eye(3)
        tau = 0.1 / (1.0 + np.linalg.norm(a, 2))
        assert lti_convergent_ct(a).status == PROVEN
        assert lti_convergent_dt(eas(a, tau)).status == PROVEN


# ----------------------------------------------------------- vertex pass

def _reference_vertex(a, lam0, tol):
    """One vertex alone, as the verdicts were computed before the stacked
    pass: ||A||_2, the nested kernel dimensions at the vertex's own scale
    (linalg.kernel on S and S^2), and np.linalg.eigvals sorted by
    (real, imag)."""
    n = a.shape[0]
    scale = 1.0 + float(np.linalg.norm(a, 2)) + abs(lam0)
    s = a - lam0 * np.eye(n)
    g = kernel(s, tol, scale=scale).dim
    g2 = kernel(s @ s, tol, scale=scale * scale).dim
    vals = np.linalg.eigvals(a)
    return vals[np.lexsort((vals.imag, vals.real))], g, g2, scale


def _reference_facts(mats, mode, tol):
    """Per-vertex kernels at the family scale, their Jordan chains, and
    whether each kernel equals the common one, one matrix at a time."""
    lam0 = 1.0 if mode == "dt" else 0.0
    n = mats[0].shape[0]
    scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in mats) + lam0
    kernels, chains = [], []
    for a in mats:
        s = a - lam0 * np.eye(n)
        k = kernel(s, tol, scale=scale)
        k2 = kernel(s @ s, tol, scale=scale ** 2) if k.dim else k
        kernels.append(k)
        if k2.dim <= k.dim:
            chains.append(None)
            continue
        v = k2.basis @ kernel(k.basis.T @ k2.basis, tol,
                              scale=1.0).basis[:, 0]
        chains.append(np.column_stack([s @ v, v]))
    common = subspace_intersection(kernels, tol)
    holds = all(k.dim == common.dim and subspace_contains(k, common, tol)
                and subspace_contains(common, k, tol) for k in kernels)
    return scale, kernels, chains, holds


def _same_bits(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                and x.dtype == y.dtype and x.shape == y.shape
                and np.array_equal(x, y))
    if x is None or y is None:
        return x is y
    return type(x) is type(y) and x == y


def _pass_families():
    """Seeded DT and CT families with m = 1-5 vertices of n = 2-5, each
    vertex Q B Q' for a random orthogonal Q and a block B of one kind:
    a random matrix (complex pairs), a symmetric one (real spectrum), a
    Jordan block at the critical value, a rotation (a critical pair off
    the critical value), an eigenvalue inside the tolerance band, a fixed
    vector (a kernel at the critical value), or an unstable one.  Most
    families mix vertices with real and complex spectra."""
    kinds = ("random", "symmetric", "jordan", "rotation", "band", "kernel",
             "unstable")
    families = []
    for mode in ("dt", "ct"):
        lam0 = 1.0 if mode == "dt" else 0.0
        for m in range(1, 6):
            for seed in range(4):
                rng = np.random.default_rng([m, seed, mode == "ct"])
                n = 2 + (m + seed) % 4
                mats = []
                for j in range(m):
                    kind = kinds[(seed + j) % len(kinds)] if j else "random"
                    b = rng.standard_normal((n, n))
                    if kind == "symmetric":
                        b = b + b.T
                    b *= 0.8 / np.abs(np.linalg.eigvals(b)).max()
                    if mode == "ct":
                        b -= np.eye(n)
                    if kind == "jordan":
                        b[:2, :2] = [[lam0, 1.0], [0.0, lam0]]
                        b[2:, :2] = 0.0
                    elif kind == "rotation":
                        b[:2, :2] = (rotation(0.7) if mode == "dt" else
                                     [[0.0, -0.7], [0.7, 0.0]])
                        b[2:, :2] = 0.0
                    elif kind in ("band", "kernel", "unstable"):
                        edge = {"band": 1e-9, "kernel": 0.0,
                                "unstable": 0.5}[kind]
                        b[:, 0] = 0.0
                        b[0, 0] = lam0 + edge
                    q = random_orthogonal(rng, n)
                    mats.append(q @ b @ q.T)
                families.append((mode, tuple(mats)))
    return families


class TestVertexPass:
    def test_pass_matches_a_per_vertex_reference(self):
        tol = Tolerances()
        methods = set()
        mixed = 0
        for mode, mats in _pass_families():
            lam0 = 1.0 if mode == "dt" else 0.0
            facts = kernel_facts(mats, mode, tol)
            kinds = set()
            for a, verdict in zip(mats, facts.vertex_verdicts):
                eigs, g, g2, scale = _reference_vertex(a, lam0, tol)
                want = _spectral_verdict(eigs, g, g2, scale, mode)
                assert (verdict.status, verdict.method) == (
                    want.status, want.method)
                assert verdict.details.keys() == want.details.keys()
                assert all(_same_bits(verdict.details[k], want.details[k])
                           for k in want.details)
                single = (lti_convergent_dt if mode == "dt"
                          else lti_convergent_ct)(a, tol)
                assert (single.status, single.method) == (
                    want.status, want.method)
                assert _same_bits(single.details["eigenvalues"], eigs)
                methods.add(verdict.method)
                kinds.add(eigs.dtype.kind)
            mixed += kinds == {"c", "f"}
            scale, kernels, chains, holds = _reference_facts(mats, mode,
                                                             tol)
            assert facts.scale == scale
            assert facts.kernel_dims == tuple(k.dim for k in kernels)
            assert all(_same_bits(k.basis, r.basis)
                       for k, r in zip(facts.kernels, kernels))
            assert all(_same_bits(c, r)
                       for c, r in zip(facts.chains, chains))
            assert facts.holds == holds
        # the inputs reach every verdict, and stack real spectra with
        # complex ones (eigvals of such a stack is complex throughout)
        assert methods == {"spectral", "spectral-defective",
                           "spectral-unstable", "spectral-critical",
                           "spectral-band"}
        assert mixed > 10

    def test_block_form_residual_matches_per_vertex_norms(self):
        rng = np.random.default_rng(5)
        for mode in ("dt", "ct"):
            for m, n, d in ((1, 3, 1), (3, 4, 2), (5, 3, 3), (2, 4, 0)):
                q = random_orthogonal(rng, n)
                mats = [rng.standard_normal((n, n)) for _ in range(m)]
                wc, wk = q[:, :n - d], q[:, n - d:]
                target = (1.0 if mode == "dt" else 0.0) * np.eye(d)
                want = 0.0
                for a in mats:
                    for dev in (wc.T @ a @ wk, wk.T @ a @ wk - target):
                        if dev.size:
                            want = max(want, float(np.linalg.norm(dev, 2)))
                assert block_form(mats, mode, wc, wk)[2] == want

    def test_semisimple_test_reads_the_pass(self):
        for a, lam0 in (([[1.0, 1.0], [0.0, 1.0]], 1.0),
                        ([[0.0, 1.0], [0.0, 0.0]], 0.0),
                        ([[0.5, 0.0], [1.0, 1.0]], 1.0)):
            a = np.asarray(a)
            _, g, g2, _ = _reference_vertex(a, lam0, Tolerances())
            assert is_semisimple_at(a, lam0) == (g == 0 or g == g2)


# ------------------------------------------------------------- decompose

class TestDecompose:
    def test_dt_triangular_example(self):
        # ker(A - I) = span(e2), so a_as is the 0.5 block
        dec = lti_decompose_dt([[0.5, 0.0], [1.0, 1.0]])
        assert dec.m == 1
        assert np.allclose(dec.a_as[0], [[0.5]])
        assert np.allclose(np.abs(dec.a_r[0]), [[1.0]])
        assert dec.residual < 1e-12

    def test_dt_identity_full_kernel(self):
        dec = lti_decompose_dt(np.eye(2))
        assert dec.m == 2
        assert dec.a_as[0].shape == (0, 0)
        assert dec.a_r[0].shape == (2, 0)

    def test_ct_path_graph_example(self):
        # ker A = span([1, 1]); the off-kernel block is the scalar -1
        dec = lti_decompose_ct([[-1.0, 1.0], [0.0, 0.0]])
        assert dec.m == 1
        assert np.allclose(dec.a_as[0], [[-1.0]])
        assert np.allclose(np.abs(dec.a_r[0]), [[1.0]])
        assert abs(dec.kernel.distance([1.0, 1.0])) < 1e-12

    def test_block_form_is_exact(self):
        a = np.array([[0.5, 0.0], [1.0, 1.0]])
        dec = lti_decompose_dt(a)
        z = dec.t.T @ a @ dec.t
        n, m = 2, dec.m
        assert np.allclose(z[: n - m, n - m :], 0.0, atol=1e-12)
        assert np.allclose(z[n - m :, n - m :], np.eye(m), atol=1e-12)


# ----------------------------------------------------------------- LMIs

class TestDtLmiE:
    def test_triangular_feasible_on_grid(self):
        out = lti_lmi_dt_e([[0.5, 0.0], [1.0, 1.0]])
        assert out.feasible
        assert out.parameter in ETA_GRID
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_scalar_feasible_at_smallest_grid_eta(self):
        # scalar threshold is eta >= (1 - a) / 2 = 0.25
        out = lti_lmi_dt_e([[0.5]])
        assert out.feasible
        assert out.parameter == ETA_GRID[0]

    def test_scalar_explicit_eta_below_threshold(self):
        assert not lti_lmi_dt_e([[0.5]], eta=0.1).feasible

    def test_scalar_explicit_eta_above_threshold(self):
        assert lti_lmi_dt_e([[0.5]], eta=0.9).feasible

    def test_jordan_block_infeasible(self):
        assert not lti_lmi_dt_e([[1.0, 1.0], [0.0, 1.0]]).feasible

    def test_slack_blocks_with_a_forced_diagonal_stay_semidefinite(self):
        # the fixed vector pins a row and column of each damped slack block
        # (facial reduction); the solver must still keep the rest of the
        # block semidefinite, or it stalls at the feasible grid etas below
        # 0.99
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        a = q @ scipy.linalg.block_diag(1.0, [[0.5, 6.0], [0.0, 0.5]]) @ q.T
        out = lti_lmi_dt_e(a)
        assert out.feasible and out.parameter == ETA_GRID[0]
        assert out.result.iterations <= 100

    def test_scan_reports_iterations_of_every_probe(self, monkeypatch):
        # scalar threshold is eta >= (1 - a) / 2 = 0.9975: only the top
        # grid eta is feasible, so the scan probes all four grid points.
        # The top one is solved; the three below end by a verified dual
        # (pairing k(a^2 - 1) + (a - 1)^2 > 0 for k = eta/(1-eta) <= 99),
        # which takes no iterations
        import polyconv.lti as lti
        spent = []
        duals = []

        def counting(problem):
            res = sdp_feasible(problem)
            spent.append(res.iterations)
            return res

        def counting_dual(problem, factors):
            report = verify_dual(problem, factors)
            duals.append(report["pass"])
            return report

        monkeypatch.setattr(lti, "sdp_feasible", counting)
        monkeypatch.setattr(lti, "verify_dual", counting_dual)
        out = lti_lmi_dt_e([[-0.995]])
        assert out.feasible and out.parameter == ETA_GRID[-1]
        assert len(spent) + sum(duals) == len(ETA_GRID)
        assert sum(duals) == len(ETA_GRID) - 1
        assert out.result.iterations == sum(spent)


class TestDtLmiF:
    def test_triangular_feasible(self):
        out = lti_lmi_dt_f([[0.5, 0.0], [1.0, 1.0]])
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_identity_feasible_with_empty_reduced_block(self):
        assert lti_lmi_dt_f([[1.0]]).feasible

    def test_jordan_block_infeasible(self):
        assert not lti_lmi_dt_f([[1.0, 1.0], [0.0, 1.0]]).feasible


class TestCtLmiF:
    def test_stable_with_kernel_feasible(self):
        out = lti_lmi_ct_f([[-1.0, 0.0], [1.0, 0.0]])
        assert out.feasible
        assert out.parameter == EPS_GRID[-1]
        assert verify_lmi(out.problem, out.result.values)["pass"]

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dim_semisimple_kernel_feasible(self, seed):
        # Q diag(0_2, G) Q' with G stable: convergent with a 2-dim kernel;
        # solved directly at eps = 1e-4 these exhaust the DR budget
        rng = np.random.default_rng(seed)
        q = random_orthogonal(rng, 6)
        g = rng.standard_normal((4, 4))
        g -= (max(np.linalg.eigvals(g).real) + 0.5) * np.eye(4)
        core = np.zeros((6, 6))
        core[2:, 2:] = g
        out = lti_lmi_ct_f(q @ core @ q.T)
        assert out.feasible
        assert out.parameter == EPS_GRID[-1]
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_zero_matrix_feasible(self):
        assert lti_lmi_ct_f(np.zeros((2, 2))).feasible

    def test_defective_zero_infeasible(self):
        assert not lti_lmi_ct_f([[0.0, 0.0], [1.0, 0.0]]).feasible

    def test_explicit_eps(self):
        out = lti_lmi_ct_f([[-1.0]], eps=0.5)
        assert out.feasible and out.parameter == 0.5


class TestCtLmiG:
    def test_stable_with_kernel_feasible(self):
        out = lti_lmi_ct_g([[-1.0, 0.0], [1.0, 0.0]])
        assert out.feasible
        assert verify_lmi(out.problem, out.result.values)["pass"]

    def test_nilpotent_infeasible(self):
        assert not lti_lmi_ct_g([[0.0, 1.0], [0.0, 0.0]]).feasible


class TestInputRanges:
    # each unstable matrix passes its damped LMI at a parameter outside
    # the damping range, so such a parameter must be refused
    @pytest.mark.parametrize("eta", [1.5, -0.5, 1.0, 0.0, np.nan])
    def test_dt_eta_outside_open_interval_rejected(self, eta):
        with pytest.raises(InputError, match="eta"):
            lti_lmi_dt_e(np.diag([2.0, 1.5]), eta=eta)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, np.inf, np.nan])
    def test_ct_eps_not_positive_rejected(self, eps):
        with pytest.raises(InputError, match="eps"):
            lti_lmi_ct_f(np.diag([1.0, 0.5]), eps=eps)

    def test_unknown_mode_rejected(self):
        # "DT" was once read as CT: the Disproven CT verdict of a
        # convergent DT matrix
        with pytest.raises(InputError, match="mode"):
            kernel_facts((np.eye(2),), "DT")
        with pytest.raises(InputError, match="mode"):
            lti_limit(np.diag([0.5, 1.0]), [1.0, 1.0], "DT")


# ----------------------------------------------- certified infeasibility

DT_ROUTES = (lti_lmi_dt_e, lti_lmi_dt_f)
CT_ROUTES = (lti_lmi_ct_f, lti_lmi_ct_g)
JORDAN = {"dt": [[1.0, 1.0], [0.0, 1.0]], "ct": [[0.0, 1.0], [0.0, 0.0]]}


def _unstable(mode, q):
    core = np.diag([1.3, 0.5, -0.2]) if mode == "dt" else np.diag(
        [0.4, -1.0, -2.0])
    return q @ core @ q.T


def _rotating(mode, q, theta=0.3):
    core = np.zeros((3, 3))
    if mode == "dt":
        core[:2, :2] = rotation(theta)
        core[2, 2] = 0.5
    else:
        core[:2, :2] = [[0.0, theta], [-theta, 0.0]]
        core[2, 2] = -1.0
    return q @ core @ q.T


class TestCertifiedInfeasibility:
    @pytest.mark.parametrize("route", DT_ROUTES + CT_ROUTES)
    @pytest.mark.parametrize("build", [_unstable, _rotating])
    def test_unstable_and_rotation_duals_verify(self, route, build):
        mode = "dt" if route in DT_ROUTES else "ct"
        q = random_orthogonal(np.random.default_rng(3), 3)
        out = route(build(mode, q))
        assert not out.feasible
        assert out.result.status == CERTIFIED_INFEASIBLE
        assert out.result.iterations == 0
        assert verify_dual(out.problem, out.result.factors)["pass"]

    @pytest.mark.parametrize("route,mode", [(lti_lmi_dt_f, "dt"),
                                            (lti_lmi_ct_g, "ct")])
    def test_jordan_block_duals_verify_on_the_reduced_form(self, route,
                                                          mode):
        out = route(JORDAN[mode])
        assert out.result.status == CERTIFIED_INFEASIBLE
        assert verify_dual(out.problem, out.result.factors)["pass"]

    @pytest.mark.parametrize("route,mode", [(lti_lmi_dt_e, "dt"),
                                            (lti_lmi_ct_f, "ct")])
    def test_jordan_block_is_only_weakly_infeasible_on_the_damped_form(
            self, route, mode, monkeypatch):
        # every eigenvector pairs to exactly zero (s = 0 at lam = 1 resp.
        # 0), and for the 2x2 block no Z >= 0 has an adjoint image that is
        # >= 0 and nonzero, so no single column passes the trace bracket;
        # the Jordan chain [S v, v] passes the pair bound at the grid point
        # that decides the scan, and no solve runs
        import polyconv.lti as lti
        a = np.asarray(JORDAN[mode])
        facts = kernel_facts((a,), mode)
        par = ETA_GRID[-1] if mode == "dt" else EPS_GRID[-1]
        prob = damped_problem(facts, par)
        factors = vertex_duals(facts, parameter=par)
        assert factors["vertex1"].shape == (2, 2)
        report = verify_dual(prob, factors)
        assert report["pass"] and report["pair"] == "vertex1"
        for col in factors["vertex1"].T:
            assert not verify_dual(prob, {"vertex1": col[:, None]})["pass"]
        calls = []
        monkeypatch.setattr(lti, "sdp_feasible",
                            lambda problem: calls.append(problem))
        out = route(a)
        assert out.result.status == CERTIFIED_INFEASIBLE
        assert out.result.iterations == 0
        assert verify_dual(out.problem, out.result.factors)["pass"]
        assert calls == []

    def test_chain_fails_where_an_at_tolerance_certificate_passes(self):
        # the non-convergent block [[1, 0.1], [0, 1]] at the smallest grid
        # eta: P = [[eps, c], [c, 1]] passes verify_lmi within its
        # tolerance, so no certificate of infeasibility may pass
        a = np.array([[1.0, 0.1], [0.0, 1.0]])
        facts = kernel_facts((a,), "dt")
        prob = damped_problem(facts, ETA_GRID[0])
        eps = 1.26e-6
        c = -0.07 * np.sqrt(eps)
        assert verify_lmi(prob, {"P": np.array([[eps, c], [c, 1.0]])})["pass"]
        factors = vertex_duals(facts, parameter=ETA_GRID[0])
        assert factors["vertex1"].shape == (2, 2)
        assert not verify_dual(prob, factors)["pass"]

    def test_ct_grid_dual_skips_every_solve(self, monkeypatch):
        import polyconv.lti as lti
        calls = []
        monkeypatch.setattr(lti, "sdp_feasible",
                            lambda problem: calls.append(problem))
        out = lti_lmi_ct_f(_unstable("ct", np.eye(3)))
        assert out.result.status == CERTIFIED_INFEASIBLE
        assert out.parameter is None and out.problem is not None
        assert calls == []

    def test_family_dual_names_only_the_offending_vertex(self):
        mats = (np.diag([0.5, 0.2]), rotation(1.0))
        out = damped_lmi(kernel_facts(mats, "dt"))
        assert out.result.status == CERTIFIED_INFEASIBLE
        assert set(out.result.factors) == {"vertex2"}
        assert verify_dual(out.problem, out.result.factors)["pass"]

    def test_stable_matrix_yields_no_dual(self):
        a = np.diag([0.5, -0.3])
        assert vertex_duals(kernel_facts((a,), "dt"),
                            parameter=ETA_GRID[-1]) == {}
        assert lti_lmi_dt_e(a).feasible


# P = [[eps, t sqrt(eps)], [t sqrt(eps), 1]] in a Jordan block's basis: the
# candidates that come closest to the damped LMI of a block at its
# critical value, small on the eigenvector and coupled to the chain vector
JORDAN_EPS = 10.0 ** np.arange(-9.0, 0.5, 0.5)
JORDAN_T = (-0.5, -0.1, -0.07, -0.03, 0.0, 0.07)


@given(st.floats(-3.0, 1.0), st.sampled_from(["dt", "ct"]),
       st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
# a grid P passes verify_lmi (s = 0.1 at the smallest grid eta), and the
# chain passes verify_dual (s = 1 at the largest)
@example(log_s=-1.0, mode="dt", k=0, seed=0)
@example(log_s=0.0, mode="dt", k=3, seed=0)
def test_no_jordan_problem_passes_both_checks(log_s, mode, k, seed):
    # the pair bound's soundness on damped problems of planted 2 x 2
    # Jordan blocks with coupling s, at the grid parameters: no problem
    # has both a grid P that verify_lmi passes and a chain or random
    # two-column factor that verify_dual passes
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, 2)
    lam0 = 1.0 if mode == "dt" else 0.0
    a = q @ np.array([[lam0, 10.0 ** log_s], [0.0, lam0]]) @ q.T
    facts = kernel_facts((a,), mode)
    par = (ETA_GRID if mode == "dt" else EPS_GRID)[k]
    prob = damped_problem(facts, par)
    certified = [
        verify_lmi(prob, {"P": q @ np.array([[e, t * np.sqrt(e)],
                                             [t * np.sqrt(e), 1.0]]) @ q.T}
                   )["pass"]
        for e in JORDAN_EPS for t in JORDAN_T]
    chain = vertex_duals(facts, parameter=par)
    assert chain["vertex1"].shape == (2, 2)
    duals = [verify_dual(prob, {"vertex1": f})["pass"]
             for f in (chain["vertex1"], rng.standard_normal((2, 2)))]
    assert not (any(certified) and any(duals))


# ---------------------------------------------------------------- limits

class TestLimit:
    def test_dt_triangular_limit(self):
        # x1(k) = 0.5^k, x2 accumulates sum of x1: 1 + sum 0.5^k = 3
        x = lti_limit([[0.5, 0.0], [1.0, 1.0]], [1.0, 1.0], "dt")
        assert np.allclose(x, [0.0, 3.0], atol=1e-12)

    def test_dt_identity_limit_is_x0(self):
        x0 = np.array([0.3, -2.0])
        assert np.allclose(lti_limit(np.eye(2), x0, "dt"), x0)

    def test_dt_schur_limit_is_zero(self):
        x = lti_limit([[0.5, 0.1], [0.0, 0.4]], [1.0, 1.0], "dt")
        assert np.allclose(x, 0.0, atol=1e-12)

    def test_ct_path_graph_limit(self):
        # x2 is constant 1 and x1 relaxes to it
        x = lti_limit([[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0], "ct")
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_nonconvergent_rejected(self):
        with pytest.raises(InputError):
            lti_limit([[1.0, 1.0], [0.0, 1.0]], [1.0, 0.0], "dt")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            lti_limit(np.eye(2), [1.0, 2.0, 3.0], "dt")

    @given(st.integers(2, 5), st.integers(1, 2), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_dt_limit_matches_power_iteration(self, n, m, seed):
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n - m, n - m))
        s *= 0.7 / max(np.abs(np.linalg.eigvals(s)).max(), 1e-6)
        block = np.zeros((n, n))
        block[: n - m, : n - m] = s
        block[n - m :, : n - m] = rng.standard_normal((m, n - m))
        block[n - m :, n - m :] = np.eye(m)
        u = random_orthogonal(rng, n)
        a = u @ block @ u.T
        x0 = rng.standard_normal(n)
        xbar = lti_limit(a, x0, "dt")
        assert np.allclose(a @ xbar, xbar, atol=1e-9)
        x = x0.copy()
        for _ in range(300):
            x = a @ x
        assert np.allclose(x, xbar, atol=1e-7)

    @given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ct_limit_matches_flow(self, n, m, seed):
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n - m, n - m))
        s -= (np.abs(np.linalg.eigvals(s).real).max() + 0.5) * np.eye(n - m)
        block = np.zeros((n, n))
        block[: n - m, : n - m] = s
        block[n - m :, : n - m] = rng.standard_normal((m, n - m))
        u = random_orthogonal(rng, n)
        a = u @ block @ u.T
        x0 = rng.standard_normal(n)
        xbar = lti_limit(a, x0, "ct")
        assert np.allclose(a @ xbar, 0.0, atol=1e-9)
        assert np.allclose(matrix_exponential(a * 60.0) @ x0, xbar, atol=1e-6)
