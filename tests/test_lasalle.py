"""Tests for limit-set bounds and weak-kernel queries.

Gap values are frozen from scalar arithmetic done in the comments; the
pm-one family shows why the simplex interior matters: both vertices
preserve V, yet the averaged matrix is zero and V can drop to zero in one
step, so the full-simplex minimum is -1, not 0.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polyconv.lasalle as lasalle_module
from polyconv.errors import InputError
from polyconv.examples import kolmogorov_family, opinion_family
from polyconv.family import MatrixFamily
from polyconv.feasibility import lp_simplex_membership
from polyconv.inclusion import kernel_facts, weak_lmi
from polyconv.lasalle import (
    _membership_matrices,
    _singular_weight_candidates,
    euler_gap,
    lasalle_gap_dt,
    lasalle_set_quadratic,
    project_simplex,
    weak_kernel_membership,
    weak_kernel_triviality_scan,
)
from polyconv.linalg import DEFAULT_TOL
from polyconv.sim import SwitchingSignal, simulate_ct

DIAG_KERNELS = MatrixFamily("ct", [[[-1, 0], [0, 0]], [[0, 0], [0, -1]]])
CT_DUALITY = MatrixFamily("ct", [[[-1, 2], [1, -2]], [[-2, 1], [2, -1]]])
PATH_CONSENSUS = MatrixFamily("ct", [[[-1, 1], [0, 0]], [[0, 0], [1, -1]]])
PM_ONE = MatrixFamily("dt", [[[-1.0]], [[1.0]]])
HALF_ONE = MatrixFamily("dt", [[[0.5]], [[1.0]]])


class TestProjectSimplex:
    def test_interior_point_unchanged(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(w), w)

    def test_negative_mass_clipped(self):
        w = project_simplex(np.array([1.5, -0.5]))
        assert np.allclose(w, [1.0, 0.0])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_result_in_simplex(self, vals):
        w = project_simplex(np.array(vals))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


class TestWeakKernelMembership:
    def test_axis_point_feasible(self):
        res = weak_kernel_membership(DIAG_KERNELS, [0.0, 1.0])
        assert res.feasible
        assert np.allclose(res.w, [1.0, 0.0], atol=1e-9)
        assert res.residual <= 1e-9

    def test_diagonal_point_infeasible(self):
        # A(w) x = (-w1, -w2), never zero on the simplex
        res = weak_kernel_membership(DIAG_KERNELS, [1.0, 1.0])
        assert not res.feasible
        assert res.w is None

    def test_origin_feasible_with_first_vertex(self):
        res = weak_kernel_membership(DIAG_KERNELS, [0.0, 0.0])
        assert res.feasible
        assert np.allclose(res.w, [1.0, 0.0])
        assert res.residual == 0.0

    def test_common_kernel_point_feasible(self):
        res = weak_kernel_membership(PATH_CONSENSUS, [1.0, 1.0])
        assert res.feasible
        assert res.residual <= 1e-9

    def test_interior_weight_witness(self):
        # A(w)(1,1) = 0 exactly at w = (1/2, 1/2)
        res = weak_kernel_membership(CT_DUALITY, [1.0, 1.0])
        assert res.feasible
        assert res.residual <= 1e-9

    @pytest.mark.parametrize("m", [3, 6, 10])
    def test_consensus_direction_of_row_generators(self, m):
        # zero row sums hold only up to rounding, so A_i 1 is noise of
        # order 1e-16 that must not be scaled up into an infeasible LP
        rng = np.random.default_rng(m)
        mats = []
        for _ in range(m):
            a = rng.uniform(0.0, 1.0, (6, 6))
            a *= rng.uniform(size=(6, 6)) < 0.5
            np.fill_diagonal(a, 0.0)
            mats.append(a - np.diag(a.sum(axis=1)))
        x = np.ones(6) / np.sqrt(6.0)
        for k in (1.0, 1e-9):
            fam = kolmogorov_family("row", [k * a for a in mats])
            for kx in (1.0, 1e-12):
                res = weak_kernel_membership(fam, kx * x)
                assert res.feasible
                assert res.residual <= 1e-12

    @pytest.mark.parametrize("k", [1e-8, 1e-14])
    def test_small_family_is_not_mistaken_for_a_kernel(self, k):
        # ||A e1|| = k is small but not rounding noise of A e1 = 0
        fam = MatrixFamily("ct", (-k * np.eye(3),))
        for x in (np.eye(3)[0], 1e6 * np.eye(3)[0]):
            assert not weak_kernel_membership(fam, x).feasible
        pair = MatrixFamily("ct", (-k * np.eye(2), k * np.diag([1.0, -1.0])))
        assert not weak_kernel_membership(pair, [1.0, 1.0]).feasible
        assert weak_kernel_membership(pair, [1.0, 0.0]).feasible

    def test_requires_ct_family(self):
        with pytest.raises(InputError, match="CT family"):
            weak_kernel_membership(PM_ONE, [1.0])

    def test_state_validation(self):
        with pytest.raises(InputError):
            weak_kernel_membership(DIAG_KERNELS, [1.0])
        with pytest.raises(InputError):
            weak_kernel_membership(DIAG_KERNELS, [np.nan, 0.0])


class TestTrivialityScan:
    def test_single_hurwitz_likely_trivial(self):
        fam = MatrixFamily("ct", [[[-1, 0], [0, -1]]])
        scan = weak_kernel_triviality_scan(fam, samples=50, seed=1)
        assert scan.likely_trivial
        assert scan.witness is None
        assert scan.checked >= 50

    def test_small_hurwitz_likely_trivial(self):
        fam = MatrixFamily("ct", [[[-1e-9, 0], [0, -1e-9]]])
        scan = weak_kernel_triviality_scan(fam, samples=50, seed=1)
        assert scan.likely_trivial
        assert scan.witness is None

    def test_diag_kernels_witness_on_axis(self):
        scan = weak_kernel_triviality_scan(DIAG_KERNELS, samples=50, seed=1)
        assert not scan.likely_trivial
        x = scan.witness.x
        assert min(abs(abs(x[0]) - 1.0), abs(abs(x[1]) - 1.0)) < 1e-9
        assert scan.witness.feasible

    def test_always_singular_family_found_by_det_scan(self):
        scan = weak_kernel_triviality_scan(CT_DUALITY, samples=50, seed=1)
        assert not scan.likely_trivial

    def test_deterministic_under_seed(self):
        s1 = weak_kernel_triviality_scan(DIAG_KERNELS, samples=30, seed=7)
        s2 = weak_kernel_triviality_scan(DIAG_KERNELS, samples=30, seed=7)
        assert np.allclose(s1.witness.x, s2.witness.x)

    def test_requires_ct(self):
        with pytest.raises(InputError):
            weak_kernel_triviality_scan(PM_ONE)

    @pytest.mark.parametrize("fam", [
        DIAG_KERNELS,
        MatrixFamily("ct", [[[-1.0]], [[-2.0]], [[-3.0]]])])
    def test_negative_sample_count_is_an_input_error(self, fam):
        # the count sets the grid size through a fractional power (three
        # vertices) and the number of random samples (two)
        with pytest.raises(InputError, match="samples"):
            weak_kernel_triviality_scan(fam, samples=-3)

    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(InputError, match="seed"):
            weak_kernel_triviality_scan(DIAG_KERNELS, samples=5, seed=-1)


def _pair_loop_candidates(family, per_edge):
    """The determinant sign scan written as a plain loop over every pair
    of grid points, the reference for _singular_weight_candidates."""
    scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in family.matrices)
    grid = [np.array(c, dtype=float) / per_edge
            for c in itertools.product(range(per_edge + 1),
                                       repeat=family.m_count)
            if sum(c) == per_edge]
    dets = [float(np.linalg.det(family.a_of(w))) for w in grid]
    out = [w for w, d in zip(grid, dets)
           if abs(d) <= 1e-10 * scale ** family.n]
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            if np.sum(np.abs(grid[i] - grid[j])) > 2.0 / per_edge + 1e-12:
                continue
            da, db = dets[i], dets[j]
            if da == 0.0 or db == 0.0 or np.sign(da) == np.sign(db):
                continue
            lo, hi, flo = grid[i], grid[j], da
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = float(np.linalg.det(family.a_of(mid)))
                if fm == 0.0:
                    lo = mid
                    break
                if np.sign(fm) == np.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
            out.append(0.5 * (lo + hi))
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_singular_weights_match_the_pair_loop(m, seed):
    # odd n and random vertices: det A(w) changes sign inside the simplex
    rng = np.random.default_rng([seed, m])
    fam = MatrixFamily("ct", [rng.standard_normal((3, 3)) for _ in range(m)])
    per_edge = 6 if m < 4 else 4
    got = list(_singular_weight_candidates(fam, per_edge))
    want = _pair_loop_candidates(fam, per_edge)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_singular_weights_include_exact_zero_determinants():
    # A(w) = diag(1 - 2 w1, 1): det is exactly 0 at the grid point w1 = 1/2,
    # which is yielded once and never bisected
    fam = MatrixFamily("ct", [[[-1.0, 0.0], [0.0, 1.0]],
                              [[1.0, 0.0], [0.0, 1.0]]])
    got = list(_singular_weight_candidates(fam, 4))
    want = _pair_loop_candidates(fam, 4)
    assert [g.tolist() for g in got] == [w.tolist() for w in want] == [
        [0.5, 0.5]]


def test_singular_weight_scan_memory_is_linear_in_the_grid():
    # 14 vertices at 4 cells per edge make 2380 grid points: a table over
    # all pairs of them would take 43 MiB
    rng = np.random.default_rng(14)
    fam = MatrixFamily("ct", [rng.standard_normal((3, 3)) for _ in range(14)])
    tracemalloc.start()
    try:
        first = next(_singular_weight_candidates(fam, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a bisected segment point, not a grid point: the pair scan has run
    assert np.abs(4 * first - np.rint(4 * first)).max() > 1e-6
    assert peak < 16 * 2**20


def _dissipative(rng, n, m):
    """m vertices with A_i + A_i' <= -I: x'A_i x < 0 for every x != 0."""
    mats = []
    for _ in range(m):
        s = rng.standard_normal((n, n))
        h = rng.standard_normal((n, n))
        mats.append(0.5 * (s - s.T) - h @ h.T / n - 0.5 * np.eye(n))
    return MatrixFamily("ct", mats)


def _ring_opinion(rng, n):
    lap = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        lap[[i, j], [j, i]] -= rng.uniform(0.5, 2.0)
    return opinion_family(lap - np.diag(lap.sum(axis=1)))


def _shifted_gaussian(rng):
    return MatrixFamily("ct", [rng.standard_normal((3, 3)) - np.eye(3)
                               for _ in range(3)])


def _planted_family(rng, x, q, m):
    """m vertices with A_i x = p_i + q_i x / |x|^2, the p_i of size |x|,
    orthogonal to x and summing to zero under a drawn weight w*: so
    x'A_i x = q_i, and A(w*) x = (w*'q) x / |x|^2 vanishes with w*'q."""
    n = x.size
    w_star = rng.dirichlet(np.ones(m))
    xx = float(x @ x)
    p = rng.standard_normal((n, m)) * np.sqrt(xx)
    p -= np.outer(x, x @ p) / xx
    p -= (p @ w_star)[:, None]
    cols = p + np.outer(x, q) / xx
    mats = []
    for i in range(m):
        b = rng.standard_normal((n, n))
        mats.append(b + np.outer(cols[:, i] - b @ x, x) / xx)
    return MatrixFamily("ct", mats)


# multiples of tau |x|, tau the LP's acceptance threshold: the screen's
# threshold sits just above 2; far below 1 the LP finds a weight
SCREEN_FACTORS = (0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.5, 1.0, 1.9, 1.99, 2.0,
                  2.01, 2.1, 4.0, 1e3)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
       st.sampled_from(SCREEN_FACTORS), st.sampled_from([-1.0, 1.0]),
       st.sampled_from(["planted", "random", "dissipative"]))
@settings(max_examples=150, deadline=None)
def test_screen_never_settles_a_member(seed, n, m, factor, sign, kind):
    # planted members x in ker A(w*) (q = 0), states whose smallest
    # |x'A_i x| sits on either side of the screen's threshold, random
    # states, and dissipative families that the screen settles
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if kind == "random":
        fam = MatrixFamily("ct", [rng.standard_normal((n, n))
                                  for _ in range(m)])
    elif kind == "dissipative":
        fam = _dissipative(rng, n, m)
    else:
        spread = np.concatenate([[1.0], 1.0 + rng.uniform(0, 1, m - 1)])
        # place min |q_i| by the tau of the family built with q = 0
        base = _planted_family(np.random.default_rng(seed), x,
                               np.zeros(m), m)
        _, mt, _, _ = _membership_matrices(base, x[None, :], DEFAULT_TOL)
        tau = DEFAULT_TOL.residual_tol * (1.0 + np.abs(mt).max())
        q = sign * factor * tau * float(np.linalg.norm(x)) * spread
        fam = _planted_family(np.random.default_rng(seed), x, q, m)
    _, mt, _, settled = _membership_matrices(fam, x[None, :], DEFAULT_TOL)
    if settled[0]:
        assert lp_simplex_membership(mt[0], DEFAULT_TOL) is None
        assert not weak_kernel_membership(fam, x).feasible
    if kind == "dissipative":
        assert settled[0]
    if kind == "planted" and factor >= 4.0 and min(n, m) > 1:
        assert settled[0]


def _scan_fields(scan):
    w = scan.witness
    return (scan.likely_trivial, scan.checked) + (() if w is None else (
        w.x.tolist(), w.feasible, w.w.tolist(), w.residual))


@pytest.mark.parametrize("kind", ["dissipative", "opinion", "diag", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_screened_scan_is_the_unscreened_one(monkeypatch, kind, seed):
    rng = np.random.default_rng(seed)
    n = 4 + 2 * seed
    fam = {"dissipative": lambda: _dissipative(rng, n, 2 + seed),
           "opinion": lambda: _ring_opinion(rng, n),
           "diag": lambda: DIAG_KERNELS,
           # Hurwitz-leaning vertices: the screen settles some samples
           # and leaves the rest to the LP
           "mixed": lambda: _shifted_gaussian(np.random.default_rng(1))
           }[kind]()
    calls = []

    def spy(m, tol=DEFAULT_TOL):
        calls.append(m)
        return lp_simplex_membership(m, tol)

    monkeypatch.setattr(lasalle_module, "lp_simplex_membership", spy)
    screened = weak_kernel_triviality_scan(fam, seed=seed)
    lp_calls = len(calls)
    real = lasalle_module._membership_matrices

    def none_settled(family, xs, tol):
        m, mt, xnorm, settled = real(family, xs, tol)
        return m, mt, xnorm, np.zeros_like(settled)

    monkeypatch.setattr(lasalle_module, "_membership_matrices", none_settled)
    plain = weak_kernel_triviality_scan(fam, seed=seed)
    assert _scan_fields(screened) == _scan_fields(plain)
    if kind == "dissipative":
        assert screened.likely_trivial and screened.checked == 200
        assert lp_calls == 0
    if kind == "mixed":
        assert 0 < lp_calls < len(calls) - lp_calls == screened.checked


class TestLaSalleSetQuadratic:
    def test_diag_kernels_axes_union(self):
        ls = lasalle_set_quadratic(DIAG_KERNELS, 0.5 * np.eye(2))
        assert len(ls.subspaces) == 2
        dims = sorted(s.dim for s in ls.subspaces)
        assert dims == [1, 1]
        assert ls.distance([1.0, 0.0]) < 1e-10
        assert ls.distance([0.0, -3.0]) < 1e-10
        # nearest axis to the diagonal (1,1) is at distance 1
        assert ls.distance([1.0, 1.0]) == pytest.approx(1.0)

    def test_strict_single_matrix_origin_only(self):
        fam = MatrixFamily("ct", [[[-2, 0], [0, -1]]])
        ls = lasalle_set_quadratic(fam, np.eye(2))
        assert all(s.dim == 0 for s in ls.subspaces)
        assert ls.distance([3.0, 4.0]) == pytest.approx(5.0)
        assert ls.contains([0.0, 0.0])

    def test_skew_symmetric_whole_space(self):
        fam = MatrixFamily("ct", [[[0, 1], [-1, 0]]])
        ls = lasalle_set_quadratic(fam, np.eye(2))
        assert ls.subspaces[0].dim == 2
        assert ls.distance([5.0, -2.0]) < 1e-12

    def test_invalid_wqlf_names_vertex(self):
        with pytest.raises(InputError, match="vertex 1"):
            lasalle_set_quadratic(PATH_CONSENSUS, np.eye(2))

    def test_p_validation(self):
        with pytest.raises(InputError, match="positive definite"):
            lasalle_set_quadratic(DIAG_KERNELS, np.diag([1.0, -1.0]))
        with pytest.raises(InputError, match="symmetric"):
            lasalle_set_quadratic(DIAG_KERNELS,
                                  np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(InputError):
            lasalle_set_quadratic(DIAG_KERNELS, np.eye(3))

    def test_weak_certificate_is_wqlf(self):
        cert = weak_lmi(kernel_facts(DIAG_KERNELS.matrices, "ct"))
        ls = lasalle_set_quadratic(DIAG_KERNELS, cert.result.values["P"])
        assert len(ls.subspaces) == 2

    def test_weak_kernel_points_inside_smooth_set(self):
        # the weak kernel is always inside the smooth limit-set bound
        ls = lasalle_set_quadratic(DIAG_KERNELS, 0.5 * np.eye(2))
        rng = np.random.default_rng(3)
        points = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([1.0, 1.0])] + list(rng.normal(size=(5, 2)))
        for x in points:
            res = weak_kernel_membership(DIAG_KERNELS, x)
            if res.feasible:
                assert ls.distance(x) <= 1e-8 * (1 + np.linalg.norm(x))

    def test_trajectories_attracted_to_set(self):
        ls = lasalle_set_quadratic(DIAG_KERNELS, 0.5 * np.eye(2))
        for seed in range(5):
            sig = SwitchingSignal.iid_random(seed, dwell=0.5,
                                             sampling="dirichlet")
            traj = simulate_ct(DIAG_KERNELS, sig, [1.0, 1.0], t_end=50.0,
                               sample_dt=0.5)
            assert ls.distance(traj.states[-1]) <= 1e-6


class TestGapDt:
    def test_single_matrix_exact(self):
        fam = MatrixFamily("dt", [[[0.5, 0], [1, 1]]])
        # V(Ax) - V(x) at x = e1: ||(0.5, 1)||^2 - 1 = 0.25
        gap = lasalle_gap_dt(fam, np.eye(2), [1.0, 0.0])
        assert gap == pytest.approx(0.25)

    def test_pm_one_interior_minimum(self):
        # vertices preserve V but w = (1/2, 1/2) gives A(w) = 0 and the
        # one-step drop -V(x); the convex minimum is interior
        gap = lasalle_gap_dt(PM_ONE, np.eye(1), [1.0])
        assert gap == pytest.approx(-1.0, abs=1e-9)

    def test_half_one_best_vertex(self):
        gap = lasalle_gap_dt(HALF_ONE, np.eye(1), [1.0])
        assert gap == pytest.approx(-0.75, abs=1e-9)

    def test_nonpositive_for_wqlf(self):
        fam = MatrixFamily("dt", [[[0.5, 0], [0, 0.6]],
                                  [[0.3, 0], [0, 0.9]]])
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(10, 2)):
            assert lasalle_gap_dt(fam, np.eye(2), x) <= 1e-12

    def test_gap_at_most_vertex_gaps(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mats = rng.uniform(-1, 1, size=(3, 2, 2))
            fam = MatrixFamily("dt", mats)
            x = rng.normal(size=2)
            full = lasalle_gap_dt(fam, np.eye(2), x)
            for a in mats:
                vertex = float((a @ x) @ (a @ x)) - float(x @ x)
                assert full <= vertex + 1e-8

    def test_requires_dt_and_pd(self):
        with pytest.raises(InputError):
            lasalle_gap_dt(DIAG_KERNELS, np.eye(2), [1.0, 0.0])
        with pytest.raises(InputError):
            lasalle_gap_dt(PM_ONE, np.zeros((1, 1)), [1.0])


class TestEulerGap:
    def test_origin_zero(self):
        assert euler_gap(DIAG_KERNELS, 0.5 * np.eye(2), 0.1,
                         [0.0, 0.0]) == 0.0

    def test_axis_point_scalar_arithmetic(self):
        # best decay freezes nothing: ((1 - 0.1)^2 - 1)/(2 * 0.1) = -0.95
        gap = euler_gap(DIAG_KERNELS, 0.5 * np.eye(2), 0.1, [1.0, 0.0])
        assert gap == pytest.approx(-0.95, abs=1e-9)

    def test_skew_expands_norms(self):
        fam = MatrixFamily("ct", [[[0, 1], [-1, 0]]])
        gap = euler_gap(fam, np.eye(2), 0.1, [1.0, 0.0])
        assert gap > 0.0

    def test_tau_validation(self):
        with pytest.raises(InputError, match="tau"):
            euler_gap(DIAG_KERNELS, np.eye(2), 0.0, [1.0, 0.0])
        with pytest.raises(InputError, match="tau"):
            euler_gap(DIAG_KERNELS, np.eye(2), -1.0, [1.0, 0.0])

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(InputError, match="positive and finite"):
            euler_gap(DIAG_KERNELS, np.eye(2), tau, [1.0, 0.0])

    def test_requires_ct(self):
        with pytest.raises(InputError):
            euler_gap(PM_ONE, np.eye(1), 0.1, [1.0])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_quotient_monotone_in_tau(self, seed):
        # per fixed w the quotient is grad V . y + tau y'Py, increasing in
        # tau, so the simplex minimum shrinks toward the smooth derivative
        # bound as tau -> 0 and never crosses it
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2)
        p = 0.5 * np.eye(2)
        g1 = euler_gap(DIAG_KERNELS, p, 0.1, x)
        g2 = euler_gap(DIAG_KERNELS, p, 0.05, x)
        smooth = min(float(x @ (a.T @ p + p @ a) @ x)
                     for a in DIAG_KERNELS.matrices)
        assert g2 <= g1 + 1e-12
        assert g2 >= smooth - 1e-12
