"""Tests for trajectory simulation, limit detection, residual series, and
the periodic-orbit witness search.

Closed-form expected values are derived inline (geometric series for the
alternating-a11 system, the 2-cycle fixed point for the duality example);
randomized checks use families whose limit structure is known.
"""

import io
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import polyconv.lti as lti_module
import polyconv.sim as sim_module
from polyconv.errors import InputError, NumericalError
from polyconv.family import MatrixFamily, simplex_weights
from polyconv.examples import catalogue
from polyconv.inclusion import analyze
from polyconv.linalg import DEFAULT_TOL, Tolerances, kernel, matrix_exponential
from polyconv.lti import lti_convergent_dt
from polyconv.sim import (
    SCHEDULE_PIECES_MAX,
    SwitchingSignal,
    detect_limit,
    divergent_cycle,
    find_nonconvergence_witness,
    residual_diagnostics,
    simulate_ct,
    simulate_dt,
    trajectory_to_csv,
    verify_witness,
)
from test_inclusion import _screen_families

A11_SWITCHING = MatrixFamily("dt", ([[0.5, 0.0], [1.0, 1.0]],
                                    [[0.75, 0.0], [1.0, 1.0]]))
DT_DUALITY = MatrixFamily("dt", ([[0.5, 1.0], [0.0, 1.0]],
                                 [[0.5, 2.0], [0.0, 1.0]]))
PM_ONE = MatrixFamily("dt", ([[-1.0]], [[1.0]]))
SPIKE = MatrixFamily("ct", ([[0.0]], [[-1.0]]))
PATH_CONSENSUS = MatrixFamily("ct", ([[-1.0, 1.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [1.0, -1.0]]))


IDENTITY_PAIR = MatrixFamily("dt", ([[1.0]], [[1.0]]))
IDENTITY_TRIPLE = MatrixFamily("dt", ([[1.0]], [[1.0]], [[1.0]]))


def _dt_weights(family, signal, k_steps):
    """The weight applied at each of k_steps DT steps."""
    return simulate_dt(family, signal, [1.0], k_steps).weights[:-1]


class TestSignals:
    def test_constant_weights(self):
        s = SwitchingSignal.constant([0.25, 0.75])
        w = _dt_weights(IDENTITY_PAIR, s, 3)
        assert np.allclose(w, [[0.25, 0.75]] * 3)

    def test_constant_outside_simplex_rejected(self):
        s = SwitchingSignal.constant([0.5, 0.6])
        with pytest.raises(InputError):
            s.schedule(2, 1)

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.5], [0.2, 0.9], [np.nan, 1.0]],
        [[0.5, 0.5], [np.inf, 0.0], [-0.5, 1.5]],
        [[1.0, 0.0], [0.0, 1.0], [-1e-9, 1.0 + 1e-9]],
        [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]],
        [[1.0, 0.0], [0.25, 0.75 + 1e-13], [-1e-13, 1.0]],
    ], ids=["sum", "finite", "sign", "width", "within-tol"])
    def test_stacked_simplex_weights_raise_the_first_rows_error(self, rows):
        # the 1-D calls in row order are the reference
        want = None
        for row in rows:
            try:
                simplex_weights(row, 2)
            except InputError as exc:
                want = str(exc)
                break
        if want is None:
            got = simplex_weights(np.array(rows), 2)
            assert np.array_equal(got, [simplex_weights(r, 2) for r in rows])
        else:
            with pytest.raises(InputError) as exc:
                simplex_weights(np.array(rows), 2)
            assert str(exc.value) == want

    @pytest.mark.parametrize("rows, match", [
        ([[0.5, 0.5], [0.2, 0.9], [0.5, 0.5, 0.0]], "sum to 1"),
        ([[0.5, 0.5], [0.5, 0.5, 0.0], [0.2, 0.9]], "3 entries"),
        ([[0.5, 0.5], [0.2, 0.8], [0.2, 0.9, 0.0]], "3 entries"),
    ])
    def test_explicit_weights_fail_at_the_first_bad_row(self, rows, match):
        s = SwitchingSignal.explicit([(1.0, w) for w in rows])
        with pytest.raises(InputError, match=match):
            s.schedule(2, 3.0)

    def test_explicit_weights_past_the_horizon_are_not_read(self):
        s = SwitchingSignal.explicit([(1.0, [0.5, 0.5]), (1.0, [0.2, 0.9]),
                                      (1.0, [1.0])])
        assert len(s.schedule(2, 1.0)) == 1

    def test_vertex_cycle_dt(self):
        s = SwitchingSignal.vertex_cycle([0, 1], dwell=2)
        w = _dt_weights(IDENTITY_PAIR, s, 6)
        assert np.allclose(w[:, 0], [1, 1, 0, 0, 1, 1])

    def test_vertex_cycle_index_out_of_range(self):
        s = SwitchingSignal.vertex_cycle([0, 2])
        with pytest.raises(InputError):
            s.schedule(2, 4)

    def test_iid_random_negative_seed_is_an_input_error(self):
        with pytest.raises(InputError, match="seed"):
            SwitchingSignal.iid_random(-4)

    def test_iid_random_is_reproducible(self):
        s = SwitchingSignal.iid_random(seed=5, sampling="dirichlet")
        w = _dt_weights(IDENTITY_TRIPLE, s, 8)
        assert np.array_equal(w, _dt_weights(IDENTITY_TRIPLE, s, 8))
        assert np.allclose(w.sum(axis=1), 1.0) and w.min() >= 0.0

    def test_iid_random_dt_holds_each_draw_for_its_dwell(self):
        s = SwitchingSignal.iid_random(seed=3, dwell=3)
        w = _dt_weights(IDENTITY_PAIR, s, 9)
        draws = [row for _, row in s.schedule(2, 9)]
        assert len(draws) == 3
        assert np.array_equal(w, np.repeat(draws, 3, axis=0))

    @pytest.mark.parametrize("signal", [
        SwitchingSignal.vertex_cycle([0, 1], dwell=1.5),
        SwitchingSignal.iid_random(seed=1, dwell=0.5),
        SwitchingSignal.explicit([(1.0, [1.0, 0.0]), (0.5, [0.0, 1.0])]),
    ], ids=["vertex-cycle", "iid-random", "explicit"])
    def test_non_integer_dt_duration_rejected(self, signal):
        with pytest.raises(InputError, match="integers"):
            simulate_dt(IDENTITY_PAIR, signal, [1.0], 6)

    @pytest.mark.parametrize("signal", [
        SwitchingSignal.constant([0.25, 0.75]),
        SwitchingSignal.vertex_cycle([1, 0, 0], dwell=2),
        SwitchingSignal.iid_random(seed=7, dwell=2),
        SwitchingSignal.iid_random(seed=7, sampling="dirichlet"),
        SwitchingSignal.explicit([(2, [1.0, 0.0]), (3, [0.5, 0.5])]),
    ], ids=["constant", "vertex-cycle", "iid-vertex", "iid-dirichlet",
            "explicit"])
    def test_dt_weights_are_the_schedule_step_by_step(self, signal):
        expanded = [w for dur, w in signal.schedule(2, 11)
                    for _ in range(int(dur))]
        assert np.array_equal(_dt_weights(IDENTITY_PAIR, signal, 11), expanded)

    def test_dwell_durations_are_the_running_total(self):
        # schedule sums whole dwells with cumsum; the running-total loop
        # it replaces is the reference, and the arithmetic is the same
        def running_total(dwell, horizon):
            out, t = [], 0.0
            while t < horizon:
                out.append(min(dwell, horizon - t))
                t += out[-1]
            return out

        rng = np.random.default_rng(11)
        for _ in range(500):
            dwell = float(rng.choice([rng.uniform(0.01, 5.0), 0.1, 0.3,
                                      1.0 / 3.0, 0.7, 2.0]))
            horizon = float(rng.choice([rng.uniform(0.01, 50.0), 10.0,
                                        0.1 * int(rng.integers(1, 100))]))
            s = SwitchingSignal.vertex_cycle([0, 1], dwell)
            assert ([d for d, _ in s.schedule(2, horizon)]
                    == running_total(dwell, horizon))

    def test_explicit_dt_holds_last(self):
        s = SwitchingSignal.explicit([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
        w = _dt_weights(IDENTITY_PAIR, s, 6)
        assert np.allclose(w[:, 1], [0, 1, 1, 1, 1, 1])

    def test_explicit_ct_covers_horizon_by_holding_last(self):
        s = SwitchingSignal.explicit([(1.0, [1.0, 0.0]), (0.5, [0.0, 1.0])])
        segs = s.schedule(2, 4.0)
        assert sum(d for d, _ in segs) == pytest.approx(4.0)
        assert np.allclose(segs[-1][1], [0.0, 1.0])

    def test_explicit_rejects_nonpositive_duration(self):
        with pytest.raises(InputError):
            SwitchingSignal.explicit([(0.0, [1.0])])

    @pytest.mark.parametrize("dwell", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_dwell_rejected(self, dwell):
        # built only: realizing a NaN dwell used to never end
        with pytest.raises(InputError):
            SwitchingSignal.vertex_cycle([0, 1], dwell)
        with pytest.raises(InputError):
            SwitchingSignal.iid_random(1, dwell=dwell)

    def test_dwell_far_below_horizon_rejected(self):
        s = SwitchingSignal.iid_random(1, dwell=1e-9)
        with pytest.raises(InputError, match="dwells fit"):
            s.schedule(2, 10.0)


class TestSimulateDt:
    def test_identity_constant_trajectory(self):
        fam = MatrixFamily("dt", (np.eye(2),))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0, -2.0],
                           50)
        assert np.allclose(traj.states, [1.0, -2.0])
        assert traj.converged and np.allclose(traj.limit, [1.0, -2.0])

    def test_a11_switching_limit(self):
        # x1 contracts by 0.5 * 0.75 per double step while x2 accumulates
        # x1: the sum is (1 + 0.5) / (1 - 0.375) = 2.4
        traj = simulate_dt(A11_SWITCHING, SwitchingSignal.vertex_cycle([0, 1]),
                           [1.0, 0.0], 200)
        assert traj.converged
        assert np.allclose(traj.limit, [0.0, 2.4], atol=1e-10)

    def test_duality_two_cycle_tail(self):
        # x2 stays 1; x1's alternation settles on the 2-cycle fixed points
        # u = 0.5 v + 1, v = 0.5 u + 2, i.e. {8/3, 10/3}
        traj = simulate_dt(DT_DUALITY, SwitchingSignal.vertex_cycle([0, 1]),
                           [1.0, 1.0], 101)
        assert not traj.converged
        assert abs(traj.states[-1, 0] - 8.0 / 3.0) < 1e-9
        assert abs(traj.states[-2, 0] - 10.0 / 3.0) < 1e-9
        assert np.allclose(traj.states[:, 1], 1.0)

    def test_step_count_validation(self):
        fam = MatrixFamily("dt", (np.eye(1),))
        with pytest.raises(InputError):
            simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], 0)

    @pytest.mark.parametrize("k_steps", [2.5, 3.0, np.nan, "3", True])
    def test_non_integer_step_count_rejected(self, k_steps):
        fam = MatrixFamily("dt", (np.eye(1),))
        with pytest.raises(InputError, match="k_steps must be an integer"):
            simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], k_steps)

    def test_numpy_integer_step_count_accepted(self):
        fam = MatrixFamily("dt", (np.eye(1),))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0],
                           np.int64(3))
        assert traj.states.shape == (4, 1)

    def test_mode_mismatch(self):
        with pytest.raises(InputError):
            simulate_dt(SPIKE, SwitchingSignal.constant([1.0, 0.0]), [1.0], 5)

    def test_step_count_over_the_cap_rejected(self):
        with pytest.raises(InputError, match="samples"):
            simulate_dt(MatrixFamily("dt", ([[0.5]],)),
                        SwitchingSignal.constant([1.0]), [1.0],
                        SCHEDULE_PIECES_MAX + 1)

    def test_overflowing_state_is_a_numerical_error(self):
        # 10^400 overflows; the state used to come back as NaN
        fam = MatrixFamily("dt", (10.0 * np.eye(2),))
        with pytest.raises(NumericalError):
            simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0, 1.0],
                        400)


def _per_segment_simulate_ct(family, signal, x0, t_end, sample_dt):
    """(times, states, weights) of simulate_ct from a loop that makes its
    own matrix_exponential call per exponential, segment by segment, with
    the same first sample, doubling fill, off-grid sample and restart."""
    x0 = np.asarray(x0, dtype=float)
    segs = signal.schedule(family.m_count, t_end)
    n_grid = int(np.floor(t_end / sample_dt + 1e-9))
    times = np.arange(n_grid + 1) * sample_dt
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
    count = times.shape[0]
    states = np.empty((count, family.n))
    weights = np.empty((count, family.m_count))
    x_seg, t_seg, j = x0, 0.0, 0
    for idx, (dur, w) in enumerate(segs):
        a = family.combine(w)
        t_next = t_seg + dur
        last = idx == len(segs) - 1
        stop = count if last else j + int(np.searchsorted(
            times[j:], t_next - 1e-12 * max(1.0, t_next)))
        stepped = min(stop, n_grid + 1)
        weights[j:stop] = w
        if j < stop:
            states[j] = matrix_exponential(a * (times[j] - t_seg)) @ x_seg
        if j + 1 < stepped:
            step = matrix_exponential(a * sample_dt)
            k, d = j + 1, 1
            while True:
                block = min(d, stepped - k)
                states[k:k + block] = states[k - d:k - d + block] @ step.T
                k += block
                if k == stepped:
                    break
                step, d = step @ step, 2 * d
        if j < stepped < stop:
            states[stepped] = matrix_exponential(
                a * (times[stepped] - t_seg)) @ x_seg
        if not last:
            x_seg = matrix_exponential(a * dur) @ x_seg
        t_seg = t_next
        j = stop
    return times, states, weights


def _stable_ct_family(seed, n, m):
    """m random n x n vertices with spectral abscissa -0.1."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(m):
        a = rng.standard_normal((n, n))
        mats.append(a - (0.1 + np.linalg.eigvals(a).real.max()) * np.eye(n))
    return MatrixFamily("ct", tuple(mats))


def _explicit_signal(seed, m, t_end, short, vertex):
    """Random explicit segments covering t_end, each at most short long."""
    rng = np.random.default_rng(seed)
    segs, t = [], 0.0
    while t < t_end:
        dur = float(rng.uniform(0.1, 1.0) * short)
        segs.append((dur, np.eye(m)[rng.integers(m)] if vertex
                     else rng.dirichlet(np.ones(m))))
        t += dur
    return SwitchingSignal.explicit(segs)


# (family seed, n, m, signal, t_end, sample_dt): off-grid t_ends, segments
# shorter than sample_dt, schedules of more than _MAP_CHUNK segments
PER_SEGMENT_CASES = {
    "explicit-dirichlet": (1, 3, 3, _explicit_signal(1, 3, 7.33, 0.5, False),
                           7.33, 0.05),
    "explicit-vertex": (2, 4, 2, _explicit_signal(2, 2, 9.0, 1.0, True),
                        9.0, 0.01),
    "explicit-short": (3, 2, 3, _explicit_signal(3, 3, 3.1, 0.03, True),
                       3.1, 0.05),
    "iid-vertex": (4, 4, 2, SwitchingSignal.iid_random(4, "vertex", 0.37),
                   9.05, 0.1),
    "iid-dirichlet-short": (5, 3, 2, SwitchingSignal.iid_random(
        5, "dirichlet", 0.02), 3.0, 0.05),
    "iid-vertex-chunks": (6, 3, 3, SwitchingSignal.iid_random(
        6, "vertex", 0.01), 6.0, 0.004),
    "vertex-cycle-chunks": (7, 2, 2, SwitchingSignal.vertex_cycle(
        [0, 1, 1], 0.013), 4.0, 0.01),
    "constant-n1-m1": (8, 1, 1, SwitchingSignal.constant([1.0]), 5.5, 0.2),
    "vertex-cycle-n1": (9, 1, 3, SwitchingSignal.vertex_cycle(
        [2, 0, 1], 0.3), 2.95, 0.1),
    "explicit-m1": (10, 3, 1, _explicit_signal(10, 1, 6.0, 0.8, False),
                    6.0, 0.3),
}


class TestSimulateCt:
    def test_zero_matrix_constant(self):
        fam = MatrixFamily("ct", (np.zeros((2, 2)),))
        traj = simulate_ct(fam, SwitchingSignal.constant([1.0]), [1.0, 2.0],
                           t_end=20.0, sample_dt=0.5)
        assert np.allclose(traj.states, [1.0, 2.0])
        assert traj.converged

    def test_single_matrix_matches_exponential(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        fam = MatrixFamily("ct", (a,))
        x0 = np.array([1.0, -1.0])
        traj = simulate_ct(fam, SwitchingSignal.constant([1.0]), x0,
                           t_end=5.0, sample_dt=0.25)
        k = np.searchsorted(traj.times, 3.0)
        assert traj.times[k] == pytest.approx(3.0)
        assert np.allclose(traj.states[k], matrix_exponential(3.0 * a) @ x0,
                           atol=1e-12)

    def test_spike_reaches_half(self):
        sig = SwitchingSignal.explicit([
            (1.0, [1.0, 0.0]), (np.log(2.0), [0.0, 1.0]), (1.0, [1.0, 0.0])])
        traj = simulate_ct(SPIKE, sig, [1.0], t_end=10.0, sample_dt=0.1)
        assert traj.states[0, 0] == 1.0
        assert abs(traj.states[-1, 0] - 0.5) < 1e-14
        assert traj.converged and abs(traj.limit[0] - 0.5) < 1e-12

    def test_halving_sample_dt_is_invariant(self):
        sig = SwitchingSignal.iid_random(seed=3, sampling="dirichlet",
                                         dwell=0.7)
        coarse = simulate_ct(PATH_CONSENSUS, sig, [1.0, 0.0], 8.0, 0.25)
        fine = simulate_ct(PATH_CONSENSUS, sig, [1.0, 0.0], 8.0, 0.125)
        assert np.allclose(coarse.states, fine.states[::2], atol=1e-12)

    def test_consensus_limits_in_kernel(self):
        for seed in range(10):
            sig = SwitchingSignal.iid_random(seed=seed, sampling="dirichlet",
                                             dwell=0.5)
            traj = simulate_ct(PATH_CONSENSUS, sig, [1.0, 0.0], 80.0, 0.5)
            assert traj.converged
            assert abs(traj.limit[0] - traj.limit[1]) < 1e-8

    def test_sample_dt_validation(self):
        with pytest.raises(InputError):
            simulate_ct(SPIKE, SwitchingSignal.constant([1.0, 0.0]), [1.0],
                        t_end=1.0, sample_dt=2.0)

    @pytest.mark.parametrize("t_end,sample_dt", [
        (np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan), (1.0, np.inf),
        (np.inf, np.inf)])
    def test_non_finite_times_rejected(self, t_end, sample_dt):
        with pytest.raises(InputError):
            simulate_ct(SPIKE, SwitchingSignal.constant([1.0, 0.0]), [1.0],
                        t_end=t_end, sample_dt=sample_dt)

    def test_sample_count_over_the_cap_rejected(self):
        # t_end / sample_dt is just over SCHEDULE_PIECES_MAX
        with pytest.raises(InputError, match="samples"):
            simulate_ct(SPIKE, SwitchingSignal.constant([1.0, 0.0]), [1.0],
                        t_end=1.0, sample_dt=1.0 / (SCHEDULE_PIECES_MAX + 1))

    def test_overflowing_state_is_a_numerical_error(self):
        # each exponential is finite (e^1 per step), the state is not
        fam = MatrixFamily("ct", ([[1.0]],))
        with pytest.raises(NumericalError):
            simulate_ct(fam, SwitchingSignal.constant([1.0]), [1e300],
                        t_end=30.0, sample_dt=1.0)

    def test_off_grid_final_sample_is_exact(self):
        # t_end = 1 is not on the 0.3 grid, so the last sample is 0.1
        # after the one before: stepping it by e^(0.3 A) would give
        # (1.2917, 0.5488) instead of e^A x0 = (1.3225, 0.6065)
        a = np.array([[-1.0, 2.0], [0.0, -0.5]])
        x0 = np.array([1.0, 1.0])
        traj = simulate_ct(MatrixFamily("ct", (a,)),
                           SwitchingSignal.constant([1.0]), x0,
                           t_end=1.0, sample_dt=0.3)
        assert traj.times.tolist() == pytest.approx([0.0, 0.3, 0.6, 0.9,
                                                     1.0])
        assert np.allclose(traj.states[-1], scipy.linalg.expm(a) @ x0,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_states_match_a_per_sample_expm_chain(self, seed):
        # non-normal vertices: stable upper-triangular blocks with large
        # off-diagonal entries, presented in a random orthogonal basis
        rng = np.random.default_rng(seed)
        n, m = 3 + seed % 2, 2 + seed % 3
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mats = []
        for _ in range(m):
            t = np.triu(3.0 * rng.standard_normal((n, n)), 1)
            t += np.diag(-rng.uniform(0.1, 1.5, n))
            mats.append(q @ t @ q.T)
        fam = MatrixFamily("ct", tuple(mats))
        sig = SwitchingSignal.iid_random(seed, "dirichlet", dwell=0.7)
        x0 = rng.standard_normal(n)
        t_end, sample_dt = 6.1, 0.05
        traj = simulate_ct(fam, sig, x0, t_end, sample_dt)
        # the reference: every sample from its segment start, by scipy
        want = np.empty_like(traj.states)
        x_seg, t_seg, j = x0, 0.0, 0
        segs = sig.schedule(m, t_end)
        for idx, (dur, w) in enumerate(segs):
            a = fam.a_of(w)
            t_next = t_seg + dur
            while j < traj.times.shape[0] and (
                    idx == len(segs) - 1
                    or traj.times[j] < t_next - 1e-12 * max(1.0, t_next)):
                want[j] = scipy.linalg.expm(
                    a * (traj.times[j] - t_seg)) @ x_seg
                j += 1
            x_seg = scipy.linalg.expm(a * dur) @ x_seg
            t_seg = t_next
        assert j == traj.times.shape[0]
        err = np.abs(traj.states - want).max()
        assert err <= 1e-12 * (1.0 + np.abs(want).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_long_segment_matches_expm_at_a_stride(self, seed):
        # one constant segment of 4001 samples, so the last block is
        # filled from P = e^(2048 A sample_dt): slowly decaying non-normal
        # vertices, held at one weight, in a random orthogonal basis
        rng = np.random.default_rng(seed)
        n, m = 3 + seed % 3, 1 + seed % 2
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mats = []
        for _ in range(m):
            t = np.triu(rng.standard_normal((n, n)), 1)
            t += np.diag(-rng.uniform(0.05, 0.5, n))
            mats.append(q @ t @ q.T)
        fam = MatrixFamily("ct", tuple(mats))
        w = rng.dirichlet(np.ones(m))
        x0 = rng.standard_normal(n)
        traj = simulate_ct(fam, SwitchingSignal.constant(w), x0, 40.0, 0.01)
        assert traj.times.shape[0] == 4001
        picks = list(range(0, 4001, 97)) + [4000]
        a = fam.a_of(w)
        want = np.array([scipy.linalg.expm(a * traj.times[k]) @ x0
                         for k in picks])
        err = np.abs(traj.states[picks] - want).max()
        assert err <= 1e-12 * (1.0 + np.abs(want).max())

    @pytest.mark.parametrize("case", PER_SEGMENT_CASES.values(),
                             ids=PER_SEGMENT_CASES.keys())
    def test_samples_match_a_per_segment_loop(self, case):
        seed, n, m, signal, t_end, sample_dt = case
        fam = _stable_ct_family(seed, n, m)
        x0 = np.random.default_rng(seed).standard_normal(n)
        traj = simulate_ct(fam, signal, x0, t_end, sample_dt)
        want = _per_segment_simulate_ct(fam, signal, x0, t_end, sample_dt)
        for got, ref in zip((traj.times, traj.states, traj.weights), want):
            assert np.array_equal(got, ref)

    def test_chunk_boundaries_are_crossed(self):
        for case in ("iid-vertex-chunks", "vertex-cycle-chunks"):
            _, _, m, signal, t_end, _ = PER_SEGMENT_CASES[case]
            assert len(signal.schedule(m, t_end)) > sim_module._MAP_CHUNK

    @pytest.mark.parametrize("dwell", [0.7, 0.013])
    def test_one_stacked_exponential_call_per_chunk(self, monkeypatch,
                                                    dwell):
        calls = []

        def spy(a):
            calls.append(np.shape(a))
            return matrix_exponential(a)

        monkeypatch.setattr(sim_module, "matrix_exponential", spy)
        sig = SwitchingSignal.iid_random(seed=5, sampling="dirichlet",
                                         dwell=dwell)
        traj = simulate_ct(PATH_CONSENSUS, sig, [1.0, 0.0], 8.05, 0.01)
        segments = len(sig.schedule(2, 8.05))
        assert traj.times.shape[0] == 806
        assert len(calls) == -(-segments // sim_module._MAP_CHUNK)
        assert all(len(shape) == 3 for shape in calls)
        assert sum(shape[0] for shape in calls) <= 3 * segments + 1

    def test_a_vertex_cycle_computes_each_step_exponential_once(
            self, monkeypatch):
        stacks = []

        def spy(a):
            stacks.append(np.array(a))
            return matrix_exponential(a)

        monkeypatch.setattr(sim_module, "matrix_exponential", spy)
        sig = SwitchingSignal.vertex_cycle([0, 1, 1], dwell=0.37)
        simulate_ct(PATH_CONSENSUS, sig, [1.0, 0.0], 8.05, 0.01)
        stack, = stacks
        for a in PATH_CONSENSUS.matrices:
            assert sum(np.array_equal(s, a * 0.01) for s in stack) == 1


class TestDetectLimit:
    def test_geometric_decay(self):
        fam = MatrixFamily("dt", ([[0.5]],))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], 100)
        assert np.allclose(detect_limit(traj, window=10), [0.0])

    def test_alternating_has_no_limit(self):
        fam = MatrixFamily("dt", ([[-1.0]],))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], 100)
        assert detect_limit(traj, window=10) is None
        assert not traj.converged

    def test_simulation_uses_the_callers_sim_tol(self):
        # 0.99^k over the last 20 of 200 steps moves by about 0.028: a
        # limit at sim_tol = 0.1, none at the default 1e-8
        fam = MatrixFamily("dt", ([[0.99]],))
        sig = SwitchingSignal.constant([1.0])
        assert simulate_dt(fam, sig, [1.0], 200,
                           Tolerances(sim_tol=0.1)).converged
        assert not simulate_dt(fam, sig, [1.0], 200).converged

    def test_window_longer_than_trajectory(self):
        fam = MatrixFamily("dt", ([[0.5]],))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], 5)
        with pytest.raises(InputError):
            detect_limit(traj, window=10)


class TestResidualDiagnostics:
    def test_dt_strong_limit_zero_residual(self):
        traj = simulate_dt(A11_SWITCHING, SwitchingSignal.vertex_cycle([0, 1]),
                           [1.0, 0.0], 200)
        diag = residual_diagnostics(A11_SWITCHING, traj)
        # the limit lies in both fixed spaces, so the series is exactly 0
        assert diag["pointwise"].max() < 1e-10

    def test_ct_spike_running_average_and_witness(self):
        sig = SwitchingSignal.explicit([
            (1.0, [1.0, 0.0]), (np.log(2.0), [0.0, 1.0]), (1.0, [1.0, 0.0])])
        traj = simulate_ct(SPIKE, sig, [1.0], t_end=10.0, sample_dt=0.1)
        diag = residual_diagnostics(SPIKE, traj)
        # the spike segment keeps pointwise residual at |(-1) * 0.5| = 0.5
        assert diag["segment_pointwise"].max() == pytest.approx(0.5)
        # int A(w) xbar dt = -ln2 * 0.5; averaged over T=10
        expect = np.log(2.0) * 0.5 / 10.0
        assert diag["running_average"][-1] == pytest.approx(expect, rel=1e-10)
        assert diag["averaged_weight"][1] == pytest.approx(np.log(2.0) / 10.0)
        assert diag["witness_residual"] == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("signal", [
        SwitchingSignal.iid_random(seed=2, sampling="dirichlet", dwell=0.7),
        SwitchingSignal.vertex_cycle([0, 1, 1], dwell=0.45),
        SwitchingSignal.explicit([(0.3, [0.2, 0.8]), (1.1, [1.0, 0.0])])])
    def test_ct_pointwise_is_the_per_sample_residual(self, signal):
        traj = simulate_ct(PATH_CONSENSUS, signal, [1.0, 0.0], 40.0, 0.1)
        diag = residual_diagnostics(PATH_CONSENSUS, traj)
        want = np.array([np.linalg.norm(PATH_CONSENSUS.a_of(w) @ traj.limit)
                         for w in traj.weights])
        assert np.array_equal(diag["pointwise"], want)

    def test_dt_pointwise_is_the_per_step_residual(self):
        sig = SwitchingSignal.iid_random(seed=4, dwell=3)
        traj = simulate_dt(A11_SWITCHING, sig, [1.0, 0.0], 200)
        diag = residual_diagnostics(A11_SWITCHING, traj)
        xbar = traj.limit
        want = np.array([np.linalg.norm(A11_SWITCHING.a_of(w) @ xbar - xbar)
                         for w in traj.weights[:-1]])
        assert np.array_equal(diag["pointwise"], want)

    def test_requires_limit(self):
        fam = MatrixFamily("dt", ([[-1.0]],))
        traj = simulate_dt(fam, SwitchingSignal.constant([1.0]), [1.0], 100)
        with pytest.raises(InputError):
            residual_diagnostics(fam, traj)


class TestWitnessSearch:
    def test_pm_one_period_two(self):
        out = find_nonconvergence_witness(PM_ONE)
        assert out is not None
        signal, ev = out
        assert ev["separation"] >= 1e-3
        assert ev["recurrence"] <= 1e-10
        assert verify_witness(PM_ONE, ev)

    def test_dt_duality_two_cycle(self):
        out = find_nonconvergence_witness(DT_DUALITY)
        assert out is not None
        _, ev = out
        # the orbit is the normalized 2-cycle state (10/3, 1)
        state = np.asarray(ev["start_state"])
        assert abs(state[0] / state[1] - 10.0 / 3.0) < 1e-9
        assert verify_witness(DT_DUALITY, ev)

    def test_ct_duality_attracting_orbit(self):
        fam = MatrixFamily("ct", ([[-1.0, 2.0], [1.0, -2.0]],
                                  [[-2.0, 1.0], [2.0, -1.0]]))
        out = find_nonconvergence_witness(fam)
        assert out is not None
        _, ev = out
        assert ev["mode"] == "ct"
        assert verify_witness(fam, ev)

    def test_weakly_convergent_family_has_none(self):
        fam = MatrixFamily("dt", ([[0.5]], [[1.0]]))
        assert find_nonconvergence_witness(fam) is None

    def test_rotation_found_via_longer_cycle(self):
        th = np.pi / 4
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        fam = MatrixFamily("dt", (r,))
        out = find_nonconvergence_witness(fam)
        assert out is not None
        # the period map R^8 is I up to rounding: its fixed space is the
        # whole plane only under the kernel's 1 + ||prop|| scale guard
        _, ev = out
        assert (ev["cycle"], ev["dwell"]) == ([0, 0, 0, 0], 2.0)
        assert verify_witness(fam, ev)

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_no_witness_on_contractive_families(self, seed):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((2, 2))
            a *= 0.45 / max(np.linalg.norm(a, 2), 1e-9)
            mats.append(a)
        # spectral norms below 1 make every vertex product contract, so no
        # periodic orbit exists
        fam = MatrixFamily("dt", tuple(mats))
        assert find_nonconvergence_witness(fam) is None


def _reference_walks(family, tol=DEFAULT_TOL):
    """What find_nonconvergence_witness and divergent_cycle return, from a
    walk that builds each period map alone and tests it with
    linalg.kernel, np.linalg.norm(., 2) and lti_convergent_dt, in
    _cycle_candidates x WITNESS_DWELLS order."""
    expm = sim_module._vertex_exponentials(family)
    eye = np.eye(family.n)
    witness = divergent = None
    for cycle in sim_module._cycle_candidates(family.m_count,
                                              sim_module.WITNESS_PERIOD_MAX):
        for dwell in sim_module.WITNESS_DWELLS[family.mode]:
            prop, passed = sim_module._period_map_and_states(
                family, cycle, dwell, expm)
            if witness is None:
                fixed = kernel(prop - eye,
                               scale=1.0 + float(np.linalg.norm(prop, 2)))
                for y0 in fixed.basis.T:
                    rec, sep = sim_module._orbit_numbers(prop, passed, y0)
                    if (rec <= sim_module.WITNESS_RECURRENCE
                            and sep >= sim_module.WITNESS_SEPARATION):
                        signal = SwitchingSignal.vertex_cycle(cycle, dwell)
                        witness = signal, sim_module._evidence(
                            family, signal, y0, rec, sep)
                        break
            if divergent is None:
                verdict = lti_convergent_dt(prop, tol)
                if verdict.disproven:
                    divergent = {"cycle": list(cycle), "dwell": float(dwell),
                                 "method": verdict.method,
                                 "spectral_radius": float(np.abs(
                                     verdict.details["eigenvalues"]).max())}
            if witness is not None and divergent is not None:
                return witness, divergent
    return witness, divergent


def _seeded_families():
    """DT and CT families with m = 1-5 vertices: every vertex scaled to
    spectral radius 0.95 or 1 (dt), or shifted to spectral abscissa -0.05
    or 0 (ct), so that some period maps sit on the unit circle."""
    families = []
    for m in range(1, 6):
        for mode in ("dt", "ct"):
            for k, edge in enumerate((0.95, 1.0) if mode == "dt"
                                     else (-0.05, 0.0)):
                rng = np.random.default_rng([m, k, mode == "ct"])
                mats = []
                for _ in range(m):
                    a = rng.standard_normal((3, 3))
                    lam = np.linalg.eigvals(a)
                    mats.append(edge * a / np.abs(lam).max() if mode == "dt"
                                else a + (edge - lam.real.max()) * np.eye(3))
                families.append(MatrixFamily(mode, tuple(mats)))
    return families


def _near_identity(shift, seed):
    """Q diag(1 + shift, 0.5, 0.7) Q' for a random orthogonal Q: one
    eigenvalue shift away from 1, and sigma_min(A - I) = |shift|."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
    return q @ np.diag([1.0 + shift, 0.5, 0.7]) @ q.T


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def _boundary_families():
    """Period maps at the screen's edges: near-identity maps whose
    sigma_min(Phi - I) runs from a third of the 3 x 3 kernel cutoffs
    (about 6e-10 and 9e-10) to over 10 times them, and whose eigenvalue
    near 1 runs into UNKNOWN_BAND along the cycle powers; Jordan blocks
    at the critical value; and rotations by 2 pi / k, whose maps are
    spectral-critical, or I up to rounding.  Rank-one maps, for which the
    screen's Frobenius bound equals ||Phi||_2: 1 x 1 maps 1 + shift and
    rotated 2 x 2 oblique near-projections [[1 + 2 shift, 0.5], [0, 0]],
    whose sigma_min(Phi - I) runs from a fifth of the screen's cutoff to
    six times it; and u v' with v'u = -1, whose square is -u v' (an orbit
    of period 2), and -u u' / |u|^2, for which sigma_max(Phi - I) =
    1 + ||Phi||_2 exactly."""
    families = []
    for i, shift in enumerate((1e-10, 2e-10, 4e-10, 6e-10, 1e-9, 3e-9)):
        for sign in (1, -1):
            families.append(MatrixFamily("dt", ([[1.0 + sign * shift]],)))
            q = np.linalg.qr(np.random.default_rng([i, sign > 0])
                             .standard_normal((2, 2)))[0]
            near = np.array([[1.0 + 2 * sign * shift, 0.5], [0.0, 0.0]])
            families.append(MatrixFamily("dt", (q @ near @ q.T,
                                                0.5 * np.eye(2))))
    u, v = np.array([1.0, 2.0]), np.array([1.0, -1.0])
    families.append(MatrixFamily("dt", (np.outer(u, v), 0.5 * np.eye(2))))
    families.append(MatrixFamily("dt", (-np.outer(u, u) / 5.0,)))
    for i, shift in enumerate((2e-10, 6e-10, 1e-9, 1.5e-9, 2e-9, 4e-9,
                               9e-9)):
        for sign in (1, -1):
            near = _near_identity(sign * shift, i)
            families.append(MatrixFamily("dt", (near,)))
            families.append(MatrixFamily("dt", (near, 0.5 * np.eye(3))))
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    families.append(MatrixFamily("dt", (jordan, 0.5 * np.eye(2))))
    families.append(MatrixFamily("ct", (jordan - np.eye(2), -np.eye(2))))
    for k in (3, 4, 6):
        r = _rotation(2 * np.pi / k)
        families.append(MatrixFamily("dt", (r,)))
        families.append(MatrixFamily("dt", (r, np.diag([0.5, 1.0]))))
        families.append(MatrixFamily("ct", ((2 * np.pi / k) * np.array(
            [[0.0, -1.0], [1.0, 0.0]]), -np.eye(2))))
    return families


def _padded(family, m):
    """The family with Dirichlet combinations of its vertices added up to
    m vertices (default_rng(0)): the convex hull, so the inclusion, is
    unchanged."""
    rng = np.random.default_rng(0)
    k = family.m_count
    extra = tuple(sum(w * a for w, a in zip(rng.dirichlet(np.ones(k)),
                                             family.matrices))
                  for _ in range(m - k))
    return MatrixFamily(family.mode, tuple(family.matrices) + extra)


class TestCycleScreenWalks:
    @pytest.mark.parametrize("families", [
        lambda: _screen_families(1.0) + _screen_families(1.3),
        _seeded_families,
        _boundary_families,
    ], ids=["screen-families", "seeded", "boundary"])
    def test_walks_match_a_per_map_reference(self, families):
        hits = 0
        for fam in families():
            witness, divergent = _reference_walks(fam)
            found = find_nonconvergence_witness(fam)
            if witness is None:
                assert found is None
            else:
                assert found[0] == witness[0] and found[1] == witness[1]
            assert divergent_cycle(fam) == divergent
            hits += (witness is not None) + (divergent is not None)
        assert hits > 0

    @pytest.mark.parametrize("name", ["diag-kernels", "scalar-half-one",
                                      "spike-schedule"])
    def test_padded_family_walk_is_bounded(self, name, monkeypatch):
        fam = catalogue(name).family
        big = _padded(fam, 10)
        want = [(v.status, v.method) for v in (analyze(fam).strong,
                                                analyze(fam).weak)]
        rep = analyze(big)
        assert [(v.status, v.method) for v in (rep.strong, rep.weak)] == want
        # the orbit walk's kernel, and the kernel cuts of the vertex pass
        # behind the spectral walk's lti_convergent_dt calls: two per map,
        # ker(Phi - I) and ker(Phi - I)^2
        calls = {"orbit": 0, "spectral": 0}

        def counted(walk, fn):
            def call(*args, **kwargs):
                calls[walk] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(sim_module, "kernel", counted("orbit", kernel))
        monkeypatch.setattr(lti_module, "kernel_from_svd", counted(
            "spectral", lti_module.kernel_from_svd))
        assert find_nonconvergence_witness(big) is None
        assert divergent_cycle(big) is None
        # of the 8,805 period maps (2,935 cycles at 3 dwells) only those
        # equal to I, the 12 or 24 cycles of vertices with a kernel, reach
        # the exact tests; without the screen each walk tests all 8,805
        assert calls["orbit"] <= 24
        assert 0 < calls["spectral"] <= 2 * 24

    def test_gap_screen_takes_one_svd_per_stack(self, monkeypatch):
        # ||Phi||_2 comes from the Frobenius bound, and sigma_max(Phi - I)
        # is never needed: the SVD of Phi - I is the only one per stack
        fams = [_padded(catalogue("diag-kernels").family, 10)]
        fams += _boundary_families()
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        stacks = []
        for fam in fams:
            stacks += [maps for _, maps in sim_module._period_maps(
                fam, sim_module._vertex_exponentials(fam))]
        monkeypatch.setattr(np.linalg, "svd", counted)
        bounds = [sim_module._fixed_space_gaps(maps)[0] for maps in stacks]
        monkeypatch.undo()
        assert calls == [maps.shape for maps in stacks]
        slack = 1.0 - 8 * np.finfo(float).eps
        for maps, bound in zip(stacks, bounds):
            assert np.all(bound >= slack * np.linalg.norm(maps, 2,
                                                          axis=(1, 2)))

    @pytest.mark.parametrize("search", [find_nonconvergence_witness,
                                        divergent_cycle])
    def test_ct_walk_stacks_its_vertex_exponentials(self, monkeypatch,
                                                    search):
        # every (vertex, dwell) pair in one call; a period's interior
        # fractions only for a map with a fixed space, one call each
        calls = []

        def spy(a):
            calls.append(np.shape(a))
            return matrix_exponential(a)

        monkeypatch.setattr(sim_module, "matrix_exponential", spy)
        dwells = len(sim_module.WITNESS_DWELLS["ct"])
        stable = _stable_ct_family(3, 3, 3)
        assert search(stable) is None
        assert calls == [(3 * dwells, 3, 3)]
        calls.clear()
        orbit = MatrixFamily("ct", ([[-1.0, 2.0], [1.0, -2.0]],
                                    [[-2.0, 1.0], [2.0, -1.0]]))
        search(orbit)
        assert calls[0] == (2 * dwells, 2, 2)
        # the orbit search forms the within-period propagators of the maps
        # with a fixed space; the spectral test never needs them
        assert all(shape == (2, 2) for shape in calls[1:])
        assert bool(calls[1:]) == (search is find_nonconvergence_witness)

    def test_overflowing_period_map_goes_to_the_exact_test(self):
        # both vertices are nilpotent, but their product overflows: its
        # stack is left to the per-map kernel, which rejects it as a
        # per-map walk does
        fam = MatrixFamily("dt", ([[0.0, 1e200], [0.0, 0.0]],
                                  [[0.0, 0.0], [1e200, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(InputError,
                                                       match="non-finite"):
            find_nonconvergence_witness(fam)

    def test_walk_memory_is_bounded(self):
        # n = 20, m = 10: 8,805 period maps per walk, 27 MiB if they were
        # all stacked at once
        rng = np.random.default_rng(0)
        mats = []
        for _ in range(10):
            a = rng.standard_normal((20, 20))
            mats.append(0.9 * a / np.abs(np.linalg.eigvals(a)).max())
        fam = MatrixFamily("dt", tuple(mats))
        tracemalloc.start()
        try:
            find_nonconvergence_witness(fam)
            divergent_cycle(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCsvExport:
    def test_header_and_roundtrip(self):
        traj = simulate_dt(PM_ONE, SwitchingSignal.vertex_cycle([0, 1]),
                           [1.0], 4)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,w1,w2"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 1.0, 0.0]
