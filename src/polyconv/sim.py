"""Trajectory generation for matrix families under switching signals.

DT trajectories follow the exact recursion x(k+1) = A(w(k)) x(k).  CT
signals are piecewise constant, so propagation is exact: each segment's
start state is e^(A dur) applied to the previous one's, so errors never
carry across segments.  Inside a segment the first sample is computed
from the segment start and the next ones from the step exponential
e^(A sample_dt), squared as the filled block doubles (Al-Mohy & Higham,
"Computing the action of the matrix exponential", 2011): sampling density
changes the sampled values at rounding level only.  A state that
overflows is a NumericalError.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import InputError, NumericalError
from .family import MatrixFamily, simplex_weights
from .linalg import DEFAULT_TOL, Tolerances, kernel, matrix_exponential
from .lti import EXACT_BAND, UNKNOWN_BAND, lti_convergent_dt

__all__ = [
    "SwitchingSignal",
    "Trajectory",
    "simulate_dt",
    "simulate_ct",
    "detect_limit",
    "residual_diagnostics",
    "find_nonconvergence_witness",
    "divergent_cycle",
    "witness_evidence",
    "verify_witness",
    "trajectory_to_csv",
]

# periodic-orbit witness thresholds (on orbits normalized to unit start
# state): recurrence far below separation keeps false witnesses out at
# double precision
WITNESS_RECURRENCE = 1e-10
WITNESS_SEPARATION = 1e-3
WITNESS_PERIODS = 10
# the searched signals: vertex cycles up to WITNESS_PERIOD_MAX vertices, each
# held for every dwell of the family's mode
WITNESS_PERIOD_MAX = 4
WITNESS_DWELLS = {"dt": (1, 2, 3), "ct": (0.5, 1.0, 2.0)}
# period maps stacked for one matmul, SVD or eigvals call, so that the
# screen's memory stays bounded whatever the vertex count
_MAP_CHUNK = 256


# the most pieces one schedule holds, and the most steps one trajectory
# samples (k_steps in DT, t_end / sample_dt in CT), so that a tiny dwell or
# sample step fails fast instead of allocating without bound
SCHEDULE_PIECES_MAX = 10**6


@dataclass(frozen=True)
class SwitchingSignal:
    """One of: constant(w), vertex_cycle(sequence, dwell),
    iid_random(seed, sampling, dwell), explicit(segments).  schedule is
    its one realization, read by simulate_dt and simulate_ct alike: dwells
    and durations count integer steps in DT and time in CT."""

    kind: str
    weights: tuple | None = None
    sequence: tuple | None = None
    dwell: float | None = None
    seed: int | None = None
    sampling: str | None = None
    segments: tuple | None = None

    @staticmethod
    def constant(w) -> "SwitchingSignal":
        w = np.asarray(w, dtype=float).reshape(-1)
        return SwitchingSignal("constant", weights=tuple(float(v) for v in w))

    @staticmethod
    def vertex_cycle(sequence, dwell=1) -> "SwitchingSignal":
        seq = tuple(int(v) for v in sequence)
        if not seq:
            raise InputError("vertex cycle needs at least one index")
        if any(v < 0 for v in seq):
            raise InputError("vertex indices must be nonnegative")
        if not 0 < dwell < np.inf:
            raise InputError("dwell must be positive and finite")
        return SwitchingSignal("vertex-cycle", sequence=seq,
                               dwell=float(dwell))

    @staticmethod
    def iid_random(seed: int, sampling: str = "vertex",
                   dwell: float = 1.0) -> "SwitchingSignal":
        if sampling not in ("vertex", "dirichlet"):
            raise InputError("sampling must be 'vertex' or 'dirichlet'")
        if not 0 < dwell < np.inf:
            raise InputError("dwell must be positive and finite")
        if int(seed) < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        return SwitchingSignal("iid-random", seed=int(seed),
                               sampling=sampling, dwell=float(dwell))

    @staticmethod
    def explicit(segments) -> "SwitchingSignal":
        segs = []
        for dur, w in segments:
            if not np.isfinite(dur) or dur <= 0:
                raise InputError("segment durations must be positive")
            w = np.asarray(w, dtype=float).reshape(-1)
            segs.append((float(dur), tuple(float(v) for v in w)))
        if not segs:
            raise InputError("explicit signal needs at least one segment")
        return SwitchingSignal("explicit", segments=tuple(segs))

    def schedule(self, m_count: int, horizon: float) -> list:
        """(duration, w) pieces covering [0, horizon], the last one cut
        short, an explicit signal's final weight held; iid draws at once."""
        if self.kind == "constant":
            return [(horizon, simplex_weights(self.weights, m_count))]
        if self.kind == "explicit":
            segs, t = [], 0.0
            for dur, w in self.segments:
                if t >= horizon:
                    break
                dur = min(dur, horizon - t)
                segs.append((dur, simplex_weights(w, m_count)))
                t += dur
            if t < horizon - 1e-12:
                segs.append((horizon - t, simplex_weights(
                    self.segments[-1][1], m_count)))
            return segs
        if self.kind == "vertex-cycle" and max(self.sequence) >= m_count:
            raise InputError(f"vertex index {max(self.sequence)} out of range")
        if self.kind not in ("vertex-cycle", "iid-random"):
            raise InputError(f"unknown signal kind {self.kind!r}")
        dwell = self.dwell
        if horizon / dwell > SCHEDULE_PIECES_MAX:
            raise InputError(f"more than {SCHEDULE_PIECES_MAX} dwells fit in "
                             f"the horizon {horizon}")
        # whole dwells while one fits, then the truncated rest: cumsum adds
        # in the order of a running total, so it gives the same starts
        starts = np.concatenate(
            ([0.0], np.cumsum(np.full(int(horizon / dwell) + 1, dwell))))
        full = int(np.argmin((starts < horizon)
                             & (dwell <= horizon - starts)))
        durations, t = [dwell] * full, float(starts[full])
        while t < horizon:
            durations.append(min(dwell, horizon - t))
            t += durations[-1]
        count = len(durations)
        if self.kind == "vertex-cycle":
            w = np.eye(m_count)[np.resize(self.sequence, count)]
        elif self.sampling == "vertex":
            w = np.eye(m_count)[np.random.default_rng(self.seed).integers(
                0, m_count, count)]
        else:
            w = np.random.default_rng(self.seed).dirichlet(
                np.ones(m_count), size=count)
        return list(zip(durations, w))


@dataclass
class Trajectory:
    mode: str
    times: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    signal: SwitchingSignal
    limit: np.ndarray | None = None
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)


def _validate_x0(family: MatrixFamily, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != family.n:
        raise InputError(
            f"x0 has {x0.shape[0]} entries, family dimension is {family.n}")
    if not np.all(np.isfinite(x0)):
        raise InputError("x0 must be finite")
    return x0


def _check_steps(count: float, what: str) -> None:
    if count > SCHEDULE_PIECES_MAX:
        raise InputError(f"{what} = {count:g} asks for more than "
                         f"{SCHEDULE_PIECES_MAX} samples")


def _check_finite(states: np.ndarray) -> None:
    if not np.all(np.isfinite(states)):
        raise NumericalError("a simulated state overflowed")


def simulate_dt(family: MatrixFamily, signal: SwitchingSignal, x0,
                k_steps: int, tol: Tolerances = DEFAULT_TOL) -> Trajectory:
    if family.mode != "dt":
        raise InputError("simulate_dt needs a DT family")
    if isinstance(k_steps, bool) or not isinstance(k_steps, Integral):
        raise InputError(f"k_steps must be an integer, got {k_steps!r}")
    if k_steps < 1:
        raise InputError("k_steps must be at least 1")
    _check_steps(k_steps, "k_steps")
    x0 = _validate_x0(family, x0)
    pieces = signal.schedule(family.m_count, k_steps)
    durations = np.array([d for d, _ in pieces], dtype=float)
    steps = np.rint(durations).astype(int)
    if np.abs(durations - steps).max() > 1e-12:
        raise InputError("DT segment durations must be integers")
    rows = np.array([w for _, w in pieces])
    states = np.empty((k_steps + 1, family.n))
    states[0] = x = x0
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for count, w in zip(steps.tolist(), rows):
            a = family.combine(w)
            for _ in range(count):
                k += 1
                states[k] = x = a @ x
    _check_finite(states)
    # one weight row per sample: the weight applied on the step starting
    # there; the final sample repeats the last applied weight
    weights = np.repeat(rows, steps, axis=0)
    weights = np.vstack([weights, weights[-1:]])
    traj = Trajectory("dt", np.arange(k_steps + 1, dtype=float), states,
                      weights, signal)
    _attach_limit(traj, tol)
    return traj


def simulate_ct(family: MatrixFamily, signal: SwitchingSignal, x0,
                t_end: float, sample_dt: float,
                tol: Tolerances = DEFAULT_TOL) -> Trajectory:
    """Samples at 0, sample_dt, 2 sample_dt, ... up to t_end, plus t_end
    when it is off that grid.

    Every segment of the signal's schedule starts from the exact state
    e^(A dur) x_seg of the segment before.  Inside a segment the first
    sample is e^(A (t - t_seg)) x_seg, and the next grid samples are filled
    by doubling: the first d samples of the segment, times P = e^(A d
    sample_dt), give the next d, and P is squared as d doubles, so k
    samples take about log2(k) matrix products.  An off-grid t_end is
    computed from the segment start again: at most three exponentials per
    segment, and sampling density changes the values at rounding level
    only.  More than SCHEDULE_PIECES_MAX grid steps is an InputError, a
    state that overflows a NumericalError.
    """
    if family.mode != "ct":
        raise InputError("simulate_ct needs a CT family")
    if not 0 < t_end < np.inf:
        raise InputError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < sample_dt <= t_end:
        raise InputError(f"sample_dt must be in (0, t_end], got {sample_dt}")
    _check_steps(t_end / sample_dt, "t_end / sample_dt")
    x0 = _validate_x0(family, x0)
    segs = signal.schedule(family.m_count, t_end)
    n_grid = int(np.floor(t_end / sample_dt + 1e-9))
    times = np.arange(n_grid + 1) * sample_dt
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
    count = times.shape[0]
    states = np.empty((count, family.n))
    weights = np.empty((count, family.m_count))
    x_seg = x0
    t_seg = 0.0
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (dur, w) in enumerate(segs):
            a = family.combine(w)
            t_next = t_seg + dur
            last = idx == len(segs) - 1
            # the samples inside [t_seg, t_next), and all the rest on the
            # last segment; stepped ones end before an off-grid t_end
            stop = count if last else j + int(np.searchsorted(
                times[j:], t_next - 1e-12 * max(1.0, t_next)))
            stepped = min(stop, n_grid + 1)
            weights[j:stop] = w
            if j < stop:
                states[j] = matrix_exponential(a * (times[j] - t_seg)) @ x_seg
            if j + 1 < stepped:
                # the d samples after a block of d are that block times
                # P = e^(A d sample_dt); P is squared as d doubles
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
    _check_finite(states)
    traj = Trajectory("ct", times, states, weights, signal)
    _attach_limit(traj, tol)
    return traj


def detect_limit(traj: Trajectory, window: int | None = None,
                 tol: float | None = None):
    """Cauchy tail test: if every state in the trailing window stays within
    tol of the final state, that final state is the detected limit."""
    count = traj.states.shape[0]
    if window is None:
        window = max(10, count // 10)
    if count <= window:
        raise InputError("trajectory shorter than the detection window")
    final = traj.states[-1]
    if tol is None:
        tol = DEFAULT_TOL.sim_tol * (1.0 + float(np.linalg.norm(final)))
    dev = np.linalg.norm(traj.states[-window:] - final, axis=1).max()
    return final.copy() if dev <= tol else None


def _attach_limit(traj: Trajectory, tol: Tolerances) -> None:
    count = traj.states.shape[0]
    window = max(10, count // 10)
    if count > window:
        final = traj.states[-1]
        limit = detect_limit(
            traj, window, tol.sim_tol * (1.0 + float(np.linalg.norm(final))))
        if limit is not None:
            traj.limit = limit
            traj.converged = True


def residual_diagnostics(family: MatrixFamily, traj: Trajectory) -> dict:
    """Fixed-point residual series for a trajectory with a detected limit.

    DT: series ||(A(w(k)) - I) xbar|| per step (tends to 0 along convergent
    trajectories).  CT: pointwise ||A(w(t)) xbar|| per sample and per
    segment, the exact running average ||(1/T) int_0^T A(w(t)) xbar dt||,
    and the averaged weight wbar(T), whose A(wbar) xbar residual is the
    constant-weight witness the averaging argument produces.
    """
    if traj.limit is None:
        raise InputError("residual diagnostics need a detected limit")
    xbar = traj.limit
    segs = traj.signal.schedule(family.m_count, float(traj.times[-1]))
    if traj.mode == "dt":
        steps = np.rint([d for d, _ in segs]).astype(int)
        return {"pointwise": np.repeat([
            np.linalg.norm(family.combine(w) @ xbar - xbar)
            for _, w in segs], steps)}
    images = [family.combine(w) @ xbar for _, w in segs]
    seg_pointwise = np.array([np.linalg.norm(v) for v in images])
    # exact accumulation of int A(w(t)) xbar dt and int w(t) dt; each
    # sample's pointwise residual is its segment's
    pointwise = np.empty(traj.times.shape[0])
    running = np.zeros(traj.times.shape[0])
    acc = np.zeros_like(xbar)
    acc_w = np.zeros(family.m_count)
    t_seg = 0.0
    j = 0
    eps = 1e-12 * max(1.0, float(traj.times[-1]))
    for idx, (dur, w) in enumerate(segs):
        t_next = t_seg + dur
        last = idx == len(segs) - 1
        while j < traj.times.shape[0] and (
                traj.times[j] < t_next - eps or last):
            t = traj.times[j]
            pointwise[j] = seg_pointwise[idx]
            part = acc + images[idx] * (t - t_seg)
            running[j] = np.linalg.norm(part) / t if t > 0 else 0.0
            j += 1
        acc += images[idx] * dur
        acc_w += np.asarray(w) * dur
        t_seg = t_next
    wbar = acc_w / t_seg
    return {
        "pointwise": pointwise,
        "segment_pointwise": seg_pointwise,
        "running_average": running,
        "averaged_weight": wbar,
        "witness_residual": float(np.linalg.norm(family.a_of(wbar) @ xbar)),
    }


# --------------------------------------------------------- witness search

def _cycle_candidates(m_count: int, period_max: int):
    """Vertex cycles up to rotation (repetition of shorter cycles kept:
    oscillation periods can exceed the cycle length)."""
    seen = set()
    for p in range(1, period_max + 1):
        for seq in itertools.product(range(m_count), repeat=p):
            rotations = {seq[i:] + seq[:i] for i in range(p)}
            key = min(rotations)
            if (p, key) in seen:
                continue
            seen.add((p, key))
            yield key


@functools.lru_cache(maxsize=16)
def _cycle_groups(m_count: int, period_max: int) -> tuple:
    """_cycle_candidates as one read-only (count, p) array of vertex
    indices per cycle length p, in order; cached, as it depends on the
    two ints alone."""
    groups = {}
    for cycle in _cycle_candidates(m_count, period_max):
        groups.setdefault(len(cycle), []).append(cycle)
    stacked = tuple(np.array(cycles) for cycles in groups.values())
    for seqs in stacked:
        seqs.flags.writeable = False
    return stacked


def _vertex_exponentials(family: MatrixFamily):
    """A function giving e^(A_v t) for vertex v and time t, each computed
    once per returned function: one search shares them across its cycles
    and dwells."""
    memo = {}

    def expm(v: int, t: float) -> np.ndarray:
        if (v, t) not in memo:
            memo[v, t] = matrix_exponential(family.matrices[v] * t)
        return memo[v, t]
    return expm


def _period_map_and_states(family: MatrixFamily, cycle, dwell, expm):
    """The one-period propagator and the within-period propagators from
    the period start (a few interior points per segment in CT); expm is a
    _vertex_exponentials function."""
    prop = np.eye(family.n)
    passed = [prop]
    for v in cycle:
        if family.mode == "dt":
            a = family.matrices[v]
            for _ in range(int(dwell)):
                prop = a @ prop
                passed.append(prop)
        else:
            passed += [expm(v, dwell * frac) @ prop
                       for frac in (0.25, 0.5, 0.75)]
            prop = expm(v, dwell) @ prop
            passed.append(prop)
    return prop, passed


def _period_maps(family: MatrixFamily, expm):
    """The searched signals and their period maps, in stacked groups.

    Yields (signals, maps) in search order.  signals lists (cycle, dwell)
    pairs: the vertex cycles of one length from _cycle_candidates, each
    held for every dwell of WITNESS_DWELLS in turn.  maps stacks their
    period maps as (k, n, n), at most _MAP_CHUNK of them, so memory does
    not grow with the cycle count.

    Each map is the product _period_map_and_states forms, in the same
    association order: from I, the vertex matrix applied once per DT step
    (d times for a dwell of d), or e^(A_v dwell) from expm (a
    _vertex_exponentials function) once per CT segment.  A stacked matmul
    forms each slice as the single product would, so every map is
    bit-identical to the one a per-signal walk builds.
    """
    n, dwells = family.n, WITNESS_DWELLS[family.mode]
    if family.mode == "dt":
        mats = np.array(family.matrices)
        steps = [(mats, int(dwell)) for dwell in dwells]
    else:
        steps = [(np.array([expm(v, dwell) for v in range(family.m_count)]),
                  1) for dwell in dwells]
    per_chunk = max(1, _MAP_CHUNK // len(dwells))
    for seqs in _cycle_groups(family.m_count, WITNESS_PERIOD_MAX):
        for lo in range(0, len(seqs), per_chunk):
            chunk = seqs[lo:lo + per_chunk]
            maps = np.empty((len(chunk), len(dwells), n, n))
            for d, (step, count) in enumerate(steps):
                prop = np.eye(n)
                for vertices in chunk.T:
                    for _ in range(count):
                        prop = step[vertices] @ prop
                maps[:, d] = prop
            yield ([(cycle, dwell) for cycle in map(tuple, chunk.tolist())
                    for dwell in dwells], maps.reshape(-1, n, n))


def _fixed_space_gaps(maps: np.ndarray):
    """||Phi||_F, which bounds ||Phi||_2, and the smallest singular value
    of Phi - I, of each stacked period map, from one einsum and one
    stacked SVD without vectors; both nan for a stack with a non-finite
    entry, which no screen then settles.

    The walks use these to skip, without changing a decision, a map whose
    fixed space the exact rank test (linalg.rank_and_kernel, an SVD with
    vectors) finds empty.  That test counts a singular value of Phi - I as
    zero when it is at most c = rank_rel n max(sigma_max(Phi - I), scale),
    with scale = 1 + ||Phi||_2 (orbit search) or 2 + ||Phi||_2 (spectral
    test).  sigma_max(Phi - I) <= 1 + ||Phi||_2 never exceeds the scale,
    and ||Phi||_2 <= ||Phi||_F (equal at rank one), so the cutoff at scale
    1 + ||Phi||_F (or 2 + ||Phi||_F) is at least c.  The values here and
    the exact test's differ by at most k n eps relative to the scale, for
    a modest k (gesdd and the sum of squares are backward stable).  So a
    map whose sigma_min here exceeds twice the cutoff at the Frobenius
    scale keeps sigma_min > 2c - k n eps scale >= (2 - k eps / rank_rel) c
    > c under the exact test, for any k < rank_rel / eps (4.5e5 at the
    default rank_rel = 1e-10).  Below rank_rel = 1e-12 the walks take c at
    rank_rel = 1e-12, which keeps k < 4.5e3 covered.  Squares that
    overflow give an infinite bound, which skips no map.
    """
    if not np.isfinite(maps).all():
        nan = np.full(len(maps), np.nan)
        return nan, nan
    frobenius = np.sqrt(np.einsum("kij,kij->k", maps, maps))
    gaps = np.linalg.svd(maps - np.eye(maps.shape[1]), compute_uv=False)
    return frobenius, gaps[:, -1]


def _screen_cutoff(rank_rel: float, n: int, scale):
    """Twice the exact rank cutoff rank_rel n scale, at rank_rel no smaller
    than 1e-12 (see _fixed_space_gaps)."""
    return 2.0 * max(rank_rel, 1e-12) * n * scale


def _orbit_numbers(prop, stages, y0):
    """(recurrence, separation) of the orbit through y0: the largest
    distance from y0 over WITNESS_PERIODS applications of the period map,
    and the largest within-period distance from y0."""
    sep = max(float(np.linalg.norm(s @ y0 - y0)) for s in stages)
    y = y0
    rec = 0.0
    for _ in range(WITNESS_PERIODS):
        y = prop @ y
        rec = max(rec, float(np.linalg.norm(y - y0)))
    return rec, sep


def _evidence(family: MatrixFamily, signal: SwitchingSignal, y0, rec,
              sep) -> dict:
    return {
        "recurrence": rec,
        "separation": sep,
        "periods_checked": WITNESS_PERIODS,
        "mode": family.mode,
        "cycle": list(signal.sequence),
        "dwell": signal.dwell,
        "start_state": y0.tolist(),
        "period_length": len(signal.sequence) * signal.dwell,
    }


def witness_evidence(family: MatrixFamily, cycle, dwell, y0) -> dict:
    """The evidence of the orbit through y0 under the vertex cycle held
    for dwell: its recurrence and separation (see _orbit_numbers) and the
    signal that runs it."""
    signal = SwitchingSignal.vertex_cycle(cycle, dwell)
    rec, sep = _orbit_numbers(*_period_map_and_states(
        family, signal.sequence, signal.dwell,
        _vertex_exponentials(family)), y0)
    return _evidence(family, signal, y0, rec, sep)


def find_nonconvergence_witness(family: MatrixFamily):
    """Search vertex-cycle signals for a periodic (non-constant) orbit.

    A trajectory that keeps returning to a state it measurably leaves can
    not converge, so a verified orbit disproves weak convergence.  Returns
    (signal, witness_evidence) or None.  A periodic orbit starts at a
    fixed vector of the cycle's period map, so the candidates are the
    orthonormal basis of that map's fixed space, ker(prop - I), with the
    rank cutoff guarded by 1 + ||prop|| so that a map equal to I up to
    rounding keeps its whole fixed space.

    The signals are walked in _period_maps order, one stack of maps at a
    time, and the first orbit found is returned.  One stacked SVD gives
    the singular values of each prop - I, and ||prop||_F bounds ||prop||
    (_fixed_space_gaps).  A map whose smallest singular value exceeds
    twice the kernel cutoff at scale 1 + ||prop||_F has an empty fixed
    space (the margin is derived in _fixed_space_gaps), so only the other
    maps go on, in order, to the exact kernel above and to the orbit
    test.  Each vertex exponential is computed once per search, and
    the within-period propagators only for a map whose fixed space is
    nonempty.

    inclusion.analyze runs this search, and then divergent_cycle, before
    any solver stage (see its stage order).  An orbit, like a divergent
    period map, rules out every certificate of convergence, so the solver
    could only stall.  An orbit disproves weak convergence; a divergent
    map leaves the verdicts Unknown and is recorded in the report's
    diagnostics only, until verify_report can re-derive an evidence kind
    for it.
    """
    n = family.n
    eye = np.eye(n)
    expm = _vertex_exponentials(family)
    for signals, maps in _period_maps(family, expm):
        norm, low = _fixed_space_gaps(maps)
        cutoff = _screen_cutoff(DEFAULT_TOL.rank_rel, n, 1.0 + norm)
        for i in np.flatnonzero(~(low > cutoff)):
            (cycle, dwell), prop = signals[i], maps[i]
            fixed = kernel(prop - eye,
                           scale=1.0 + float(np.linalg.norm(prop, 2)))
            if not fixed.dim:
                continue
            _, passed = _period_map_and_states(family, cycle, dwell, expm)
            for y0 in fixed.basis.T:
                rec, sep = _orbit_numbers(prop, passed, y0)
                if rec <= WITNESS_RECURRENCE and sep >= WITNESS_SEPARATION:
                    signal = SwitchingSignal.vertex_cycle(cycle, dwell)
                    return signal, _evidence(family, signal, y0, rec, sep)
    return None


def divergent_cycle(family: MatrixFamily,
                    tol: Tolerances = DEFAULT_TOL) -> dict | None:
    """The first searched vertex cycle (in _period_maps order) whose
    period map Phi the DT spectral test lti_convergent_dt disproves, or
    None.

    The samples x(kT) = Phi^k x of the periodic signal form an LTI
    system, so such a cycle has a trajectory without a limit, and no
    certificate of convergence can exist for the family.  Returns the
    cycle, its dwell, the spectral method and Phi's spectral radius.

    Each stack of maps gets the one SVD and the Frobenius norms of
    find_nonconvergence_witness (_fixed_space_gaps) and one stacked
    eigvals, which give the same eigenvalues as the spectral test's own
    call.  A map is skipped only when the test provably cannot disprove
    it, with a factor-2 margin on each rule, and with ||Phi||_F >= ||Phi||
    in place of the test's ||Phi||, which only makes the rules stricter:
    - sigma_min(Phi - I) exceeds twice the kernel cutoff of
      lti_convergent_dt (lti.VertexPass.nested_dims, scale 2 + ||Phi||),
      so ker(Phi - I) = 0, no defect can be found and every eigenvalue is
      tested;
    - every |lambda| - 1 is below UNKNOWN_BAND / 2, so none is unstable;
    - no ||lambda| - 1| is within 2 EXACT_BAND (2 + ||Phi||), so none is
      critical.
    The other maps go on, in order, to lti_convergent_dt.
    """
    n = family.n
    for signals, maps in _period_maps(family, _vertex_exponentials(family)):
        norm, low = _fixed_space_gaps(maps)
        scale = 2.0 + norm
        quiet = low > _screen_cutoff(tol.rank_rel, n, scale)
        if quiet.any():
            excess = np.abs(np.linalg.eigvals(maps[quiet])) - 1.0
            quiet[quiet] = (np.all(excess < UNKNOWN_BAND / 2, axis=1)
                            & np.all(np.abs(excess) > 2 * EXACT_BAND
                                     * scale[quiet, None], axis=1))
        for i in np.flatnonzero(~quiet):
            verdict = lti_convergent_dt(maps[i], tol)
            if verdict.disproven:
                cycle, dwell = signals[i]
                return {"cycle": list(cycle), "dwell": float(dwell),
                        "method": verdict.method,
                        "spectral_radius": float(np.abs(
                            verdict.details["eigenvalues"]).max())}
    return None


def verify_witness(family: MatrixFamily, evidence: dict) -> bool:
    """Re-simulate a recorded periodic orbit and re-check its recurrence
    and separation inequalities from scratch."""
    try:
        cycle = [int(v) for v in evidence["cycle"]]
        dwell = float(evidence["dwell"])
        y0 = np.asarray(evidence["start_state"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed witness evidence: {exc}") from None
    if y0.shape != (family.n,):
        return False
    signal = SwitchingSignal.vertex_cycle(cycle, dwell)
    period = len(cycle) * dwell
    if family.mode == "dt":
        traj = simulate_dt(family, signal, y0,
                           int(round(period)) * WITNESS_PERIODS)
        period_idx = int(round(period))
    else:
        samples_per_period = 8 * len(cycle)
        dt = period / samples_per_period
        traj = simulate_ct(family, signal, y0, period * WITNESS_PERIODS, dt)
        period_idx = samples_per_period
    rec = 0.0
    for p in range(1, WITNESS_PERIODS + 1):
        rec = max(rec, float(np.linalg.norm(
            traj.states[p * period_idx] - y0)))
    sep = float(np.linalg.norm(traj.states[:period_idx + 1] - y0,
                               axis=1).max())
    return rec <= WITNESS_RECURRENCE and sep >= WITNESS_SEPARATION


# ----------------------------------------------------------------- export

def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write `t,x1..xn,w1..wM` rows with 17 significant digits."""
    n = traj.states.shape[1]
    m = traj.weights.shape[1]
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                      + [f"w{i + 1}" for i in range(m)])
    fh.write(header + "\n")
    for t, x, w in zip(traj.times, traj.states, traj.weights):
        row = [t] + list(x) + list(w)
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
