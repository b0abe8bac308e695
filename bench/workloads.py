"""The four workloads: seeded inputs, the user-level operations on them, and
a check of every output against a computation made apart from polyconv.

An operation calls polyconv's public functions through their module
attributes (``inclusion.analyze``, not a captured reference), so the traced
run's wrappers see every call.  Each check returns None for a correct
output and a message otherwise; it uses numpy and scipy only, apart from
the report re-check ``cli.verify_report`` that the analyze workloads must
also pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

import polyconv.cli as cli
import polyconv.examples as examples
import polyconv.inclusion as inclusion
import polyconv.lasalle as lasalle
import polyconv.lti as lti
import polyconv.sim as sim
from polyconv.family import MatrixFamily

import generators as gen

WORKLOADS = ("cqlf-scaling", "witness-search", "lti-routes", "network-kernel")

# thresholds of the benchmark's own re-checks
ORBIT_RECURRENCE = 1e-9     # relative to |y0|, over ORBIT_PERIODS periods
ORBIT_SEPARATION = 1e-3     # relative to |y0|
ORBIT_PERIODS = 10
SUBSPACE_TOL = 1e-8
STATE_TOL = 1e-8            # relative to 1 + |x0|
MEMBERSHIP_TOL = 1e-7       # ||A(w) x|| relative to 1 + max |A_i|
SIMPLEX_TOL = 1e-9


@dataclass
class Op:
    """One user-level call on one input.

    call() runs the operation and returns its output; check(output) gives
    None when the output is correct.  fault(output) is True when the output
    shows the known fault that the workload counts as failed.  inputs
    holds the operation's inputs by name, for tests and diagnosis.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fault: Callable[[object], bool] | None = None
    inputs: dict = field(default_factory=dict)


# Seed of the fixed pool of cores behind every workload (the acceptance
# sweep's seed).  The run's --seed draws the orthogonal basis (or, for
# networks, the node labels) each core is presented in, and the states and
# signals.  The solver's iteration counts are invariant under orthogonal
# similarity but range over 300 to 20000 between random cores, so cores
# drawn per seed made lti-routes' ops_per_s differ by 30% between seeds.
POOL_SEED = 20240814


def _rng(seed: int, *stream: int):
    return np.random.default_rng([int(seed), *stream])


def _rotated(seed: int, stream: tuple, mats) -> tuple:
    """The matrices in a seeded orthogonal basis: Q' A Q."""
    q = gen.orthogonal(_rng(seed, *stream), len(mats[0]))
    return tuple(q.T @ a @ q for a in mats)


def _crit(mode: str) -> float:
    return 1.0 if mode == "dt" else 0.0


def _same_span(a, b) -> bool:
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    if a.shape != b.shape:
        return False
    if a.shape[1] == 0:
        return True
    return float(np.linalg.norm(a @ a.T - b @ b.T, 2)) <= SUBSPACE_TOL


def kernel_dim(a: np.ndarray, scale: float) -> int:
    """Numerical kernel dimension by the benchmark's own SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = 1e-10 * max(s[0] if s.size else 0.0, scale) * max(a.shape)
    return int(np.sum(s <= cutoff))


# ----------------------------------------------------------- analyze checks

def recheck_cqlf(doc: dict, mats, mode: str) -> str | None:
    """Re-check a decomposition-cqlf certificate with numpy eigenvalues:
    T orthogonal, the kernel block invariant, P > 0 and every off-kernel
    block strictly decaying in P."""
    cert = (doc.get("certificates") or {}).get("strong") or {}
    t = np.asarray(cert.get("t"), dtype=float)
    p = np.asarray(cert.get("p"), dtype=float)
    n = len(mats[0])
    r = n - int(cert.get("kernel_dim", -1))
    if t.shape != (n, n) or p.shape != (r, r):
        return "cqlf certificate has the wrong shape"
    if float(np.linalg.norm(t.T @ t - np.eye(n), 2)) > 1e-10:
        return "decomposition basis is not orthogonal"
    if r and float(np.linalg.eigvalsh(0.5 * (p + p.T))[0]) <= 0.0:
        return "certificate P is not positive definite"
    for i, a in enumerate(mats):
        blk = t.T @ a @ t
        scale = 1.0 + float(np.linalg.norm(a, 2))
        if float(np.abs(blk[:r, r:]).max(initial=0.0)) > 1e-8 * scale or \
                float(np.abs(blk[r:, r:] - _crit(mode) * np.eye(n - r))
                      .max(initial=0.0)) > 1e-8 * scale:
            return f"vertex {i + 1}: kernel block is not invariant"
        b = blk[:r, :r]
        lyap = b.T @ p + p @ b if mode == "ct" else b.T @ p @ b - p
        if r and float(np.linalg.eigvalsh(0.5 * (lyap + lyap.T))[-1]) >= 0.0:
            return f"vertex {i + 1}: off-kernel block does not decay in P"
    return None


def orbit_ok(mats, mode: str, cycle, dwell: float, y0) -> bool:
    """Re-derive a vertex-cycle orbit from the benchmark's own matrix
    products (DT) or scipy.linalg.expm (CT): it must return to y0 after
    each of ORBIT_PERIODS periods and measurably leave it within one."""
    y0 = np.asarray(y0, dtype=float)
    size = float(np.linalg.norm(y0))
    if size == 0.0:
        return False
    n = y0.shape[0]
    prop = np.eye(n)
    passed = []
    for v in cycle:
        a = np.asarray(mats[v])
        if mode == "dt":
            for _ in range(int(round(dwell))):
                prop = a @ prop
                passed.append(prop)
        else:
            for frac in (0.25, 0.5, 0.75):
                passed.append(scipy.linalg.expm(a * (dwell * frac)) @ prop)
            prop = scipy.linalg.expm(a * dwell) @ prop
            passed.append(prop)
    sep = max(float(np.linalg.norm(s @ y0 - y0)) for s in passed)
    y = y0
    rec = 0.0
    for _ in range(ORBIT_PERIODS):
        y = prop @ y
        rec = max(rec, float(np.linalg.norm(y - y0)))
    return rec <= ORBIT_RECURRENCE * size and sep >= ORBIT_SEPARATION * size


def check_report(doc: dict, family: MatrixFamily, expect: dict,
                 planted_kernel=None) -> str | None:
    """Checks shared by the analyze workloads, then the expected verdicts.

    expect maps "strong" and "weak" to a (status, method) pair.
    """
    ok, items = cli.verify_report(doc, family)
    if not ok:
        bad = next(c for c in items if not c["pass"])
        return f"verify_report rejects the report: {bad['name']} {bad['detail']}"
    mats = family.matrices
    mode = family.mode
    got = {side: (doc["verdicts"][side]["status"],
                  doc["verdicts"][side]["method"]) for side in expect}
    if got["strong"][0] == lti.PROVEN and got["weak"][0] == lti.DISPROVEN:
        return "Proven strong verdict beside a Disproven weak one"
    if got["strong"][1] == "decomposition-cqlf":
        msg = recheck_cqlf(doc, mats, mode)
        if msg:
            return msg
    if got["strong"][1] == "kernel-mismatch":
        scale = 1.0 + max(float(np.linalg.norm(a, 2)) for a in mats)
        dims = [kernel_dim(a - _crit(mode) * np.eye(family.n), scale)
                for a in mats]
        if dims != doc["ksp"]["kernel_dims"] or len(set(dims)) == 1 and \
                dims[0] == doc["ksp"]["common_dim"]:
            return "kernel mismatch does not recompute"
    witness = doc.get("witness")
    if witness is not None and not orbit_ok(
            mats, mode, witness["cycle"], witness["dwell"],
            witness["start_state"]):
        return "reported orbit does not re-derive"
    if got != expect:
        return f"verdicts {got} differ from the expected {expect}"
    if planted_kernel is not None and not _same_span(
            doc["kernel"]["basis"], planted_kernel):
        return "reported kernel does not span the planted one"
    return None


def _analyze_op(label: str, family: MatrixFamily, expect: dict,
                planted_kernel=None) -> Op:
    def call():
        return cli.report_to_dict(inclusion.analyze(family))

    def check(doc):
        return check_report(doc, family, expect, planted_kernel)

    return Op(label, call, check, inputs={"family": family})


# ------------------------------------------------------------ cqlf-scaling

CQLF_EXPECT = {"strong": (lti.PROVEN, "decomposition-cqlf"),
               "weak": (lti.PROVEN, "implied-by-strong")}


def cqlf_sizes():
    """(n, m, k, mode) of one round: every n from 4 to 28 once, m cycling
    through 2-4, the mode alternating; plus 16 small families (n = 4-11,
    both modes) so the median sits among the small, overhead-bound sizes
    and the tail among the large, solver-bound ones."""
    sizes = []
    for i, n in enumerate(range(4, 29)):
        sizes.append((n, 2 + i % 3, 1 + (i // 2) % 2,
                      "ct" if i % 2 == 0 else "dt"))
    for n in range(4, 12):
        for j, mode in enumerate(("ct", "dt")):
            sizes.append((n, 2 + (n + j) % 3, 1 + (n + j) % 2, mode))
    return sizes


def cqlf_scaling(seed: int) -> list:
    ops = []
    for idx, (n, m, k, mode) in enumerate(cqlf_sizes()):
        g = gen.cqlf_family(_rng(POOL_SEED, 1, idx), n, m, k, mode)
        q = gen.orthogonal(_rng(seed, 1, idx), n)
        fam = MatrixFamily(mode, tuple(q.T @ a @ q for a in g["matrices"]))
        ops.append(_analyze_op(f"analyze {mode} n={n} m={m} k={k}", fam,
                               CQLF_EXPECT, q.T @ g["kernel"]))
    return ops


# ---------------------------------------------------------- witness-search

ORBIT_EXPECT = {"strong": (lti.DISPROVEN, "implied-by-weak"),
                "weak": (lti.DISPROVEN, "periodic-orbit")}
EXHAUSTED_EXPECT = {"strong": (lti.UNKNOWN, "exhausted"),
                    "weak": (lti.UNKNOWN, "exhausted")}

_CYCLES = {2: ((0, 1), (0, 0, 1), (0, 1, 1, 1)),
           3: ((0, 1, 2), (0, 2), (1, 2, 2))}


def witness_cases():
    """(n, m, mode, cycle, dwell index, growth) of one round: 40 families,
    n = 3-6, m = 2-3, both modes; half carry an orbit (growth 1), half a
    diverging cycle and no orbit (growth 1.3)."""
    cases = []
    i = 0
    for growth in (1.0, 1.3):
        for mode in ("dt", "ct"):
            for n in (3, 4, 5, 6, 4):
                for m in (2, 3):
                    cycles = _CYCLES[m]
                    cases.append((n, m, mode, cycles[i % len(cycles)],
                                  i % 3, growth))
                    i += 1
    return cases


def witness_search(seed: int) -> list:
    ops = []
    for idx, (n, m, mode, cycle, d, growth) in enumerate(witness_cases()):
        dwell = (1, 2, 3)[d] if mode == "dt" else (0.5, 1.0, 2.0)[d]
        g = gen.orbit_family(_rng(POOL_SEED, 2, idx), n, m, mode, cycle,
                             dwell, growth)
        fam = MatrixFamily(mode, _rotated(seed, (2, idx), g["matrices"]))
        planted = growth == 1.0
        ops.append(_analyze_op(
            f"analyze {mode} n={n} m={m} "
            f"{'orbit' if planted else 'diverging'} cycle={cycle} "
            f"dwell={dwell}", fam,
            ORBIT_EXPECT if planted else EXHAUSTED_EXPECT))
    return ops


# -------------------------------------------------------------- lti-routes

ROUTES = {"dt": ("lti_lmi_dt_e", "lti_lmi_dt_f"),
          "ct": ("lti_lmi_ct_f", "lti_lmi_ct_g")}


def lti_routes(seed: int) -> list:
    """Every archetype x mode x route, twice at each n = 2, 4, 6: 120
    operations."""
    ops = []
    idx = 0
    for arch in gen.ARCHETYPES:
        for mode in ("dt", "ct"):
            for route in ROUTES[mode]:
                for n in (2, 2, 4, 4, 6, 6):
                    core = gen.archetype_matrix(_rng(POOL_SEED, 3, idx), n,
                                                mode, arch)
                    a, = _rotated(seed, (3, idx), (core,))
                    idx += 1
                    want = gen.CONVERGENT[arch]

                    def call(a=a, route=route):
                        return getattr(lti, route)(a)

                    def check(out, want=want):
                        if bool(out.feasible) != want:
                            return (f"route answers feasible={out.feasible}, "
                                    f"archetype convergent={want}")
                        return None

                    ops.append(Op(f"{route} {arch} n={n}", call, check,
                                  inputs={"a": a}))
    return ops


# ---------------------------------------------------------- network-kernel

def check_membership(res, mats, x, want: bool | None) -> str | None:
    """A feasible answer must carry a simplex weight that freezes x, as
    recomputed here; want, when given, is the known answer."""
    if want is not None and bool(res.feasible) != want:
        return f"membership answers {res.feasible}, truth is {want}"
    if not res.feasible:
        return None
    w = np.asarray(res.w, dtype=float)
    if w.shape != (len(mats),) or w.min() < -SIMPLEX_TOL or \
            abs(w.sum() - 1.0) > SIMPLEX_TOL:
        return "membership weight is not in the simplex"
    x = np.asarray(x, dtype=float)
    scale = 1.0 + max(float(np.abs(a).max()) for a in mats)
    resid = float(np.linalg.norm(sum(wi * a for wi, a in zip(w, mats)) @ x))
    if resid > MEMBERSHIP_TOL * scale * float(np.linalg.norm(x)):
        return f"A(w) x does not vanish ({resid:.3e})"
    return None


def _membership_op(label, family, x, want, fault=None) -> Op:
    def call():
        return lasalle.weak_kernel_membership(family, x)

    def check(res):
        return check_membership(res, family.matrices, x, want)

    return Op(label, call, check, fault, {"family": family, "x": x})


def _scan_op(label, family, trivial: bool) -> Op:
    def call():
        return lasalle.weak_kernel_triviality_scan(family)

    def check(scan):
        if bool(scan.likely_trivial) != trivial:
            return f"scan answers likely_trivial={scan.likely_trivial}"
        if trivial:
            return None
        x = scan.witness.x
        if float(np.linalg.norm(x)) < 1e-12:
            return "scan witness is the zero state"
        return check_membership(scan.witness, family.matrices, x, True)

    return Op(label, call, check, inputs={"family": family})


def explicit_segments(rng, m: int, t_end: float, dirichlet: bool):
    """Random piecewise-constant weights covering [0, t_end]."""
    segs = []
    t = 0.0
    while t < t_end:
        dur = float(rng.uniform(0.2, 1.0))
        if dirichlet:
            w = rng.dirichlet(np.ones(m))
        else:
            w = np.zeros(m)
            w[rng.integers(0, m)] = 1.0
        segs.append((dur, w))
        t += dur
    return segs


SIM_T_END = 20.0
SIM_DT = 0.01
SIM_CHECK_STRIDE = 20


def check_simulation(traj, mats, segs, x0, invariant: str) -> str | None:
    """States against the benchmark's own expm chain (every
    SIM_CHECK_STRIDE-th sample and the last), and the family's invariant:
    'hull' keeps every state inside [min x0, max x0]; 'mass' keeps sum x."""
    times = np.asarray(traj.times)
    states = np.asarray(traj.states)
    if states.shape != (times.shape[0], len(x0)) or \
            abs(times[-1] - SIM_T_END) > 1e-9 or times[0] != 0.0:
        return "trajectory has the wrong shape or horizon"
    want = set(range(0, times.shape[0], SIM_CHECK_STRIDE))
    want.add(times.shape[0] - 1)
    x_seg = np.asarray(x0, dtype=float)
    t_seg = 0.0
    tol = STATE_TOL * (1.0 + float(np.abs(x_seg).max()))
    j = 0
    for idx, (dur, w) in enumerate(segs):
        a = sum(wi * m for wi, m in zip(w, mats))
        t_next = t_seg + dur
        last = idx == len(segs) - 1
        while j < times.shape[0] and (last or times[j] < t_next - 1e-12 *
                                      max(1.0, t_next)):
            if j in want:
                ref = scipy.linalg.expm(a * (times[j] - t_seg)) @ x_seg
                if float(np.abs(states[j] - ref).max()) > tol:
                    return f"state at t={times[j]:g} differs from expm chain"
            j += 1
        x_seg = scipy.linalg.expm(a * min(dur, SIM_T_END - t_seg)) @ x_seg
        t_seg = t_next
        if t_seg >= SIM_T_END:
            break
    x0 = np.asarray(x0, dtype=float)
    if invariant == "hull":
        if states.min() < x0.min() - tol or states.max() > x0.max() + tol:
            return "state leaves the initial consensus hull"
    elif float(np.abs(states.sum(axis=1) - x0.sum()).max()) > tol:
        return "mass is not conserved"
    return None


def _sim_op(label, family, rng, invariant: str, dirichlet: bool) -> Op:
    segs = explicit_segments(rng, family.m_count, SIM_T_END, dirichlet)
    x0 = rng.uniform(0.0, 1.0, family.n)
    signal = sim.SwitchingSignal.explicit(segs)

    def call():
        return sim.simulate_ct(family, signal, x0, SIM_T_END, SIM_DT)

    def check(traj):
        return check_simulation(traj, family.matrices, segs, x0, invariant)

    return Op(label, call, check, inputs={"family": family, "x0": x0})


def _consensus_fault(res) -> bool:
    return not res.feasible


def _relabeled(rng, mats) -> list:
    """The matrices with their nodes relabeled by a seeded permutation,
    which keeps Metzler, zero-sum and ring structure."""
    perm = rng.permutation(len(mats[0]))
    return [a[np.ix_(perm, perm)] for a in mats]


def network_kernel(seed: int) -> list:
    """41 operations: 3 known-fault memberships on fixed inputs, 5 seeded
    memberships, 14 simulations, 12 scans of dissipative families and
    7 scans of ring opinion families (n = 4-10).

    Families come from the fixed pool (POOL_SEED) with their nodes
    relabeled by the seed (dissipative ones rotated instead); states,
    initial conditions and switching signals are drawn from the seed.
    """
    ops = []
    pool = _rng(POOL_SEED, 4)
    r = _rng(seed, 4)

    def kolmogorov(kind, n, m):
        return examples.kolmogorov_family(kind, _relabeled(
            r, gen.generator_matrices(pool, n, m, kind)))

    def opinion(n):
        lap, = _relabeled(r, [gen.ring_laplacian(pool, n)])
        return examples.opinion_family(lap)

    def dissipative(n, m):
        mats = gen.dissipative_matrices(pool, n, m)
        return MatrixFamily("ct", _rotated(seed, (4, n, m), mats))

    # the known fault, on inputs fixed apart from the seed: their rows sum
    # to zero only up to rounding, so A_i 1 is rounding noise, which the
    # simplex-membership LP scales up to O(1) and then calls infeasible
    for n, m, fixed_seed in ((6, 3, 20260101), (5, 3, 20260102),
                             (8, 2, 20260103)):
        fam = examples.kolmogorov_family("row", gen.generator_matrices(
            np.random.default_rng(fixed_seed), n, m, "row"))
        ops.append(_membership_op(
            f"membership consensus row n={n} m={m}", fam,
            np.ones(n) / np.sqrt(n), True, _consensus_fault))
    for n in (5, 9):
        fam = kolmogorov("column", n, 3)
        x = np.linalg.svd(fam.matrices[0])[2][-1]
        ops.append(_membership_op(f"membership stationary column n={n}",
                                  fam, x, True))
    for n in (6, 8):
        fam = opinion(n)
        x = np.linalg.svd(fam.matrices[1])[2][-1]
        ops.append(_membership_op(f"membership vertex-kernel opinion n={n}",
                                  fam, x, True))
    ops.append(_membership_op("membership dissipative n=7",
                              dissipative(7, 3), r.standard_normal(7),
                              False))
    for n in (4, 5, 6, 7, 8, 9, 10):
        ops.append(_sim_op(f"simulate row n={n}", kolmogorov("row", n, 3),
                           r, "hull", n % 2 == 0))
        ops.append(_sim_op(f"simulate column n={n}",
                           kolmogorov("column", n, 2 + n % 3), r, "mass",
                           n % 2 == 1))
    for n in (4, 6, 8, 10):
        for m in (2, 3, 4):
            ops.append(_scan_op(f"scan dissipative n={n} m={m}",
                                dissipative(n, m), True))
    for n in range(4, 11):
        ops.append(_scan_op(f"scan opinion ring n={n}", opinion(n), False))
    return ops


BUILDERS = {"cqlf-scaling": cqlf_scaling, "witness-search": witness_search,
            "lti-routes": lti_routes, "network-kernel": network_kernel}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](seed)
