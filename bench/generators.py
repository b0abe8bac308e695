"""Seeded input generators with planted truths, written with numpy and scipy
alone.

Every generator returns plain arrays together with what is known about
them by construction (a shared kernel, a quadratic Lyapunov matrix, a
periodic orbit, an archetype's convergence), so the benchmark can check
the program's answers without trusting the program.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sqrt_pair(p: np.ndarray):
    w, u = np.linalg.eigh(p)
    return (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T


def spectral_radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def spectral_abscissa(a: np.ndarray) -> float:
    return float(np.linalg.eigvals(a).real.max())


# ------------------------------------------------------------ cqlf-scaling

def cqlf_family(rng, n: int, m: int, k: int, mode: str) -> dict:
    """m vertices Q [[B_i, 0], [C_i, c I_k]] Q' (c = 0 for CT, 1 for DT).

    The last k columns of Q span the common kernel of every vertex, and
    every off-kernel block B_i decays strictly in the one quadratic form
    P0: B_i'P0 + P0 B_i = -2 R_i with R_i >= I/2 (CT), or
    B_i = P0^-1/2 M_i P0^1/2 with ||M_i|| <= 0.8 (DT).
    """
    r = n - k
    q = orthogonal(rng, n)
    g = rng.standard_normal((r, r))
    p0 = g @ g.T / r + np.eye(r)
    half, half_inv = _sqrt_pair(p0)
    crit = 0.0 if mode == "ct" else 1.0
    mats = []
    for _ in range(m):
        if mode == "ct":
            s = rng.standard_normal((r, r)) / np.sqrt(r)
            h = rng.standard_normal((r, r))
            rr = h @ h.T / r + 0.5 * np.eye(r)
            b = np.linalg.solve(p0, 0.5 * (s - s.T) - rr)
        else:
            mm = rng.standard_normal((r, r))
            mm *= rng.uniform(0.3, 0.8) / np.linalg.norm(mm, 2)
            b = half_inv @ mm @ half
        core = np.zeros((n, n))
        core[:r, :r] = b
        core[r:, :r] = 0.5 * rng.standard_normal((k, r))
        core[r:, r:] = crit * np.eye(k)
        mats.append(q @ core @ q.T)
    return {"matrices": mats, "kernel": q[:, r:], "complement": q[:, :r],
            "p0": p0}


# ---------------------------------------------------------- witness-search

def _plane_pair(rng, mode: str):
    """A random, strongly non-normal 2x2 matrix (before scaling)."""
    u = orthogonal(rng, 2)
    v = orthogonal(rng, 2)
    sig = np.diag([rng.uniform(2.0, 4.0), rng.uniform(0.25, 0.5)])
    a = u @ sig @ v.T
    if mode == "ct":
        a = a - a.trace() / 2.0 * np.eye(2)
    return a


def _cycle_product(blocks, cycle, dwell, mode: str) -> np.ndarray:
    prop = np.eye(blocks[0].shape[0])
    for v in cycle:
        step = (np.linalg.matrix_power(blocks[v], int(dwell)) if mode == "dt"
                else scipy.linalg.expm(blocks[v] * dwell))
        prop = step @ prop
    return prop


def orbit_family(rng, n: int, m: int, mode: str, cycle: tuple,
                 dwell: float, growth: float = 1.0) -> dict:
    """Vertices Q [[R_i, C_i], [0, G_i]] Q' whose 2x2 blocks R_i make the
    period map of (cycle, dwell) have the real dominant eigenvalue
    `growth` on the plane spanned by the first two columns of Q.

    Every vertex is stable on its own (spectral radius <= 0.95 in DT,
    spectral abscissa <= -0.05 in CT), and the filler blocks G_i contract.
    growth = 1 plants a periodic orbit at (cycle, dwell); growth > 1 plants
    a diverging cycle and no orbit.  Built by rejection sampling over the
    2x2 blocks; the number of tries is bounded.
    """
    for _ in range(20000):
        raw = [_plane_pair(rng, mode) for _ in range(m)]
        prod = _cycle_product(raw, cycle, dwell, mode)
        eig = np.linalg.eigvals(prod)
        order = np.argsort(-np.abs(eig))
        lam, lam2 = eig[order[0]], eig[order[1]]
        if abs(lam.imag) > 0 or lam.real <= 0:
            continue
        lam = float(lam.real)
        steps = len(cycle) * dwell
        if mode == "dt":
            s = (growth / lam) ** (1.0 / steps)
            blocks = [s * a for a in raw]
            ok = max(spectral_radius(b) for b in blocks) <= 0.95
        else:
            sigma = (np.log(growth) - np.log(lam)) / steps
            blocks = [a + sigma * np.eye(2) for a in raw]
            ok = max(spectral_abscissa(b) for b in blocks) <= -0.05
        # the second eigenvalue of the period map must contract so the
        # orbit (or the diverging mode) is the only neutral one
        second = abs(lam2) * growth / lam
        if ok and second < 0.5:
            break
    else:
        raise RuntimeError("orbit_family: rejection sampling did not end")
    q = orthogonal(rng, n)
    mats = []
    for b in blocks:
        core = np.zeros((n, n))
        core[:2, :2] = b
        if n > 2:
            g = rng.standard_normal((n - 2, n - 2))
            if mode == "dt":
                g *= rng.uniform(0.1, 0.5) / max(spectral_radius(g), 1e-9)
            else:
                g -= (spectral_abscissa(g) + rng.uniform(0.5, 1.5)) * np.eye(
                    n - 2)
            core[2:, 2:] = g
            core[:2, 2:] = 0.3 * rng.standard_normal((2, n - 2))
        mats.append(q @ core @ q.T)
    return {"matrices": mats, "plane": q[:, :2]}


# -------------------------------------------------------------- lti-routes

ARCHETYPES = ("stable", "unstable", "semisimple-kernel", "jordan",
              "rotation")
CONVERGENT = {"stable": True, "unstable": False, "semisimple-kernel": True,
              "jordan": False, "rotation": False}


def _stable_core(rng, k: int, mode: str) -> np.ndarray:
    g = rng.standard_normal((k, k))
    if mode == "dt":
        return g * (rng.uniform(0.2, 0.85) / max(spectral_radius(g), 1e-9))
    return g - (spectral_abscissa(g) + rng.uniform(0.3, 1.5)) * np.eye(k)


def archetype_matrix(rng, n: int, mode: str, archetype: str) -> np.ndarray:
    """One matrix of the acceptance sweep's five archetypes (n >= 2)."""
    crit = 1.0 if mode == "dt" else 0.0
    if archetype == "stable":
        return _stable_core(rng, n, mode)
    if archetype == "unstable":
        g = rng.standard_normal((n, n))
        if mode == "dt":
            return g * (rng.uniform(1.1, 1.6) / max(spectral_radius(g), 1e-9))
        return g + (rng.uniform(0.1, 1.0) - spectral_abscissa(g)) * np.eye(n)
    q = orthogonal(rng, n)
    core = np.zeros((n, n))
    if archetype == "semisimple-kernel":
        k = 1 if n < 4 else 2
        core[:k, :k] = crit * np.eye(k)
        core[k:, k:] = _stable_core(rng, n - k, mode)
    elif archetype == "jordan":
        core[0, 0] = core[1, 1] = crit
        core[0, 1] = 1.0
        if n > 2:
            core[2:, 2:] = _stable_core(rng, n - 2, mode)
    elif archetype == "rotation":
        theta = rng.uniform(0.3, 2.8)
        if mode == "dt":
            core[:2, :2] = [[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]]
        else:
            core[:2, :2] = [[0.0, theta], [-theta, 0.0]]
        if n > 2:
            core[2:, 2:] = _stable_core(rng, n - 2, mode)
    else:
        raise ValueError(f"unknown archetype {archetype!r}")
    return q @ core @ q.T


# ---------------------------------------------------------- network-kernel

def ring_laplacian(rng, n: int) -> np.ndarray:
    """Weighted ring Laplacian with weights in [0.5, 2)."""
    lap = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        w = rng.uniform(0.5, 2.0)
        lap[i, j] -= w
        lap[j, i] -= w
    lap -= np.diag(lap.sum(axis=1))
    return lap


def generator_matrices(rng, n: int, m: int, stochasticity: str) -> list:
    """m Metzler generators with zero row sums ('row') or zero column
    sums ('column'), off-diagonal rates in [0, 1) on a random half of the
    pairs plus a ring, so every generator is irreducible."""
    mats = []
    for _ in range(m):
        a = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        for i in range(n):
            a[i, (i + 1) % n] = rng.uniform(0.5, 1.0)
        np.fill_diagonal(a, 0.0)
        sums = a.sum(axis=1) if stochasticity == "row" else a.sum(axis=0)
        a -= np.diag(sums)
        mats.append(a)
    return mats


def dissipative_matrices(rng, n: int, m: int) -> list:
    """m vertices with A_i + A_i' <= -I: every A(w) is Hurwitz, hence
    nonsingular, so the weak kernel is {0}."""
    mats = []
    for _ in range(m):
        s = rng.standard_normal((n, n)) / np.sqrt(n)
        h = rng.standard_normal((n, n))
        mats.append(0.5 * (s - s.T) - (h @ h.T / n + 0.5 * np.eye(n)))
    return mats
