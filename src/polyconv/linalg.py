"""Dense linear-algebra primitives used by every other module.

Everything here operates on small dense real matrices (systems of dimension
a few dozen at most).  Rank decisions are made through SVD with a relative
cutoff; eigenvalue multiplicity questions are answered through the nested
kernel test rather than by trusting eigenvalue clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError

__all__ = [
    "Tolerances",
    "Subspace",
    "Spectrum",
    "as_matrix",
    "rank_and_kernel",
    "kernel",
    "subspace_intersection",
    "subspace_contains",
    "subspace_equal",
    "orthogonal_complement",
    "spectrum",
    "is_semisimple_at",
    "matrix_exponential",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs shared across the package.

    rank_rel: relative singular-value cutoff for rank decisions.
    psd_margin: definiteness margin delta for strict LMI variables.
    residual_tol: acceptance slack for <= 0 constraint residuals and
        algebraic identity checks.
    sim_tol: convergence/Cauchy threshold for simulated trajectories.

    An analysis decides at one Tolerances, and the objects it computes
    carry them: KernelFacts.tol (and so AnalysisReport.facts.tol),
    LmiProblem.tol, and the report's tolerances section.  Downstream code
    reads them from there: report_to_dict records facts.tol, verify_lmi
    and verify_dual check at problem.tol, and verify_report re-checks at
    the report's tolerances section.
    """

    rank_rel: float = 1e-10
    psd_margin: float = 1e-8
    residual_tol: float = 1e-7
    sim_tol: float = 1e-8

    def __post_init__(self):
        for key, value in vars(self).items():
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value) or value <= 0):
                raise InputError(f"tolerance {key!r} must be a finite "
                                 f"positive number, got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^n given by an orthonormal basis (n x d, d may be 0)."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise InputError("subspace basis must be a 2-d array")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ x)

    def distance(self, x: np.ndarray) -> float:
        """Euclidean distance from x to the subspace."""
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.project(x)))


@dataclass(frozen=True)
class Spectrum:
    """All n eigenvalues with algebraic multiplicity (complex, sorted by
    (real, imag)).  Multiplicity questions go through the nested kernel
    test, not through eigenvalue clustering."""

    eigenvalues: np.ndarray


def as_matrix(a, square: bool = True, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a float ndarray."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def _svd_cutoff(s: np.ndarray, shape, rank_rel: float, scale: float) -> float:
    smax = s[0] if s.size else 0.0
    return rank_rel * max(smax, scale) * max(shape)


def rank_and_kernel(a, tol: Tolerances = DEFAULT_TOL, scale: float = 0.0):
    """Numerical rank and an orthonormal kernel basis via SVD.

    scale, when positive, guards the cutoff for matrices that are small
    because of cancellation (e.g. A - I with A near I): singular values
    below rank_rel * max(sigma_max, scale) * max(shape) count as zero.
    Returns (rank, Subspace).
    """
    m = as_matrix(a, square=False)
    if m.shape[1] == 0:
        return 0, Subspace(np.zeros((0, 0)))
    try:
        u, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD failed: {e}") from None
    cutoff = _svd_cutoff(s, m.shape, tol.rank_rel, scale)
    rank = int(np.sum(s > cutoff))
    basis = vt[rank:].T.copy()
    return rank, Subspace(basis)


def kernel(a, tol: Tolerances = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    return rank_and_kernel(a, tol, scale)[1]


def subspace_intersection(spaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of subspaces of a common ambient space.

    Computed as the kernel of the stacked projector complements: x is in
    every S_i iff (I - B_i B_i^T) x = 0 for all i.  A single subspace is
    returned as it is.
    """
    spaces = list(spaces)
    if not spaces:
        raise InputError("need at least one subspace")
    n = spaces[0].ambient_dim
    for s in spaces:
        if s.ambient_dim != n:
            raise InputError("subspaces live in different ambient dimensions")
    if len(spaces) == 1:
        return spaces[0]
    rows = [np.eye(n) - s.basis @ s.basis.T for s in spaces]
    stacked = np.vstack(rows)
    # projector stack has O(1) scale; guard keeps the cutoff meaningful
    return kernel(stacked, tol, scale=1.0)


def subspace_contains(outer: Subspace, inner: Subspace,
                      tol: Tolerances = DEFAULT_TOL) -> bool:
    """True if inner is contained in outer (at tolerance)."""
    if inner.dim == 0:
        return True
    if inner.ambient_dim != outer.ambient_dim:
        raise InputError("ambient dimension mismatch")
    resid = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
    return float(np.linalg.norm(resid, 2)) <= 1e3 * tol.rank_rel * max(
        1.0, inner.ambient_dim)


def subspace_equal(a: Subspace, b: Subspace,
                   tol: Tolerances = DEFAULT_TOL) -> bool:
    return (a.dim == b.dim and subspace_contains(a, b, tol)
            and subspace_contains(b, a, tol))


def orthogonal_complement(s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the orthogonal complement within R^n."""
    n = s.ambient_dim
    if s.dim == 0:
        return Subspace(np.eye(n))
    if s.dim == n:
        return Subspace(np.zeros((n, 0)))
    # complement = kernel of B^T; B has orthonormal columns so sigma ~ 1
    return kernel(s.basis.T, tol, scale=1.0)


def _sorted_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def spectrum(a) -> Spectrum:
    """Eigenvalues, sorted by (real, imag)."""
    m = as_matrix(a)
    if m.shape[0] == 0:
        return Spectrum(np.zeros(0, dtype=complex))
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue computation failed: {e}") from None
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite eigenvalues")
    return Spectrum(_sorted_eigs(vals))


def nested_kernel_dims(a, lam0: float, tol: Tolerances = DEFAULT_TOL):
    """dim ker(A - lam0 I) and dim ker((A - lam0 I)^2), with the scale.

    The rank cutoffs are guarded by scale = 1 + ||A|| + |lam0| (squared for
    the squared matrix), so that e.g. A = I at lam0 = 1 resolves exactly
    even though A - I vanishes.  Returns (d1, d2, scale).
    """
    m = as_matrix(a)
    n = m.shape[0]
    scale = 1.0 + float(np.linalg.norm(m, 2)) + abs(lam0) if n else 1.0
    shifted = m - lam0 * np.eye(n)
    d1 = kernel(shifted, tol, scale=scale).dim
    d2 = kernel(shifted @ shifted, tol, scale=scale * scale).dim
    return d1, d2, scale


def is_semisimple_at(a, lam0: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nested kernel test: dim ker(A - lam0 I) == dim ker((A - lam0 I)^2).

    Vacuously true when lam0 is not an eigenvalue (trivial kernel).
    """
    d1, d2, _ = nested_kernel_dims(a, float(lam0), tol)
    return d1 == 0 or d1 == d2


def matrix_exponential(a) -> np.ndarray:
    """exp(A) by scaling-and-squaring Pade (scipy)."""
    m = as_matrix(a)
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    e = scipy.linalg.expm(m)
    if not np.all(np.isfinite(e)):
        raise NumericalError("matrix exponential overflowed")
    return e
