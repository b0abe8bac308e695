"""Dense linear-algebra primitives used by every other module.

Everything here operates on small dense real matrices (systems of dimension
a few dozen at most).  Rank decisions are made through SVD with a relative
cutoff, of one matrix or of each matrix of a stack (svd_stack,
kernel_from_svd); eigenvalue multiplicity questions are answered through
the nested kernel test (lti.VertexPass) rather than by trusting eigenvalue
clustering.
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
    "as_matrix",
    "rank_and_kernel",
    "kernel",
    "kernel_from_svd",
    "svd_stack",
    "norms_2",
    "subspace_intersection",
    "subspace_contains",
    "subspace_equal",
    "subspaces_equal",
    "orthogonal_complement",
    "spectra",
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


def svd_stack(stack, compute_uv: bool = True):
    """np.linalg.svd of a stack of finite matrices, one LAPACK call; each
    slice is bit-identical to the SVD of that matrix alone.
    NumericalError when the SVD fails."""
    try:
        return np.linalg.svd(stack, compute_uv=compute_uv)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD failed: {e}") from None


def norms_2(stack) -> np.ndarray:
    """The spectral norm of each matrix of a nonempty stack, from one SVD
    without vectors (bit-identical to np.linalg.norm(., 2) of each)."""
    return svd_stack(np.asarray(stack), compute_uv=False)[..., 0]


def kernel_from_svd(s: np.ndarray, vt: np.ndarray, shape,
                    tol: Tolerances = DEFAULT_TOL, scale: float = 0.0):
    """Numerical rank and orthonormal kernel basis of a matrix of the given
    shape from its SVD (singular values s, right factor vt), cut as
    rank_and_kernel cuts it.  Returns (rank, Subspace)."""
    cutoff = _svd_cutoff(s, shape, tol.rank_rel, scale)
    rank = int(np.sum(s > cutoff))
    return rank, Subspace(vt[rank:].T.copy())


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
    _, s, vt = svd_stack(m)
    return kernel_from_svd(s, vt, m.shape, tol, scale)


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


def _contained(pairs, tol: Tolerances) -> bool:
    """Whether inner lies in outer (at tolerance) for every (outer, inner)
    pair of one shape, with the residual 2-norms from one stacked SVD."""
    if any(o.ambient_dim != i.ambient_dim for o, i in pairs):
        raise InputError("ambient dimension mismatch")
    resid = [i.basis - o.basis @ (o.basis.T @ i.basis) for o, i in pairs]
    return bool(np.all(norms_2(resid) <= 1e3 * tol.rank_rel * max(
        1.0, pairs[0][1].ambient_dim)))


def subspace_contains(outer: Subspace, inner: Subspace,
                      tol: Tolerances = DEFAULT_TOL) -> bool:
    """True if inner is contained in outer (at tolerance)."""
    return inner.dim == 0 or _contained([(outer, inner)], tol)


def subspaces_equal(spaces, common: Subspace,
                    tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether every subspace of spaces equals common: the same dimension
    and each inside the other (subspace_contains), all the containments
    settled by one stacked SVD."""
    if any(s.dim != common.dim for s in spaces):
        return False
    return common.dim == 0 or _contained(
        [p for s in spaces for p in ((s, common), (common, s))], tol)


def subspace_equal(a: Subspace, b: Subspace,
                   tol: Tolerances = DEFAULT_TOL) -> bool:
    return subspaces_equal((a,), b, tol)


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


def spectra(stack) -> tuple:
    """The eigenvalues of each matrix of a (m, n, n) stack from one LAPACK
    call, each sorted by (real, imag).  Each is real when all its
    imaginary parts are 0, as np.linalg.eigvals returns them for one
    matrix (for a stack it returns complex throughout once any matrix has
    a complex eigenvalue), so each is bit-identical to the eigenvalues of
    its matrix alone.  NumericalError when the eigensolver fails or an
    eigenvalue is not finite."""
    try:
        vals = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue computation failed: {e}") from None
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite eigenvalues")
    return tuple(_sorted_eigs(v if v.imag.any() else v.real) for v in vals)


def matrix_exponential(a) -> np.ndarray:
    """exp(A) by scaling-and-squaring Pade (scipy), of one matrix or of
    each matrix of a stack (..., n, n).  A stack is validated, passed to
    scipy.linalg.expm and checked for overflow once; expm works slice by
    slice, so each slice is bit-identical to the exponential of its matrix
    alone.  InputError for a non-square or non-finite input,
    NumericalError when an exponential overflows."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InputError("matrix must be square or a stack of square "
                         f"matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    if m.size == 0:
        return np.zeros(m.shape)
    e = scipy.linalg.expm(m)
    if not np.all(np.isfinite(e)):
        raise NumericalError("matrix exponential overflowed")
    return e
