import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyconv.errors import InputError
from polyconv.linalg import (
    Subspace,
    Tolerances,
    kernel,
    matrix_exponential,
    orthogonal_complement,
    rank_and_kernel,
    spectra,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from polyconv.lti import is_semisimple_at

TOL = Tolerances()


def span(*cols):
    b = np.array(cols, dtype=float).T
    q, _ = np.linalg.qr(b)
    return Subspace(q)


def random_matrix(rng, n, scale=3.0):
    return scale * (rng.random((n, n)) - 0.5)


# ---------------------------------------------------------------- rank/kernel

def test_rank_and_kernel_rank_one():
    r, ker = rank_and_kernel([[1.0, 1.0], [1.0, 1.0]])
    assert r == 1
    assert ker.dim == 1
    v = ker.basis[:, 0]
    expect = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(v - expect), np.linalg.norm(v + expect)) < 1e-12


def test_rank_and_kernel_identity():
    r, ker = rank_and_kernel(np.eye(3))
    assert r == 3
    assert ker.dim == 0


def test_kernel_of_singular_row():
    ker = kernel([[1.0, -1.0], [0.0, 0.0]])
    assert ker.dim == 1
    v = ker.basis[:, 0]
    expect = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(v - expect), np.linalg.norm(v + expect)) < 1e-12


def test_kernel_basis_is_orthonormal():
    rng = np.random.default_rng(7)
    m = rng.random((4, 6))
    m[2] = m[0] + m[1]
    _, ker = rank_and_kernel(m)
    g = ker.basis.T @ ker.basis
    assert np.linalg.norm(g - np.eye(ker.dim)) < 1e-12


def test_rejects_nonfinite():
    with pytest.raises(InputError):
        rank_and_kernel([[np.nan, 0.0], [0.0, 1.0]])


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(n, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    if seed % 3 == 0:
        m[:, -1] = m[:, 0]  # force a rank drop sometimes
    r, ker = rank_and_kernel(m)
    assert r + ker.dim == n
    if ker.dim:
        assert np.linalg.norm(m @ ker.basis) < 1e-8 * (1 + np.linalg.norm(m))


# ---------------------------------------------------------------- subspaces

def test_intersection_same_line():
    s = subspace_intersection([span([1, 0]), span([1, 0])])
    assert subspace_equal(s, span([1, 0]))


def test_intersection_transverse_lines():
    s = subspace_intersection([span([1, 0]), span([0, 1])])
    assert s.dim == 0


def test_intersection_of_kernels_two_node_path():
    # kernels of [[-1,1],[0,0]] and [[0,0],[1,-1]] are both span([1,1])
    k1 = kernel([[-1.0, 1.0], [0.0, 0.0]])
    k2 = kernel([[0.0, 0.0], [1.0, -1.0]])
    s = subspace_intersection([k1, k2])
    assert subspace_equal(s, span([1, 1]))


def test_intersection_dimension_mismatch():
    with pytest.raises(InputError):
        subspace_intersection([span([1, 0]), Subspace(np.eye(3))])


def test_orthogonal_complement_line():
    c = orthogonal_complement(span([1, 0]))
    assert subspace_equal(c, span([0, 1]))


def test_orthogonal_complement_trivial():
    c = orthogonal_complement(Subspace(np.zeros((3, 0))))
    assert c.dim == 3
    full = orthogonal_complement(Subspace(np.eye(3)))
    assert full.dim == 0


def test_orthogonal_complement_diagonal_line():
    c = orthogonal_complement(span([1, 1]))
    assert subspace_equal(c, span([1, -1]))


@given(st.integers(2, 6), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_complement_dims_and_orthogonality(n, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(0, n + 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = Subspace(q[:, :d])
    c = orthogonal_complement(s)
    assert s.dim + c.dim == n
    if s.dim and c.dim:
        assert np.linalg.norm(s.basis.T @ c.basis) < 1e-10


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_intersection_monotone(seed):
    rng = np.random.default_rng(seed)
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = Subspace(q[:, :3])
    b = Subspace(q[:, 1:4])
    inter = subspace_intersection([a, b])
    assert subspace_contains(a, inter)
    assert subspace_contains(b, inter)
    both = subspace_intersection([b, a])
    assert subspace_equal(inter, both)


# ---------------------------------------------------------------- spectrum

def test_spectrum_triangular():
    vals = sorted(spectra([[[0.5, 0.0], [1.0, 1.0]]])[0].real)
    assert np.allclose(vals, [0.5, 1.0], atol=1e-12)


def test_spectrum_rotation():
    vals = spectra([[[0.0, -1.0], [1.0, 0.0]]])[0]
    assert np.allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(vals.real, 0.0, atol=1e-12)


def test_spectrum_count_matches_dimension():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 5)
    assert len(spectra([m])[0]) == 5


@given(st.integers(2, 6), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_spectrum_transpose_invariant(n, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    a, b = (np.sort_complex(e) for e in spectra([m, m.T]))
    assert np.allclose(a, b, atol=1e-8 * (1 + np.linalg.norm(m)))


@given(st.integers(2, 5), st.integers(0, 500),
       st.floats(0.01, 2.0))
@settings(max_examples=40, deadline=None)
def test_spectrum_affine_map(n, seed, tau):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    shifted = np.eye(n) + tau * m
    a = np.sort_complex(1.0 + tau * spectra([m])[0])
    b = np.sort_complex(spectra([shifted])[0])
    assert np.allclose(a, b, atol=1e-7 * (1 + np.linalg.norm(shifted)))


# ---------------------------------------------------------------- semisimple

def test_semisimple_identity():
    assert is_semisimple_at(np.eye(2), 1.0)


def test_semisimple_jordan_fails():
    assert not is_semisimple_at([[1.0, 1.0], [0.0, 1.0]], 1.0)


def test_semisimple_triangular_with_simple_one():
    assert is_semisimple_at([[0.5, 0.0], [1.0, 1.0]], 1.0)


def test_semisimple_vacuous_when_not_eigenvalue():
    assert is_semisimple_at([[0.5, 0.0], [0.0, 0.25]], 1.0)


def test_semisimple_defective_zero():
    assert not is_semisimple_at([[0.0, 1.0], [0.0, 0.0]], 0.0)
    assert is_semisimple_at(np.zeros((3, 3)), 0.0)


def test_semisimple_block_combined():
    # semisimple eigenvalue 1 of multiplicity 2 next to a stable block
    a = np.diag([1.0, 1.0, 0.3])
    assert is_semisimple_at(a, 1.0)
    b = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.3]])
    assert not is_semisimple_at(b, 1.0)


# ---------------------------------------------------------------- exponential

def test_expm_zero():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    e = matrix_exponential(np.diag([-1.0, 0.0]))
    assert np.allclose(e, np.diag([np.exp(-1.0), 1.0]), atol=1e-14)


@given(st.integers(1, 5), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_expm_group_inverse(n, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n, scale=2.0)
    e = matrix_exponential(m) @ matrix_exponential(-m)
    assert np.linalg.norm(e - np.eye(n)) < 1e-10 * np.exp(
        2 * np.linalg.norm(m, 2))
