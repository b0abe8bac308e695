import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.linalg import solve_continuous_lyapunov, solve_discrete_lyapunov
from scipy.optimize import linprog

from polyconv.errors import InputError
from polyconv.feasibility import (
    FEASIBLE,
    Constraint,
    LmiProblem,
    Term,
    VarBlock,
    dual_ratios,
    evaluate_constraint,
    lp_simplex_membership,
    sdp_feasible,
    verify_dual,
    verify_lmi,
)
from polyconv.linalg import Tolerances

TOL = Tolerances()
I1 = np.eye(1)


def dt_lyapunov_problem(a):
    """exists P > 0: A'PA - P <= 0."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    con = Constraint("lyap", n, (
        Term("P", 1.0, a, a),
        Term("P", -1.0, np.eye(n), np.eye(n)),
    ))
    return LmiProblem([VarBlock("P", n)], [con])


def ct_lyapunov_problem(a):
    """exists P > 0: A'P + PA <= 0."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    con = Constraint("lyap", n, (Term("P", 2.0, a, np.eye(n)),))
    return LmiProblem([VarBlock("P", n)], [con])


def weak_scalar_problem(a_val, eta):
    a = np.array([[a_val]])
    con = Constraint("weak", 1, (
        Term("P", eta, a, a),
        Term("P", -eta, I1, I1),
        Term("P", 1.0 - eta, a - I1, a - I1),
    ))
    return LmiProblem([VarBlock("P", 1)], [con])


# ---------------------------------------------------------------- solver

def test_no_constraints_is_feasible():
    res = sdp_feasible(LmiProblem([VarBlock("P", 2)], []))
    assert res.feasible
    assert np.linalg.eigvalsh(res.values["P"])[0] >= TOL.psd_margin


def test_zero_size_variable_is_feasible_and_verifies():
    prob = LmiProblem([VarBlock("P", 0)], [])
    res = sdp_feasible(prob)
    assert res.feasible
    assert res.values["P"].shape == (0, 0)
    assert verify_lmi(prob, res.values)["pass"]


def test_scalar_contraction_feasible():
    res = sdp_feasible(dt_lyapunov_problem([[0.5]]))
    assert res.feasible
    assert verify_lmi(dt_lyapunov_problem([[0.5]]), res.values)["pass"]


def test_scalar_expansion_infeasible():
    res = sdp_feasible(dt_lyapunov_problem([[1.1]]))
    assert not res.feasible


def test_weak_scalar_eta_threshold():
    # constraint reduces to (0.25 - eta) p <= 0: feasible iff eta >= 0.25
    assert sdp_feasible(weak_scalar_problem(0.5, 0.9)).feasible
    assert not sdp_feasible(weak_scalar_problem(0.5, 0.1)).feasible


def test_ct_lyapunov_2x2():
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    prob = ct_lyapunov_problem(a)
    res = sdp_feasible(prob)
    assert res.feasible
    report = verify_lmi(prob, res.values)
    assert report["pass"]
    assert report["constraint_max_eigs"]["lyap"] <= TOL.residual_tol


def test_two_variable_problem():
    # A'PA - P + (A-I)'Q(A-I) <= 0 with P, Q > 0 for a Schur A
    a = np.array([[0.5, 0.2], [0.0, 0.4]])
    n = 2
    con = Constraint("mixed", n, (
        Term("P", 1.0, a, a),
        Term("P", -1.0, np.eye(n), np.eye(n)),
        Term("Q", 1.0, a - np.eye(n), a - np.eye(n)),
    ))
    prob = LmiProblem([VarBlock("P", n), VarBlock("Q", n)], [con])
    res = sdp_feasible(prob)
    assert res.feasible
    assert verify_lmi(prob, res.values)["pass"]


def test_shape_validation():
    con = Constraint("bad", 2, (Term("P", 1.0, np.eye(3), np.eye(3)),))
    with pytest.raises(InputError):
        sdp_feasible(LmiProblem([VarBlock("P", 2)], [con]))


# ---------------------------------------------------------------- verify

def test_verify_accepts_stable_identity():
    a = np.diag([-1.0, -2.0])
    prob = ct_lyapunov_problem(a)
    report = verify_lmi(prob, {"P": np.eye(2)})
    assert report["pass"]
    assert report["constraint_max_eigs"]["lyap"] == pytest.approx(-2.0)


def test_verify_rejects_unstable_identity():
    prob = ct_lyapunov_problem(np.array([[1.0]]))
    report = verify_lmi(prob, {"P": I1.copy()})
    assert not report["pass"]
    assert report["constraint_max_eigs"]["lyap"] == pytest.approx(2.0)


def test_verify_ct_genuinely_convergent_with_kernel():
    # A = [[-1,0],[1,0]]: eigenvalues {-1, 0}, 0 semisimple; the eps-damped
    # form A'P + PA + eps*A'PA <= 0 admits P > 0 at small eps
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    eps = 0.1
    con = Constraint("damped", 2, (
        Term("P", 2.0, a, np.eye(2)),
        Term("P", eps, a, a),
    ))
    prob = LmiProblem([VarBlock("P", 2)], [con])
    res = sdp_feasible(prob)
    assert res.feasible
    assert verify_lmi(prob, res.values)["pass"]


def test_verify_defective_zero_not_certified():
    # A = [[0,0],[1,0]] has a defective zero eigenvalue (not convergent);
    # exact feasibility would force P22 = 0, contradicting P > 0
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    eps = 0.1
    con = Constraint("damped", 2, (
        Term("P", 2.0, a, np.eye(2)),
        Term("P", eps, a, a),
    ))
    prob = LmiProblem([VarBlock("P", 2)], [con])
    res = sdp_feasible(prob)
    assert not res.feasible


def test_verify_rejects_corruption():
    # a non-normal Schur matrix: P must weigh the second coordinate, so
    # swapping the coordinates keeps P's spectrum but breaks the decay
    prob = dt_lyapunov_problem([[0.5, 2.0], [0.0, 0.5]])
    res = sdp_feasible(prob)
    assert res.feasible
    report = verify_lmi(prob, {"P": res.values["P"][::-1, ::-1]})
    assert not report["pass"]
    assert report["var_min_eigs"]["P"] >= TOL.psd_margin
    assert report["constraint_max_eigs"]["lyap"] > 0.0


def test_verify_rejects_asymmetry():
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    prob = ct_lyapunov_problem(a)
    res = sdp_feasible(prob)
    bad = res.values["P"].copy()
    bad[0, 1] += 1e-3
    assert not verify_lmi(prob, {"P": bad})["pass"]


def test_evaluate_constraint_arithmetic():
    a = np.array([[0.5]])
    con = Constraint("c", 1, (
        Term("P", 1.0, a, a),
        Term("P", -1.0, I1, I1),
    ))
    val = evaluate_constraint(con, {"P": np.array([[2.0]])})
    assert val[0, 0] == pytest.approx(2.0 * 0.25 - 2.0)


@given(st.integers(2, 4), st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_solver_certifies_schur_matrices(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(m)))
    m *= 0.7 / rho
    res = sdp_feasible(dt_lyapunov_problem(m))
    assert res.feasible


@given(st.integers(2, 4), st.integers(0, 200))
@settings(max_examples=10, deadline=None)
def test_solver_rejects_expanding_matrices(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(m)))
    m *= 1.3 / rho
    prob = dt_lyapunov_problem(m)
    assert not sdp_feasible(prob).feasible
    f = eigen_factor(m, lambda lam: np.abs(lam) >= 1.0)
    assert verify_dual(prob, {"lyap": f})["pass"]


# ---------------------------------------------------------------- duals

def eigen_factor(a, keep=None):
    """[Re V, Im V] over the eigenvectors of a selected by keep(lam)."""
    lam, vec = np.linalg.eig(np.asarray(a, dtype=float))
    sel = np.ones(lam.shape, bool) if keep is None else keep(lam)
    return np.hstack([vec[:, sel].real, vec[:, sel].imag])


def test_dual_accepts_unstable_eigenvector():
    # W = (1.2^2 - 1) e1 e1' >= 0 against tr Z = 1
    prob = dt_lyapunov_problem(np.diag([1.2, 0.5]))
    report = verify_dual(prob, {"lyap": np.array([[1.0], [0.0]])})
    assert report["pass"]
    a, _ = dual_ratios(TOL)
    assert report["margin"] == pytest.approx(0.44 - a, rel=1e-6)


def test_dual_accepts_rotation_eigenvectors():
    c, s = np.cos(0.4), np.sin(0.4)
    a = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.3]])
    # damped DT form at eta: W = (|lam - 1|^2) Re(vv*) on the rotation
    eta = 0.9
    con = Constraint("damped", 3, (
        Term("P", eta / (1 - eta), a, a),
        Term("P", -eta / (1 - eta), np.eye(3), np.eye(3)),
        Term("P", 1.0, a - np.eye(3), a - np.eye(3)),
    ))
    prob = LmiProblem([VarBlock("P", 3)], [con])
    f = eigen_factor(a, lambda lam: np.abs(lam) > 0.99)
    assert verify_dual(prob, {"damped": f})["pass"]


@pytest.mark.parametrize("mode", ["dt", "ct"])
@pytest.mark.parametrize("seed", range(4))
def test_dual_rejects_eigenvectors_of_a_convergent_matrix(mode, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3))
    if mode == "dt":
        m *= 0.8 / max(abs(np.linalg.eigvals(m)))
        prob = dt_lyapunov_problem(m)
    else:
        m -= (max(np.linalg.eigvals(m).real) + 0.2) * np.eye(3)
        prob = ct_lyapunov_problem(m)
    report = verify_dual(prob, {"lyap": eigen_factor(m)})
    assert not report["pass"]
    # and the problem does have a certificate
    assert sdp_feasible(prob).feasible


def test_dual_rejects_negative_part_beyond_the_bound():
    # W = 0.44 e1 e1' - 0.75 t^2 e2 e2': its negative part weighs
    # 1 / (STRICT_SEP * residual_tol) = 1e6 against the positive one, so
    # t = 1e-4 passes and t = 1e-3 (still 0.44 >> 0.75e-6) does not
    prob = dt_lyapunov_problem(np.diag([1.2, 0.5]))
    assert verify_dual(prob, {"lyap": np.array([[1.0], [1e-4]])})["pass"]
    assert not verify_dual(prob, {"lyap": np.array([[1.0], [1e-3]])})["pass"]


def test_dual_rejects_zero_factors():
    prob = dt_lyapunov_problem(np.diag([1.2, 0.5]))
    assert not verify_dual(prob, {})["pass"]
    assert not verify_dual(prob, {"lyap": np.zeros((2, 1))})["pass"]


def test_dual_validates_factor_names_and_shapes():
    prob = dt_lyapunov_problem(np.diag([1.2, 0.5]))
    with pytest.raises(InputError):
        verify_dual(prob, {"other": np.ones((2, 1))})
    with pytest.raises(InputError):
        verify_dual(prob, {"lyap": np.ones((3, 1))})


@given(st.integers(0, 10**6), st.floats(0.6, 1.4), st.sampled_from(["dt", "ct"]),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
# at spectral radius exactly 1 the DT Lyapunov equation is singular
@example(seed=0, radius=1.0, mode="dt", n=1)
def test_no_problem_passes_both_checks(seed, radius, mode, n):
    # near-critical Lyapunov problems with the natural candidate on each
    # side: the Lyapunov solution for verify_lmi, unstable eigenvectors,
    # all eigenvectors and a random factor for verify_dual
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    with warnings.catch_warnings():
        # near-critical inputs make the Lyapunov solve ill-posed
        warnings.simplefilter("ignore", RuntimeWarning)
        if mode == "dt":
            m *= radius / max(abs(np.linalg.eigvals(m)))
            prob = dt_lyapunov_problem(m)
            solve = lambda: solve_discrete_lyapunov(m.T, np.eye(n))
            bad = lambda lam: np.abs(lam) >= 1.0
        else:
            m += (radius - 1.0 - max(np.linalg.eigvals(m).real)) * np.eye(n)
            prob = ct_lyapunov_problem(m)
            solve = lambda: solve_continuous_lyapunov(m.T, -np.eye(n))
            bad = lambda lam: lam.real >= 0.0
        try:
            lyap = solve()
        except np.linalg.LinAlgError:
            # a singular equation has no Lyapunov candidate; P = I remains
            lyap = np.full((n, n), np.nan)
    lyap = 0.5 * (lyap + lyap.T)
    certified = [verify_lmi(prob, {"P": p})["pass"]
                 for p in (lyap, np.eye(n))
                 if np.all(np.isfinite(p)) and np.abs(p).max() < 1e12]
    duals = [verify_dual(prob, {"lyap": f})["pass"]
             for f in (eigen_factor(m, bad), eigen_factor(m),
                       rng.standard_normal((n, 2)))]
    assert not (any(certified) and any(duals))


# ---------------------------------------------------------------- simplex LP

def test_lp_picks_zero_column():
    w = lp_simplex_membership(np.array([[-1.0, 0.0], [0.0, 0.0]]))
    assert w is not None
    assert np.allclose(w, [0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("k", [1e-16, 1e-8, 1.0, 1e8])
def test_lp_answer_does_not_depend_on_scale(k):
    # small columns are not zero columns: only their directions count
    assert lp_simplex_membership(k * np.array([[-1.0, 0.0],
                                               [0.0, -1.0]])) is None
    w = lp_simplex_membership(k * np.array([[2.0, -1.0]]))
    assert w is not None
    assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_lp_transverse_columns_infeasible():
    assert lp_simplex_membership(np.array([[-1.0, 0.0], [0.0, -1.0]])) is None


def test_lp_single_zero_column():
    w = lp_simplex_membership(np.zeros((2, 1)))
    assert w is not None
    assert w[0] == pytest.approx(1.0)


def test_lp_interior_combination():
    # columns 2 and -1: 2*w1 - w2 = 0 with w1 + w2 = 1 -> (1/3, 2/3)
    w = lp_simplex_membership(np.array([[2.0, -1.0]]))
    assert w is not None
    assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_lp_strictly_positive_rows_infeasible():
    m = np.array([[0.5, 1.0, 0.2], [0.0, -1.0, 3.0]])
    assert lp_simplex_membership(m) is None


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_lp_finds_planted_solutions(nrow, ncol, seed):
    rng = np.random.default_rng(seed)
    wstar = rng.random(ncol) + 0.1
    wstar /= wstar.sum()
    m = rng.standard_normal((nrow, ncol))
    m[:, -1] = -(m[:, :-1] @ wstar[:-1]) / wstar[-1]
    w = lp_simplex_membership(m)
    assert w is not None
    assert np.linalg.norm(m @ w) <= TOL.residual_tol * (1 + np.abs(m).max())
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.all(w >= -1e-12)


def _linprog_feasible(m) -> bool:
    """The oracle: is {w in the simplex : M w = 0} nonempty, by HiGHS."""
    nrow, ncol = m.shape
    res = linprog(np.zeros(ncol), A_eq=np.vstack([m, np.ones((1, ncol))]),
                  b_eq=np.r_[np.zeros(nrow), 1.0], bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def _loop_simplex(m):
    """The phase-1 Bland simplex of lp_simplex_membership written with
    scalar loops, the reference its array version must match bit for bit
    (it returns the unnormalized w, or None when the optimum is positive)."""
    nrow, ncol = m.shape
    scale = float(np.abs(m).max())
    rows, cols = nrow + 1, ncol + nrow + 1
    a = np.zeros((rows, cols + 1))
    a[:nrow, :ncol] = m / scale if scale > 0 else m
    a[nrow, :ncol] = 1.0
    a[:, ncol:ncol + rows] = np.eye(rows)
    a[nrow, cols] = 1.0
    basis = list(range(ncol, ncol + rows))
    while True:
        art_rows = [i for i, bv in enumerate(basis) if bv >= ncol]
        red = [(1.0 if j >= ncol else 0.0) - sum(a[i, j] for i in art_rows)
               for j in range(cols)]
        entering = next((j for j in range(cols)
                         if j not in basis and red[j] < -1e-9), -1)
        if entering < 0:
            break
        r = min((a[i, cols] / a[i, entering], basis[i], i)
                for i in range(rows) if a[i, entering] > 1e-11)[2]
        a[r] /= a[r, entering]
        for i in range(rows):
            if i != r and abs(a[i, entering]) > 0:
                a[i] -= a[i, entering] * a[r]
        basis[r] = entering
    if sum(a[i, cols] for i, bv in enumerate(basis) if bv >= ncol) > 1e-9:
        return None
    w = np.zeros(ncol)
    for i, bv in enumerate(basis):
        if bv < ncol:
            w[bv] = a[i, cols]
    return np.maximum(w, 0.0)


@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_lp_matches_the_loop_simplex(nrow, ncol, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((nrow, ncol))
    if seed % 2:
        # a planted simplex point, so that the LP pivots to feasibility
        wstar = rng.random(ncol) + 0.1
        m[:, -1] = -(m[:, :-1] @ wstar[:-1]) / wstar[-1]
    want = _loop_simplex(m)
    if want is not None and want.sum() > 0:
        want = want / want.sum()
        if np.linalg.norm(m @ want) > TOL.residual_tol * (
                1.0 + np.abs(m).max()):
            want = None
    else:
        want = None
    w = lp_simplex_membership(m)
    assert (w is None) == (want is None)
    assert w is None or np.array_equal(w, want)


@given(st.data(), st.integers(1, 5), st.integers(2, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lp_agrees_with_highs(data, nrow, ncol, planted):
    # entries on a coarse grid keep M well conditioned, where HiGHS's own
    # tolerances decide reliably (at entries near 1e-9 it can call a
    # planted-feasible M infeasible)
    entries = st.integers(-4, 4).map(lambda k: k / 4.0)
    m = np.array(data.draw(st.lists(entries, min_size=nrow * ncol,
                                    max_size=nrow * ncol))).reshape(nrow, ncol)
    if planted:
        # a planted simplex point w* with M w* = 0
        wstar = np.array(data.draw(st.lists(
            st.integers(1, 8), min_size=ncol, max_size=ncol)), dtype=float)
        wstar /= wstar.sum()
        m[:, -1] = -(m[:, :-1] @ wstar[:-1]) / wstar[-1]
    else:
        # a planted separating direction c: c'M_j >= 0.1 for every column
        c = np.array(data.draw(st.lists(
            entries, min_size=nrow, max_size=nrow)))
        c[0] = 1.0 if abs(c[0]) < 0.5 else c[0]
        s = c @ m
        m += np.outer(c, (0.1 + np.maximum(-s, 0.0)) / (c @ c))
    w = lp_simplex_membership(m)
    assert (w is not None) == _linprog_feasible(m) == planted
    if planted:
        assert np.linalg.norm(m @ w) <= TOL.residual_tol * (
            1 + np.abs(m).max())
        assert abs(w.sum() - 1.0) < 1e-9 and np.all(w >= 0.0)

