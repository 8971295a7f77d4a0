import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import (
    ConvergenceError,
    EigConfig,
    ValidationError,
    covariance,
    full_eigen_jacobi,
    top_eigen,
    top_eigenpair,
)

from _oracles import eigh_top


def random_psd(n, seed, extra_rows=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n + extra_rows, n))
    return covariance(m)


def test_covariance_identity():
    assert np.array_equal(covariance(np.eye(2)), np.eye(2))


def test_covariance_hand_value():
    c = covariance(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(c, [[10.0, 14.0], [14.0, 20.0]])


def test_covariance_zero():
    c = covariance(np.zeros((3, 4)))
    assert c.shape == (4, 4)
    assert np.all(c == 0)


def test_covariance_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = covariance(rng.standard_normal((7, 6)))
        assert np.array_equal(c, c.T)


def test_covariance_rejects_bad_shape():
    with pytest.raises(ValueError):
        covariance(np.zeros(3))
    with pytest.raises(ValueError):
        covariance(np.zeros((0, 3)))


def test_top_eigenpair_diagonal():
    pair = top_eigenpair(np.diag([4.0, 1.0]))
    assert pair.value == pytest.approx(4.0, abs=1e-10)
    assert pair.vector == pytest.approx([1.0, 0.0], abs=1e-9)
    assert not pair.degenerate


def test_top_eigenpair_closed_form_2x2():
    pair = top_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert pair.value == pytest.approx(3.0, abs=1e-9)
    s = 1.0 / np.sqrt(2.0)
    assert pair.vector == pytest.approx([s, s], abs=1e-9)


def test_top_eigenpair_identity_degenerate_spectrum():
    c = np.eye(5)
    pair = top_eigenpair(c)
    assert pair.value == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-9)
    res = np.linalg.norm(c @ pair.vector - pair.value * pair.vector)
    assert res <= 1e-10 * max(pair.value, 1.0)


def test_top_eigenpair_zero_matrix():
    pair = top_eigenpair(np.zeros((4, 4)))
    assert pair.value == 0.0
    assert np.array_equal(pair.vector, [1.0, 0.0, 0.0, 0.0])
    assert pair.degenerate


def test_top_eigenpair_sign_rule():
    # dominant eigenvector of this matrix points along -e1 if unnormalized;
    # the returned vector must have its largest-magnitude entry nonnegative
    c = covariance(np.array([[-5.0, 0.1], [0.2, 0.3]]))
    pair = top_eigenpair(c)
    i = int(np.argmax(np.abs(pair.vector)))
    assert pair.vector[i] >= 0


def test_top_eigenpair_deterministic():
    c = random_psd(20, seed=5)
    p1 = top_eigenpair(c)
    p2 = top_eigenpair(c)
    assert p1.value == p2.value
    assert np.array_equal(p1.vector, p2.vector)


def test_top_eigenpair_nonconvergence_reports_residual():
    # one update from the all-ones start explores a 2-dimensional subspace
    # of this 3-dimensional problem, so a 1e-10 residual is unreachable
    with pytest.raises(ConvergenceError) as exc:
        top_eigenpair(np.diag([4.0, 3.0, 2.0]), max_iter=1)
    assert exc.value.residual is not None
    assert exc.value.residual > 1e-10


def test_top_eigenpair_ones_in_nullspace_restarts():
    # the all-ones start vector is annihilated by this matrix, forcing the
    # basis-vector restart path
    c = np.array([[1.0, -1.0], [-1.0, 1.0]])
    pair = top_eigenpair(c)
    assert pair.value == pytest.approx(2.0, abs=1e-9)


def test_top_eigenpair_rejects_asymmetric():
    with pytest.raises(ValidationError):
        top_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_top_eigenpair_validates_args():
    c = np.eye(2)
    with pytest.raises(ValueError):
        top_eigenpair(c, tol=0.0)
    with pytest.raises(ValueError):
        top_eigenpair(c, max_iter=0)


def test_jacobi_diagonal():
    pairs = full_eigen_jacobi(np.diag([3.0, 2.0, 1.0]))
    assert [p.value for p in pairs] == [3.0, 2.0, 1.0]


def test_jacobi_closed_form_2x2():
    pairs = full_eigen_jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert pairs[0].value == pytest.approx(3.0, abs=1e-11)
    assert pairs[1].value == pytest.approx(1.0, abs=1e-11)


def test_jacobi_reconstruction_identity():
    c = random_psd(6, seed=3)
    pairs = full_eigen_jacobi(c)
    recon = sum(p.value * np.outer(p.vector, p.vector) for p in pairs)
    assert np.abs(recon - c).max() <= 1e-9


def test_jacobi_matches_lapack():
    for seed in range(5):
        n = 5 + 3 * seed
        c = random_psd(n, seed=seed)
        vals = np.array([p.value for p in full_eigen_jacobi(c)])
        ref = np.linalg.eigvalsh(c)[::-1]
        assert np.abs(vals - ref).max() <= 1e-9 * max(ref[0], 1.0)


def test_jacobi_vectors_orthonormal():
    c = random_psd(12, seed=9)
    v = np.column_stack([p.vector for p in full_eigen_jacobi(c)])
    assert np.abs(v.T @ v - np.eye(12)).max() <= 1e-10


def test_jacobi_zero_matrix():
    pairs = full_eigen_jacobi(np.zeros((3, 3)))
    assert all(p.value == 0.0 for p in pairs)
    assert all(p.degenerate for p in pairs)


def test_jacobi_size_cap():
    with pytest.raises(ValueError, match="512"):
        full_eigen_jacobi(np.eye(513))


def test_power_agrees_with_jacobi_small():
    for seed in range(10):
        c = random_psd(4 + seed, seed=100 + seed)
        lam_p = top_eigenpair(c).value
        lam_j = full_eigen_jacobi(c)[0].value
        assert abs(lam_p - lam_j) <= 1e-8 * max(lam_j, 1.0)


def test_top_eigenvalue_is_squared_operator_norm():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = rng.standard_normal((8, 5))
        c = covariance(m)
        lam = top_eigenpair(c).value
        opnorm = np.linalg.svd(m, compute_uv=False)[0]
        assert lam == pytest.approx(opnorm**2, rel=1e-9)
        assert lam == pytest.approx(eigh_top(c), rel=1e-9)


def test_eig_config_validation():
    with pytest.raises(ValueError):
        EigConfig(method="lanczos")


def test_top_eigen_exact_route():
    c = random_psd(10, seed=77)
    p_exact = top_eigen(c, EigConfig(method="exact"))
    p_power = top_eigen(c, EigConfig(method="power"))
    assert abs(p_exact.value - p_power.value) <= 1e-8 * max(p_exact.value, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_power_vs_jacobi_vs_lapack_property(n, seed):
    c = random_psd(n, seed=seed)
    lam_p = top_eigenpair(c).value
    lam_j = full_eigen_jacobi(c)[0].value
    lam_l = eigh_top(c)
    assert abs(lam_p - lam_j) <= 1e-8 * max(lam_j, 1.0)
    assert abs(lam_j - lam_l) <= 1e-8 * max(lam_l, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**6))
def test_covariance_psd_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    c = covariance(m)
    assert np.array_equal(c, c.T)
    assert np.diag(c).min() >= 0
    assert top_eigenpair(c).value >= -1e-12
