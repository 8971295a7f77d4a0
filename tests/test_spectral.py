import itertools
import warnings

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
from msc3 import spectral
from msc3.spectral import _round_robin

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
    # eigh needs no special case: any unit vector is a top eigenvector
    c = np.zeros((4, 4))
    pair = top_eigenpair(c)
    assert pair.value == 0.0
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(c @ pair.vector - pair.value * pair.vector) == 0.0


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
    # a residual tolerance far below float64 rounding is unreachable
    c = random_psd(20, seed=5)
    for arg in (c, np.stack([c, random_psd(20, seed=6)])):
        with pytest.raises(ConvergenceError) as exc:
            top_eigenpair(arg, tol=1e-300)
        assert exc.value.residual is not None
        assert exc.value.residual > 1e-300 * eigh_top(c)


def test_top_eigenpair_ones_in_nullspace():
    # a singular matrix whose null space holds the all-ones vector
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
    # a zero matrix passes the first convergence check before any rotation
    for n in (1, 3, 4):
        pairs = full_eigen_jacobi(np.zeros((n, n)))
        assert all(p.value == 0.0 for p in pairs)
        vecs = np.column_stack([p.vector for p in pairs])
        assert np.array_equal(vecs, np.eye(n))


def test_jacobi_size_cap():
    with pytest.raises(ValueError, match="512"):
        full_eigen_jacobi(np.eye(513))


def _same_pairs(got, want):
    return len(got) == len(want) and all(
        g.value == w.value and np.array_equal(g.vector, w.vector)
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_jacobi_stack_matches_single_solves_bit_for_bit(n):
    # zero matrices, already-diagonal ones and random ones that need a
    # different number of sweeps each
    rng = np.random.default_rng(n)
    mats = [random_psd(n, seed=10 * n + i) for i in range(4)]
    mats += [np.zeros((n, n)), np.diag(rng.standard_normal(n)),
             1e6 * random_psd(n, seed=99), np.zeros((n, n))]
    stack = np.stack(mats)
    got = full_eigen_jacobi(stack)
    assert len(got) == len(mats)
    for pairs, c in zip(got, mats):
        assert _same_pairs(pairs, full_eigen_jacobi(c))


def test_jacobi_stack_in_chunks_matches_single_solves(monkeypatch):
    # a stack larger than one chunk is solved chunk by chunk
    stack = np.stack([random_psd(5, seed=s) for s in range(7)])
    monkeypatch.setattr(spectral, "_JACOBI_CHUNK_BYTES", 3 * 80 * 5 * 5)
    got = full_eigen_jacobi(stack)
    for pairs, c in zip(got, stack):
        assert _same_pairs(pairs, full_eigen_jacobi(c))


def test_jacobi_validates_input():
    stack = np.stack([np.eye(3), np.array([[1.0, 2.0, 0.0],
                                           [0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]])])
    with pytest.raises(ValidationError):
        full_eigen_jacobi(stack)
    with pytest.raises(ValueError):
        full_eigen_jacobi(np.zeros((2, 3, 4)))
    assert full_eigen_jacobi(np.zeros((0, 3, 3))) == []
    for tol_factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol_factor"):
            full_eigen_jacobi(np.eye(3), tol_factor=tol_factor)


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_covers_each_pair_once(n):
    layouts = _round_robin(n)
    m = n + n % 2
    assert layouts.shape == (max(m - 1, 1), m)
    seen = []
    for layout in layouts:
        # a permutation of the indices, so each step's pairs are disjoint
        assert sorted(layout.tolist()) == list(range(m))
        for p, q in layout.reshape(-1, 2).tolist():
            assert p < q
            if q < n:
                seen.append((p, q))
    assert sorted(seen) == list(itertools.combinations(range(n), 2))


@pytest.mark.parametrize("c, kwargs", [
    # theta = 0 on the only pivot
    (np.array([[1.0, 1.0], [1.0, 1.0]]), {}),
    # a pivot below the skip level beside one that is rotated
    (np.array([[1.0, 1e-200, 0.5], [1e-200, 2.0, 0.0], [0.5, 0.0, 3.0]]), {}),
    # the same tiny pivot rotated, with theta near 5e199
    (np.array([[1.0, 1e-200, 0.5], [1e-200, 2.0, 0.0], [0.5, 0.0, 3.0]]),
     {"tol_factor": 1e-300}),
])
def test_jacobi_edge_pivots_raise_no_warning(c, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = full_eigen_jacobi(c, **kwargs)
    vals = np.array([p.value for p in pairs])
    ref = np.linalg.eigvalsh(c)[::-1]
    assert np.abs(vals - ref).max() <= 1e-12 * ref[0]


def test_jacobi_nonconvergence_reports_residual():
    c = random_psd(8, seed=4)
    with pytest.raises(ConvergenceError) as exc:
        full_eigen_jacobi(c, max_sweeps=1)
    assert exc.value.residual > 1e-12 * np.sqrt((c * c).sum())
    stack = np.stack([np.eye(8), c])
    with pytest.raises(ConvergenceError) as exc_stack:
        full_eigen_jacobi(stack, max_sweeps=1)
    assert exc_stack.value.residual == exc.value.residual


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
    [p_exact] = top_eigen([c], EigConfig(method="exact"))
    [p_power] = top_eigen([c], EigConfig(method="power"))
    assert abs(p_exact.value - p_power.value) <= 1e-8 * max(p_exact.value, 1.0)


def _covs(n):
    # a mode's worth of covariances, with a zero one among them
    mats = [random_psd(n, seed=200 + i) for i in range(4)]
    return mats[:2] + [np.zeros((n, n))] + mats[2:]


@pytest.mark.parametrize("n", [1, 6])
def test_top_eigen_power_route_takes_a_generator(n, monkeypatch):
    # on both routes each chunk is solved before the next one is pulled, so
    # at most one chunk is alive at once; the budget here holds 2 matrices
    mats = _covs(n)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * n * n)
    for method, name in (("power", "top_eigenpair"),
                         ("exact", "full_eigen_jacobi")):
        pulled, seen = [], []
        solve = getattr(spectral, name)

        def one_shot():
            for c in mats:
                pulled.append(c)
                yield c

        def traced(chunk):
            seen.append((len(pulled), len(chunk)))
            return solve(chunk)

        monkeypatch.setattr(spectral, name, traced)
        got = top_eigen(one_shot(), EigConfig(method=method))
        assert seen == [(2, 2), (4, 2), (5, 1)]
        want = [solve(c) for c in mats]
        if method == "exact":
            want = [spectral.EigenPair(max(s[0].value, 0.0), s[0].vector)
                    for s in want]
        assert _same_pairs(got, want)


def test_top_eigenpair_stack_falls_back_to_eigh_alone(monkeypatch):
    # only the matrices inverse iteration cannot take go to eigh, each on
    # its own: the zero matrix (lambda = 0) and a diagonal one whose top
    # entry is the smallest subnormal, where the shift's delta underflows
    # to 0 and the shifted solve is exactly singular
    n = 5
    mats = [random_psd(n, seed=300), np.zeros((n, n)),
            np.diag([0.0, 5e-324, 0.0, 0.0, 0.0]), np.eye(n),
            random_psd(n, seed=301), -np.eye(n), 1e6 * random_psd(n, seed=302)]
    eigh_top = spectral._eigh_top
    fell = []

    def counted(c, tol):
        fell.append(next(i for i, m in enumerate(mats)
                         if np.array_equal(m, c)))
        return eigh_top(c, tol)

    monkeypatch.setattr(spectral, "_eigh_top", counted)
    got = top_eigenpair(np.stack(mats))
    assert sorted(set(fell)) == [1, 2]
    for i, (pair, c) in enumerate(zip(got, mats)):
        want = eigh_top(c, 1e-10)
        if i in fell:
            assert _same_pairs([pair], [want])
            continue
        assert pair.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-14)
        lam = np.linalg.eigvalsh(c)[-1]
        assert np.linalg.norm(c @ pair.vector - lam * pair.vector) <= (
            1e-10 * abs(lam))
        if i not in (3, 5):  # every unit vector is a top eigenvector of +-I
            assert pair.vector == pytest.approx(want.vector, abs=1e-12)


def test_top_eigenpair_one_by_one_matrices():
    # the shifted solve of a 1 x 1 matrix is a division; 0 goes to eigh
    mats = np.array([[[4.0]], [[0.0]], [[2.5e-7]], [[-3.0]]])
    got = top_eigenpair(mats)
    assert [p.value for p in got] == [4.0, 0.0, 2.5e-7, 0.0]
    assert all(np.array_equal(p.vector, [1.0]) for p in got)


def test_top_eigenpair_stack_in_chunks_matches_single_solves(monkeypatch):
    # top_eigen solves a mode chunk by chunk; every matrix gets the bits it
    # gets alone, whichever chunk and position it lands in
    mats = [random_psd(6, seed=s) for s in range(7)]
    mats.insert(3, np.zeros((6, 6)))
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 6 * 6)
    solo = [top_eigenpair(c) for c in mats]
    assert _same_pairs(top_eigen(iter(mats)), solo)
    assert _same_pairs(top_eigenpair(np.stack(mats)), solo)


@pytest.mark.parametrize("n", [1, 6])
def test_top_eigen_exact_route_takes_a_generator(n):
    # the top Jacobi pair, its eigenvalue clamped at 0 (-I has top value -1)
    mats = _covs(n) + [-np.eye(n)]
    got = top_eigen((c for c in mats), EigConfig(method="exact"))
    want = [full_eigen_jacobi(c)[0] for c in mats]
    assert _same_pairs(got, [spectral.EigenPair(max(p.value, 0.0), p.vector)
                             for p in want])
    assert got[-1].value == 0.0


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
