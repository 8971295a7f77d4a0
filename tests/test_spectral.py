import itertools
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import (
    ConvergenceError,
    SliceSpectra,
    Tensor3,
    ValidationError,
    benchmark_spec,
    covariance,
    full_eigen_jacobi,
    generate,
    run_msc_dbscan,
    save_tensor,
    similarity_matrix,
    top_eigen,
    top_eigenpair,
)
from msc3 import blas, msc, spectral
from msc3.cli import main
from msc3.spectral import _round_robin, usable_cores

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


def _gram_input(rng, layout):
    # a random matrix in the given memory layout, with zero columns, an
    # all-negative variant and, in some, +-inf, NaN and -0.0 entries
    rows, cols = rng.integers(1, 40, 2)
    m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-5, 5)
    m[:, rng.random(cols) < 0.2] = 0.0
    if rng.random() < 0.3:
        m = -np.abs(m)
    if rng.random() < 0.3:
        m.flat[rng.integers(0, m.size, 3)] = rng.choice(
            [np.inf, -np.inf, np.nan, -0.0], 3)
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "strided":
        big = np.ones((2 * rows, 3 * cols))
        big[::2, ::3] = m
        return big[::2, ::3]
    if layout == "transposed":
        return m.T.copy().T
    return m


@pytest.mark.parametrize("layout", ["C", "F", "strided", "transposed"])
def test_gram_products_are_bit_symmetric_without_negative_zero(layout):
    # numpy's matmul forms m^T m symmetric to the bit, and each entry's sum
    # starts from +0.0; covariance and similarity_matrix rely on both
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = _gram_input(rng, layout)
        spectra = SliceSpectra(lambdas=np.ones(m.shape[1]), v_matrix=m)
        with np.errstate(invalid="ignore", over="ignore"):
            sim = similarity_matrix(spectra).c
        for c in (covariance(m), sim):
            assert c.tobytes() == c.T.copy().tobytes()
            assert not np.signbit(c[c == 0]).any()


def test_covariance_of_a_single_row_has_no_negative_zero():
    # 0 * -1 is -0.0 in an outer product
    c = covariance(np.array([[0.0, -1.0, 2.0]]))
    assert np.array_equal(c, [[0, 0, 0], [0, 1, -2], [0, -2, 4]])
    assert not np.signbit(c[c == 0]).any()


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


def test_jacobi_validates_input():
    stack = np.stack([np.eye(3), np.array([[1.0, 2.0, 0.0],
                                           [0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]])])
    with pytest.raises(ValidationError):
        full_eigen_jacobi(stack)
    with pytest.raises(ValueError):
        full_eigen_jacobi(np.zeros((2, 3, 4)))
    assert full_eigen_jacobi(np.zeros((0, 3, 3))) == []


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
     {"_JACOBI_TOL": 1e-300}),
])
def test_jacobi_edge_pivots_raise_no_warning(c, kwargs, monkeypatch):
    for name, value in kwargs.items():
        monkeypatch.setattr(spectral, name, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = full_eigen_jacobi(c)
    vals = np.array([p.value for p in pairs])
    ref = np.linalg.eigvalsh(c)[::-1]
    assert np.abs(vals - ref).max() <= 1e-12 * ref[0]


def test_jacobi_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(spectral, "_JACOBI_SWEEPS", 1)
    c = random_psd(8, seed=4)
    with pytest.raises(ConvergenceError) as exc:
        full_eigen_jacobi(c)
    assert exc.value.residual > 1e-12 * np.sqrt((c * c).sum())
    stack = np.stack([np.eye(8), c])
    with pytest.raises(ConvergenceError) as exc_stack:
        full_eigen_jacobi(stack)
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


def test_top_eigen_rejects_an_unknown_route():
    with pytest.raises(ValueError, match="unknown eig route"):
        top_eigen([np.eye(2)], "lanczos")


def test_top_eigen_exact_route():
    c = random_psd(10, seed=77)
    [p_exact] = top_eigen([c], "exact")
    [p_power] = top_eigen([c], "power")
    assert abs(p_exact.value - p_power.value) <= 1e-8 * max(p_exact.value, 1.0)


def _covs(n):
    # a mode's worth of covariances, with a zero one among them
    mats = [random_psd(n, seed=200 + i) for i in range(4)]
    return mats[:2] + [np.zeros((n, n))] + mats[2:]


@pytest.mark.parametrize("n", [1, 6])
def test_top_eigen_power_route_takes_a_generator(n, monkeypatch,
                                                 helper_at_any_order):
    # 'exact', and 'power' with the helper thread off, solve each stack
    # before the next one is pulled, so one chunk is alive at once; with the
    # helper on, 'power' keeps at most two (the helper's and the one being
    # built). The budget here holds 2 matrices.
    mats = _covs(n)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * n * n)
    for method, name, helper in (("power", "_top_eigenpair", True),
                                 ("power", "_top_eigenpair", False),
                                 ("exact", "full_eigen_jacobi", True)):
        monkeypatch.setattr(spectral, "usable_cores",
                            usable_cores if helper else lambda: 1)
        pulled, solved, seen, on_helper = [], [], [], []
        solve = getattr(spectral, name)

        def one_shot():
            for c in mats:
                pulled.append(c)
                assert len(pulled) - sum(solved) <= 2 * 2
                yield c

        def traced(chunk, *args):
            seen.append((len(pulled), len(chunk)))
            on_helper.append(
                threading.current_thread() is not threading.main_thread())
            pairs = solve(chunk, *args)
            solved.append(len(chunk))
            return pairs

        monkeypatch.setattr(spectral, name, traced)
        got = top_eigen(one_shot(), method)
        monkeypatch.setattr(spectral, name, solve)
        assert any(on_helper) == (
            helper and method == "power" and usable_cores() > 1)
        if helper and method == "power":
            assert sorted(size for _, size in seen) == [1, 2, 2]
        else:
            assert seen == [(2, 2), (4, 2), (5, 1)]
        if method == "exact":
            want = [spectral.EigenPair(max(s[0].value, 0.0), s[0].vector)
                    for s in map(solve, mats)]
        else:
            want = [top_eigenpair(c) for c in mats]
        assert _same_pairs(got, want)


def _mode_of_covs(n=6, count=23):
    # random covariances with a zero one, which goes to eigh, and a diagonal
    # one whose top entry is the smallest subnormal
    mats = [random_psd(n, seed=400 + i) for i in range(count)]
    mats[5] = np.zeros((n, n))
    mats[17] = np.diag([0.0, 5e-324] + [0.0] * (n - 2))
    return mats


@pytest.mark.parametrize("method", ["power", "exact"])
def test_top_eigen_on_the_pool_matches_one_thread_bit_for_bit(
        method, monkeypatch, helper_at_any_order):
    # 23 matrices in chunks of 3: several stacks per mode, and the last
    # stack short; each matrix gets the bits it gets solved alone
    mats = _mode_of_covs()
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 6 * 6)
    got = top_eigen(iter(mats), method)
    if method == "power":
        want = [top_eigenpair(c) for c in mats]
    else:
        want = [spectral.EigenPair(max(s[0].value, 0.0), s[0].vector)
                for s in (full_eigen_jacobi(c) for c in mats)]
    assert _same_pairs(got, want)


def test_top_eigenpair_parts_of_a_stack_match_solo_solves():
    mats = _mode_of_covs()
    solo = [top_eigenpair(c) for c in mats]
    assert _same_pairs(top_eigenpair(np.stack(mats)), solo)
    assert top_eigenpair(np.zeros((0, 6, 6))) == []


@pytest.mark.parametrize("per_chunk", [1, 2])
def test_cluster_with_a_huge_slice_in_a_late_chunk_exits_2(
        per_chunk, tmp_path, capsys, monkeypatch, helper_at_any_order):
    # slice 10 is the first matrix of chunk 10 or of chunk 5
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", per_chunk * 8 * 12 * 12)
    data = np.random.default_rng(0).standard_normal((12, 12, 12))
    data[10, 3, 4] = 1e160
    path = str(tmp_path / "h.t3b")
    save_tensor(Tensor3(data), path)
    assert main(["cluster", path]) == 2
    assert capsys.readouterr().err.startswith(
        "error: mode-1 slice 10 is too large")


def _counted(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_an_exact_iterated_run_calls_jacobi_once_a_round(tmp_path, capsys,
                                                        monkeypatch):
    # the three modes of each round share one slice_spectra pass and stack
    path = str(tmp_path / "t.csv")
    assert main(["synth", "--dims", "16,16,16", "--rank", "3",
                 "--cluster-size", "4", "--gamma", "160,120,90", "--seed", "0",
                 "--format", "csv", "-o", path]) == 0
    calls = []
    _counted(monkeypatch, spectral, "full_eigen_jacobi", calls)
    _counted(monkeypatch, msc, "slice_spectra", calls)
    assert main(["cluster", path, "--format", "csv", "--method",
                 "msc-iterated", "--eig", "exact"]) == 0
    capsys.readouterr()
    rounds = calls.count("slice_spectra")
    assert rounds >= 3
    assert calls == ["slice_spectra", "full_eigen_jacobi"] * rounds


def test_a_power_run_calls_top_eigenpair_once(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "t.t3b")
    t = generate(benchmark_spec(40.0, 0, dims=(12, 12, 12), cluster_size=3))[0]
    save_tensor(t, path)
    calls = []
    _counted(monkeypatch, spectral, "top_eigenpair", calls)
    assert main(["cluster", path]) == 0
    capsys.readouterr()
    assert calls == ["top_eigenpair"]


def test_top_eigen_ends_a_stack_at_a_change_of_shape(monkeypatch,
                                                     helper_at_any_order):
    # 44 matrices of 6 x 6 in stacks of 5 (the budget), then 18 of 4 x 4 in
    # stacks of 11; each matrix gets the bits it gets alone. The helper
    # thread, when on, solves some stacks in parallel, so only their sizes
    # are in a fixed order.
    mats = ([random_psd(6, seed=500 + i) for i in range(44)]
            + [random_psd(4, seed=600 + i) for i in range(18)])
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 5 * 8 * 6 * 6)
    want_sizes = [(5, 6, 6)] * 8 + [(4, 6, 6), (11, 4, 4), (7, 4, 4)]
    for method, name, helper in (("power", "_top_eigenpair", False),
                                 ("power", "_top_eigenpair", True),
                                 ("exact", "full_eigen_jacobi", True)):
        monkeypatch.setattr(spectral, "usable_cores",
                            usable_cores if helper else lambda: 1)
        solve, sizes = getattr(spectral, name), []

        def traced(stack, *args):
            sizes.append(stack.shape)
            return solve(stack, *args)

        monkeypatch.setattr(spectral, name, traced)
        got = top_eigen(iter(mats), method)
        monkeypatch.setattr(spectral, name, solve)
        if helper and method == "power":
            assert sorted(sizes) == sorted(want_sizes)
        else:
            assert sizes == want_sizes
        if method == "exact":
            want = [spectral.EigenPair(max(s[0].value, 0.0), s[0].vector)
                    for s in map(solve, mats)]
        else:
            want = [top_eigenpair(c) for c in mats]
        assert _same_pairs(got, want)


@pytest.fixture
def blas_sets(monkeypatch):
    """Records each change of numpy's OpenBLAS thread count; starts at 2."""
    control = blas._blas_control()
    if control is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    get, set_ = control
    before = get()
    set_(2)
    sets = []

    def counted(n):
        sets.append(n)
        set_(n)

    monkeypatch.setattr(blas, "_blas_control", lambda: (get, counted))
    yield get, sets
    set_(before)


def test_a_run_holds_blas_at_one_thread_and_restores_it(
        blas_sets, monkeypatch, helper_at_any_order):
    get, sets = blas_sets
    seen = []
    body = spectral._top_eigenpair

    def recorded(c, *args):
        # every stack, on the calling thread or the helper
        seen.append((threading.current_thread() is threading.main_thread(),
                     get()))
        return body(c, *args)

    monkeypatch.setattr(spectral, "_top_eigenpair", recorded)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 12 * 12)
    t = generate(benchmark_spec(40.0, 0, dims=(12, 12, 12), cluster_size=3))[0]
    run_msc_dbscan(t, 0.1)
    # once per run: the count changes to 1 and back, not per mode or stack
    assert sets == [1, 2] and get() == 2
    assert len(seen) > 3 and {count for _, count in seen} == {1}
    # the helper, on two or more cores, always takes the first stack
    on_helper = [count for on_main, count in seen if not on_main]
    assert bool(on_helper) == (usable_cores() > 1)
    with blas.blas_held():
        with blas.blas_held():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    data = t.data.copy()
    data[0, 11, 11] = 1e160
    with pytest.raises(ValidationError, match="mode-1 slice 0 "):
        run_msc_dbscan(Tensor3(data), 0.1)
    assert get() == 2
    assert sets == [1, 2, 1, 2, 1, 2]


def test_top_eigenpair_stack_falls_back_to_eigh_alone(monkeypatch):
    # only the zero matrix (lambda = 0) goes to eigh, on its own; LAPACK
    # solves the rest, a diagonal one whose top entry is the smallest
    # subnormal among them
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
    assert fell == [1]
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


def test_top_eigen_without_dsyevr_gives_the_eigh_pairs(monkeypatch):
    # where numpy's BLAS lacks one of dsyevr's LAPACK steps (dsytrd,
    # dstevx, dormtr), every matrix goes to eigh
    mats = _mode_of_covs()
    want = [spectral._eigh_top(c, 1e-10) for c in mats]
    monkeypatch.setattr(blas, "_lapack", lambda: None)
    assert _same_pairs(top_eigen(iter(mats)), want)


def test_top_eigenpair_one_by_one_matrices():
    # LAPACK returns a 1 x 1 matrix's entry; 0 goes to eigh
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
    got = top_eigen((c for c in mats), "exact")
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["power", "exact"])
def test_top_eigen_rejects_a_trace_whose_square_overflows(method):
    # 4 t^2 < inf holds at t = 6.7e153 and fails at 6.8e153 and at inf
    ok = np.diag([6.7e153, 0.0])
    top_eigen([ok], method)
    for t in (6.8e153, np.inf):
        covs = [np.eye(2), np.eye(2), np.diag([t, 0.0])]
        with pytest.raises(ValidationError, match="^matrix 2 "):
            top_eigen(covs, method)


@pytest.mark.parametrize("method", ["power", "exact"])
@pytest.mark.parametrize("bad,problem", [
    ([[0.0, 1e160], [1e160, 0.0]], "has NaN or Inf"),
    ([[0.0, 1.0], [2.0, 0.0]], "is not symmetric"),
], ids=["overflow", "asymmetric"])
def test_top_eigen_names_a_rejected_matrix_within_covs(
        method, bad, problem, monkeypatch, helper_at_any_order):
    # stacks of 2: matrix 5 is matrix 1 of the third stack, which the
    # solvers named "matrix 1", or named no matrix when not symmetric
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * 2 * 2)
    covs = [np.eye(2)] * 5 + [np.array(bad)]
    with pytest.raises(ValidationError, match=f"^matrix 5 {problem}"):
        top_eigen(covs, method)


@pytest.mark.parametrize("timing", ["no-helper", "helper-holds-first",
                                    "helper-takes-all"])
def test_top_eigen_raises_the_first_failure_in_input_order(
        timing, monkeypatch, helper_at_any_order):
    # stacks of 2, and each case gives the same error whichever thread
    # solves which stack. "helper-holds-first": the helper thread, which
    # always takes the first stack, solves it only once the last item is
    # pulled or a stack on the calling thread has failed, so its error must
    # still come before any later one. "helper-takes-all": the items come
    # slowly, so the helper is idle at every stack and takes each, naming
    # its matrices within covs.
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * 2 * 2)
    monkeypatch.setattr(spectral, "usable_cores", usable_cores
                        if timing != "no-helper" else lambda: 1)
    asym, eye = np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2)
    release = threading.Event()
    body, solve = spectral._top_eigenpair, spectral.top_eigenpair
    took = []

    def held(stack, *args):
        if threading.current_thread() is not threading.main_thread():
            took.append(len(stack))
            if timing == "helper-holds-first":
                assert release.wait(timeout=60)
        return body(stack, *args)

    def released_on_error(stack):
        try:
            return solve(stack)
        except ValidationError:
            release.set()
            raise

    def covs(items):
        for i, c in enumerate(items):
            if timing == "helper-takes-all":
                time.sleep(0.02)
            if i == len(items) - 1:
                release.set()
            if c is None:
                raise ValidationError("mode-1 slice 5 is too large to solve")
            yield c

    monkeypatch.setattr(spectral, "_top_eigenpair", held)
    monkeypatch.setattr(spectral, "top_eigenpair", released_on_error)
    cases = [([eye, asym, eye, eye, eye, None], "^matrix 1 is not symmetric"),
             ([eye, asym, eye, np.eye(3)], "^matrix 1 is not symmetric"),
             ([eye, asym, eye, eye, eye, asym], "^matrix 1 is not symmetric"),
             ([eye] * 9 + [asym, eye], "^matrix 9 is not symmetric"),
             ([eye] * 9 + [eye, None], "^mode-1 slice 5 is too large")]
    for items, text in cases:
        release.clear()
        with pytest.raises(ValidationError, match=text):
            top_eigen(covs(items))
    assert bool(took) == (timing != "no-helper" and usable_cores() > 1)


@pytest.mark.parametrize("fail", [False, True])
def test_top_eigen_joins_its_helper_thread(fail, monkeypatch,
                                           helper_at_any_order):
    # the helper, where the process has two cores, is started in the call
    # and joined before it returns or raises; it runs the untraced body
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * 6 * 6)
    before, seen = threading.active_count(), []
    body = spectral._top_eigenpair

    def counted(stack, *args):
        seen.append(threading.current_thread() is threading.main_thread())
        return body(stack, *args)

    monkeypatch.setattr(spectral, "_top_eigenpair", counted)
    mats = [random_psd(6, seed=700 + i) for i in range(9)]
    if fail:
        mats[7] = mats[7] + np.triu(np.ones((6, 6)), 1)
        with pytest.raises(ValidationError, match="^matrix 7 "):
            top_eigen(iter(mats))
    else:
        assert _same_pairs(top_eigen(iter(mats)),
                           [top_eigenpair(c) for c in mats])
    assert threading.active_count() == before
    # the helper takes the first stack and, when idle, any later one
    assert seen and (False in seen) == (usable_cores() > 1)


@pytest.mark.parametrize("dims,gamma,helped", [
    ((600, 30, 30), 400.0, False), ((50, 50, 50), 80.0, False),
    ((64, 64, 64), 80.0, False), ((150, 150, 150), 80.0, True),
], ids=["600x30x30", "50^3", "64^3", "150^3"])
def test_a_cluster_run_hands_the_helper_only_large_matrices(
        dims, gamma, helped, tmp_path, capsys, monkeypatch):
    # below _HELPER_MIN_N the helper measured no faster than the calling
    # thread alone, so a run on small slices starts none
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(gamma, 0, dims=dims))[0], path)
    body, on_helper = spectral._top_eigenpair, []

    def counted(stack, *args):
        if threading.current_thread() is not threading.main_thread():
            on_helper.append(len(stack))
        return body(stack, *args)

    monkeypatch.setattr(spectral, "_top_eigenpair", counted)
    assert main(["cluster", path, "--epsilon", "0.1"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert bool(on_helper) == (helped and usable_cores() > 1)


def _top_eigen_in_a_worker(mats):
    # top_eigen in stacks of 3, run in a worker process, with the count of
    # Python threads alive at each blas.top_pairs call
    threads, top_pairs = [], blas.top_pairs

    def counted(a):
        threads.append(threading.active_count())
        return top_pairs(a)

    spectral._CHUNK_BYTES, blas.top_pairs = 3 * 8 * 6 * 6, counted
    # a stack of any order would go to a helper: only the process rule
    # keeps it off here
    spectral._HELPER_MIN_N = 1
    return threads, top_eigen(iter(mats))


@pytest.mark.parametrize("context", [
    c for c in ("fork", "spawn") if c in multiprocessing.get_all_start_methods()])
def test_a_worker_process_solves_on_one_thread(context, monkeypatch):
    # a pool with no initializer: a process that multiprocessing started
    # starts no helper thread, and its pairs are the parent's bit for bit
    mats = _mode_of_covs()
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context(context)) as pool:
        threads, got = pool.submit(_top_eigen_in_a_worker, mats).result(
            timeout=120)
    assert threads == [1] * 8
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 6 * 6)
    assert _same_pairs(got, top_eigen(iter(mats)))


def test_a_run_without_sched_getaffinity(tmp_path, capsys, monkeypatch,
                                         helper_at_any_order):
    # macOS and Windows have no os.sched_getaffinity; there the power route
    # counts the machine's cores, and a run prints the same JSON
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(40.0, 0, dims=(12, 12, 12),
                                        cluster_size=3))[0], path)
    assert main(["cluster", path]) == 0
    want = capsys.readouterr().out
    mats = _mode_of_covs()[:9]
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 6 * 6)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cores() == (os.cpu_count() or 1)
    assert _same_pairs(top_eigen(iter(mats)), [top_eigenpair(c) for c in mats])
    assert main(["cluster", path]) == 0
    assert capsys.readouterr().out == want and want.startswith("{")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [top_eigenpair, full_eigen_jacobi])
@pytest.mark.parametrize("c", [[[1.0, 1e155], [1e155, 1.0]],
                               [[0.0, 1e160], [1e160, 0.0]]])
def test_solvers_reject_a_matrix_whose_squared_norm_overflows(solve, c):
    # the Jacobi threshold tol_factor * ||C||_F was inf here, so the
    # unrotated matrix passed as converged: top eigenvalue 1.0, then 0.0
    with pytest.raises(ValidationError, match="^matrix 0 .*overflows"):
        solve(np.array(c))
    with pytest.raises(ValidationError, match="^matrix 1 .*overflows"):
        solve(np.stack([np.eye(2), c]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [top_eigenpair, full_eigen_jacobi])
def test_solvers_take_a_matrix_just_below_the_norm_limit(solve):
    # 4 ||C||_F^2 = 8 (4.7e153)^2 is about 1.77e308, just under the limit
    c = np.array([[0.0, 4.7e153], [4.7e153, 0.0]])
    pair = solve(c)
    pair = pair if solve is top_eigenpair else pair[0]
    assert pair.value == pytest.approx(4.7e153, rel=1e-12)


@pytest.mark.parametrize("solve", [top_eigenpair, full_eigen_jacobi])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite_entries(solve, bad):
    c = np.eye(3)
    c[1, 1] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        solve(c)
    with pytest.raises(ValidationError, match="^matrix 1 "):
        solve(np.stack([np.eye(3), c]))


@pytest.mark.parametrize("method", ["power", "exact"])
@pytest.mark.parametrize("items", [
    [np.ones(2), np.ones(2)], [np.ones((2, 3))], [np.ones((1, 2, 2))],
    [np.float64(1.0)],
], ids=["vectors", "non_square", "stacks", "scalar"])
def test_top_eigen_rejects_items_that_are_not_square_matrices(method, items):
    with pytest.raises(ValueError, match="square matrices"):
        top_eigen(items, method)
