import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import (
    Component,
    DegenerateInputError,
    NoGapError,
    SimilarityMatrix,
    SliceSpectra,
    SynthSpec,
    Tensor3,
    ValidationError,
    full_eigen_jacobi,
    generate,
    initial_cluster_by_gap,
    marginal_spread_bound,
    msc_mode,
    refine_cluster,
    similarity_matrix,
    slice_spectra,
    covariance,
    run_msc_dbscan,
)
from msc3 import spectral

# frozen direct evaluations of l*eps/2 + sqrt(ln(m-l))
BOUND_10_50 = 1.9256455826398413
BOUND_20_50 = 1.8542335485675765
BOUND_3_50 = 1.9636792990728595
BOUND_2_50 = 1.9685367876885786


def rank1_tensor(dims, j, gamma):
    """Noiseless single-component tensor with the same member block per mode."""
    spec = SynthSpec(
        dims=dims,
        components=[Component(gamma=gamma, j1=tuple(j), j2=tuple(j), j3=tuple(j))],
        seed=0,
        noise_scale=0.0,
    )
    return generate(spec)[0]


def test_marginal_spread_bound_frozen_values():
    assert marginal_spread_bound(10, 0.001, 50) == pytest.approx(BOUND_10_50, abs=1e-14)
    assert marginal_spread_bound(20, 0.001, 50) == pytest.approx(BOUND_20_50, abs=1e-14)
    assert marginal_spread_bound(3, 0.001, 50) == pytest.approx(BOUND_3_50, abs=1e-14)


def test_marginal_spread_bound_log_clamp():
    # m - l = 1 gives ln(1) = 0; smaller gaps clamp to 0 instead of blowing up
    assert marginal_spread_bound(49, 0.002, 50) == pytest.approx(0.049, abs=1e-14)
    assert marginal_spread_bound(50, 0.002, 50) == pytest.approx(0.05, abs=1e-14)


def test_slice_spectra_rank1_closed_form():
    gamma = 7.0
    t = rank1_tensor((6, 5, 4), (0, 1, 2), gamma)
    spectra = slice_spectra(t, 1)
    # member slices are gamma * w_i * u v^T with w_i = 1/sqrt(3); their
    # covariance is (gamma^2 w_i^2) v v^T, so the top eigenvalue is
    # gamma^2 / 3 and the eigenvector is v itself
    lam_expected = gamma**2 / 3.0
    for i in range(6):
        if i < 3:
            assert spectra.lambdas[i] == pytest.approx(lam_expected, rel=1e-9)
        else:
            assert spectra.lambdas[i] == pytest.approx(0.0, abs=1e-12)
    assert spectra.lambda_max == pytest.approx(lam_expected, rel=1e-9)
    v = np.zeros(4)
    v[:3] = 1.0 / math.sqrt(3.0)
    for i in range(3):
        col = spectra.v_matrix[:, i]
        assert np.abs(np.abs(col) - v).max() <= 1e-9
    # cross-check one member eigenvalue against the full jacobi spectrum
    c0 = covariance(t.slice(1, 0))
    assert full_eigen_jacobi(c0)[0].value == pytest.approx(lam_expected, rel=1e-9)


def test_slice_spectra_single_hot_slice():
    data = np.zeros((5, 4, 3))
    data[2] = np.arange(12, dtype=float).reshape(4, 3) + 1.0
    spectra = slice_spectra(Tensor3(data), 1)
    ratios = spectra.lambdas / spectra.lambda_max
    assert ratios[2] == 1.0
    assert np.all(ratios[np.arange(5) != 2] == 0.0)


def test_slice_spectra_permutation_equivariance():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((5, 4, 4))
    perm = [3, 0, 4, 1, 2]
    s1 = slice_spectra(Tensor3(data), 1)
    s2 = slice_spectra(Tensor3(data[perm]), 1)
    assert np.allclose(s2.v_matrix, s1.v_matrix[:, perm], atol=1e-12)
    assert np.allclose(s2.lambdas, s1.lambdas[perm], atol=1e-12)


def _same_spectra(a, b):
    return (a.lambdas.tobytes() == b.lambdas.tobytes()
            and a.v_matrix.tobytes() == b.v_matrix.tobytes())


# a cube, and a tensor whose mode-3 covariances (20 x 20) differ in shape
# from those of modes 1 and 2 (18 x 18)
_SHAPES = [(12, 12, 12), (24, 20, 18)]


@pytest.mark.parametrize("eig", ["power", "exact"])
@pytest.mark.parametrize("dims", _SHAPES)
def test_slice_spectra_of_three_modes_match_each_mode_alone(
        eig, dims, monkeypatch, helper_at_any_order):
    t = Tensor3(np.random.default_rng(5).standard_normal(dims))
    want = [slice_spectra(t, mode, eig) for mode in (1, 2, 3)]
    got = [slice_spectra(t, (1, 2, 3), eig)]
    # stacks of 5 18 x 18 or 12 x 12 matrices: mode 1 ends inside a stack,
    # which mode 2's first matrices then fill
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 5 * 8 * dims[2] ** 2)
    got.append(slice_spectra(t, (1, 2, 3), eig))
    for spectra in got:
        assert len(spectra) == 3
        assert all(_same_spectra(a, b) for a, b in zip(spectra, want))


@pytest.mark.parametrize("eig", ["power", "exact"])
@pytest.mark.parametrize("dims", _SHAPES)
def test_one_pass_names_a_huge_slice_within_its_mode(eig, dims, monkeypatch,
                                                     helper_at_any_order):
    # the m1 entries (i, 3, 5) at 3.2e76 put 1.0e153 in each mode-1 slice's
    # squared norm, under the 6.7e153 limit, but m1 times that in mode-2
    # slice 3 and mode-3 slice 5
    data = np.random.default_rng(6).standard_normal(dims)
    data[:, 3, 5] = 10.0 ** 76.5
    t = Tensor3(data)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 5 * 8 * dims[2] ** 2)
    for call in (lambda: slice_spectra(t, (1, 2, 3), eig),
                 lambda: run_msc_dbscan(t, 0.1, eig)):
        with pytest.raises(ValidationError, match="^mode-2 slice 3 "):
            call()
    slice_spectra(t, 1, eig)
    with pytest.raises(ValidationError, match="^mode-3 slice 5 "):
        slice_spectra(t, (1, 3), eig)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eig", ["power", "exact"])
def test_slice_spectra_rejects_a_slice_at_the_squared_norm_limit(eig):
    # one entry of mode-1 slice 4 sets that slice's squared norm t, the
    # trace of its covariance: 4 t^2 < inf holds at 6.7e153, not at 6.8e153
    def tensor(t):
        data = np.random.default_rng(8).standard_normal((8, 7, 6))
        data[4, 2, 3] = math.sqrt(t)
        return Tensor3(data)

    slice_spectra(tensor(6.7e153), (1, 2, 3), eig)
    with pytest.raises(ValidationError, match="^mode-1 slice 4 "):
        slice_spectra(tensor(6.8e153), (1, 2, 3), eig)


def test_slice_spectra_zero_tensor_degenerate():
    with pytest.raises(DegenerateInputError):
        slice_spectra(Tensor3(np.zeros((4, 4, 4))), 1)


def test_slice_spectra_needs_three_slices():
    with pytest.raises(ValueError, match="at least 3"):
        slice_spectra(Tensor3(np.ones((2, 4, 4))), 1)


def _spectra_from_columns(cols):
    v = np.column_stack(cols)
    lams = np.array([np.linalg.norm(c) ** 2 for c in cols])
    return SliceSpectra(lambdas=lams, v_matrix=v)


def test_similarity_all_columns_equal():
    u = np.array([0.6, 0.8])
    sim = similarity_matrix(_spectra_from_columns([u, u, u, u]))
    assert np.allclose(sim.c, 1.0, atol=1e-12)
    assert np.allclose(sim.d, 4.0, atol=1e-12)


def test_similarity_orthogonal_columns():
    sim = similarity_matrix(_spectra_from_columns([np.eye(3)[i] for i in range(3)]))
    assert np.array_equal(sim.c, np.eye(3))
    assert np.allclose(sim.d, 1.0)


def test_similarity_two_blocks():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    sim = similarity_matrix(_spectra_from_columns([a, a, b, b]))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1.0
    expected[2:, 2:] = 1.0
    assert np.allclose(sim.c, expected, atol=1e-12)
    assert np.allclose(sim.d, 2.0)


def test_similarity_matrix_exactly_symmetric():
    rng = np.random.default_rng(1)
    cols = [rng.standard_normal(5) for _ in range(6)]
    cols = [c / np.linalg.norm(c) for c in cols]
    sim = similarity_matrix(_spectra_from_columns(cols))
    assert np.array_equal(sim.c, sim.c.T)


def test_gap_init_obvious():
    assert initial_cluster_by_gap([0.1, 0.2, 5.0, 5.1]) == (2, 3)


def test_gap_init_single_top():
    assert initial_cluster_by_gap([1.0, 2.0, 3.0, 10.0]) == (3,)


def test_gap_init_tie_prefers_upper_group():
    # gaps of 5 at both ends; the winner is the gap at larger d values,
    # which makes the returned group the smaller, tighter one
    d = [0.0, 0.0, 5.0, 5.0, 10.0, 10.0]
    assert initial_cluster_by_gap(d) == (4, 5)


def test_gap_init_never_full_set():
    d = [1.0, 1.0, 2.0]
    out = initial_cluster_by_gap(d)
    assert 0 < len(out) < 3


def test_gap_init_all_equal_raises():
    with pytest.raises(NoGapError):
        initial_cluster_by_gap([2.0, 2.0, 2.0 + 1e-13])


def test_gap_init_length_check():
    with pytest.raises(ValueError):
        initial_cluster_by_gap([1.0, 2.0])


def test_refine_all_equal_unchanged():
    d = np.array([5.0, 5.0, 5.0, 0.0])
    res = refine_cluster((0, 1, 2), d, epsilon=0.001, m=50)
    assert res.cluster == (0, 1, 2)
    assert res.converged
    assert res.size == 3
    assert res.bound == pytest.approx(BOUND_3_50, abs=1e-14)


def test_refine_drops_low_outlier():
    # sorted member values (10.0, 40.0, 40.1): the 30-step exceeds the
    # allowance at size 3, so the smallest-d member goes; the survivors'
    # 0.1 step fits the size-2 allowance
    d = np.array([40.0, 40.1, 10.0])
    res = refine_cluster((0, 1, 2), d, epsilon=0.001, m=50)
    assert res.cluster == (0, 1)
    assert res.converged
    assert res.size == 2
    assert res.bound == pytest.approx(BOUND_2_50, abs=1e-14)


def test_refine_size_two_violation_empties():
    d = np.array([0.0, 10.0])
    res = refine_cluster((0, 1), d, epsilon=0.001, m=50)
    assert res.cluster == ()
    assert not res.converged
    assert res.size == 0


def test_refine_validates_args():
    d = np.zeros(5)
    with pytest.raises(ValueError):
        refine_cluster((0,), d, epsilon=0.001, m=50)
    with pytest.raises(ValueError):
        refine_cluster((0, 1), d, epsilon=0.0, m=50)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0, 1e308])
def test_refine_rejects_an_epsilon_that_is_not_finite_and_positive(epsilon):
    # 1e308 is finite, but the bound at m = 50 slices overflows
    d = np.array([10.0, 10.2, 5.0, 1.0, 1.1])
    assert refine_cluster((0, 1, 2), d, 0.1, 5).cluster == (0, 1)
    with pytest.raises(ValueError, match="epsilon"):
        refine_cluster((0, 1, 2), d, epsilon, 50)


def test_refine_rejects_fewer_slices_than_marginals():
    # d holds one marginal a slice, so m below len(d) names both numbers
    d = np.array([5.0, 0.0, 0.1, 5.05])
    assert refine_cluster((0, 3), d, 0.1, 4).cluster == (0, 3)
    with pytest.raises(ValidationError,
                       match="^slice count m for the 4 marginals must be "
                             "at least 4, got 2$"):
        refine_cluster((0, 3), d, 0.1, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_marginals_must_be_finite_and_nonnegative(bad):
    d = [10.0, 10.2, 1.0, 1.0, 1.1, 0.9]
    assert initial_cluster_by_gap(d) == (0, 1)
    d[2] = bad
    with pytest.raises(ValueError, match="marginals"):
        initial_cluster_by_gap(d)
    with pytest.raises(ValueError, match="marginals"):
        refine_cluster((0, 1, 2), d, 0.1, 6)


def test_marginals_must_be_one_dimensional():
    d = np.array([[10.0, 10.2], [1.0, 1.1], [0.9, 1.0]])
    with pytest.raises(ValueError, match="1-d"):
        initial_cluster_by_gap(d)
    with pytest.raises(ValueError, match="1-d"):
        refine_cluster((0, 1), d, 0.1, 6)


def test_gap_midpoint_of_huge_marginals_does_not_overflow():
    # the largest gap is between 1e307 and 1.79e308, whose sum overflows
    with np.errstate(all="raise"):
        assert initial_cluster_by_gap([0.0, 1e307, 1.79e308]) == (2,)


def test_refine_output_subset_and_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(5, 40))
        k = int(rng.integers(2, m))
        d = np.round(rng.uniform(0, 12, size=m), 3)
        j0 = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
        res = refine_cluster(j0, d, epsilon=0.01, m=m)
        assert set(res.cluster) <= set(j0)
        if res.converged:
            assert res.size >= 2
            steps = np.diff(np.sort(d[list(res.cluster)]))
            assert steps.max(initial=0.0) <= res.bound + 1e-12
        else:
            assert res.cluster == ()


def test_msc_mode_noiseless_rank1_exact_recovery():
    t = rank1_tensor((12, 11, 10), (2, 5, 7), gamma=6.0)
    for mode in (1, 2, 3):
        res = msc_mode(t, mode, epsilon=0.001)
        assert res.converged
        assert res.cluster == (2, 5, 7)
        assert res.similarity is not None
        assert res.lambda_max is not None and res.lambda_max > 0
        assert res.strength_ratio is not None and res.strength_ratio > 0


def test_msc_mode_singleton_seed_keeps_the_diagnostics():
    # one planted slice per mode: the gap seeds a singleton, which is
    # reported empty, with the same diagnostics a refined cluster carries
    t = rank1_tensor((8, 7, 6), (3,), gamma=6.0)
    res = msc_mode(t, 1, epsilon=0.001)
    assert res.cluster == () and not res.converged and res.size == 0
    assert res.bound == marginal_spread_bound(2, 0.001, 8)
    assert res.similarity is not None
    assert res.lambda_max == pytest.approx(36.0)
    assert res.strength_ratio > 0


def test_msc_mode_noiseless_two_components_merge():
    comps = [
        Component(gamma=5.0, j1=(0, 1, 2), j2=(0, 1, 2), j3=(0, 1, 2)),
        Component(gamma=5.0, j1=(3, 4, 5), j2=(3, 4, 5), j3=(3, 4, 5)),
    ]
    t, _ = generate(SynthSpec(dims=(12, 12, 12), components=comps, noise_scale=0.0))
    for mode in (1, 2, 3):
        res = msc_mode(t, mode, epsilon=0.001)
        assert res.converged
        assert res.cluster == (0, 1, 2, 3, 4, 5)


def test_msc_mode_identical_slices_raise_no_gap():
    base = np.arange(20, dtype=float).reshape(4, 5) + 1.0
    data = np.broadcast_to(base, (6, 4, 5)).copy()
    with pytest.raises(NoGapError) as exc:
        msc_mode(Tensor3(data), 1, epsilon=0.001)
    assert exc.value.d is not None
    assert len(exc.value.d) == 6


def test_msc_mode_scale_invariance():
    t = rank1_tensor((10, 9, 8), (1, 4, 6), gamma=4.0)
    rng = np.random.default_rng(3)
    noisy = Tensor3(t.data + 0.2 * rng.standard_normal(t.dims))
    base = msc_mode(noisy, 1, epsilon=0.001)
    for alpha in (2.0, -3.0, 0.125):
        scaled = msc_mode(Tensor3(alpha * noisy.data), 1, epsilon=0.001)
        assert scaled.cluster == base.cluster
        assert scaled.converged == base.converged
        # exact only in exact arithmetic: the eigensolver stopping rule is
        # absolute in the residual, so weak slices shift slightly with scale
        assert np.abs(scaled.similarity.c - base.similarity.c).max() <= 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_similarity_bounds_property(seed):
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(3, 7)), int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    t = Tensor3(rng.standard_normal(dims))
    spectra = slice_spectra(t, 1)
    sim = similarity_matrix(spectra)
    m = dims[0]
    ratios = spectra.lambdas / spectra.lambda_max
    outer = np.outer(ratios, ratios)
    assert sim.c.min() >= 0.0
    assert np.all(sim.c <= outer + 1e-9)
    assert sim.c.max() <= 1.0 + 1e-9
    assert np.abs(np.diag(sim.c) - ratios**2).max() <= 1e-9
    assert np.all(sim.d <= m + 1e-9)
    assert np.all(sim.d - np.diag(sim.c) <= m - 1 + 1e-9)
