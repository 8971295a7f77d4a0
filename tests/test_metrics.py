import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import (
    Component,
    SynthSpec,
    Tensor3,
    ValidationError,
    ari,
    generate,
    labels_from_clusters,
    rmse_subcube,
    weighted_mean_rmse,
)

from _oracles import pair_count_ari

ARI_SHIFTED_THIRDS = 8.0 / 33.0  # (0,0,1,1,2,2) vs (0,0,0,1,1,1)
ARI_MERGED_VS_TWO_BLOCKS = 36.0 / 43.0  # one 20-block vs two 10-blocks, m=50


def test_ari_identical_is_one():
    a = [0, 0, 1, 1, 2]
    assert ari(a, a) == 1.0


def test_ari_relabeled_is_one():
    assert ari([0, 0, 1, 1, 2, 2], [5, 5, 3, 3, 7, 7]) == 1.0


def test_ari_shifted_thirds_frozen():
    a = [0, 0, 1, 1, 2, 2]
    b = [0, 0, 0, 1, 1, 1]
    got = ari(a, b)
    assert got == pytest.approx(ARI_SHIFTED_THIRDS, abs=1e-15)
    assert pair_count_ari(a, b) == pytest.approx(ARI_SHIFTED_THIRDS, abs=1e-15)


def test_ari_treats_negative_one_as_ordinary_label():
    assert ari([-1, -1, 0, 0], [0, 0, 1, 1]) == 1.0


def test_ari_single_point():
    assert ari([0], [3]) == 1.0


def test_ari_single_cluster_both():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        ari([0, 1], [0, 1, 2])


def test_ari_empty():
    with pytest.raises(ValueError):
        ari([], [])


def test_ari_merged_vs_two_blocks_frozen():
    merged = labels_from_clusters([tuple(range(20))], 50)
    truth = labels_from_clusters([tuple(range(10)), tuple(range(10, 20))], 50)
    got = ari(merged, truth)
    assert got == pytest.approx(ARI_MERGED_VS_TWO_BLOCKS, abs=1e-15)
    assert pair_count_ari(list(merged), list(truth)) == pytest.approx(
        ARI_MERGED_VS_TWO_BLOCKS, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.integers(0, 10**6))
def test_ari_matches_pair_counting_oracle(a, seed):
    b = list(np.random.default_rng(seed).integers(0, 5, size=len(a)))
    got = ari(a, b)
    want = pair_count_ari(a, b)
    assert got == pytest.approx(want, abs=1e-12)
    assert ari(b, a) == pytest.approx(got, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=10), st.integers(0, 100))
def test_ari_relabel_invariant(a, seed):
    rng = np.random.default_rng(seed)
    b = list(rng.integers(0, 4, size=len(a)))
    remap = {v: i + 17 for i, v in enumerate(dict.fromkeys(a))}
    assert ari([remap[v] for v in a], b) == pytest.approx(ari(a, b), abs=1e-12)


def test_labels_from_clusters_basic():
    lab = labels_from_clusters([(1, 3), (0,)], 5)
    assert list(lab) == [1, 0, -1, 0, -1]


def test_labels_from_clusters_overlap():
    with pytest.raises(ValidationError,
                       match=r"^index 1 appears in clusters 0 and 2$"):
        labels_from_clusters([(0, 1), (3,), (1, 2)], 4)


def test_labels_from_clusters_repeat_within_one_cluster():
    with pytest.raises(ValidationError,
                       match=r"^index 1 appears twice in cluster 0$"):
        labels_from_clusters([[1, 1]], 3)
    with pytest.raises(ValidationError,
                       match=r"^index 2 appears twice in cluster 1$"):
        labels_from_clusters([[0], [2, 1, 2]], 3)


def test_labels_from_clusters_out_of_range():
    with pytest.raises(IndexError):
        labels_from_clusters([(0, 5)], 5)


def _const_tensor(value, dims=(4, 4, 4)):
    return Tensor3(np.full(dims, value))


def test_rmse_constant_subcube_is_zero():
    tri = ((0, 1), (0, 1), (0, 1))
    assert rmse_subcube(_const_tensor(7.5), tri) == 0.0


def test_rmse_two_values():
    data = np.zeros((2, 2, 2))
    data[0, 1, 0] = 2.0
    tri = ((0,), (0, 1), (0,))
    assert rmse_subcube(Tensor3(data), tri) == pytest.approx(1.0, abs=1e-15)


def test_rmse_scales_with_amplitude():
    rng = np.random.default_rng(0)
    data = rng.random((5, 5, 5))
    tri = ((0, 2, 4), (1, 3), (0, 1, 2))
    base = rmse_subcube(Tensor3(data), tri)
    assert rmse_subcube(Tensor3(-3.0 * data), tri) == pytest.approx(3.0 * base)


def test_rmse_index_order_invariant():
    rng = np.random.default_rng(2)
    t = Tensor3(rng.random((5, 5, 5)))
    a = rmse_subcube(t, ((0, 2, 4), (1, 3), (0, 1, 2)))
    b = rmse_subcube(t, ((4, 0, 2), (3, 1), (2, 0, 1)))
    assert a == b


def test_rmse_merged_exceeds_per_component():
    comps = [
        Component(gamma=25.0, j1=(0, 1, 2), j2=(0, 1, 2), j3=(0, 1, 2)),
        Component(gamma=25.0, j1=(3, 4, 5), j2=(3, 4, 5), j3=(3, 4, 5)),
    ]
    t, _ = generate(SynthSpec(dims=(12, 12, 12), components=comps,
                              noise_scale=0.0))
    per = [(c.j1, c.j2, c.j3) for c in comps]
    merged = (tuple(range(6)),) * 3
    assert rmse_subcube(t, per[0]) == 0.0
    assert rmse_subcube(t, per[1]) == 0.0
    assert rmse_subcube(t, merged) > 1.0


def test_weighted_mean_rmse_direct():
    rng = np.random.default_rng(1)
    t = Tensor3(rng.random((6, 6, 6)))
    tris = [
        ((0, 1), (0, 1), (0, 1)),
        ((2, 3, 4), (2, 3), (2, 3, 4, 5)),
    ]
    vols = [8.0, 24.0]
    rmses = [rmse_subcube(t, tri) for tri in tris]
    want = (vols[0] * rmses[0] + vols[1] * rmses[1]) / sum(vols)
    assert weighted_mean_rmse(t, tris) == pytest.approx(want, abs=1e-14)


def test_weighted_mean_rmse_empty_is_nan():
    t = _const_tensor(1.0)
    assert math.isnan(weighted_mean_rmse(t, []))
