import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import (
    NOISE,
    SimilarityMatrix,
    dbscan,
    derived_radius,
    split_cluster,
)

from _oracles import closure_dbscan

RADIUS_10_50 = 1.3876763248826585
RADIUS_20_50 = 1.3617024449444073


def test_dbscan_basic_line():
    pts = np.array([[0.0], [0.1], [10.0]])
    labels = dbscan(pts, radius=1.0, minpts=2)
    assert list(labels) == [0, 0, NOISE]


def test_dbscan_all_identical():
    pts = np.zeros((5, 3))
    labels = dbscan(pts, radius=0.5, minpts=2)
    assert list(labels) == [0, 0, 0, 0, 0]


def test_dbscan_empty():
    assert dbscan(np.empty((0, 2)), radius=1.0, minpts=2).size == 0


def test_dbscan_checks_its_arguments_before_an_empty_return():
    # points of dimension 0 are n points at distance 0, one cluster; only
    # n = 0 gives no labels, and only once radius and minpts have passed
    assert dbscan(np.zeros((3, 0)), 1.0, 2).tolist() == [0, 0, 0]
    assert dbscan(np.zeros((3, 0)), 1.0, 4).tolist() == [NOISE] * 3
    with pytest.raises(ValueError, match="radius"):
        dbscan(np.zeros((0, 2)), -1.0, 0)
    with pytest.raises(ValueError, match="minpts"):
        dbscan(np.zeros((0, 2)), 1.0, 0)
    with pytest.raises(ValueError, match="point array"):
        dbscan(np.zeros(0), 1.0, 2)


def test_dbscan_minpts_one_no_noise():
    pts = np.array([[0.0], [100.0], [200.0]])
    labels = dbscan(pts, radius=1.0, minpts=1)
    assert list(labels) == [0, 1, 2]


def test_dbscan_border_claim():
    # with minpts=3 only the middle point is core; the endpoints are border
    # points that must be claimed by its cluster, not left as noise
    pts = np.array([[0.0], [1.0], [2.0]])
    labels = dbscan(pts, radius=1.0, minpts=3)
    assert list(labels) == [0, 0, 0]


def test_dbscan_two_clusters_discovery_order():
    pts = np.array([[10.0], [10.1], [0.0], [0.1]])
    labels = dbscan(pts, radius=0.5, minpts=2)
    # ids follow discovery order over seed indices, so the pair containing
    # index 0 gets id 0 even though its coordinates are larger
    assert list(labels) == [0, 0, 1, 1]


def test_dbscan_validates_args():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        dbscan(pts, radius=0.0, minpts=2)
    with pytest.raises(ValueError):
        dbscan(pts, radius=1.0, minpts=0)
    with pytest.raises(ValueError):
        dbscan(np.array([[np.inf, 0.0]]), radius=1.0, minpts=1)
    with pytest.raises(ValueError):
        dbscan(np.zeros(3), radius=1.0, minpts=1)


def test_dbscan_matches_closure_oracle_seeded():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 5))
        pts = rng.uniform(-2, 2, size=(n, dim))
        radius = float(rng.uniform(0.05, 1.5))
        minpts = int(rng.integers(1, 3))
        ours = dbscan(pts, radius, minpts)
        ref = closure_dbscan(pts, radius, minpts)
        assert list(ours) == ref, f"trial {trial} diverged"


def test_derived_radius_frozen_values():
    assert derived_radius(10, 0.001, 50) == pytest.approx(RADIUS_10_50, abs=1e-14)
    # matches the quoted 5-decimal value 1.38768
    assert round(derived_radius(10, 0.001, 50), 5) == 1.38768
    assert derived_radius(20, 0.001, 50) == pytest.approx(RADIUS_20_50, abs=1e-14)


def test_derived_radius_degenerate_clamp():
    # l=2, m=3: the log term is ln(1) = 0 and a vanishing epsilon drives the
    # raw value to 0; the clamp keeps the radius usable
    assert derived_radius(2, 1e-30, 3) == 1e-12


def test_derived_radius_range_checks():
    with pytest.raises(ValueError):
        derived_radius(1, 0.001, 50)
    with pytest.raises(ValueError):
        derived_radius(50, 0.001, 50)
    with pytest.raises(ValueError):
        derived_radius(10, -0.001, 50)


def _two_block_similarity(m, j1, j2):
    """Similarity built from orthogonal unit columns per block, zero elsewhere."""
    v = np.zeros((m, m))
    for i in j1:
        v[j1[0], i] = 1.0
    for i in j2:
        v[j2[0], i] = 1.0
    c = np.abs(v.T @ v)
    return SimilarityMatrix(c=c, d=c.sum(axis=1))


def test_split_single_block_is_noop():
    m = 30
    j = tuple(range(8, 14))
    sim = _two_block_similarity(m, j, ())
    out = split_cluster(sim, j, epsilon=0.001)
    assert out.clusters == [j]
    assert out.noise == ()


def test_split_two_blocks_exact():
    m = 50
    j1 = tuple(range(10))
    j2 = tuple(range(10, 20))
    sim = _two_block_similarity(m, j1, j2)
    out = split_cluster(sim, j1 + j2, epsilon=0.001)
    assert out.clusters == [j1, j2]
    assert out.noise == ()
    assert out.radius == pytest.approx(RADIUS_20_50, abs=1e-14)


def test_split_orders_by_mean_marginal():
    # block B has larger marginals, so it must come first in the output
    m = 20
    j1 = (0, 1, 2)
    j2 = (3, 4, 5)
    v = np.zeros((m, m))
    for i in j1:
        v[0, i] = 0.6
    for i in j2:
        v[1, i] = 1.0
    c = np.abs(v.T @ v)
    sim = SimilarityMatrix(c=c, d=c.sum(axis=1))
    out = split_cluster(sim, j1 + j2, epsilon=0.001)
    assert out.clusters == [j2, j1]


def test_split_pair_of_equal_columns():
    m = 10
    j = (4, 7)
    v = np.zeros((m, m))
    v[0, 4] = 1.0
    v[0, 7] = 1.0
    c = np.abs(v.T @ v)
    sim = SimilarityMatrix(c=c, d=c.sum(axis=1))
    out = split_cluster(sim, j, epsilon=0.001)
    assert out.clusters == [(4, 7)]
    assert out.noise == ()


def test_split_reports_noise_member():
    m = 50
    j1 = tuple(range(10))
    j2 = tuple(range(10, 20))
    sim = _two_block_similarity(m, j1, j2)
    # member 40 sits alone: its column is orthogonal to both blocks
    c = sim.c.copy()
    c[40, 40] = 1.0
    sim = SimilarityMatrix(c=c, d=c.sum(axis=1))
    out = split_cluster(sim, j1 + j2 + (40,), epsilon=0.001)
    assert out.clusters == [j1, j2]
    assert out.noise == (40,)


def test_split_needs_two_members():
    sim = _two_block_similarity(10, (0, 1), ())
    with pytest.raises(ValueError):
        split_cluster(sim, (0,), epsilon=0.001)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 10**6),
)
def test_dbscan_closure_property(n, dim, minpts, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, dim))
    radius = float(rng.uniform(0.05, 1.0))
    assert list(dbscan(pts, radius, minpts)) == closure_dbscan(pts, radius, minpts)


@pytest.mark.parametrize("radius, minpts", [
    (math.nan, 2), (0.0, 2), (-1.0, 2), (1.0, math.nan), (1.0, 0),
])
def test_dbscan_rejects_parameters_that_are_nan_or_out_of_range(radius, minpts):
    pts = [[0.0, 0.0], [0.0, 0.1], [5.0, 5.0], [5.0, 5.1]]
    assert dbscan(pts, 1.0, 2).tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        dbscan(pts, radius, minpts)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, 1e308])
def test_derived_radius_rejects_an_epsilon_that_is_not_finite_and_positive(
        epsilon):
    # 1e308 is finite, but the bound at m = 50 slices overflows
    assert math.isfinite(derived_radius(5, 1e300, 50))
    with pytest.raises(ValueError, match="epsilon"):
        derived_radius(5, epsilon, 50)
