"""dbscan's neighborhoods against the row expression, at the boundary.

dbscan takes squared distances from a Gram product and leaves every pair
that product cannot decide within its rounding bound to the row expression
sqrt(sum((x_j - x_i)**2)) <= radius. These cases sit where the two
disagree or where the Gram value is useless: exact ties, a few ulp either
side of the radius, cancellation under a large offset, overflow and
underflow. Each neighborhood and each label must equal the row oracle's.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msc3 import Component, SynthSpec, dbscan, derived_radius, generate, msc_mode

from _oracles import row_dbscan, row_neighborhoods

# the package exports the function dbscan under the module's name
dbscan_module = importlib.import_module("msc3.dbscan")


def _assert_matches_rows(pts, radius, minpts=2):
    ours = dbscan_module._neighborhoods(np.asarray(pts, dtype=float), radius)
    ref = row_neighborhoods(pts, radius)
    assert [nb.tolist() for nb in ours] == [nb.tolist() for nb in ref]
    assert list(dbscan(pts, radius, minpts)) == row_dbscan(pts, radius, minpts)
    return ref


def _gram_squared_distances(pts):
    # the fast value alone, |x|^2 + |y|^2 - 2 x.y, with no fallback
    sq = np.einsum("ij,ij->i", pts, pts)
    with np.errstate(all="ignore"):
        return sq[:, None] + sq - 2.0 * (pts @ pts.T)


def test_integer_grid_distances_equal_to_the_radius():
    # (3, 4) and (6, 8) are exactly 5 apart from their neighbors on the
    # line, so the Gram value equals r^2 and only the row expression decides
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [5.0, 0.0],
                    [1.0, 2.0], [2.0, 6.0]])
    ref = _assert_matches_rows(pts, 5.0)
    assert 1 in ref[0] and 2 in ref[1] and 3 in ref[0]
    pts3 = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, 4.0, 4.0],
                     [3.0, 0.0, 0.0]])
    ref = _assert_matches_rows(pts3, 3.0, minpts=3)
    assert ref[1].tolist() == [0, 1, 2]


@pytest.mark.parametrize("dim", [1, 7, 600])
def test_points_a_few_ulp_either_side_of_the_radius(dim):
    rng = np.random.default_rng(dim)
    radius = 0.7
    centre = rng.uniform(0.0, 1.0, size=dim)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    steps = [radius]
    for _ in range(4):
        steps = [np.nextafter(steps[0], 0.0)] + steps + [np.nextafter(steps[-1], 1.0)]
    pts = np.vstack([centre] + [centre + t * u for t in steps])
    ref = _assert_matches_rows(pts, radius)
    # the centre's neighborhood is cut somewhere inside the ulp band
    inside = set(ref[0].tolist()) - {0}
    assert inside and len(inside) < len(steps)


def test_large_offset_where_the_gram_form_cancels():
    rng = np.random.default_rng(8)
    pts = 1e8 + rng.uniform(-1.0, 1.0, size=(40, 10))
    radius = 1.5
    ref = _assert_matches_rows(pts, radius)
    fast = _gram_squared_distances(pts) <= radius * radius
    exact = np.zeros_like(fast)
    for i, nb in enumerate(ref):
        exact[i, nb] = True
    # the Gram value on its own gets pairs wrong here; dbscan does not
    assert (fast != exact).any()


def test_identical_points_at_1e200():
    pts = np.array([[1e200, 0.0], [1e200, 0.0], [0.0, 0.0]])
    # inf - inf: the Gram value of the identical pair is NaN
    assert np.isnan(_gram_squared_distances(pts)[0, 1])
    ref = _assert_matches_rows(pts, 1.0)
    assert ref[0].tolist() == [0, 1]
    assert list(dbscan(pts, 1.0, 2)) == [0, 0, -1]


@pytest.mark.parametrize("scale", [1e-170, 3.2e-162, 1e-160, 1e-155])
def test_coordinates_near_underflow(scale):
    # squares of these fall to subnormal numbers or to zero, where the
    # rounding error is absolute rather than relative
    rng = np.random.default_rng(3)
    pts = scale * rng.integers(-4, 5, size=(12, 2)).astype(float)
    for radius in (scale, np.sqrt(2) * scale, 1.5 * scale, 2.5 * scale):
        _assert_matches_rows(pts, radius)


def test_neighborhoods_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(5)
    pts = np.round(rng.uniform(-3, 3, size=(70, 4)), 1)
    ref = [nb.tolist() for nb in row_neighborhoods(pts, 1.0)]
    for budget in (1, 24 * 70 * 9, 1 << 30):
        monkeypatch.setattr(dbscan_module, "_BLOCK_BYTES", budget)
        ours = dbscan_module._neighborhoods(pts, 1.0)
        assert [nb.tolist() for nb in ours] == ref


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 4),
    st.sampled_from([1.0, 0.5, 0.1, 1e-3, 3.0]),
    st.sampled_from([0.0, 1e3, 1e8]),
    st.integers(1, 40),
    st.booleans(),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_grid_snapped_points_match_the_row_expression(n, dim, step, offset, k,
                                                      root, minpts, seed):
    # squared distances on a grid of spacing h are h^2 times integers, so a
    # radius of h k or h sqrt(k) lands on or next to many of them
    rng = np.random.default_rng(seed)
    pts = offset + step * rng.integers(-6, 7, size=(n, dim)).astype(float)
    radius = step * (np.sqrt(k) if root else k)
    _assert_matches_rows(pts, radius, minpts)


def test_tall_split_labels_equal_the_row_expression():
    # one mode cluster of 300 members over m = 600 slices: two planted
    # 150-slice groups, as in the tall600 benchmark input
    first, second = tuple(range(150)), tuple(range(150, 300))
    low, high = tuple(range(8)), tuple(range(8, 16))
    spec = SynthSpec(
        dims=(600, 30, 30),
        components=[Component(400.0, first, low, low),
                    Component(400.0, second, high, high)],
        seed=3, noise_scale=1.0,
    )
    t, _ = generate(spec)
    res = msc_mode(t, 1, 0.1)
    members = sorted(res.cluster)
    assert len(members) == 300
    points = res.similarity.c[:, members].T
    radius = derived_radius(len(members), 0.1, 600)
    labels = dbscan(points, radius, 2)
    assert list(labels) == row_dbscan(points, radius, 2)
    assert np.bincount(labels[labels >= 0]).tolist() == [150, 150]
