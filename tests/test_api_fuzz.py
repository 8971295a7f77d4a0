"""Fuzz the public functions that take raw numbers and arrays.

dbscan, derived_radius, initial_cluster_by_gap, refine_cluster, the two
eigen solvers and top_eigen get NaN, inf, huge, tiny and wrong-shape inputs
of the right type. Each must return finite output or raise ValueError or an
Msc3Error; it must never raise another exception or emit a warning (warnings
are turned into errors here, so a RuntimeWarning fails the example).
Out-of-range or repeated indices, modes and sizes given to refine_cluster,
split_cluster, msc_mode, slice_spectra and benchmark_spec raise ValueError
too, as do indices, modes, sizes, minpts and synth's counts that are not
integers or are bools, and an epsilon or a synth real (a gamma or the noise
scale) that is a bool or not a real number.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from msc3 import (
    Component,
    Msc3Error,
    SimilarityMatrix,
    SynthSpec,
    Tensor3,
    ValidationError,
    benchmark_spec,
    boxmuller_normals,
    check_index_set,
    dbscan,
    derived_radius,
    full_eigen_jacobi,
    generate,
    initial_cluster_by_gap,
    labels_from_clusters,
    marginal_spread_bound,
    msc_mode,
    refine_cluster,
    run_msc_dbscan,
    slice_spectra,
    split_cluster,
    top_eigen,
    top_eigenpair,
    unit_cluster_vector,
)

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 5e-324, 1e153, 1e155,
           1e300, 1.7e308, -1e308, math.nan, math.inf, -math.inf]
VALUES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-10.0, 10.0, width=64),
                   st.floats(allow_nan=True, allow_infinity=True, width=64))
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _array(draw, shape):
    flat = draw(st.lists(VALUES, min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    return np.array(flat, dtype=np.float64).reshape(shape)


def _symmetric(a):
    # mirror the upper triangle of each matrix; x + 0 cannot overflow
    return np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)


@st.composite
def matrices(draw):
    """One matrix or a stack, mostly symmetric, sometimes of a wrong shape."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(n, n), (k, n, n), (k, n, n), (n,),
                                  (n, n + 1), (k, n, n + 1), (0, 0),
                                  (k, 0, 0), (1, k, n, n)]))
    a = _array(draw, shape)
    if a.ndim >= 2 and a.shape[-1] == a.shape[-2] and draw(st.booleans()):
        a = _symmetric(a)
    return a


def _call(fn, *args, **kwargs):
    """fn's result, or None when it raised ValueError or an Msc3Error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs)
        except (ValueError, Msc3Error):
            return None


def _check_pair(pair):
    assert math.isfinite(pair.value)
    assert np.isfinite(pair.vector).all()


@SETTINGS
@given(c=matrices())
@example(c=np.full((2, 2), 1e308))  # its top eigenvalue overflows
def test_top_eigenpair_is_finite_or_rejects(c):
    out = _call(top_eigenpair, c)
    if out is not None:
        for pair in out if c.ndim == 3 else [out]:
            _check_pair(pair)


@SETTINGS
@given(c=matrices())
def test_full_eigen_jacobi_is_finite_or_rejects(c):
    out = _call(full_eigen_jacobi, c)
    if out is not None:
        for pairs in out if c.ndim == 3 else [out]:
            assert len(pairs) == c.shape[-1]
            for pair in pairs:
                _check_pair(pair)


@SETTINGS
@given(c=matrices(), method=st.sampled_from(["power", "exact"]),
       count=st.integers(0, 3))
def test_top_eigen_is_finite_or_rejects(c, method, count):
    # count copies of each item, so that a stack of wrong-shape items forms
    items = [m for m in (c if c.ndim == 3 else [c]) for _ in range(count)]
    out = _call(top_eigen, items, method)
    if out is not None:
        assert len(out) == len(items)
        for pair in out:
            _check_pair(pair)


@SETTINGS
@given(data=st.data(), n=st.integers(0, 6), dim=st.integers(1, 3),
       radius=VALUES,
       minpts=st.sampled_from([1, 2, 3, 0, -1, 2.5, math.nan, math.inf]))
def test_dbscan_is_finite_or_rejects(data, n, dim, radius, minpts):
    shape = data.draw(st.sampled_from([(n, dim), (n, dim), (n,), (n, dim, 1)]))
    pts = _array(data.draw, shape)
    labels = _call(dbscan, pts, radius, minpts)
    if labels is not None:
        assert labels.shape == (pts.shape[0],)
        assert (labels >= -1).all()


@SETTINGS
@given(l=st.integers(-1, 60), m=st.sampled_from([3, 10, 50, 10**6]),
       epsilon=VALUES)
def test_derived_radius_is_finite_or_rejects(l, m, epsilon):
    r = _call(derived_radius, l, epsilon, m)
    if r is not None:
        assert math.isfinite(r) and r > 0


@st.composite
def marginals(draw):
    m = draw(st.integers(0, 8))
    shape = draw(st.sampled_from([(m,), (m,), (m,), (m, 2), ()]))
    d = _array(draw, shape)
    if d.ndim == 1 and draw(st.booleans()):
        d = np.abs(d)
    return d


@SETTINGS
@given(d=marginals())
def test_initial_cluster_by_gap_is_finite_or_rejects(d):
    seed = _call(initial_cluster_by_gap, d)
    if seed is not None:
        assert all(0 <= i < d.size for i in seed)


@SETTINGS
@given(data=st.data(), d=marginals(), epsilon=VALUES)
def test_refine_cluster_is_finite_or_rejects(data, d, epsilon):
    # a seed of indices into d; d of another shape gets (0, 1)
    size = len(d) if d.ndim == 1 else 2
    assume(size >= 2)
    seed = data.draw(st.lists(st.integers(0, size - 1), min_size=2,
                              max_size=size, unique=True))
    m = data.draw(st.sampled_from([size, size + 5, 10**6]))
    res = _call(refine_cluster, seed, d, epsilon, m)
    if res is not None:
        assert math.isfinite(res.bound)
        assert set(res.cluster) <= set(seed)
        assert res.size == len(res.cluster)


_D = np.array([5.0, 0.0, 0.1, 5.05])
_T = Tensor3(np.random.default_rng(0).standard_normal((4, 4, 4)))
_C = np.abs(np.random.default_rng(1).standard_normal((5, 5)))
_SIM = SimilarityMatrix(c=_C + _C.T, d=(_C + _C.T).sum(axis=1))


@pytest.mark.parametrize("call", [
    lambda: refine_cluster((-1, 0), _D, 0.1, 4),  # -1 would read d[3]
    lambda: refine_cluster((0, 7), _D, 0.1, 4),
    lambda: refine_cluster((1, 1), _D, 0.1, 4),
    lambda: split_cluster(_SIM, (-1, 0), 0.1),  # -1 would read column 4
    lambda: split_cluster(_SIM, (3, 3), 0.1),
    lambda: split_cluster(_SIM, (0, 9), 0.1),
    lambda: msc_mode(_T, 4, 0.1),
    lambda: msc_mode(_T, 0, 0.1),  # 0 would read the mode-3 size
    lambda: slice_spectra(_T, 4),
    lambda: benchmark_spec(1.0, 0, dims=(6, 6, 6), cluster_size=0, rank=1000),
    lambda: benchmark_spec(1.0, 0, dims=(6, 6, 6), cluster_size=-2, rank=1),
    # an index or mode that is not an integer, or is a bool
    lambda: _T.slice(1, True),
    lambda: _T.slice(2, False),
    lambda: _T.slice(1, 2.0),
    lambda: check_index_set(np.array([True, False]), 3, 1),
    lambda: _T.subcube([0.9, 1.5], [1], [2]),
    lambda: _T.subcube([0, 1], [True], [2]),
    lambda: labels_from_clusters([[0.7, 2.2]], 3),
    lambda: unit_cluster_vector([0.5, 1.5], 4),
    lambda: refine_cluster((0.5, 1.7), _D, 0.1, 4),
    lambda: split_cluster(_SIM, (0.5, 1.7), 0.1),
    lambda: msc_mode(_T, True, 0.1),
    lambda: msc_mode(_T, 2.0, 0.1),
    # an epsilon that is a bool or not a real number
    lambda: run_msc_dbscan(_T, True),
    lambda: msc_mode(_T, 1, "0.1"),
    lambda: refine_cluster((0, 3), _D, None, 12),
    lambda: split_cluster(_SIM, (0, 1), "x"),
    lambda: derived_radius(3, np.True_, 12),
    # a size or minpts that is not an integer
    lambda: derived_radius(3.5, 0.1, 12),
    lambda: derived_radius(3, 0.1, 12.0),
    lambda: dbscan(np.zeros((3, 2)), 1.0, 1.5),
    lambda: dbscan(np.zeros((3, 2)), 1.0, math.inf),
    lambda: dbscan(np.zeros((3, 2)), 1.0, True),
    lambda: refine_cluster((0, 3), _D, 0.1, 4.5),
    # a radius that is a bool or not a real number
    lambda: dbscan(np.zeros((3, 2)), True, 1),
    lambda: dbscan(np.zeros((3, 2)), "x", 1),
    # a numpy epsilon whose bound overflows, checked in float arithmetic
    lambda: derived_radius(3, np.float64(1e308), 12),
    # synth counts that are not integers, and reals that are bools or text
    lambda: generate(SynthSpec(dims=(6.0, 6, 6), components=[])),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[], seed=1.5)),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[], seed="3")),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[], seed=True)),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[],
                               noise_scale=True)),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[],
                               noise_scale="1")),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[
        Component(gamma=True, j1=(0,), j2=(0,), j3=(0,))])),
    lambda: generate(SynthSpec(dims=(6, 6, 6), components=[
        Component(gamma="1", j1=(0,), j2=(0,), j3=(0,))])),
    lambda: benchmark_spec(80.0, 0, rank=2.5),
    lambda: benchmark_spec(80.0, 0, rank=True),
    lambda: benchmark_spec(80.0, 0, cluster_size=2.5),
    lambda: benchmark_spec(80.0, 0, cluster_size=True),
    lambda: benchmark_spec("10", 0),
    lambda: benchmark_spec([80.0, True], 0),
    lambda: benchmark_spec(80.0, "3"),
    lambda: benchmark_spec(80.0, 0, noise_scale="x"),
], ids=["refine-negative", "refine-past-end", "refine-repeated",
        "split-negative", "split-repeated", "split-past-end", "msc-mode-4",
        "msc-mode-0", "spectra-mode-4", "spec-size-0", "spec-size-negative",
        "slice-index-true", "slice-index-false", "slice-index-float",
        "index-set-bool-array", "subcube-float", "subcube-bool",
        "labels-float", "unit-vector-float", "refine-float", "split-float",
        "msc-mode-true", "msc-mode-float", "run-epsilon-true",
        "msc-epsilon-str", "refine-epsilon-none", "split-epsilon-str",
        "radius-epsilon-numpy-bool", "radius-size-float", "radius-m-float",
        "minpts-float", "minpts-inf", "minpts-true", "refine-m-float",
        "dbscan-radius-true", "dbscan-radius-str",
        "radius-epsilon-numpy-overflow", "generate-dims-float",
        "generate-seed-float", "generate-seed-str", "generate-seed-true",
        "generate-noise-true", "generate-noise-str", "generate-gamma-true",
        "generate-gamma-str", "spec-rank-float", "spec-rank-true",
        "spec-size-float", "spec-size-true", "spec-gamma-str",
        "spec-gamma-true", "spec-seed-str", "spec-noise-str"])
def test_out_of_range_argument_raises_value_error(call):
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("error")
        call()


@pytest.mark.parametrize("call", [
    lambda: benchmark_spec(80.0, 0, cluster_size=0),
    lambda: benchmark_spec(math.inf, 0),
    lambda: benchmark_spec(80.0, -1),
    lambda: boxmuller_normals(np.random.default_rng(0), -1),
    lambda: dbscan(np.zeros((3, 2)), 0.0, 2),
    lambda: dbscan(np.zeros((3, 2)), math.inf, 2),
    lambda: dbscan(np.zeros((3, 2)), 1.0, 0),
    lambda: marginal_spread_bound(3, 0.0, 12),
    lambda: marginal_spread_bound(-1, 0.1, 12),
    lambda: marginal_spread_bound(20, 0.1, 12),
    lambda: top_eigenpair(np.eye(3), 0.0),
    lambda: derived_radius(1, 0.1, 12),
    lambda: run_msc_dbscan(_T, -1.0),
    lambda: refine_cluster((0, 3), _D, 0.1, 2),
    lambda: dbscan(np.zeros((0, 2)), -1.0, 0),
], ids=["spec-size-0", "spec-gamma-inf", "spec-seed-negative",
        "boxmuller-count-negative", "dbscan-radius-0", "dbscan-radius-inf",
        "dbscan-minpts-0", "bound-epsilon-0", "bound-size-negative",
        "bound-size-past-m", "tol-0", "radius-size-1", "run-epsilon-negative",
        "refine-m-below-len-d", "dbscan-no-points-radius-negative"])
def test_out_of_range_numbers_raise_validation_error(call):
    # one owner per range rule (as_index's low, as_real's positive), one
    # exception type for a broken range, and except ValueError still holds
    assert issubclass(ValidationError, ValueError)
    with warnings.catch_warnings(), pytest.raises(ValidationError):
        warnings.simplefilter("error")
        call()


def test_numpy_reals_are_epsilons_and_numpy_integers_counts():
    assert (derived_radius(np.int64(3), np.float64(0.1), np.int32(12))
            == derived_radius(3, 0.1, 12))
    assert refine_cluster((0, 3), _D, np.float32(0.1), 4).cluster == (0, 3)
    assert dbscan(np.zeros((3, 2)), 1.0, np.int64(2)).tolist() == [0, 0, 0]


def test_a_numpy_epsilon_is_computed_with_as_its_float():
    # a float32 epsilon was used as it came: a float32 bound, and numpy's
    # overflow warning where float arithmetic gives a finite bound
    assert marginal_spread_bound(3, np.float32(0.1), 12) == (
        marginal_spread_bound(3, float(np.float32(0.1)), 12))
    assert type(marginal_spread_bound(3, np.float32(0.1), 12)) is float
    assert marginal_spread_bound(3, np.float32(0.1), 12) == 1.6323038096026854
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius = derived_radius(3, np.float32(3e38), 12)
        bound = refine_cluster((0, 3), _D, np.float32(0.1), 4).bound
    assert radius == derived_radius(3, float(np.float32(3e38)), 12)
    assert type(bound) is float and bound == marginal_spread_bound(
        2, float(np.float32(0.1)), 4)


def test_numpy_integers_and_ranges_are_indices():
    sub = _T.subcube(np.array([0, 1]), [np.int64(2)], range(3))
    assert np.array_equal(sub.data, _T.data[:2, 2:3, :3])
    assert np.array_equal(_T.slice(np.int64(2), np.int32(1)), _T.data[:, 1])
