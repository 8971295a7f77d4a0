"""Fuzz the public functions that take raw numbers and arrays.

dbscan, derived_radius, initial_cluster_by_gap, refine_cluster, the two
eigen solvers and top_eigen get NaN, inf, huge, tiny and wrong-shape inputs
of the right type. Each must return finite output or raise ValueError or an
Msc3Error; it must never raise another exception or emit a warning (warnings
are turned into errors here, so a RuntimeWarning fails the example).
Out-of-range indices, modes and sizes given to refine_cluster, msc_mode,
slice_spectra and benchmark_spec raise ValueError too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from msc3 import (
    EigConfig,
    Msc3Error,
    Tensor3,
    benchmark_spec,
    dbscan,
    derived_radius,
    full_eigen_jacobi,
    initial_cluster_by_gap,
    msc_mode,
    refine_cluster,
    slice_spectra,
    top_eigen,
    top_eigenpair,
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
    out = _call(top_eigen, items, EigConfig(method))
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
        assert labels.shape == (pts.shape[0] if pts.size else 0,)
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


@pytest.mark.parametrize("call", [
    lambda: refine_cluster((-1, 0), _D, 0.1, 4),  # -1 would read d[3]
    lambda: refine_cluster((0, 7), _D, 0.1, 4),
    lambda: msc_mode(_T, 4, 0.1),
    lambda: msc_mode(_T, 0, 0.1),  # 0 would read the mode-3 size
    lambda: slice_spectra(_T, 4),
    lambda: benchmark_spec(1.0, 0, dims=(6, 6, 6), cluster_size=0, rank=1000),
    lambda: benchmark_spec(1.0, 0, dims=(6, 6, 6), cluster_size=-2, rank=1),
], ids=["refine-negative", "refine-past-end", "msc-mode-4", "msc-mode-0",
        "spectra-mode-4", "spec-size-0", "spec-size-negative"])
def test_out_of_range_argument_raises_value_error(call):
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("error")
        call()
