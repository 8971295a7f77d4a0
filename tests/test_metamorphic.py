"""Metamorphic relations: input transformations whose effect is known.

Each test runs a small seeded planted tensor and a transformed copy of it
through all three methods on both eigen routes, and checks the relation
between each pair of outputs. No oracle is needed, so the relations also cover runs that miss
the planted blocks.

- Sign flips along each mode: a slice's covariance becomes D C D for a +-1
  diagonal D, so the eigenvalues, the similarity |V^T V| and |entries| stay.
  The clusters, noise and triples are the same, and on the exact route the
  clusters JSON is byte-identical.
- A permutation of each mode's indices: every cluster, noise set and triple
  maps through the permutation, in the same order.
- A positive scale: eigenvalues scale by c^2 and the similarity uses
  lambda / lambda_max, so the clusters, noise and triples are the same.

A run that fails must fail the same way on the transformed copy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msc3 import (
    EIG_ROUTES,
    Msc3Error,
    Tensor3,
    benchmark_spec,
    clusters_to_json,
    generate,
)
from msc3.pipeline import METHODS

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def planted(draw):
    """A seeded tensor with two 4-member blocks, and an epsilon."""
    dims = draw(st.sampled_from([(16, 16, 16), (14, 16, 18)]))
    gamma = draw(st.sampled_from([40.0, 60.0, 90.0]))
    spec = benchmark_spec(gamma, draw(st.integers(0, 2**16)), dims=dims,
                          cluster_size=4, rank=2)
    t, _ = generate(spec)
    return t, draw(st.sampled_from([0.001, 0.1]))


def _runs(t, epsilon):
    """{(method, route): (modes, triset), or the msc3 error type it raised}."""
    out = {}
    for method, run in METHODS.items():
        for eig in EIG_ROUTES:
            try:
                out[method, eig] = run(t, epsilon, eig)
            except Msc3Error as e:
                out[method, eig] = type(e)
    return out


def _outcome(run, maps=(None, None, None)):
    """Each mode's (msc cluster, clusters, noise) and the triples, with mode
    k's indices sent through maps[k] where it is given."""
    if isinstance(run, type):
        return run
    modes, triset = run

    def send(axis, members):
        m = maps[axis]
        if m is None:
            return tuple(members)
        return tuple(sorted(int(m[i]) for i in members))

    per_mode = [(send(mc.mode - 1, mc.msc.cluster),
                 [send(mc.mode - 1, c) for c in mc.clusters],
                 send(mc.mode - 1, mc.noise)) for mc in modes]
    triples = [tuple(send(axis, j) for axis, j in enumerate((tc.j1, tc.j2, tc.j3)))
               for tc in triset.triclusters]
    return per_mode, triples


def _scores(run):
    return None if isinstance(run, type) else [
        tc.score for tc in run[1].triclusters]


@SETTINGS
@given(planted(), st.data())
def test_sign_flips_keep_clusters_and_triples(case, data):
    t, epsilon = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    s1, s2, s3 = (rng.choice([-1.0, 1.0], m) for m in t.dims)
    flipped = _runs(Tensor3(t.data * s1[:, None, None] * s2[None, :, None]
                            * s3[None, None, :]), epsilon)
    for (method, eig), base in _runs(t, epsilon).items():
        run = flipped[method, eig]
        assert _outcome(run) == _outcome(base), (method, eig)
        # |entries| are unchanged bit for bit, and so is each sub-cube's mean
        assert _scores(run) == _scores(base), (method, eig)
        if eig == "exact" and not isinstance(base, type):
            assert (clusters_to_json(epsilon, method, *run)
                    == clusters_to_json(epsilon, method, *base)), method


@SETTINGS
@given(planted(), st.data())
def test_index_permutations_map_clusters_and_triples(case, data):
    t, epsilon = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    perms = [rng.permutation(m) for m in t.dims]
    # index i of mode k moves to perms[k][i]
    moved = np.empty_like(t.data)
    moved[np.ix_(*perms)] = t.data
    permuted = _runs(Tensor3(moved), epsilon)
    for key, base in _runs(t, epsilon).items():
        run = permuted[key]
        assert _outcome(run) == _outcome(base, perms), key
        if not isinstance(base, type):
            assert _scores(run) == pytest.approx(_scores(base), rel=1e-12), key


@SETTINGS
@given(planted(), st.sampled_from([1e-3, 0.37, 3.0, 1e3]))
def test_a_positive_scale_keeps_clusters_and_triples(case, c):
    t, epsilon = case
    scaled = _runs(Tensor3(c * t.data), epsilon)
    for key, base in _runs(t, epsilon).items():
        run = scaled[key]
        assert _outcome(run) == _outcome(base), key
        if not isinstance(base, type):
            assert _scores(run) == pytest.approx(
                [c * s for s in _scores(base)], rel=1e-12), key
