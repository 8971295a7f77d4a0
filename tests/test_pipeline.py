import json
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from msc3 import (
    Component,
    DegenerateInputError,
    FormatError,
    ModeClustering,
    MscResult,
    NoGapError,
    SynthSpec,
    Tensor3,
    ValidationError,
    benchmark_spec,
    clusters_from_json,
    clusters_to_json,
    dbscan,
    generate,
    modes_from_msc,
    msc_mode,
    pair_triclusters,
    run_msc,
    run_msc_dbscan,
    run_msc_iterated,
)
from msc3 import spectral
from msc3.pipeline import METHODS


def _block_spec(gammas, dims=(12, 12, 12), size=3, noise=0.0, seed=0):
    comps = []
    for c, g in enumerate(gammas):
        j = tuple(range(c * size, (c + 1) * size))
        comps.append(Component(gamma=g, j1=j, j2=j, j3=j))
    return SynthSpec(dims=dims, components=comps, seed=seed, noise_scale=noise)


def _dummy_result(mode, m=6):
    return MscResult(mode=mode, cluster=(0, 1), d=np.zeros(m), bound=1.0)


def _mc(mode, clusters, noise=()):
    return ModeClustering(clusters=list(clusters), noise=tuple(noise),
                          msc=_dummy_result(mode))


def test_run_msc_noiseless_rank1():
    t, truth = generate(_block_spec([30.0]))
    modes, _ = run_msc(t, epsilon=0.001)
    results = [mc.msc for mc in modes]
    assert [r.mode for r in results] == [1, 2, 3]
    for r in results:
        assert r.converged
        assert r.cluster == (0, 1, 2)
        assert r.size == 3


def test_run_msc_equal_strength_components_merge():
    t, _ = generate(_block_spec([25.0, 25.0]))
    for mc in run_msc(t, epsilon=0.001)[0]:
        assert mc.msc.cluster == (0, 1, 2, 3, 4, 5)


def test_run_msc_zero_tensor_degenerate():
    t = Tensor3(np.zeros((5, 5, 5)))
    with pytest.raises(DegenerateInputError):
        run_msc(t, epsilon=0.1)
    with pytest.raises(DegenerateInputError):
        run_msc_dbscan(t, epsilon=0.1)


def test_rank1_split_matches_single_cluster():
    t, _ = generate(_block_spec([30.0]))
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    for mc in modes:
        assert mc.clusters == [(0, 1, 2)]
        assert mc.noise == ()
        assert mc.clusters == [mc.msc.cluster]
    assert len(triset.triclusters) == 1
    tc = triset.triclusters[0]
    assert (tc.j1, tc.j2, tc.j3) == ((0, 1, 2),) * 3
    assert tc.score == pytest.approx(30.0 / (3.0 * math.sqrt(3.0)))


def test_equal_strength_components_split_apart():
    t, truth = generate(_block_spec([25.0, 25.0]))
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    for mc in modes:
        assert mc.clusters == [(0, 1, 2), (3, 4, 5)]
        assert mc.noise == ()
    assert len(triset.triclusters) == 2
    for tc, comp in zip(triset.triclusters, truth.components):
        assert (tc.j1, tc.j2, tc.j3) == comp


def test_distinct_strengths_keep_only_dominant():
    t, _ = generate(_block_spec([40.0, 20.0]))
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    for mc in modes:
        assert mc.msc.cluster == (0, 1, 2)
        assert mc.clusters == [(0, 1, 2)]
    assert len(triset.triclusters) == 1
    assert triset.triclusters[0].score == pytest.approx(40.0 / (3.0 * math.sqrt(3.0)))


def test_modes_are_independent_under_slice_permutation():
    t, _ = generate(benchmark_spec(80.0, seed=1))
    perm = np.random.default_rng(5).permutation(50)
    t_perm = Tensor3(t.data[:, perm, :])
    modes_a, _ = run_msc_dbscan(t, epsilon=0.001)
    modes_b, _ = run_msc_dbscan(t_perm, epsilon=0.001)

    as_sets = lambda mc: {frozenset(c) for c in mc.clusters}
    assert as_sets(modes_b[0]) == as_sets(modes_a[0])
    assert as_sets(modes_b[2]) == as_sets(modes_a[2])
    # a mode-2 index j in the permuted tensor holds the old slice perm[j]
    mapped = {frozenset(int(np.flatnonzero(perm == i)[0]) for i in c)
              for c in modes_a[1].clusters}
    assert as_sets(modes_b[1]) == mapped


def test_dbscan_memory_grows_with_points_not_pairs():
    # an all-pairs difference array would take n * n * dim * 8 = 128 MB here
    # (256 MB with its square); row-wise distances need about 2 MB
    pts = np.random.default_rng(0).standard_normal((200, 400))
    tracemalloc.start()
    try:
        labels = dbscan(pts, radius=30.0, minpts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (200,)
    assert peak < 32 * 2**20


# entry (i, j, k) is 36 i + 6 j + k
_T6 = Tensor3(np.arange(216.0).reshape(6, 6, 6))


def test_pair_one_cluster_per_mode():
    modes = [_mc(1, [(0, 1)]), _mc(2, [(2, 3)]), _mc(3, [(4, 5)])]
    triset = pair_triclusters(modes, _T6)
    assert len(triset.triclusters) == 1
    tc = triset.triclusters[0]
    assert (tc.j1, tc.j2, tc.j3) == ((0, 1), (2, 3), (4, 5))
    assert tc.score == 18.0 + 15.0 + 4.5
    assert triset.pairing_rule == "rank-by-mean-marginal"


def test_pair_truncates_to_smallest_count():
    modes = [
        _mc(1, [(0, 1), (2, 3)]),
        _mc(2, [(0, 1), (4, 5)]),
        _mc(3, [(1, 2)]),
    ]
    triset = pair_triclusters(modes, _T6)
    assert len(triset.triclusters) == 1
    assert triset.triclusters[0].j3 == (1, 2)


def test_pair_empty_mode_gives_no_triples():
    modes = [_mc(1, [(0, 1)]), _mc(2, []), _mc(3, [(4, 5)])]
    assert pair_triclusters(modes, _T6).triclusters == []


def test_pair_requires_three_modes():
    with pytest.raises(ValueError):
        pair_triclusters([_mc(1, []), _mc(2, [])], _T6)


def test_pair_scores_with_tensor():
    data = np.arange(24, dtype=float).reshape(2, 3, 4)
    t = Tensor3(data)
    modes = [_mc(1, [(0,)]), _mc(2, [(1, 2)]), _mc(3, [(0, 3)])]
    triset = pair_triclusters(modes, tensor=t)
    expected = np.abs(data[np.ix_([0], [1, 2], [0, 3])]).mean()
    assert triset.triclusters[0].score == pytest.approx(float(expected))


def test_modes_from_msc_wraps_converged_only():
    t, _ = generate(_block_spec([30.0]))
    results = [mc.msc for mc in run_msc(t, epsilon=0.001)[0]]
    modes, triset = modes_from_msc(results, tensor=t)
    for mc, res in zip(modes, results):
        assert mc.clusters == [res.cluster]
        assert mc.noise == ()
        assert mc.msc is res
    assert len(triset.triclusters) == 1

    stub = MscResult(mode=1, cluster=(), d=np.zeros(4), bound=1.0)
    modes, triset = modes_from_msc([stub, results[1], results[2]], t)
    assert modes[0].clusters == []
    assert triset.triclusters == []


def test_gapless_mode_degrades_without_aborting():
    g = np.array([2.0, 2.0, 1.0, 1.0, 1.0])
    h = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    data = np.ones((4, 5, 6)) * g[None, :, None] * h[None, None, :]
    modes, triset = run_msc_dbscan(Tensor3(data), epsilon=0.01)
    assert modes[0].clusters == []
    assert not modes[0].msc.converged
    assert len(modes[0].msc.d) == 4
    assert modes[1].clusters == [(0, 1)]
    assert modes[2].clusters == [(0, 1)]
    assert triset.triclusters == []


def test_json_round_trip_and_key_order():
    t, _ = generate(_block_spec([25.0, 25.0]))
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    text = clusters_to_json(0.001, "msc-dbscan", modes, triset)
    doc = clusters_from_json(text)
    assert list(doc.keys()) == ["epsilon", "method", "modes", "triclusters"]
    assert list(doc["modes"][0].keys()) == [
        "mode", "msc_cluster", "clusters", "noise", "d", "bound", "converged",
    ]
    assert list(doc["triclusters"][0].keys()) == ["j1", "j2", "j3", "score"]
    assert doc["epsilon"] == 0.001
    assert doc["method"] == "msc-dbscan"
    assert doc["modes"][0]["msc_cluster"] == [0, 1, 2, 3, 4, 5]
    assert doc["modes"][0]["clusters"] == [[0, 1, 2], [3, 4, 5]]
    assert doc["triclusters"][0]["j1"] == [0, 1, 2]
    assert len(doc["modes"][0]["d"]) == 12


def test_numpy_integer_modes_serialize_as_int_modes():
    # a mode given as a numpy integer is accepted by msc_mode; its JSON
    # raised "Object of type int64 is not JSON serializable"
    t, _ = generate(_block_spec([30.0]))
    docs = [clusters_to_json(0.001, "msc", *modes_from_msc(
        [msc_mode(t, kind(k), 0.001) for k in (1, 2, 3)], t))
        for kind in (int, np.int64)]
    assert docs[0] == docs[1]
    assert [m["mode"] for m in json.loads(docs[1])["modes"]] == [1, 2, 3]


def test_numpy_epsilons_serialize_as_their_values():
    # an np.float32 or np.int64 epsilon raised "Object of type float32 is
    # not JSON serializable"; each is written as the value it holds
    t, _ = generate(_block_spec([30.0]))
    run = run_msc_dbscan(t, epsilon=0.1)
    for eps, cast in ((np.float32(0.1), float), (np.int64(1), int)):
        doc = clusters_to_json(eps, "msc-dbscan", *run)
        assert doc == clusters_to_json(cast(eps), "msc-dbscan", *run)
    assert '"epsilon": 0.10000000149011612,' in clusters_to_json(
        np.float32(0.1), "msc-dbscan", *run)


def test_repeated_runs_serialize_identically():
    spec = _block_spec([25.0, 25.0], noise=0.05, seed=3)
    docs = []
    for _ in range(2):
        t, _ = generate(spec)
        modes, triset = run_msc_dbscan(t, epsilon=0.001)
        docs.append(clusters_to_json(0.001, "msc-dbscan", modes, triset))
    assert docs[0] == docs[1]


def test_json_rejects_non_finite_numbers():
    t, _ = generate(_block_spec([30.0]))
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    with pytest.raises(ValueError):
        clusters_to_json(float("nan"), "msc-dbscan", modes, triset)
    # a value JSON cannot hold at all raises TypeError, naming its type
    with pytest.raises(TypeError, match="Decimal"):
        clusters_to_json(Decimal("0.1"), "msc-dbscan", modes, triset)


@pytest.mark.parametrize("text, error", [
    ("{not json", FormatError),
    (b"\xff\xfe\x00 garbage", FormatError),
    ("[" * 100000 + "]" * 100000, FormatError),
    ('{"epsilon": NaN, "modes": [], "triclusters": []}', FormatError),
    ("[]", ValidationError),
    ('{"triclusters": []}', ValidationError),
    ('{"modes": [{"mode": true, "clusters": [], "d": []}], "triclusters": []}',
     ValidationError),
    ('{"modes": [], "triclusters": [{"j1": [0], "j2": [0], "j3": 0}]}',
     ValidationError),
])
def test_clusters_from_json_rejects_bad_documents(text, error):
    with pytest.raises(error):
        clusters_from_json(text)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("run", [run_msc, run_msc_dbscan, run_msc_iterated])
def test_non_finite_epsilon_raises(run, epsilon):
    t, _ = generate(_block_spec([30.0]))
    with pytest.raises(ValueError, match="epsilon"):
        run(t, epsilon)


@pytest.mark.parametrize("run", [run_msc, run_msc_dbscan, run_msc_iterated])
def test_epsilon_that_overflows_the_bound_raises(run):
    t, _ = generate(_block_spec([30.0]))
    with pytest.raises(ValueError, match="epsilon"):
        run(t, 1e308)


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
@pytest.mark.parametrize("run", [run_msc, run_msc_dbscan, run_msc_iterated])
def test_non_positive_epsilon_raises_on_gapless_tensor(run, epsilon):
    # all marginals equal: no gap to seed, so refinement is never reached
    with pytest.raises(ValueError, match="epsilon"):
        run(Tensor3(np.ones((4, 5, 6))), epsilon)


def test_methods_table():
    assert list(METHODS) == ["msc", "msc-dbscan", "msc-iterated"]
    assert METHODS["msc"] is run_msc
    assert METHODS["msc-dbscan"] is run_msc_dbscan
    assert METHODS["msc-iterated"] is run_msc_iterated
    t, _ = generate(_block_spec([40.0, 20.0]))
    modes, triset = METHODS["msc"](t, 0.001)
    results = [mc.msc for mc in modes]
    want_modes, want_triset = modes_from_msc(results, tensor=t)
    assert [mc.clusters for mc in modes] == [mc.clusters for mc in want_modes]
    assert triset == want_triset


def test_iterated_rounds_in_order_of_strength():
    t, _ = generate(_block_spec([160.0, 120.0, 90.0], dims=(16, 16, 16),
                                size=4, noise=1.0))
    modes, triset = run_msc_iterated(t, epsilon=0.001)
    blocks = [tuple(range(4 * c, 4 * c + 4)) for c in range(3)]
    for mc in modes:
        assert mc.clusters[:3] == blocks
        assert mc.noise == ()
        # each mode's single-stage result is the first round's
        assert mc.msc.cluster == mc.clusters[0]
        assert mc.msc.converged
    assert triset.pairing_rule == "extraction-round"
    assert [tc.j1 for tc in triset.triclusters][:3] == blocks
    scores = [tc.score for tc in triset.triclusters[:3]]
    assert scores == sorted(scores, reverse=True)


def test_iterated_stops_on_zero_complement():
    t, _ = generate(_block_spec([40.0, 20.0]))
    modes, triset = run_msc_iterated(t, epsilon=0.001)
    for mc in modes:
        assert mc.clusters == [(0, 1, 2), (3, 4, 5)]
    assert len(triset.triclusters) == 2


def test_iterated_stops_when_a_complement_has_under_three_slices():
    # after the first round mode 1 keeps 2 slices; another round would
    # need 3 and raise ValueError
    t, _ = generate(_block_spec([40.0], dims=(5, 12, 12)))
    modes, triset = run_msc_iterated(t, epsilon=0.001)
    for mc in modes:
        assert mc.clusters == [(0, 1, 2)]
    assert len(triset.triclusters) == 1
    with pytest.raises(ValueError):
        run_msc(t.subcube((3, 4), range(3, 12), range(3, 12)), 0.001)


def test_iterated_stops_on_a_later_gapless_round():
    # the 6^3 complement of the block is constant, so round 2 has no gap
    data = np.full((9, 9, 9), 0.5)
    data[:3, :3, :3] = 20.0
    modes, triset = run_msc_iterated(Tensor3(data), epsilon=0.001)
    for mc in modes:
        assert mc.clusters == [(0, 1, 2)]
    assert len(triset.triclusters) == 1


@pytest.mark.parametrize("run", [
    run_msc, run_msc_dbscan, run_msc_iterated,
    lambda t, epsilon: msc_mode(t, 3, epsilon),
])
def test_epsilon_is_checked_before_any_solve(run, monkeypatch):
    # 600 * 1e306 / 2 overflows, so only mode 3's bound does
    t = Tensor3(np.random.default_rng(0).standard_normal((4, 4, 600)))

    def solve(*args, **kwargs):
        raise AssertionError("top_eigenpair called before the epsilon check")

    monkeypatch.setattr(spectral, "top_eigenpair", solve)
    with pytest.raises(ValueError, match="overflows the spread bound"):
        run(t, 1e306)


def test_iterated_first_round_errors_propagate():
    g = np.array([2.0, 2.0, 1.0, 1.0, 1.0])
    h = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    gapless = Tensor3(np.ones((4, 5, 6)) * g[None, :, None] * h[None, None, :])
    with pytest.raises(NoGapError):
        run_msc_iterated(gapless, epsilon=0.01)
    with pytest.raises(DegenerateInputError):
        run_msc_iterated(Tensor3(np.zeros((5, 5, 5))), epsilon=0.01)
    with pytest.raises(ValueError):
        run_msc_iterated(Tensor3(np.ones((2, 6, 6))), epsilon=0.01)
