import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_synth, oneshot_boxmuller
from msc3 import (
    Component,
    FormatError,
    SynthSpec,
    ValidationError,
    benchmark_spec,
    boxmuller_normals,
    generate,
    run_msc_dbscan,
    truth_from_json,
    truth_to_json,
    unit_cluster_vector,
)
from msc3.synth import _BOXMULLER_BLOCK

# first normal variates of the documented uniform-pair transform, seed 0
BOXMULLER_SEED0 = [
    -0.17652525003321792,
    1.4125624402256214,
    0.2877048791369863,
    0.029984921167930504,
    1.563562976118326,
    -0.9547023060654851,
    -0.17549507937902264,
    -1.354710342210526,
]

IN_CLUSTER_80 = 2.5298221281347035  # 80 / sqrt(10 * 10 * 10)


def test_unit_cluster_vector_singleton():
    assert np.array_equal(unit_cluster_vector([0], 3), [1.0, 0.0, 0.0])


def test_unit_cluster_vector_quarter():
    v = unit_cluster_vector([0, 1, 2, 3], 8)
    assert np.array_equal(v, [0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])


def test_unit_cluster_vector_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(2, 30))
        k = int(rng.integers(1, m + 1))
        j = rng.choice(m, size=k, replace=False)
        assert np.linalg.norm(unit_cluster_vector(j, m)) == pytest.approx(1.0, abs=1e-12)


def test_unit_cluster_vector_empty_rejected():
    with pytest.raises(ValueError):
        unit_cluster_vector([], 5)


def test_boxmuller_frozen_stream():
    rng = np.random.Generator(np.random.PCG64(0))
    z = boxmuller_normals(rng, 8)
    assert np.abs(z - np.array(BOXMULLER_SEED0)).max() <= 1e-15


def test_boxmuller_odd_count_truncates():
    z_full = boxmuller_normals(np.random.Generator(np.random.PCG64(0)), 8)
    z_odd = boxmuller_normals(np.random.Generator(np.random.PCG64(0)), 7)
    assert np.array_equal(z_odd, z_full[:7])


@pytest.mark.parametrize("n", [0, 1, 7, 8, 2 * _BOXMULLER_BLOCK - 1,
                               2 * _BOXMULLER_BLOCK, 2 * _BOXMULLER_BLOCK + 1,
                               6 * _BOXMULLER_BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_boxmuller_matches_oneshot_transform(n, seed):
    # the block-wise in-place transform gives the one-shot formula's bits
    z = boxmuller_normals(np.random.Generator(np.random.PCG64(seed)), n)
    want = oneshot_boxmuller(np.random.Generator(np.random.PCG64(seed)), n)
    assert z.shape == (n,)
    assert z.tobytes() == want.tobytes()


_ODD_COMPONENTS = [
    Component(gamma=7.5, j1=(4, 0, 2), j2=(1, 3), j3=(0,)),
    Component(gamma=3.0, j1=(5, 6), j2=(4,), j3=(2, 1)),
]


@pytest.mark.parametrize("dims", [(7, 5, 3), (1, 5, 3), (7, 5, 937)])
@pytest.mark.parametrize("noise", [1.0, 0.5, 0.0, 5e-324])
@pytest.mark.parametrize("seed", [0, 1])
def test_generate_matches_dense_formula(dims, noise, seed):
    # bit for bit, signs of zero included: noise 5e-324 turns every |z| <
    # 0.5 into a signed zero, and 0.0 + (-0.0) is 0.0
    comps = _ODD_COMPONENTS if dims[0] > 1 else [
        Component(gamma=2.0, j1=(0,), j2=(1, 2), j3=(0, 2))]
    spec = SynthSpec(dims=dims, components=comps, seed=seed,
                     noise_scale=noise)
    t, _ = generate(spec)
    assert t.data.tobytes() == dense_synth(spec).tobytes()


def test_generate_tiny_noise_keeps_no_negative_zero():
    spec = SynthSpec(dims=(7, 5, 3), components=_ODD_COMPONENTS,
                     noise_scale=5e-324)
    z = boxmuller_normals(np.random.Generator(np.random.PCG64(0)), 105)
    assert np.signbit(5e-324 * z[5e-324 * z == 0]).any()
    t, _ = generate(spec)
    assert not np.signbit(t.data[t.data == 0]).any()


def test_noiseless_rank1_entry_values():
    spec = benchmark_spec(80.0, seed=0, rank=1, noise_scale=0.0)
    t, truth = generate(spec)
    block = t.data[:10, :10, :10]
    assert np.abs(block - IN_CLUSTER_80).max() <= 1e-12
    outside = t.data.copy()
    outside[:10, :10, :10] = 0.0
    assert np.abs(outside).max() == 0.0


def test_noise_moments():
    spec = SynthSpec(dims=(50, 50, 50), components=[], seed=123, noise_scale=1.0)
    t, _ = generate(spec)
    n = t.data.size
    mean = t.data.mean()
    var = t.data.var()
    assert abs(mean) <= 5.0 / math.sqrt(n)
    assert abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_same_seed_identical():
    spec = benchmark_spec(60.0, seed=9)
    t1, _ = generate(spec)
    t2, _ = generate(spec)
    assert np.array_equal(t1.data, t2.data)


def test_different_seeds_differ():
    t1, _ = generate(benchmark_spec(60.0, seed=1))
    t2, _ = generate(benchmark_spec(60.0, seed=2))
    assert not np.array_equal(t1.data, t2.data)


def test_overlapping_members_rejected():
    comps = [
        Component(gamma=5.0, j1=(0, 1), j2=(0, 1), j3=(0, 1)),
        Component(gamma=5.0, j1=(1, 2), j2=(3, 4), j3=(3, 4)),
    ]
    with pytest.raises(ValidationError, match="overlap"):
        generate(SynthSpec(dims=(6, 6, 6), components=comps))


def test_nonpositive_gamma_rejected():
    comps = [Component(gamma=0.0, j1=(0,), j2=(0,), j3=(0,))]
    with pytest.raises(ValidationError):
        generate(SynthSpec(dims=(4, 4, 4), components=comps))


def test_negative_noise_rejected():
    with pytest.raises(ValidationError):
        generate(SynthSpec(dims=(4, 4, 4), components=[], noise_scale=-1.0))


def test_benchmark_spec_layout():
    spec = benchmark_spec(80.0, seed=7)
    assert spec.dims == (50, 50, 50)
    assert len(spec.components) == 2
    for c, lo in zip(spec.components, (0, 10)):
        assert c.gamma == 80.0
        assert c.j1 == tuple(range(lo, lo + 10))
        assert c.j1 == c.j2 == c.j3
    assert spec.noise_scale == 1.0
    assert spec.seed == 7


def test_benchmark_spec_validates():
    with pytest.raises(ValueError):
        benchmark_spec(0.0, seed=0)
    with pytest.raises(ValueError):
        benchmark_spec(10.0, seed=0, dims=(15, 15, 15), cluster_size=10, rank=2)
    for rank in (0, -1):
        with pytest.raises(ValidationError, match="rank"):
            benchmark_spec(10.0, seed=0, rank=rank)


def test_benchmark_spec_takes_one_gamma_per_component():
    spec = benchmark_spec([40.0, 20.0, 10.0], seed=0, rank=3)
    assert [c.gamma for c in spec.components] == [40.0, 20.0, 10.0]
    assert [c.j1 for c in spec.components] == [
        tuple(range(lo, lo + 10)) for lo in (0, 10, 20)]
    assert benchmark_spec([25.0], seed=0) == benchmark_spec(25.0, seed=0)


@pytest.mark.parametrize("gamma", [[40.0, 20.0, 10.0], [40.0, 0.0], [np.nan],
                                   [[40.0, 20.0]], []])
def test_benchmark_spec_rejects_a_wrong_gamma_count_or_value(gamma):
    with pytest.raises(ValueError, match="gamma"):
        benchmark_spec(gamma, seed=0, rank=2)


def test_component_vectors_orthogonal():
    spec = benchmark_spec(50.0, seed=0)
    u1 = unit_cluster_vector(spec.components[0].j2, 50)
    u2 = unit_cluster_vector(spec.components[1].j2, 50)
    assert float(u1 @ u2) == 0.0


def test_truth_labels_consistent():
    spec = benchmark_spec(50.0, seed=0)
    _, truth = generate(spec)
    for mode in (1, 2, 3):
        lab = truth.mode_labels(mode)
        assert list(lab[:10]) == [0] * 10
        assert list(lab[10:20]) == [1] * 10
        assert list(lab[20:]) == [-1] * 30
    for mode in (0, 4):
        with pytest.raises(ValueError, match="mode must be 1, 2, or 3"):
            truth.mode_labels(mode)


def test_truth_json_round_trip_and_key_order():
    spec = benchmark_spec(65.0, seed=4)
    _, truth = generate(spec)
    text = truth_to_json(spec, truth)
    doc = truth_from_json(text)
    assert list(doc.keys()) == ["dims", "modes", "gammas", "seed"]
    assert doc["dims"] == [50, 50, 50]
    assert doc["modes"][0]["clusters"] == [list(range(10)), list(range(10, 20))]
    assert doc["gammas"] == [65.0, 65.0]
    assert doc["seed"] == 4
    assert list(doc["modes"][0].keys()) == ["mode", "clusters"]


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_truth_json_rejects_a_non_finite_gamma(gamma):
    # only the clusters writer was strict: a gamma of inf was written as
    # Infinity, which no strict JSON reader takes
    spec = benchmark_spec(65.0, seed=4, dims=(12, 12, 12), cluster_size=3)
    _, truth = generate(spec)
    bad = replace(spec, components=[replace(c, gamma=gamma)
                                    for c in spec.components])
    with pytest.raises(ValueError, match="not JSON compliant"):
        truth_to_json(bad, truth)


@pytest.mark.parametrize("text, error", [
    ("{not json", FormatError),
    ('{"dims": [Infinity, 4, 4], "modes": []}', FormatError),
    ("[]", ValidationError),
    ('{"dims": [4, 4, 4]}', ValidationError),
    ('{"dims": [4.5, 4, 4], "modes": []}', ValidationError),
    ('{"dims": [4, 4, 4], "modes": [{"clusters": [[0, 1], 2]}]}',
     ValidationError),
])
def test_truth_from_json_rejects_bad_documents(text, error):
    with pytest.raises(error):
        truth_from_json(text)


def test_noiseless_generate_recovers_exactly():
    # equal strengths merge into one seed per mode, which the density stage
    # separates back into the planted (non-aligned) blocks
    comps = [
        Component(gamma=5.0, j1=(0, 1, 2), j2=(2, 3, 4), j3=(1, 2, 3)),
        Component(gamma=5.0, j1=(5, 6, 7), j2=(7, 8, 9), j3=(6, 7, 8)),
    ]
    spec = SynthSpec(dims=(12, 10, 11), components=comps, noise_scale=0.0)
    t, truth = generate(spec)
    modes, triset = run_msc_dbscan(t, epsilon=0.001)
    for axis, mc in enumerate(modes):
        found = {tuple(c) for c in mc.clusters}
        planted = {comp[axis] for comp in truth.components}
        assert found == planted
    assert len(triset.triclusters) == 2
    assert (triset.triclusters[0].j1, triset.triclusters[0].j2,
            triset.triclusters[0].j3) == truth.components[0]
    assert (triset.triclusters[1].j1, triset.triclusters[1].j2,
            triset.triclusters[1].j3) == truth.components[1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_generate_deterministic_property(seed, rank):
    spec = benchmark_spec(40.0, seed=seed, dims=(9, 9, 9), cluster_size=3,
                          rank=rank)
    t1, _ = generate(spec)
    t2, _ = generate(spec)
    assert np.array_equal(t1.data, t2.data)
