"""Every scalar argument of the public API, given each hostile value in turn.

Each callable in msc3.__all__ that takes a number, a name or a sequence of
indices is called with valid arguments but one, which gets each value of
HOSTILE in turn: the whole argument for a scalar, one item for a sequence.
The call must return, or raise an exception that its argument's kind
allows (ALLOWED); a warning fails it too. The other arguments (arrays,
tensors, records, paths and JSON text) are left out: a wrong kind there
raises Python's own TypeError or AttributeError, as README says. NOT_SCANNED
names every public callable that takes no scalar argument, so that a new
public function joins one list or the other.
"""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

import msc3
from msc3 import (
    Component,
    SimilarityMatrix,
    SynthSpec,
    ari,
    benchmark_spec,
    boxmuller_normals,
    check_index_set,
    clusters_to_json,
    dbscan,
    derived_radius,
    generate,
    labels_from_clusters,
    load_tensor,
    marginal_spread_bound,
    msc_mode,
    refine_cluster,
    rmse_subcube,
    run_msc,
    run_msc_dbscan,
    run_msc_iterated,
    save_tensor,
    slice_spectra,
    split_cluster,
    top_eigen,
    top_eigenpair,
    unit_cluster_vector,
    weighted_mean_rmse,
)

HOSTILE = [True, 10**400, -1, 2.5, math.nan, math.inf, "3", None,
           Decimal("1"), np.float32(3e38), np.int64(-5), 1e308]

# what a call may raise for a bad value, by the kind of the argument
ALLOWED = {
    # an index, mode, size or count (as_index); an index out of range is
    # an IndexError, any other broken range a ValidationError (a ValueError)
    "integer": (ValueError, IndexError),
    # an epsilon, radius, gamma, noise scale or tolerance (as_real)
    "real": (ValueError,),
    # an eig route or a file format: one of a fixed set of names
    "name": (ValueError,),
    # kept as given: a label in a result, or a value a JSON document
    # records, which dump_json writes or rejects
    "kept": (ValueError, TypeError),
}

_T = generate(benchmark_spec(30.0, 0, dims=(8, 8, 8), cluster_size=3,
                             rank=1))[0]
_D = np.array([5.0, 0.0, 0.1, 5.05])
_C = np.abs(np.random.default_rng(1).standard_normal((5, 5)))
_SIM = SimilarityMatrix(c=_C + _C.T, d=(_C + _C.T).sum(axis=1))
_PTS = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]])
_COV = np.diag([3.0, 2.0, 1.0])
_RUN = run_msc(_T, 0.1)


def _spec(dims=(6, 6, 6), seed=0, noise_scale=1.0, gamma=5.0):
    return SynthSpec(dims=dims, components=[Component(gamma, (0, 1), (0, 1),
                                                      (0, 1))],
                     seed=seed, noise_scale=noise_scale)


# (id, kind, call): call(v) passes v as the one argument under test
CASES = [
    ("run_msc.epsilon", "real", lambda v: run_msc(_T, v)),
    ("run_msc.eig", "name", lambda v: run_msc(_T, 0.1, v)),
    ("run_msc_dbscan.epsilon", "real", lambda v: run_msc_dbscan(_T, v)),
    ("run_msc_dbscan.eig", "name", lambda v: run_msc_dbscan(_T, 0.1, v)),
    ("run_msc_iterated.epsilon", "real", lambda v: run_msc_iterated(_T, v)),
    ("run_msc_iterated.eig", "name",
     lambda v: run_msc_iterated(_T, 0.1, v)),
    ("msc_mode.mode", "integer", lambda v: msc_mode(_T, v, 0.1)),
    ("msc_mode.epsilon", "real", lambda v: msc_mode(_T, 1, v)),
    ("msc_mode.eig", "name", lambda v: msc_mode(_T, 1, 0.1, v)),
    ("slice_spectra.mode", "integer", lambda v: slice_spectra(_T, v)),
    ("slice_spectra.eig", "name", lambda v: slice_spectra(_T, 1, v)),
    ("top_eigen.eig", "name", lambda v: top_eigen([_COV], v)),
    ("top_eigenpair.tol", "real", lambda v: top_eigenpair(_COV, v)),
    ("refine_cluster.j0", "integer",
     lambda v: refine_cluster((0, v), _D, 0.1, 4)),
    ("refine_cluster.epsilon", "real",
     lambda v: refine_cluster((0, 3), _D, v, 4)),
    ("refine_cluster.m", "integer",
     lambda v: refine_cluster((0, 3), _D, 0.1, v)),
    ("refine_cluster.mode", "kept",
     lambda v: refine_cluster((0, 3), _D, 0.1, 4, v)),
    ("split_cluster.j", "integer", lambda v: split_cluster(_SIM, (0, v), 0.1)),
    ("split_cluster.epsilon", "real",
     lambda v: split_cluster(_SIM, (0, 1), v)),
    ("derived_radius.l", "integer", lambda v: derived_radius(v, 0.1, 12)),
    ("derived_radius.epsilon", "real", lambda v: derived_radius(3, v, 12)),
    ("derived_radius.m", "integer", lambda v: derived_radius(3, 0.1, v)),
    ("marginal_spread_bound.l", "integer",
     lambda v: marginal_spread_bound(v, 0.1, 12)),
    ("marginal_spread_bound.epsilon", "real",
     lambda v: marginal_spread_bound(3, v, 12)),
    ("marginal_spread_bound.m", "integer",
     lambda v: marginal_spread_bound(3, 0.1, v)),
    ("dbscan.radius", "real", lambda v: dbscan(_PTS, v, 2)),
    ("dbscan.minpts", "integer", lambda v: dbscan(_PTS, 1.0, v)),
    ("ari.a", "integer", lambda v: ari([0, v, 1], [0, 1, 1])),
    ("ari.b", "integer", lambda v: ari(np.array([0, 1, 1]), [1, 1, v])),
    ("labels_from_clusters.clusters", "integer",
     lambda v: labels_from_clusters([[0, v]], 4)),
    ("labels_from_clusters.m", "integer",
     lambda v: labels_from_clusters([[0, 1]], v)),
    ("check_index_set.indices", "integer",
     lambda v: check_index_set([0, v], 4, 1)),
    ("check_index_set.size", "integer",
     lambda v: check_index_set([0, 1], v, 1)),
    ("check_index_set.mode", "kept",
     lambda v: check_index_set([0, 1], 4, v)),
    ("unit_cluster_vector.j", "integer",
     lambda v: unit_cluster_vector([0, v], 4)),
    ("unit_cluster_vector.m", "integer",
     lambda v: unit_cluster_vector([0, 1], v)),
    ("Tensor3.slice.mode", "integer", lambda v: _T.slice(v, 0)),
    ("Tensor3.slice.index", "integer", lambda v: _T.slice(1, v)),
    ("Tensor3.subcube.j1", "integer", lambda v: _T.subcube([0, v], [0], [0])),
    ("rmse_subcube.tri", "integer",
     lambda v: rmse_subcube(_T, ([0], [0, v], [0]))),
    ("weighted_mean_rmse.triclusters", "integer",
     lambda v: weighted_mean_rmse(_T, [([0], [0], [1, v])])),
    ("benchmark_spec.gamma", "real", lambda v: benchmark_spec(v, 0)),
    ("benchmark_spec.gamma_item", "real",
     lambda v: benchmark_spec([80.0, v], 0)),
    ("benchmark_spec.seed", "kept", lambda v: benchmark_spec(80.0, v)),
    ("benchmark_spec.dims", "integer",
     lambda v: benchmark_spec(80.0, 0, dims=v)),
    ("benchmark_spec.dims_item", "integer",
     lambda v: benchmark_spec(80.0, 0, dims=(50, v, 50))),
    ("benchmark_spec.cluster_size", "integer",
     lambda v: benchmark_spec(80.0, 0, cluster_size=v)),
    ("benchmark_spec.rank", "integer",
     lambda v: benchmark_spec(80.0, 0, rank=v)),
    ("benchmark_spec.noise_scale", "kept",
     lambda v: benchmark_spec(80.0, 0, noise_scale=v)),
    ("generate.dims", "integer", lambda v: generate(_spec(dims=(6, v, 6)))),
    ("generate.seed", "integer", lambda v: generate(_spec(seed=v))),
    ("generate.noise_scale", "real",
     lambda v: generate(_spec(noise_scale=v))),
    ("generate.gamma", "real", lambda v: generate(_spec(gamma=v))),
    ("boxmuller_normals.n", "integer",
     lambda v: boxmuller_normals(np.random.default_rng(0), v)),
    ("clusters_to_json.epsilon", "kept",
     lambda v: clusters_to_json(v, "msc", *_RUN)),
    ("clusters_to_json.method", "kept",
     lambda v: clusters_to_json(0.1, v, *_RUN)),
]

# public callables with no scalar argument, and what they take
NOT_SCANNED = {
    "covariance": "a matrix",
    "full_eigen_jacobi": "a matrix or a stack",
    "initial_cluster_by_gap": "marginals",
    "similarity_matrix": "a SliceSpectra",
    "pair_triclusters": "mode clusterings and a tensor",
    "modes_from_msc": "MscResults and a tensor",
    "truth_to_json": "a SynthSpec and a GroundTruth",
    "truth_from_json": "JSON text",
    "clusters_from_json": "JSON text",
    # records hold what they are given; SynthSpec's and Component's fields
    # are scanned through generate
    "Component": "a record", "EigenPair": "a record",
    "GroundTruth": "a record", "ModeClustering": "a record",
    "MscResult": "a record", "SimilarityMatrix": "a record",
    "SliceSpectra": "a record", "SplitResult": "a record",
    "SynthSpec": "a record",
    "Tricluster": "a record", "TriclusterSet": "a record",
}


def test_every_public_callable_is_scanned_or_named():
    scanned = {case[0].split(".")[0] for case in CASES}
    public = {name for name in msc3.__all__
              if callable(getattr(msc3, name))
              and not (isinstance(getattr(msc3, name), type)
                       and issubclass(getattr(msc3, name), BaseException))}
    # load_tensor and save_tensor take a path, and are scanned below
    assert public - scanned - set(NOT_SCANNED) == {"load_tensor",
                                                    "save_tensor"}
    assert not scanned & set(NOT_SCANNED)


def _escapes(kind, call):
    # the values for which call neither returns nor raises what kind allows
    found = []
    for value in HOSTILE:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(value)
            except ALLOWED[kind]:
                pass
            except Exception as e:  # an escape: what the scan looks for
                found.append(f"{value!r:.20}: {type(e).__name__}: {e}"[:160])
    return found


@pytest.mark.parametrize("kind,call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_hostile_scalar_raises_what_its_kind_allows(kind, call):
    assert _escapes(kind, call) == []


def test_a_hostile_format_name_is_a_value_error(tmp_path):
    path = str(tmp_path / "t.t3b")
    save_tensor(_T, path)
    assert _escapes("name", lambda v: save_tensor(_T, path, v)) == []
    assert _escapes("name", lambda v: load_tensor(path, v)) == []
    assert load_tensor(path).dims == _T.dims
