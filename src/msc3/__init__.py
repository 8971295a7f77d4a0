"""Multi-slice spectral clustering of 3rd-order tensors.

Each mode of a tensor is summarized slice by slice through the top eigenpair
of the slice covariance; slices whose spectral summaries align form a
cluster, found by a gap seed over similarity marginals plus a spread-bound
refinement. A density pass over similarity columns then splits merged
clusters apart. Ships with a planted-cluster generator, ARI and sub-cube
RMSE metrics, and a CLI (synth / cluster / eval / sweep).
"""

from .dbscan import NOISE, SplitResult, dbscan, derived_radius, split_cluster
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    FormatError,
    Msc3Error,
    NoGapError,
    ValidationError,
)
from .metrics import ari, labels_from_clusters, rmse_subcube, weighted_mean_rmse
from .msc import (
    MscResult,
    SimilarityMatrix,
    SliceSpectra,
    initial_cluster_by_gap,
    marginal_spread_bound,
    msc_mode,
    refine_cluster,
    similarity_matrix,
    slice_spectra,
)
from .pipeline import (
    ModeClustering,
    Tricluster,
    TriclusterSet,
    clusters_from_json,
    clusters_to_json,
    modes_from_msc,
    pair_triclusters,
    run_msc,
    run_msc_dbscan,
    run_msc_iterated,
)
from .spectral import (
    EigConfig,
    EigenPair,
    covariance,
    full_eigen_jacobi,
    top_eigen,
    top_eigenpair,
)
from .synth import (
    Component,
    GroundTruth,
    SynthSpec,
    benchmark_spec,
    boxmuller_normals,
    generate,
    truth_from_json,
    truth_to_json,
    unit_cluster_vector,
)
from .tensor import Tensor3, check_index_set, load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Component",
    "DegenerateInputError",
    "EigConfig",
    "EigenPair",
    "FormatError",
    "GroundTruth",
    "ModeClustering",
    "Msc3Error",
    "MscResult",
    "NOISE",
    "NoGapError",
    "SimilarityMatrix",
    "SliceSpectra",
    "SplitResult",
    "SynthSpec",
    "Tensor3",
    "Tricluster",
    "TriclusterSet",
    "ValidationError",
    "ari",
    "benchmark_spec",
    "boxmuller_normals",
    "check_index_set",
    "clusters_from_json",
    "clusters_to_json",
    "covariance",
    "dbscan",
    "derived_radius",
    "full_eigen_jacobi",
    "generate",
    "initial_cluster_by_gap",
    "labels_from_clusters",
    "load_tensor",
    "marginal_spread_bound",
    "modes_from_msc",
    "msc_mode",
    "pair_triclusters",
    "refine_cluster",
    "rmse_subcube",
    "run_msc",
    "run_msc_dbscan",
    "run_msc_iterated",
    "save_tensor",
    "similarity_matrix",
    "slice_spectra",
    "split_cluster",
    "top_eigen",
    "top_eigenpair",
    "truth_from_json",
    "truth_to_json",
    "unit_cluster_vector",
    "weighted_mean_rmse",
    "__version__",
]
