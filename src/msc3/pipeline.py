"""End-to-end runs: per-mode clustering, density splitting, tricluster assembly.

Each method is a function (t, epsilon, eig="power") -> (modes, triset):
run_msc, run_msc_dbscan and run_msc_iterated, which METHODS names by CLI
method. Each round of the per-mode stage is one msc.mode_stages call,
which solves the slices of all three modes in one top_eigen pass. Cross-mode
pairing is by rank: clusters within each mode are ordered by descending mean
marginal and matched by position, truncating to the smallest per-mode count.
The pairing rule is recorded on the result so downstream consumers can see
how triples were formed. Each run holds numpy's OpenBLAS at one thread from
start to end (blas.blas_held), so its output does not depend on the core
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateInputError, ValidationError, dump_json, load_json
from .msc import MscResult, mode_stages, split_cluster
from .blas import blas_held

PAIRING_RULE = "rank-by-mean-marginal"


@dataclass(frozen=True)
class ModeClustering:
    """One mode's final clusters and noise; mode is derived from msc."""

    clusters: list
    noise: tuple
    msc: MscResult = field(repr=False)

    @property
    def mode(self):
        return self.msc.mode


@dataclass(frozen=True)
class Tricluster:
    """A triple of per-mode index sets defining a sub-cube, with a coherence score.

    score is the mean absolute entry of the sub-cube.
    """

    j1: tuple
    j2: tuple
    j3: tuple
    score: float


@dataclass(frozen=True)
class TriclusterSet:
    triclusters: list
    pairing_rule: str = PAIRING_RULE


@blas_held()
def run_msc(t, epsilon, eig="power"):
    """Single-cluster-per-mode run on all three modes, by top_eigen route eig.

    Errors propagate: an all-zero tensor raises DegenerateInputError, a
    gapless marginal vector raises NoGapError.
    Returns (list of ModeClustering, TriclusterSet) through modes_from_msc.
    """
    return modes_from_msc(mode_stages(t, (1, 2, 3), epsilon, eig), t)


@blas_held()
def run_msc_dbscan(t, epsilon, eig="power", memo=None):
    """Per-mode clustering followed by density splitting, then pairing.

    A mode where no cluster can be seeded (gapless marginals) or where
    refinement empties the seed degrades to an empty mode instead of
    aborting the run. An all-zero tensor still raises DegenerateInputError.
    memo, an msc.SliceMemo or None, goes to slice_spectra: sweep passes one
    a seed, so that the slices its gammas share are solved once.
    Returns (list of ModeClustering, TriclusterSet).
    """
    modes = []
    for res in mode_stages(t, (1, 2, 3), epsilon, eig, gapless=True,
                           memo=memo):
        clusters, noise = [], ()
        if res.converged:
            split = split_cluster(res.similarity, res.cluster, epsilon)
            clusters, noise = list(split.clusters), split.noise
        modes.append(ModeClustering(clusters=clusters, noise=noise, msc=res))
    return modes, pair_triclusters(modes, t)


def pair_triclusters(modes, tensor):
    """Match per-mode clusters into triples by rank and score them on tensor.

    Clusters inside each ModeClustering are already ordered by descending
    mean marginal; position r of each mode forms tricluster r. The list is
    truncated to the smallest per-mode cluster count. Each triple is scored
    by the mean absolute entry of its sub-cube of tensor.
    """
    if len(modes) != 3:
        raise ValueError(f"expected 3 mode clusterings, got {len(modes)}")
    count = min(len(mc.clusters) for mc in modes)
    triples = []
    for r in range(count):
        j1, j2, j3 = (tuple(modes[i].clusters[r]) for i in range(3))
        score = float(np.abs(tensor.subcube(j1, j2, j3).data).mean())
        triples.append(Tricluster(j1=j1, j2=j2, j3=j3, score=score))
    return TriclusterSet(triclusters=triples, pairing_rule=PAIRING_RULE)


def modes_from_msc(results, tensor):
    """Wrap plain per-mode results as ModeClustering values.

    The single cluster of each converged mode becomes that mode's one
    cluster; empty or non-converged modes get no clusters. Lets the
    single-stage method share the serialization path and pairing rule;
    the triples are scored on tensor.
    """
    modes = []
    for res in results:
        clusters = [tuple(res.cluster)] if res.converged else []
        modes.append(ModeClustering(clusters=clusters, noise=(), msc=res))
    return modes, pair_triclusters(modes, tensor)


@blas_held()
def run_msc_iterated(t, epsilon, eig="power"):
    """Repeated single-cluster extraction over shrinking complement sets.

    Each round runs mode_stages on the still-unclaimed indices and claims
    the three clusters it finds. The loop stops at a mode without a cluster
    (gapless in a later round), a complement under 3 slices, or a later
    round of only zeros; first-round errors propagate as in run_msc.
    Each mode's msc is the first round's result, and round r forms
    tricluster r. Returns (list of ModeClustering, TriclusterSet).
    """
    first = results = mode_stages(t, (1, 2, 3), epsilon, eig)
    active = [range(m) for m in t.dims]
    rounds = []
    while all(r.converged for r in results):
        rounds.append(tuple(tuple(a[i] for i in r.cluster)
                            for a, r in zip(active, results)))
        active = [[i for i in a if i not in claimed]
                  for a, claimed in zip(active, map(set, rounds[-1]))]
        if min(len(a) for a in active) < 3:
            break
        try:
            results = mode_stages(t.subcube(*active), (1, 2, 3), epsilon, eig,
                                  gapless=True)
        except DegenerateInputError:
            break
    modes = [
        ModeClustering(clusters=[r[axis] for r in rounds], noise=(), msc=res)
        for axis, res in enumerate(first)
    ]
    return modes, replace(pair_triclusters(modes, t),
                          pairing_rule="extraction-round")


# CLI method name -> run function: msc keeps its one mode_stages round,
# msc-dbscan splits it by density, msc-iterated reruns it on the complement.
METHODS = {
    "msc": run_msc,
    "msc-dbscan": run_msc_dbscan,
    "msc-iterated": run_msc_iterated,
}


def clusters_to_json(epsilon, method, modes, triset):
    """Serialize a run to the stable JSON layout.

    Key order is fixed so equal runs produce byte-identical documents:
    {"epsilon", "method", "modes": [{"mode", "msc_cluster", "clusters",
    "noise", "d", "bound", "converged"}], "triclusters": [{"j1", "j2",
    "j3", "score"}]}.
    """
    return dump_json({
        "epsilon": epsilon,
        "method": method,
        "modes": [
            {"mode": mc.mode, "msc_cluster": mc.msc.cluster,
             "clusters": mc.clusters, "noise": mc.noise, "d": mc.msc.d,
             "bound": mc.msc.bound, "converged": mc.msc.converged}
            for mc in modes
        ],
        "triclusters": [
            {"j1": tc.j1, "j2": tc.j2, "j3": tc.j3, "score": tc.score}
            for tc in triset.triclusters
        ],
    })


def clusters_from_json(text):
    """Parse a clusters JSON of modes 1-3, checking every key eval reads."""
    doc = load_json(text, "clusters JSON", {
        "modes": [{"mode": int, "clusters": [[int]], "d": [float]}],
        "triclusters": [{"j1": [int], "j2": [int], "j3": [int]}],
    })
    if sorted(entry["mode"] for entry in doc["modes"]) != [1, 2, 3]:
        raise ValidationError("clusters JSON must list modes 1, 2, 3 once each")
    return doc
