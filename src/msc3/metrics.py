"""Evaluation: adjusted Rand index and sub-cube coherence RMSE.

The ARI here is the contingency-table formula. The tests cross-check it
against an independent brute-force pair-counting oracle, so keep this
implementation free of pair enumeration.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .tensor import as_index


def ari(a, b):
    """Adjusted Rand index between two labelings of the same points.

    Background (-1) counts as an ordinary label, so a cluster-vs-rest
    labeling compares cleanly against multi-cluster truth. Degenerate
    comparisons where the expected and maximum index coincide (e.g. both
    labelings put everything in one cluster, or a single point) score 1.0.
    Labels are integers; any other label (a bool or 2.5 included) raises
    ValueError.
    """
    a, b = _labels(a), _labels(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"label arrays must be equal-length 1-d, got {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise ValueError("empty labelings")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) // 2

    sum_ij = int(comb2(table).sum())
    sum_a = int(comb2(table.sum(axis=1)).sum())
    sum_b = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    expected = sum_a * sum_b / total if total > 0 else 0.0
    maximum = 0.5 * (sum_a + sum_b)
    if maximum - expected == 0:
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))


def _labels(x):
    # a labeling as an array of integers: an array as it is, a sequence item
    # by item (as_index), so that neither 2.5 nor True is a label
    if not isinstance(x, np.ndarray) and np.ndim(x) == 1:
        x = [as_index(v) for v in x]
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers of 64 bits, got {x.dtype}")
    return x


def labels_from_clusters(clusters, m):
    """Cluster list to a labeling: list position is the id, the rest is -1.

    An index listed twice, in one cluster or in two, raises ValidationError
    naming the cluster or both clusters.
    """
    lab = np.full(as_index(m), -1, dtype=int)
    for cid, members in enumerate(clusters):
        for i in members:
            i = as_index(i)
            if not 0 <= i < m:
                raise IndexError(f"cluster index {i} out of range 0..{m - 1}")
            if lab[i] == cid:
                raise ValidationError(f"index {i} appears twice in cluster {cid}")
            if lab[i] >= 0:
                raise ValidationError(
                    f"index {i} appears in clusters {lab[i]} and {cid}")
            lab[i] = cid
    return lab


def rmse_subcube(t, tri):
    """Root mean square deviation of a sub-cube's entries around their mean.

    Measures tricluster coherence: a constant block scores 0. tri is the
    triple of per-mode index sets.
    """
    j1, j2, j3 = tri
    sub = t.subcube(j1, j2, j3).data
    mu = sub.mean()
    return float(np.sqrt(((sub - mu) ** 2).mean()))


def weighted_mean_rmse(t, triclusters):
    """Volume-weighted mean of per-tricluster RMSEs.

    Each triple contributes proportionally to its sub-cube entry count.
    Returns NaN for an empty list.
    """
    if not triclusters:
        return float("nan")
    num = 0.0
    den = 0.0
    for tri in triclusters:
        j1, j2, j3 = tri
        vol = len(tuple(j1)) * len(tuple(j2)) * len(tuple(j3))
        num += vol * rmse_subcube(t, (j1, j2, j3))
        den += vol
    return num / den
