"""Density-based clustering and the similarity-column splitting step.

The clustering pass is written from scratch (no library implementation) so
its every tie-break is pinned down: neighborhoods are closed balls
(distance <= radius, the point itself counted), seed points are scanned in
index order, clusters expand through a FIFO queue, and cluster ids are
assigned in discovery order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .msc import marginal_spread_bound

NOISE = -1
UNVISITED = -2


def dbscan(points, radius, minpts):
    """Classic density clustering over row-vector points.

    A core point has at least minpts points (itself included) within the
    closed radius. Clusters are the maximal density-connected sets; points
    in no cluster get the NOISE label (-1). Returns an int array of labels
    with cluster ids contiguous from 0 in discovery order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.empty(0, dtype=int)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, dim) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or Inf entries")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if minpts < 1:
        raise ValueError("minpts must be at least 1")
    n = pts.shape[0]
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    neighbors = [np.flatnonzero(dist[i] <= radius) for i in range(n)]
    core = np.array([len(nb) >= minpts for nb in neighbors])

    labels = np.full(n, UNVISITED, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        if not core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = deque(int(j) for j in neighbors[i] if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cid  # border point reached from a core
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            if core[j]:
                # noise-labeled neighbors stay eligible: they may still be
                # claimed as border points of this cluster
                queue.extend(
                    int(k) for k in neighbors[j]
                    if labels[k] == UNVISITED or labels[k] == NOISE
                )
        cid += 1
    return labels


def derived_radius(l, epsilon, m):
    """Neighborhood radius sqrt(marginal_spread_bound(l, epsilon, m)).

    This ties the density radius to the marginal spread allowance of a
    size-l cluster over m slices. Clamped from below at 1e-12 so the
    l = 2, epsilon -> 0 boundary still yields a usable radius.
    """
    if not 2 <= l <= m - 1:
        raise ValueError(f"cluster size l={l} out of range 2..{m - 1}")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return max(math.sqrt(marginal_spread_bound(l, epsilon, m)), 1e-12)


@dataclass(frozen=True)
class SplitResult:
    """Sub-clusters of one mode cluster plus the members left as noise."""

    clusters: list
    noise: tuple
    radius: float


def split_cluster(sim, j, epsilon):
    """Split one mode cluster by density over similarity columns.

    Each member i of j is represented by the full i-th column of the
    similarity matrix (length m, not restricted to j), and the members are
    clustered with the derived radius and minpts = 2. Non-noise clusters
    come back as sorted index tuples ordered by descending mean marginal;
    noise members are reported separately.
    """
    members = sorted(int(i) for i in j)
    if len(members) < 2:
        raise ValueError(f"need at least 2 members to split, got {len(members)}")
    m = sim.c.shape[0]
    radius = derived_radius(len(members), epsilon, m)
    points = sim.c[:, members].T
    labels = dbscan(points, radius, minpts=2)
    clusters = []
    for cid in range(labels.max() + 1 if labels.size else 0):
        idx = tuple(members[k] for k in np.flatnonzero(labels == cid))
        clusters.append(idx)
    noise = tuple(members[k] for k in np.flatnonzero(labels == NOISE))
    clusters.sort(key=lambda c: -float(np.mean(sim.d[list(c)])))
    return SplitResult(clusters=clusters, noise=noise, radius=radius)
