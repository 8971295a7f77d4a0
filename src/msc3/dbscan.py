"""Density-based clustering and the similarity-column splitting step.

The clustering pass is written from scratch (no library implementation) so
its every tie-break is pinned down: neighborhoods are closed balls
(distance <= radius, the point itself counted), seed points are scanned in
index order, clusters expand through a FIFO queue, and cluster ids are
assigned in discovery order.

Neighborhoods come from one Gram product per block of points, and any
pair that product cannot decide within its rounding bound is decided by
the row expression sqrt(sum((x_j - x_i)**2)) <= radius. So each
neighborhood, and with it every label, is exactly what the row
expression gives, on any BLAS build and at any BLAS thread count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .msc import _check_epsilon, _check_members, marginal_spread_bound

NOISE = -1
UNVISITED = -2


# float64 bytes a neighborhood row block keeps alive: its Gram product and
# its tolerance, about 24 bytes per pair with the masks
_BLOCK_BYTES = 1 << 20


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
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not minpts >= 1:
        raise ValueError("minpts must be at least 1")
    n = pts.shape[0]
    neighbors = _neighborhoods(pts, radius)
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
        nb = neighbors[i]
        queue = deque(nb[nb != i].tolist())
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cid  # border point reached from a core
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            if core[j]:
                # labels < 0 is UNVISITED or NOISE: noise-labeled neighbors
                # stay eligible, they may still be claimed as border points
                nb = neighbors[j]
                queue.extend(nb[labels[nb] < 0].tolist())
        cid += 1
    return labels


def _neighborhoods(pts, radius):
    """Closed-ball neighbor indices of each point, ascending.

    j is a neighbor of i exactly when the row expression
    sqrt(sum((x_j - x_i)**2)) <= radius holds in floating point. The Gram
    value s = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, one matmul per block of rows,
    decides a pair only when |s - r^2| > tau; every other pair, including
    any with a non-finite s or tau, is decided by the row expression.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1): with unit roundoff u, a = |x_i|, b = |x_j| and D the exact squared
    distance, a length-m dot product in any summation order is off by at
    most gamma_m a b, gamma_k = k u / (1 - k u). So the Gram value, with its
    add and subtract, has |s - D| <= gamma_{m+2} (a + b)^2. The row
    expression rounds each difference, each square and the sum, so it is
    within gamma_{m+2} D <= gamma_{m+2} (a + b)^2 of D. Rounding r^2 and the
    correctly rounded sqrt move the row test's threshold by at most 4 u r^2.
    If |s - r^2| exceeds the sum, 2 gamma_{m+2} (a + b)^2 + 4 u r^2, about
    (m + 2) eps (a + b)^2 + 2 eps r^2, both tests agree. tau takes four
    times that, 4 (m + 8) eps ((a + b)^2 + r^2), which also covers the
    rounding of a, b, tau and s - r^2. Gradual underflow adds an absolute
    error of at most 2^-1075 per product, (5 m + 1) 2^-1075 over both
    expressions, and tau adds (m + 8) times the smallest normal number.
    """
    n, m = pts.shape
    fp = np.finfo(np.float64)
    r2 = radius * radius
    sq = np.einsum("ij,ij->i", pts, pts)
    norm = np.sqrt(sq)
    rows = max(1, _BLOCK_BYTES // (24 * n))
    neighbors = []
    with np.errstate(all="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            s = pts[lo:hi] @ pts.T
            s *= -2.0
            s += sq[lo:hi, None]
            s += sq
            s -= r2
            near = s < 0
            tau = norm[lo:hi, None] + norm
            tau *= tau
            tau += r2
            tau *= 4 * (m + 8) * fp.eps
            tau += (m + 8) * fp.tiny
            decided = np.abs(s, out=s) > tau
            near &= decided
            for k in np.flatnonzero(~decided.all(axis=1)):
                amb = np.flatnonzero(~decided[k])
                diff = pts[amb] - pts[lo + k]
                near[k, amb] = np.sqrt((diff * diff).sum(axis=1)) <= radius
            neighbors += [np.flatnonzero(row) for row in near]
    return neighbors


def derived_radius(l, epsilon, m):
    """Neighborhood radius sqrt(marginal_spread_bound(l, epsilon, m)).

    This ties the density radius to the marginal spread allowance of a
    size-l cluster over m slices. Clamped from below at 1e-12 so the
    l = 2, epsilon -> 0 boundary still yields a usable radius. epsilon is
    checked as in msc_mode.
    """
    if not 2 <= l <= m - 1:
        raise ValueError(f"cluster size l={l} out of range 2..{m - 1}")
    _check_epsilon(epsilon, m)
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
    noise members are reported separately. j must be 2 or more distinct
    indices in 0..m - 1, or ValueError is raised.
    """
    m = sim.c.shape[0]
    members = _check_members(j, m)
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
