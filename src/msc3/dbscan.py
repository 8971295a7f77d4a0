"""Density-based clustering of row-vector points (DBSCAN).

The clustering pass is written from scratch (no library implementation) so
its every tie-break is pinned down: neighborhoods are closed balls
(distance <= radius, the point itself counted), seed points are scanned in
index order, a point is labelled when first reached, and cluster ids are
assigned in discovery order.

Neighborhoods come from one Gram product per block of points, and any
pair that product cannot decide within its rounding bound is decided by
the row expression sqrt(sum((x_j - x_i)**2)) <= radius. So each
neighborhood, and with it every label, is exactly what the row
expression gives, on any BLAS build and at any BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from .tensor import as_index, as_real

NOISE = -1


# float64 bytes a neighborhood row block keeps alive: its Gram product and
# its tolerance, about 24 bytes per pair with the masks; the (n, n) boolean
# neighbor matrix the blocks fill holds n^2 bytes besides
_BLOCK_BYTES = 1 << 20


def dbscan(points, radius, minpts):
    """Classic density clustering over row-vector points.

    A core point has at least minpts points (itself included) within the
    closed radius; radius is a positive real number (as_real) and minpts an
    integer (as_index) of 1 or more. Clusters are the maximal
    density-connected sets; points in no cluster get the NOISE label (-1).
    Seeds are scanned in index order and a point is labelled when first
    reached, so a border point within reach of two clusters joins the
    earlier one. Returns an int array of labels with
    cluster ids contiguous from 0 in discovery order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.empty(0, dtype=int)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, dim) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or Inf entries")
    radius = as_real(radius, "radius")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if as_index(minpts) < 1:
        raise ValueError("minpts must be at least 1")
    n = pts.shape[0]
    near = _neighborhoods(pts, radius)
    core = np.count_nonzero(near, axis=1) >= minpts

    labels = np.full(n, NOISE, dtype=int)
    # in no cluster yet; noise stays free, a core may claim it as a border
    free = np.ones(n, dtype=bool)
    cid = 0
    for i in np.flatnonzero(core):
        if not free[i]:
            continue
        labels[i] = cid
        free[i] = False
        stack = [i]
        while stack:
            reached = np.flatnonzero(near[stack.pop()] & free)
            labels[reached] = cid
            free[reached] = False
            stack += reached[core[reached]].tolist()
        cid += 1
    return labels


def _neighborhoods(pts, radius):
    """Closed-ball neighbor matrix: an (n, n) boolean array, n^2 bytes.

    near[i, j] holds exactly when the row expression
    sqrt(sum((x_j - x_i)**2)) <= radius holds in floating point. The Gram
    value s = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, one matmul per block of rows
    over the columns from the block's first row on, decides a pair only
    when |s - r^2| > tau; every other pair, including any with a
    non-finite s or tau, is decided by the row expression. Both tests are
    symmetric (x_j - x_i is -(x_i - x_j) bit for bit), so each block is
    mirrored below the diagonal.

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
    out = np.empty((n, n), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            s = pts[lo:hi] @ pts[lo:].T
            s *= -2.0
            s += sq[lo:hi, None]
            s += sq[lo:]
            s -= r2
            near = s < 0
            tau = norm[lo:hi, None] + norm[lo:]
            tau *= tau
            tau += r2
            tau *= 4 * (m + 8) * fp.eps
            tau += (m + 8) * fp.tiny
            decided = np.abs(s, out=s) > tau
            near &= decided
            for k in np.flatnonzero(~decided.all(axis=1)):
                amb = np.flatnonzero(~decided[k])
                diff = pts[lo + amb] - pts[lo + k]
                near[k, amb] = np.sqrt((diff * diff).sum(axis=1)) <= radius
            out[lo:hi, lo:] = near
            out[lo:, lo:hi] = near.T
    return out
