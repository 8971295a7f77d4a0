"""Independent reference implementations used only to check the package.

Everything here is deliberately written by a different route than the
production code: ARI by brute-force pair counting instead of a contingency
table, density clustering by reachability closure instead of growing each
cluster from its core points, DBSCAN neighborhoods one point at a time by
the row expression sqrt(sum((x_j - x_i)**2)) <= radius instead of Gram
products mirrored into a boolean matrix (row_dbscan: the rule whose every
floating-point decision dbscan must reproduce, with dbscan's tie rules,
reached by a FIFO queue of neighbor indices that labels a point when it
is popped, where dbscan labels it when first reached), and synthetic
tensors by the one-shot formulas (the Box-Muller transform over the whole
uniform draw, then signal + noise_scale * z with the full signal tensor)
instead of in place.
Eigenvalues are the exception: eigh_top calls LAPACK, as the default top
eigenpair route does, so the independent eigen oracle is the Jacobi solver
(spectral.full_eigen_jacobi, round-robin ordering, numpy only), which
shares no code with LAPACK. dsyevr_top, one dsyevr call a matrix, is the
reference for the bits of blas.top_pairs, which runs dsyevr's steps
itself.
"""

import ctypes
import math
from collections import deque

import numpy as np


def pair_count_ari(a, b):
    """Adjusted Rand index by exhaustive pair counting.

    Counts, over all unordered point pairs, co-membership agreement between
    the two labelings and applies the pair-count form
    2 (n11 n00 - n10 n01) / ((n11 + n10)(n10 + n00) + (n11 + n01)(n01 + n00)).
    O(n^2); fine for the small cases it verifies.
    """
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / den


def closure_dbscan(points, radius, minpts):
    """Density clustering by explicit reachability closure.

    Core points are found by counting neighbors (closed ball, self included)
    with plain Python loops; clusters are connected components of the
    core-core adjacency graph, discovered by scanning core points in index
    order; non-core points within radius of a component's core join it.

    Only unambiguous for minpts <= 2: with minpts 1 every point is core, and
    with minpts 2 a non-core point has no neighbor at all, so border-point
    ties cannot arise. Callers must stay in that regime.
    """
    assert minpts in (1, 2), "closure oracle only defined for minpts <= 2"
    pts = [list(map(float, p)) for p in points]
    n = len(pts)

    def dist(i, j):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(pts[i], pts[j])))

    nbrs = [
        [j for j in range(n) if dist(i, j) <= radius] for i in range(n)
    ]
    core = [len(nbrs[i]) >= minpts for i in range(n)]
    labels = [-1] * n
    cid = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        # flood the whole core-connected component of i
        comp = {i}
        frontier = [i]
        while frontier:
            u = frontier.pop()
            for v in nbrs[u]:
                if core[v] and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        for u in comp:
            labels[u] = cid
        # borders: non-core points within radius of any core in the component
        for u in range(n):
            if not core[u] and labels[u] == -1:
                if any(dist(u, v) <= radius for v in comp):
                    labels[u] = cid
        cid += 1
    return labels


def row_neighborhoods(points, radius):
    """Closed-ball neighbor indices of each point by the row expression.

    One (n, dim) difference array per point, squared and summed along the
    row in numpy, then sqrt(...) <= radius: the floating-point rule that
    defines a neighborhood exactly, ties and rounding included.
    """
    pts = np.asarray(points, dtype=np.float64)
    out = []
    for p in pts:
        diff = pts - p
        # a square that overflows to inf is part of the rule: never a neighbor
        with np.errstate(over="ignore"):
            dist = np.sqrt((diff * diff).sum(axis=1))
        out.append(np.flatnonzero(dist <= radius))
    return out


def row_dbscan(points, radius, minpts):
    """Density clustering over row_neighborhoods, any minpts.

    Seeds are scanned in index order and clusters grow through a FIFO
    queue one neighbor at a time, with the tie rules of msc3.dbscan:
    a noise-labeled point reached from a core becomes a border point.
    """
    neighbors = row_neighborhoods(points, radius)
    core = [len(nb) >= minpts for nb in neighbors]
    labels = [-2] * len(neighbors)
    cid = 0
    for i in range(len(neighbors)):
        if labels[i] != -2:
            continue
        if not core[i]:
            labels[i] = -1
            continue
        labels[i] = cid
        queue = deque(int(j) for j in neighbors[i] if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cid
            if labels[j] != -2:
                continue
            labels[j] = cid
            if core[j]:
                queue.extend(int(k) for k in neighbors[j] if labels[k] in (-1, -2))
        cid += 1
    return labels


def set_partitions(n):
    """All set partitions of range(n) as canonical label tuples.

    Labels form restricted growth strings: position 0 is 0 and each later
    label is at most one more than the running maximum, so every partition
    appears exactly once.
    """
    if n == 0:
        return [()]
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for lab in range(top + 2):
            grow(prefix + [lab], max(top, lab))

    grow([0], 0)
    return out


def eigh_top(c):
    """Top eigenvalue via LAPACK eigvalsh (the default route uses eigh)."""
    return float(np.linalg.eigvalsh(np.asarray(c, dtype=float))[-1])


def dsyevr_top(a):
    """Top pair of each matrix of a (k, n, n) stack by one dsyevr call each.

    LAPACKE_dsyevr (RANGE='I', IL = IU = n) on a C-order copy, read as
    column-major 'U': the reference for blas.top_pairs, which runs dsyevr's
    steps for one pair itself. Returns (lambda, v, found) as top_pairs
    does, or None where numpy's OpenBLAS has no LAPACKE_dsyevr.
    """
    from msc3 import blas

    p = ctypes.c_void_p
    solve = blas._function("scipy_LAPACKE_dsyevr64_", blas._INT, ctypes.c_int,
                           ctypes.c_char, ctypes.c_char, ctypes.c_char,
                           blas._INT, p, blas._INT, ctypes.c_double,
                           ctypes.c_double, blas._INT, blas._INT,
                           ctypes.c_double, p, p, p, blas._INT, p)
    if solve is None:
        return None
    k, n, _ = a.shape
    lam, v = np.zeros(k), np.zeros((k, n))
    found = np.zeros(k, dtype=bool)
    work, w = np.array(a, dtype=np.float64, order="C"), np.empty(n)
    m, isuppz = blas._INT(), (blas._INT * 2)()
    for i in range(k):
        info = solve(blas._COL_MAJOR, b"V", b"I", b"U", n,
                     work[i].ctypes.data, n, 0.0, 0.0, n, n, 0.0,
                     ctypes.addressof(m), w.ctypes.data, v[i].ctypes.data, n,
                     ctypes.addressof(isuppz))
        found[i] = info == 0 and m.value == 1
        lam[i] = w[0]
    return lam, v, found


def oneshot_boxmuller(rng, n):
    """The documented Box-Muller transform applied to the whole draw at once.

    u1 = draw[0::2], u2 = draw[1::2], r = sqrt(-2 log1p(-u1)); emits
    r cos(2 pi u2), r sin(2 pi u2) interleaved, truncated to n.
    """
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    u = rng.random(2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n]


def dense_synth(spec):
    """signal + noise_scale * z, with the full signal tensor summed first.

    Each component adds gamma * w x u x v over the whole tensor, w, u and v
    being 1/sqrt(|J|) on the member set J and 0 elsewhere.
    """
    signal = np.zeros(spec.dims)
    for comp in spec.components:
        w, u, v = (_indicator(j, m)
                   for j, m in zip((comp.j1, comp.j2, comp.j3), spec.dims))
        signal += comp.gamma * w[:, None, None] * u[None, :, None] * v[None, None, :]
    if spec.noise_scale == 0:
        return signal
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    z = oneshot_boxmuller(rng, signal.size).reshape(spec.dims)
    return signal + spec.noise_scale * z


def _indicator(j, m):
    v = np.zeros(m)
    v[list(j)] = 1.0 / math.sqrt(len(j))
    return v
