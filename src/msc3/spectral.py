"""Slice covariance matrices and eigen solvers.

Two independent routes to the top eigenpair are kept on purpose: LAPACK
(the default path, named 'power' for compatibility) and a Jacobi
full-spectrum solver (the exact path, also the independent eigen oracle in
the tests). They share no code beyond numpy primitives.

The LAPACK route solves a stack of matrices with one batched eigvalsh call
for the top eigenvalues and two batched steps of shifted inverse iteration
for their vectors (Golub and Van Loan, Matrix Computations, 8.2.2). A
matrix that this does not solve to the residual test goes to a full eigh
of that matrix alone.

The Jacobi solver uses the round-robin ("circle") parallel ordering of
Brent and Luk (SIAM J. Sci. Stat. Comput., 1985): each of the n - 1 steps
of a sweep rotates n/2 disjoint index pairs at once, as one vectorized
row, column and eigenvector update. It also takes a stack of matrices.

top_eigen alone decides how a mode's covariances meet a solver: both
routes take them in stacks of about 1 MiB, one solver call a stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

JACOBI_MAX_N = 512
# working-array budget of one stacked Jacobi solve; a stack is solved in
# chunks of matrices whose working arrays (about 80 n^2 bytes each) fit it
_JACOBI_CHUNK_BYTES = 32 << 20
# covariances that top_eigen pulls and solves at once
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with a unit-norm eigenvector."""

    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class EigConfig:
    """Eigen solver: 'power' (LAPACK, the default) or 'exact' (Jacobi)."""

    method: str = "power"

    def __post_init__(self):
        if self.method not in ("power", "exact"):
            raise ValueError(f"unknown eig method {self.method!r}")


def covariance(m):
    """Gram matrix M^T M of a rows x cols matrix, exactly symmetric.

    Each unordered entry pair is computed once and mirrored, so the result
    is symmetric to the bit.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    c = m.T @ m
    upper = np.triu(c)
    return upper + np.triu(c, 1).T


def _check_symmetric(c, stacked=False):
    # one square matrix, or with stacked=True a (k, n, n) stack of them
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 + stacked or c.shape[-1] != c.shape[-2] or c.shape[-1] < 1:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ValueError(f"expected a {kind}, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    if c.shape[-1] > 1 and c.size:
        # one temporary: the difference, made absolute in place
        d = c - np.swapaxes(c, -1, -2)
        if np.abs(d, out=d).max() > 1e-9:
            raise ValidationError("matrix is not symmetric within 1e-9")
    return c


def _fix_sign(v):
    # deterministic orientation: largest-magnitude entry nonnegative,
    # ties broken by lowest index (argmax returns the first maximum)
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def top_eigenpair(c, tol=1e-10):
    """Dominant eigenpair of a symmetric PSD matrix, or of each of a stack.

    A 2-d matrix returns one EigenPair; a (k, n, n) stack returns a list of
    k, each bit for bit what its matrix gets alone. lambda comes from one
    batched eigvalsh call and v from two steps of inverse iteration on
    C - (lambda + delta) I, delta = 8 n eps |lambda| (Golub and Van Loan,
    Matrix Computations, 8.2.2), from a fixed start vector. The pair is
    kept when ||C v - lambda v|| <= tol * |lambda|. Any other matrix
    (lambda = 0, a singular shifted solve, a missed residual) is solved
    alone by numpy.linalg.eigh, whose largest pair must meet
    ||C v - lambda v|| <= tol * max(lambda, 1), or ConvergenceError (with
    the residual) is raised. Each eigenvalue is clamped at 0 and each
    vector has its largest-magnitude entry nonnegative.
    """
    stacked = np.ndim(c) == 3
    a = _check_symmetric(c, stacked=stacked)
    if tol <= 0:
        raise ValueError("tol must be positive")
    pairs = _top_pairs(a if stacked else a[np.newaxis], tol)
    return pairs if stacked else pairs[0]


def _top_pairs(a, tol):
    # inverse iteration where it meets the residual test, _eigh_top for the
    # rest; rows of v stay NaN for the matrices it does not solve
    k, n, _ = a.shape
    lam = np.linalg.eigvalsh(a)[:, -1]
    v = np.full((k, n), np.nan)
    live = lam != 0
    with np.errstate(all="ignore"):
        try:
            v[live] = _inverse_iteration(a[live], lam[live])
        except np.linalg.LinAlgError:
            # one singular shifted matrix fails the whole batched solve;
            # alone, the others get the same bits and it goes to eigh
            if k > 1:
                return [p for c in a for p in _top_pairs(c[np.newaxis], tol)]
        res = np.linalg.norm((a @ v[..., np.newaxis])[..., 0]
                             - lam[:, np.newaxis] * v, axis=1)
    ok = res <= tol * np.abs(lam)
    return [EigenPair(max(float(lam[i]), 0.0), _fix_sign(v[i])) if ok[i]
            else _eigh_top(a[i], tol) for i in range(k)]


def _inverse_iteration(b, lam):
    # two steps on each b - (lam + delta) I, shifting b in place; the top
    # eigenvector's share of the start vector grows by about gap / delta a step
    k, n, _ = b.shape
    d = np.arange(n)
    shift = lam + 8 * n * np.finfo(float).eps * np.abs(lam)
    b[:, d, d] -= shift[:, np.newaxis]
    # a golden-ratio sequence: no structure a covariance is likely to share
    x = 0.5 + np.arange(1, n + 1) * 0.6180339887498949 % 1.0
    x = np.broadcast_to(x[:, np.newaxis], (k, n, 1))
    for _ in range(2):
        x = np.linalg.solve(b, x)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x[..., 0]


def _eigh_top(c, tol):
    # the largest pair of one matrix by a full LAPACK solve; the fallback
    # of top_eigenpair and the one place that checks max(lambda, 1)
    vals, vecs = np.linalg.eigh(c)
    lam = float(vals[-1])
    v = vecs[:, -1].copy()
    res = float(np.linalg.norm(c @ v - lam * v))
    if res > tol * max(lam, 1.0):
        raise ConvergenceError(
            f"eigenpair residual {res:.3e} exceeds {tol:.1e} * max(lambda, 1)",
            residual=res,
        )
    return EigenPair(max(lam, 0.0), _fix_sign(v))


def full_eigen_jacobi(c, tol_factor=1e-12, max_sweeps=60):
    """All eigenpairs of a symmetric matrix by parallel-order Jacobi rotations.

    Reduces the off-diagonal Frobenius norm below tol_factor * ||C||_F and
    returns EigenPairs sorted by descending eigenvalue. Capped at n <= 512;
    this solver exists for exact small-scale work and as the independent
    cross-check for top_eigenpair.

    c may also be a stack (k, n, n); the result is then a list of k such
    lists. Each matrix keeps its own threshold and stops rotating once its
    own off-diagonal norm passes, so its pairs are bit for bit those it
    gets when solved alone. ConvergenceError carries the largest residual
    of the matrices that did not converge.
    """
    if not tol_factor > 0:
        raise ValueError("tol_factor must be positive")
    c = np.asarray(c, dtype=np.float64)
    stacked = c.ndim == 3
    a = _check_symmetric(c, stacked=stacked)
    if not stacked:
        a = a[np.newaxis]
    n = a.shape[-1]
    if n > JACOBI_MAX_N:
        raise ValueError(f"jacobi solver capped at n={JACOBI_MAX_N}, got {n}")
    chunk = max(1, _JACOBI_CHUNK_BYTES // (80 * n * n))
    out = []
    for lo in range(0, a.shape[0], chunk):
        out.extend(_jacobi_stack(a[lo:lo + chunk], tol_factor, max_sweeps))
    return out if stacked else out[0]


def _jacobi_stack(a, tol_factor, max_sweeps):
    # rotates only the matrices still above their own threshold; the rest
    # leave the working arrays as they converge, a zero matrix (threshold 0)
    # at the first check with unit vectors in index order
    k, n, _ = a.shape
    out = [None] * k
    # work in the layout of the first step, where the pairs sit at positions
    # (0, 1), (2, 3), ...; odd n gets a zero row and column for the dummy
    # index, whose pivots are 0 and so are always skipped. Each matrix and
    # its eigenvectors share one (2m, m) block, so that one column update
    # serves both.
    layouts = _round_robin(n)
    first = layouts[0]
    m = first.size
    moves = np.take_along_axis(
        np.argsort(layouts, axis=1), np.roll(layouts, -1, axis=0), axis=1)
    rows = np.concatenate((moves, np.broadcast_to(np.arange(m, 2 * m),
                                                  moves.shape)), axis=1)
    at = np.argsort(first)[:n]  # the position of each index
    w = np.zeros((k, 2 * m, m))
    w[:, at[:, np.newaxis], at] = a
    w[:, m + first, np.arange(m)] = 1.0
    idx = np.arange(k)
    thresh = tol_factor * np.sqrt((a * a).reshape(k, -1).sum(axis=1))
    # pivots at or below this leave the off-diagonal norm under thresh even
    # if none of them is ever rotated: n(n-1) entries of size thresh/(2n)
    # give a Frobenius norm of at most thresh/2
    skip = (thresh / (2.0 * n))[:, np.newaxis]
    for _ in range(max_sweeps):
        done = _offdiag_norms(w[:, :m]) <= thresh
        if done.any():
            for j in np.flatnonzero(done):
                out[idx[j]] = _sorted_pairs(w[j, :m], w[j, m:], first, n)
            keep = ~done
            w, idx, thresh, skip = w[keep], idx[keep], thresh[keep], skip[keep]
            if idx.size == 0:
                return out
        # each step rotates its pairs, then moves the next step's pairs
        # into place; the last move returns to the first layout
        for row, move in zip(rows, moves):
            _rotate(w, skip)
            w = w[:, row[:, np.newaxis], move]
    res = _offdiag_norms(w[:, :m])
    raise ConvergenceError(
        f"jacobi did not converge in {max_sweeps} sweeps "
        f"(off-diagonal norm {res.max():.3e})",
        residual=float(res.max()),
    )


def _round_robin(n):
    """Brent-Luk circle ordering of the index pairs of an n x n matrix.

    Returns an (m - 1, m) array, m being n rounded up to even: row r lists
    the indices so that positions (0, 1), (2, 3), ... hold the disjoint
    pairs of step r, smaller index first. Over the m - 1 steps every
    unordered pair meets exactly once. Index 0 stays put while the others
    turn around a circle, position i meeting position m - 1 - i. For odd n
    the dummy index n completes the pairing.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    layouts = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, r)))
        x, y = order[: m // 2], order[::-1][: m // 2]
        layouts.append(np.column_stack((np.minimum(x, y), np.maximum(x, y))))
    return np.array(layouts).reshape(m - 1, m)


def _rotate(w, skip):
    # one Jacobi rotation per (matrix, pair) on the pairs at positions
    # (2i, 2i + 1) of the C-contiguous stack w, whose blocks hold a matrix
    # above its eigenvectors; a pivot at or below its matrix's skip level
    # gets the identity rotation. Masked lanes never divide by zero, and
    # hypot keeps 1/(|theta| + sqrt(1 + theta^2)) finite where theta^2
    # would overflow.
    k, m = w.shape[0], w.shape[2]
    a = w.reshape(k, 2 * m * m)[:, : m * m]
    diag = a[:, :: m + 1]
    upper = a[:, 1 :: 2 * (m + 1)]
    lower = a[:, m :: 2 * (m + 1)]
    rot = np.abs(upper) > skip
    theta = (diag[:, 1::2] - diag[:, 0::2]) / np.where(rot, 2.0 * upper, 1.0)
    t = np.where(theta >= 0, 1.0, -1.0) / (np.abs(theta) + np.hypot(1.0, theta))
    t = np.where(rot, t, 0.0)
    cth = 1.0 / np.sqrt(1.0 + t * t)
    sth = t * cth
    _pair_update(w[:, 0:m:2, :], w[:, 1:m:2, :],
                 cth[:, :, np.newaxis], sth[:, :, np.newaxis])
    _pair_update(w[:, :, 0::2], w[:, :, 1::2],
                 cth[:, np.newaxis, :], sth[:, np.newaxis, :])
    np.copyto(upper, 0.0, where=rot)
    np.copyto(lower, 0.0, where=rot)


def _pair_update(xp, xq, c, s):
    # (xp, xq) <- (c xp - s xq, s xp + c xq), in place through the views
    new_p = c * xp - s * xq
    xq[...] = s * xp + c * xq
    xp[...] = new_p


def _sorted_pairs(a, v, layout, n):
    # a and v are in the given layout; put them back in index order and drop
    # the dummy index, so that ties in the eigenvalues go to the lower index
    vals = np.empty(layout.size)
    vals[layout] = np.diag(a)
    vecs = np.empty_like(v)
    vecs[:, layout] = v
    vals, vecs = vals[:n], vecs[:n, :n]
    order = np.argsort(-vals, kind="stable")
    return [
        EigenPair(float(vals[i]), _fix_sign(vecs[:, i].copy())) for i in order
    ]


def _offdiag_norms(a):
    # measured on the actual off-diagonal entries; the algebraic shortcut
    # ||A||_F^2 - sum(diag^2) cancels catastrophically near convergence
    sq = a * a
    d = np.arange(a.shape[-1])
    sq[:, d, d] = 0.0
    return np.sqrt(sq.reshape(len(sq), -1).sum(axis=1))


def top_eigen(covs, config=None):
    """Top eigenpair of each matrix in covs via the configured method.

    This is the one place that decides how a mode's covariances are solved.
    Both routes pull them from the iterable in chunks of about
    _CHUNK_BYTES of matrices and solve each chunk with one call, so at most
    one chunk is alive at once: 'power' through top_eigenpair, 'exact'
    through full_eigen_jacobi, with each top eigenvalue clamped at 0.
    Returns a list with one EigenPair per matrix.
    """
    exact = (config or EigConfig()).method == "exact"
    out = []
    it = iter(covs)
    for first in it:
        first = np.asarray(first, dtype=np.float64)
        more = max(_CHUNK_BYTES // max(first.nbytes, 1) - 1, 0)
        chunk = np.stack([first, *itertools.islice(it, more)])
        if exact:
            out += [EigenPair(max(spectrum[0].value, 0.0), spectrum[0].vector)
                    for spectrum in full_eigen_jacobi(chunk)]
        else:
            out += top_eigenpair(chunk)
    return out
