"""Slice covariance matrices and eigen solvers.

Two independent routes to the top eigenpair are kept on purpose: LAPACK
(the default path, named 'power' for compatibility) and a Jacobi
full-spectrum solver (the exact path, also the independent eigen oracle in
the tests). They share the input check (_symmetric_stack), the sign rule
(_fix_sign) and the EigenPair result, and no eigen arithmetic.

The LAPACK route solves each matrix of a stack for its top pair only, by
the steps dsyevr takes for one pair: tridiagonal reduction, bisection and
inverse iteration, and the one vector mapped back (blas.top_pairs). A
matrix that this does not solve to the residual test goes to a full eigh
of that matrix alone, as does every matrix where numpy's BLAS lacks one of
those LAPACK functions.

The Jacobi solver uses the round-robin ("circle") parallel ordering of
Brent and Luk (SIAM J. Sci. Stat. Comput., 1985): each of the n - 1 steps
of a sweep rotates n/2 disjoint index pairs at once, as one vectorized
row, column and eigenvector update. It also takes a stack of matrices.

top_eigen alone splits covariances into stacks: runs of one shape, of about
512 KiB each, so that the covariances of all three modes of a run go through
one call, and a stack ends where the shape changes. The Jacobi route solves
each whole stack on the calling thread. The LAPACK route hands a whole stack
of matrices of order _HELPER_MIN_N or more to one helper thread while fewer
than two of its stacks are outstanding there (one being solved, one
waiting), and solves it on the calling thread otherwise. So the helper
never waits for the calling thread to build its next stack, and at most
three stacks (about 1.5 MiB) are alive; a stack is never split between
threads. On a 2-vCPU host this took a 150^3 benchmark op from 0.30 to
0.27 s against the helper that took a stack only when idle; below order
140 the helper won in some processes and lost in others (README). No
helper is started in a process that multiprocessing started or that may
use one core only. Both run with numpy's OpenBLAS held at one thread
(blas.blas_held).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ConvergenceError, ValidationError
from .tensor import as_real

JACOBI_MAX_N = 512
# Jacobi's stopping test (off-diagonal norm / ||C||_F) and sweep budget
_JACOBI_TOL = 1e-12
_JACOBI_SWEEPS = 60
# covariances that one top_eigenpair or full_eigen_jacobi call takes at once;
# with the helper thread up to three such stacks are alive
_CHUNK_BYTES = 1 << 19
# the least matrix order whose stacks go to the helper thread: below it the
# helper was no faster than the calling thread alone in some processes
# (README)
_HELPER_MIN_N = 140
# top_eigen's routes: LAPACK (the default) and Jacobi
EIG_ROUTES = ("power", "exact")


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with a unit-norm eigenvector."""

    value: float
    vector: np.ndarray


def covariance(m):
    """Gram matrix M^T M of a rows x cols matrix, exactly symmetric.

    The result is symmetric to the bit and holds no -0.0: numpy computes
    A^T A with BLAS syrk on one triangle and copies it to the other, and
    its own loop sums entries (i, j) and (j, i) in one order, each sum
    starting from +0.0. Entries that overflow come back as inf without a
    warning; slice_spectra (by the trace) and the solvers reject them.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return m.T @ m


class _MatrixError(ValidationError):
    # matrix index of a stack failed the solvers' input check
    def __init__(self, index, problem):
        super().__init__(f"matrix {index} {problem}")
        self.index, self.problem = index, problem


def _symmetric_stack(c):
    # both solvers' input: one matrix or a (k, n, n) stack, returned as a
    # stack with whether it was one matrix. 4 ||C||_F^2 < inf keeps every
    # norm and threshold either solver forms finite.
    c = np.asarray(c, dtype=np.float64)
    single = c.ndim == 2
    a = c[np.newaxis] if single else c
    if a.ndim != 3 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {c.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(4.0 * np.einsum("kij,kij->k", a, a) < np.inf)
    if bad.any():
        raise _MatrixError(np.argmax(bad), "has NaN or Inf entries, or "
                           "4 ||C||_F^2 overflows")
    if a.shape[-1] > 1 and a.size:
        # exact symmetry first, through a one-byte temporary rather than a
        # float difference as large as the stack; only a matrix that fails
        # it gets the difference, of itself alone
        bad = ~(a == np.swapaxes(a, -1, -2)).all(axis=(1, 2))
        for i in np.flatnonzero(bad):
            bad[i] = np.abs(a[i] - a[i].T).max() > 1e-9
        if bad.any():
            raise _MatrixError(np.argmax(bad), "is not symmetric within 1e-9")
    return a, single


def _fix_sign(v):
    # deterministic orientation: largest-magnitude entry nonnegative,
    # ties broken by lowest index (argmax returns the first maximum)
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


@blas.blas_held()
def top_eigenpair(c, tol=1e-10):
    """Dominant eigenpair of a symmetric PSD matrix, or of each of a stack.

    A 2-d matrix returns one EigenPair; a (k, n, n) stack returns a list of
    k, each bit for bit what its matrix gets alone. Each pair comes from
    dsyevr's LAPACK steps for the top pair only (blas.top_pairs), on the
    calling thread with numpy's OpenBLAS held at one thread. The pair is
    kept when LAPACK returns one, lambda != 0 and
    ||C v - lambda v|| <= tol * |lambda|. Any other matrix (lambda = 0, a
    failed call, a missed residual, or every matrix where numpy's BLAS
    lacks one of those functions) is solved alone by numpy.linalg.eigh,
    whose largest pair must meet ||C v - lambda v|| <= tol * max(lambda, 1),
    or ConvergenceError (with the residual) is raised. Each eigenvalue is
    clamped at 0 and each vector has its largest-magnitude entry
    nonnegative. A matrix not finite and symmetric, or with
    4 ||C||_F^2 = inf, raises ValidationError, as does a tol that is not
    a finite positive real (as_real).
    """
    return _top_eigenpair(c, tol)


def _top_eigenpair(c, tol=1e-10):
    # top_eigenpair's body, which top_eigen's helper thread runs inside the
    # calling thread's BLAS hold: it calls no function that the benchmark's
    # tracer wraps, whose spans belong to the calling thread
    a, single = _symmetric_stack(c)
    tol = as_real(tol, "tol", positive=True)
    lam, v, ok = blas.top_pairs(a)
    with np.errstate(all="ignore"):
        res = np.linalg.norm((a @ v[..., np.newaxis])[..., 0]
                             - lam[:, np.newaxis] * v, axis=1)
        ok &= (lam != 0) & (res <= tol * np.abs(lam))
    pairs = [EigenPair(max(float(lam[i]), 0.0), _fix_sign(v[i])) if ok[i]
             else _eigh_top(a[i], tol) for i in range(len(a))]
    return pairs[0] if single else pairs


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


def full_eigen_jacobi(c):
    """All eigenpairs of a symmetric matrix by parallel-order Jacobi rotations.

    Reduces the off-diagonal Frobenius norm below _JACOBI_TOL * ||C||_F in
    _JACOBI_SWEEPS sweeps and returns EigenPairs sorted by descending
    eigenvalue. Capped at n <= 512; this solver exists for exact small-scale
    work and as the independent cross-check for top_eigenpair.

    c may also be a stack (k, n, n), solved whole; the result is then a list
    of k such lists. Each matrix keeps its own threshold and stops rotating
    once its own off-diagonal norm passes, so its pairs are bit for bit
    those it gets when solved alone. ConvergenceError carries the largest
    residual of the matrices that did not converge. As in top_eigenpair, a
    matrix whose 4 ||C||_F^2 overflows raises ValidationError.
    """
    a, single = _symmetric_stack(c)
    k, n, _ = a.shape
    if n > JACOBI_MAX_N:
        raise ValueError(f"jacobi solver capped at n={JACOBI_MAX_N}, got {n}")
    # rotates only the matrices still above their own threshold; the rest
    # leave the working arrays as they converge, a zero matrix (threshold 0)
    # at the first check with unit vectors in index order
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
    thresh = _JACOBI_TOL * np.sqrt((a * a).reshape(k, n * n).sum(axis=1))
    # pivots at or below this leave the off-diagonal norm under thresh even
    # if none of them is ever rotated: n(n-1) entries of size thresh/(2n)
    # give a Frobenius norm of at most thresh/2
    skip = (thresh / (2.0 * n))[:, np.newaxis]
    for _ in range(_JACOBI_SWEEPS):
        done = _offdiag_norms(w[:, :m]) <= thresh
        if done.any():
            for j in np.flatnonzero(done):
                out[idx[j]] = _sorted_pairs(w[j, :m], w[j, m:], first, n)
            keep = ~done
            w, idx, thresh, skip = w[keep], idx[keep], thresh[keep], skip[keep]
        if idx.size == 0:
            return out[0] if single else out
        # each step rotates its pairs, then moves the next step's pairs
        # into place; the last move returns to the first layout
        for row, move in zip(rows, moves):
            _rotate(w, skip)
            w = w[:, row[:, np.newaxis], move]
    res = _offdiag_norms(w[:, :m])
    raise ConvergenceError(
        f"jacobi did not converge in {_JACOBI_SWEEPS} sweeps "
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
    return np.sqrt(sq.reshape(len(sq), d.size * d.size).sum(axis=1))


def top_eigen(covs, eig="power"):
    """Top eigenpair of each matrix in covs by the route eig names.

    eig is one of EIG_ROUTES: 'power' (LAPACK, the name kept for
    compatibility) or 'exact' (Jacobi); any other name raises ValueError.

    This is the one place that decides how covariances are solved. Both
    routes pull consecutive matrices of one shape from the iterable into a
    stack of about _CHUNK_BYTES; a full stack, or a matrix of another
    shape, ends it. 'exact' solves each stack with one full_eigen_jacobi
    call on the calling thread before the next is pulled, clamping each
    top eigenvalue at 0. 'power' hands a stack of matrices of order
    _HELPER_MIN_N (140) or more to one helper thread while fewer than two
    of its stacks are outstanding there, one being solved and one
    waiting, and solves any other with one top_eigenpair call on the
    calling thread, so that at most three stacks (about 1.5 MiB) are alive
    at once. The helper runs top_eigenpair's untraced body and gives every
    matrix the bits the calling thread would.
    It is started in the call and joined before the call returns or raises,
    and none is started in a process that multiprocessing started (so that
    N sweep --jobs workers use N cores) or that may use one core only
    (usable_cores). OpenBLAS is held at one thread throughout (blas_held).
    Items that are not square matrices raise ValueError; a matrix that the
    solvers reject raises their ValidationError, as "matrix i" of covs.
    The first matrix in input order that fails raises, whichever thread
    solved it. Returns a list with one EigenPair per matrix.
    """
    if eig not in EIG_ROUTES:
        raise ValueError(f"unknown eig route {eig!r}")
    # parts holds a Future for each stack on the helper and a list of pairs
    # for each solved here, in input order; queued holds the helper's
    # unfinished Futures, which it runs in that order. Leaving the executor
    # joins the helper.
    parts, queued = [], []
    with blas.blas_held(), (
            ThreadPoolExecutor(1, thread_name_prefix="msc3-solver")
            if eig == "power" and multiprocessing.parent_process() is None
            and usable_cores() > 1 else contextlib.nullcontext()) as helper:
        try:
            for start, stack in _stacks(covs):
                while queued and queued[0].done():
                    queued.pop(0).result()  # raises the helper's error
                # one stack being solved and one waiting, so that the
                # helper never waits for this thread to build the next
                if (helper and stack.shape[-1] >= _HELPER_MIN_N
                        and len(queued) < 2):
                    queued.append(helper.submit(_located, _top_eigenpair,
                                                stack, start))
                    parts.append(queued[-1])
                else:
                    parts.append(_located(_exact_top if eig == "exact"
                                          else top_eigenpair, stack, start))
                del stack  # a stack solved here is freed before the next
        except BaseException as e:
            # every stack the helper took comes before e's in input order,
            # up to the one that raised e: the earliest failure wins
            first = next((part.exception() for part in parts
                          if not isinstance(part, list)
                          and part.exception() is not None), e)
            if first is not e:
                raise first from None
            raise
        return [pair for part in parts for pair in
                (part if isinstance(part, list) else part.result())]


def usable_cores():
    """Cores this process may run on: its affinity set where the OS has
    one, else os.cpu_count() (1 where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stacks(covs):
    # top_eigen's stacks in order, as (start, stack); start indexes covs
    start, stack, k = 0, None, 0
    for c in covs:
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"expected square matrices, got {c.shape}")
        if stack is not None and c.shape != stack.shape[1:]:
            yield start, stack[:k]
            start, stack = start + k, None
        if stack is None:
            # a new buffer once the last one is handed off, so that at
            # most three are alive: the helper's two and this one
            count = max(_CHUNK_BYTES // max(c.nbytes, 1), 1)
            stack, k = np.empty((count, *c.shape)), 0
        stack[k] = c
        k += 1
        if k == len(stack):
            yield start, stack
            start, stack = start + k, None
    if stack is not None:
        yield start, stack[:k]


def _located(solve, stack, start):
    # solve(stack), naming a rejected matrix by its index within covs
    try:
        return solve(stack)
    except _MatrixError as e:
        raise _MatrixError(start + e.index, e.problem) from None


def _exact_top(stack):
    # the top Jacobi pair of each matrix, its eigenvalue clamped at 0
    return [EigenPair(max(s[0].value, 0.0), s[0].vector)
            for s in full_eigen_jacobi(stack)]
