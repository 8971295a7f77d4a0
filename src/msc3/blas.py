"""numpy's OpenBLAS: held at one thread during a run, and its LAPACK.

blas_held() sets numpy's bundled OpenBLAS to one thread for as long as a run
lasts, which makes every BLAS result of the run independent of the core
count. The count is the process's, so it holds for spectral.top_eigen's
helper thread too, which runs inside its caller's hold: a run then calls
BLAS from two threads at most, each single-threaded (from one in a process
that multiprocessing started, such as a sweep --jobs worker). The control
is the thread-count pair that numpy's wheels export from their
scipy-openblas build; where it is missing (another BLAS), BLAS runs as it
is set. The same build's LAPACKE dsytrd, dstevx and dormtr (the steps
dsyevr takes for one pair) give spectral.top_eigenpair the top pair of each
matrix (top_pairs); where any of them is missing, top_pairs finds none.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

_lock = threading.Lock()
_depth = 0  # blas_held() scopes open in this process
_saved = None  # the thread count the outermost scope restores
_INT = ctypes.c_int64  # lapack_int of the 64-bit integer build
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


@functools.cache
def _libraries():
    # the OpenBLAS that numpy loaded, found as benchmarks/run.py finds it;
    # dlopen of a loaded library returns the loaded copy
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    out = []
    for lib in libs:
        with contextlib.suppress(OSError):
            out.append(ctypes.CDLL(lib))
    return out


def _function(name, restype, *argtypes):
    # the first loaded library's function of that name, typed; or None
    for dll in _libraries():
        fn = getattr(dll, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
            return fn
    return None


@functools.cache
def _blas_control():
    # (get, set) of the thread count, or None
    get = _function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_ = _function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


@functools.cache
def _lapack():
    # the LAPACKE entry points top_pairs calls, or None where one is missing:
    # dsytrd_work(layout, uplo, n, a, lda, d, e, tau, work, lwork),
    # dstevx_work(layout, jobz, range, n, d, e, vl, vu, il, iu, abstol, m,
    # w, z, ldz, work, iwork, ifail) and dormtr_work(layout, side, uplo,
    # trans, m, n, a, lda, tau, c, ldc, work, lwork)
    p, c, f, i = ctypes.c_void_p, ctypes.c_char, ctypes.c_double, _INT
    fns = (_function("scipy_LAPACKE_dsytrd_work64_", i, ctypes.c_int, c, i,
                     p, i, p, p, p, p, i),
           _function("scipy_LAPACKE_dstevx_work64_", i, ctypes.c_int, c, c,
                     i, p, p, f, f, i, i, f, p, p, p, i, p, p, p),
           _function("scipy_LAPACKE_dormtr_work64_", i, ctypes.c_int, c, c,
                     c, i, i, p, i, p, p, i, p, i))
    return None if None in fns else fns


@contextlib.contextmanager
def blas_held():
    """Hold numpy's OpenBLAS at one thread; restore its count on exit.

    Re-entrant and shared by threads: only the outermost scope sets and
    restores the count, so it changes once per run however many modes or
    stacks the run solves. Also usable as a function decorator.
    """
    global _depth, _saved
    control = _blas_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _lock:
        if _depth == 0:
            _saved = get()
            if _saved != 1:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                set_(_saved)


def top_pairs(a):
    """Largest eigenpair of each matrix of a (k, n, n) float64 stack.

    Per matrix, on the thread that calls it (the calling thread of
    spectral.top_eigen or its helper), the three LAPACK steps that dsyevr
    takes for one pair (RANGE='I', IL = IU = n): dsytrd reduces it to
    tridiagonal form, dstevx finds the top pair of that by bisection and
    inverse iteration (dstebz, dstein), and dormtr maps the vector back.
    dsytrd gets the 28n of workspace that dsyevr hands it, so its bits are
    dsyevr's. dormtr gets 1, so it applies the reflectors one at a time:
    the blocked form builds T factors that pay off only over many vectors.
    Each matrix is read in the triangle that numpy.linalg.eigh reads
    (row-major 'L', which is column-major 'U') from a C-order copy of that
    matrix alone, since dsytrd overwrites it. Returns (lambda, v, found),
    found being False where a step failed or dstevx did not return exactly
    one pair, and for every matrix where any of the three functions is
    missing.
    """
    k, n, _ = a.shape
    lam, v = np.zeros(k), np.zeros((k, n))
    found = np.zeros(k, dtype=bool)
    fns = _lapack()
    if fns is None:
        return lam, v, found
    trd, stevx, ormtr = fns
    a = np.ascontiguousarray(a, dtype=np.float64)
    work = np.empty((n, n))
    # one workspace for the stack: rows d, e, tau and w (dstevx's eigenvalue
    # slots), then dsytrd's 28n, which dstevx's 5n and dormtr's 1 reuse;
    # dstevx's iwork (5n), then its ifail (n)
    buf, ibuf = np.empty((32, n)), np.empty((6, n), dtype=np.int64)
    d, e, tau, w, wk = (r.ctypes.data_as(ctypes.c_void_p) for r in buf[:5])
    iwork, ifail = (r.ctypes.data_as(ctypes.c_void_p) for r in ibuf[::5])
    # the arguments as ctypes objects, built once, which ctypes passes on
    # without converting; each matrix is copied to work and repoints vec
    mat, vec, m = ctypes.c_void_p(work.ctypes.data), ctypes.c_void_p(), _INT()
    col, zero = ctypes.c_int(_COL_MAJOR), ctypes.c_double(0.0)
    nn, one = _INT(n), _INT(1)
    up, jobz, rng, side, trans = map(ctypes.c_char, b"UVILN")
    trd_args = (col, up, nn, mat, nn, d, e, tau, wk, _INT(28 * n))
    stevx_args = (col, jobz, rng, nn, d, e, zero, zero, nn, nn, zero,
                  ctypes.byref(m), w, vec, nn, wk, iwork, ifail)
    ormtr_args = (col, side, up, trans, nn, one, mat, nn, tau, vec, nn, wk,
                  one)
    at_a, at_v, size = a.ctypes.data, v.ctypes.data, 8 * n * n
    for i in range(k):
        ctypes.memmove(mat, at_a + i * size, size)
        vec.value = at_v + 8 * i * n
        found[i] = (trd(*trd_args) == 0 and stevx(*stevx_args) == 0
                    and m.value == 1 and ormtr(*ormtr_args) == 0)
        lam[i] = buf[3, 0]
    return lam, v, found
