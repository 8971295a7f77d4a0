"""numpy's OpenBLAS: held at one thread during a run, and its dsyevr.

blas_held() sets numpy's bundled OpenBLAS to one thread for as long as a run
lasts, which makes every BLAS result of the run independent of the core
count. The control is the thread-count pair that numpy's wheels export from
their scipy-openblas build; where it is missing (another BLAS), BLAS runs as
it is set. The same build's LAPACKE_dsyevr gives spectral.top_eigenpair the
top pair of each matrix (top_pairs); where that is missing, top_pairs
finds none.
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
def _dsyevr():
    # LAPACKE_dsyevr(layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu,
    # abstol, m, w, z, ldz, isuppz), or None
    p = ctypes.c_void_p
    return _function("scipy_LAPACKE_dsyevr64_", _INT, ctypes.c_int,
                     ctypes.c_char, ctypes.c_char, ctypes.c_char, _INT, p,
                     _INT, ctypes.c_double, ctypes.c_double, _INT, _INT,
                     ctypes.c_double, p, p, p, _INT, p)


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

    One LAPACKE_dsyevr call per matrix (RANGE='I', IL = IU = n), on the
    calling thread: a tridiagonal reduction, then the one wanted pair by
    bisection and inverse iteration (dstebz, dstein; dsyevr keeps its MRRR
    path for full spectra). Each call reads the triangle that
    numpy.linalg.eigh reads (row-major 'L', which is column-major 'U') from
    a C-order copy, since dsyevr destroys its input. Returns (lambda, v,
    found), found being False where a call failed or did not return
    exactly one pair, and for every matrix where the function is missing.
    """
    k, n, _ = a.shape
    lam, v = np.zeros(k), np.zeros((k, n))
    found = np.zeros(k, dtype=bool)
    solve = _dsyevr()
    if solve is None:
        return lam, v, found
    # w takes n values, as dsyevr documents, though it returns one
    work, w = np.array(a, dtype=np.float64, order="C"), np.empty(n)
    m, isuppz = _INT(), (_INT * 2)()
    at = (work.ctypes.data, w.ctypes.data, v.ctypes.data)
    for i in range(k):
        info = solve(_COL_MAJOR, b"V", b"I", b"U", n, at[0] + 8 * i * n * n,
                     n, 0.0, 0.0, n, n, 0.0, ctypes.addressof(m), at[1],
                     at[2] + 8 * i * n, n, ctypes.addressof(isuppz))
        found[i] = info == 0 and m.value == 1
        lam[i] = w[0]
    return lam, v, found
