"""Solver threads, and numpy's OpenBLAS held at one thread during a run.

A mode's slices are independent eigenproblems, so spectral.top_eigenpair
solves the parts of a stack on one solver thread per usable core
(os.sched_getaffinity): the calling thread and a pool of the others. The
pool starts at its first use, and a forked child starts its own. Each
thread must then run its BLAS calls on one thread: blas_held() sets numpy's
bundled OpenBLAS to one thread for as long as a run lasts, which also makes
every BLAS result of the run independent of the core count. The control is
the thread-count pair that numpy's wheels export from their scipy-openblas
build; where it is missing (another BLAS), the calling thread is the one
solver thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_lock = threading.Lock()
_depth = 0  # blas_held() scopes open in this process
_saved = None  # the thread count the outermost scope restores
_pool = None
_threads = None  # the solver thread count set by set_solver_threads


@functools.cache
def _blas_control():
    # (get, set) of the OpenBLAS that numpy loaded, found as benchmarks/run.py
    # finds it; dlopen of a loaded library returns the loaded copy
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        with contextlib.suppress(OSError, AttributeError):
            dll = ctypes.CDLL(lib)
            get = dll.scipy_openblas_get_num_threads64_
            set_ = dll.scipy_openblas_set_num_threads64_
            get.restype = ctypes.c_int
            get.argtypes = []
            set_.restype = None
            set_.argtypes = [ctypes.c_int]
            return get, set_
    return None


def solver_threads():
    """Solver threads: one per usable core, or 1 without the control."""
    if _blas_control() is None:
        return 1
    if _threads is not None:
        return _threads
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return os.cpu_count() or 1


def set_solver_threads(n):
    """Solve on n threads from the next stack on (None: one per core).

    sweep's worker processes call it with 1, so that N jobs never start
    N x cores threads.
    """
    global _threads, _pool
    with _lock:
        _threads = n
        old, _pool = _pool, None
    if old is not None:
        old.shutdown(wait=False)


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


def map_in_order(fn, tasks):
    """[fn(t) for t in tasks] under blas_held(): the first task on the
    calling thread, the others on the pool.

    Waits for every task, so none is still running when this returns or
    raises; the first task in order that raised re-raises here. Give it at
    most solver_threads() tasks to run them all at once.
    """
    tasks = list(tasks)
    with blas_held():
        futures = [_executor().submit(fn, t) for t in tasks[1:]]
        try:
            first = [fn(tasks[0])] if tasks else []
        finally:
            wait(futures)
        return first + [f.result() for f in futures]


def _executor():
    # the solver threads besides the calling one; every thread the pool
    # adds keeps its own malloc arena and BLAS buffers
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(solver_threads() - 1, 1),
                                       thread_name_prefix="msc3-solver")
        return _pool


def _after_fork_in_child():
    # the parent's threads do not exist in a forked child, and a lock one of
    # them held stays held; the child makes its own pool at first use
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
