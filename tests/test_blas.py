"""numpy's OpenBLAS held at one thread across threads and processes,
output across BLAS thread counts, a run that needs no scipy, and the top
pairs of blas.top_pairs against one dsyevr call a matrix.

The process checks run in a fresh interpreter, so that the thread count
numpy's OpenBLAS starts with is the one under test rather than whatever the
test session left behind.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from msc3 import (benchmark_spec, blas, covariance, generate, save_tensor,
                  spectral, top_eigenpair)

from _oracles import dsyevr_top

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _python(code, timeout, **env):
    # pytest's pythonpath setting does not reach subprocesses. The child
    # gets its own process group, so that a hang kills the processes it
    # forked too.
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, full.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=full, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


needs_control = pytest.mark.skipif(
    blas._blas_control() is None,
    reason="numpy's BLAS exposes no thread control")


@needs_control
def test_cluster_output_does_not_depend_on_blas_threads(tmp_path):
    # from about 100^3 up, d differed in its last bits between one and two
    # OpenBLAS threads before a run held BLAS at one thread
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(60.0, 0, dims=(100, 100, 100)))[0],
                path)
    code = f"""
        import sys
        from msc3.cli import main
        sys.exit(main(["cluster", {path!r}]))
    """
    runs = [_python(code, 120, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout


@needs_control
def test_msc_mode_does_not_depend_on_blas_threads(tmp_path):
    # msc_mode formed V^T V outside the hold, so with two OpenBLAS threads
    # its d differed from one thread's in the last bits
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(60.0, 0, dims=(100, 100, 100)))[0],
                path)
    code = f"""
        from msc3 import load_tensor, msc_mode
        t = load_tensor({path!r})
        for mode in (1, 2, 3):
            print(msc_mode(t, mode, 0.1).d.tobytes().hex())
    """
    runs = [_python(code, 120, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout


@needs_control
def test_similarity_matrix_does_not_depend_on_blas_threads(tmp_path):
    # similarity_matrix formed V^T V outside a hold, so called on its own
    # with two OpenBLAS threads its C differed from one thread's at 100^3.
    # v_matrix matches only because top_eigen pulls the covariances inside
    # its own hold.
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(60.0, 0, dims=(100, 100, 100)))[0],
                path)
    code = f"""
        from msc3 import load_tensor, similarity_matrix, slice_spectra
        spectra = slice_spectra(load_tensor({path!r}), 1)
        print(spectra.v_matrix.tobytes().hex())
        print(similarity_matrix(spectra).c.tobytes().hex())
    """
    runs = [_python(code, 120, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    one, two = (proc.stdout.splitlines() for proc in runs)
    assert one[0] == two[0], "v_matrix differs"
    assert one[1] == two[1], "similarity C differs"


needs_two_cores = pytest.mark.skipif(
    spectral.usable_cores() < 2,
    reason="top_eigen starts its helper thread only on two or more cores")

# prefixed to a child's code: pinned to one core, the process starts no
# helper thread; a stderr line counts the stacks the helper solved. The
# helper takes stacks of any matrix order, not only from _HELPER_MIN_N on.
_ON_CORES = """
    import os, sys, threading
    from msc3 import spectral
    if {pin}:
        os.sched_setaffinity(0, {{0}})
    spectral._HELPER_MIN_N = 1
    body, helper = spectral._top_eigenpair, []

    def counted(stack, *args):
        if threading.current_thread() is not threading.main_thread():
            helper.append(len(stack))
        return body(stack, *args)

    spectral._top_eigenpair = counted
"""


def _on_one_and_two_cores(code):
    # the child's stdout pinned to one core and on two, each with the
    # count of stacks its helper thread solved
    runs = []
    for pin in (True, False):
        proc = _python(textwrap.dedent(_ON_CORES.format(pin=pin))
                       + textwrap.dedent(code)
                       + "\nprint(len(helper), file=sys.stderr)\n", 120)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, int(proc.stderr.splitlines()[-1])))
    (one, none), (two, some) = runs
    assert none == 0 and some > 0
    return one, two


@needs_two_cores
def test_cluster_output_does_not_depend_on_the_helper_thread(tmp_path):
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(60.0, 0, dims=(100, 100, 100)))[0],
                path)
    one, two = _on_one_and_two_cores(f"""
        import contextlib, io
        from msc3.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["cluster", {path!r}]) == 0
        print(out.getvalue(), end="")
    """)
    assert one == two and one.startswith(b"{")


@needs_two_cores
def test_top_pairs_do_not_depend_on_the_helper_thread():
    # stacks of 4 of several shapes; the first, which the helper always
    # takes, holds a zero matrix, which goes to eigh on the helper thread
    one, two = _on_one_and_two_cores("""
        import numpy as np
        from msc3 import covariance, top_eigen
        eigh_top, fell = spectral._eigh_top, []

        def counted(c, tol):
            fell.append(threading.current_thread().name)
            return eigh_top(c, tol)

        spectral._eigh_top = counted
        spectral._CHUNK_BYTES = 4 * 8 * 30 * 30
        rng = np.random.default_rng(5)
        mats = [covariance(rng.standard_normal((n + 2, n)))
                for n in [30] * 9 + [7] * 40 + [1] * 3 + [30] * 6]
        mats[2] = np.zeros((30, 30))
        for pair in top_eigen(iter(mats)):
            print(pair.value.hex(), pair.vector.tobytes().hex())
        on_main = fell == [threading.main_thread().name]
        assert len(fell) == 1 and on_main == (
            len(os.sched_getaffinity(0)) == 1)
    """)
    assert one == two and len(one.splitlines()) == 58


def test_a_cluster_run_loads_no_scipy(tmp_path):
    # numpy is the one runtime dependency; scipy is a test extra, so a
    # stray import of it would pass every in-process test
    path = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(30.0, 0, dims=(12, 12, 12),
                                        cluster_size=3))[0], path)
    code = f"""
        import contextlib, io, sys
        from msc3.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cluster", {path!r}]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    proc = _python(code, 120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


@needs_control
def test_blas_hold_is_shared_by_threads():
    # more threads than cores entering and leaving the hold with a short
    # switch interval: the count is 1 inside every scope, and the last one
    # out restores it
    get, set_ = blas._blas_control()
    before = get()
    set_(2)
    wrong = []

    def hold():
        for _ in range(200):
            with blas.blas_held():
                if get() != 1:
                    wrong.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def _strip_wall(text):
    return [line.split(",")[:6] + line.split(",")[7:]
            for line in text.splitlines()]


@needs_control
def test_sweep_jobs_after_an_in_process_run_forks_a_fresh_pool(tmp_path):
    # sweep --jobs 2 forks its workers after a cluster run in the same
    # process, which held BLAS and restored it
    tensor = str(tmp_path / "t.t3b")
    save_tensor(generate(benchmark_spec(30.0, 0, dims=(12, 12, 12),
                                        cluster_size=3))[0], tensor)
    sweep = ["sweep", "--gamma", "20:25:5", "--runs", "2", "--dims",
             "12,12,12", "--cluster-size", "3", "--rank", "2"]
    code = f"""
        import contextlib, io, sys
        from msc3.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cluster", {tensor!r}]) == 0
            for jobs in ("1", "2"):
                out = {str(tmp_path)!r} + f"/s{{jobs}}.csv"
                assert main([*{sweep!r}, "--jobs", jobs, "-o", out]) == 0
    """
    proc = _python(code, 120)
    assert proc.returncode == 0, proc.stderr
    for name in ("s{}.csv", "s{}_agg.csv"):
        one, two = ((tmp_path / name.format(j)).read_text() for j in (1, 2))
        assert _strip_wall(one) == _strip_wall(two)


@needs_control
def test_sweep_jobs_run_one_solver_thread_each(tmp_path):
    out = str(tmp_path / "s.csv")
    code = f"""
        import sys, threading
        import msc3.cli
        from msc3 import blas, spectral

        # a job would hand a stack of any order to a helper: only the
        # process rule keeps it on one thread
        spectral._HELPER_MIN_N = 1
        top_pairs = blas.top_pairs

        def checked(a):
            # each job solves on its one Python thread, BLAS held at one
            assert threading.active_count() == 1
            assert blas._blas_control()[0]() == 1
            return top_pairs(a)

        blas.top_pairs = checked
        sys.exit(msc3.cli.main(["sweep", "--gamma", "20:25:5", "--runs", "1",
                                "--dims", "12,12,12", "--cluster-size", "3",
                                "--jobs", "2", "-o", {out!r}]))
    """
    proc = _python(code, 120)
    assert proc.returncode == 0, proc.stderr


def test_blas_held_without_a_thread_control(monkeypatch):
    # another BLAS exports no thread-count pair: every scope, nested or as
    # a decorator, only runs its body and sets no count. numpy's OpenBLAS,
    # where it has the pair, is set to 2 here and must stay at 2.
    control = blas._blas_control()

    def count():
        return control[0]() if control else None

    monkeypatch.setattr(blas, "_blas_control", lambda: None)
    seen = []

    @blas.blas_held()
    def solve():
        seen.append((blas._depth, count()))
        return top_eigenpair(np.eye(3))

    saved = count()
    if control:
        control[1](2)
    try:
        with blas.blas_held():
            with blas.blas_held():
                pair = solve()
            seen.append((blas._depth, count()))
    finally:
        if control:
            control[1](saved)
    assert pair.value == 1.0
    assert seen == [(0, 2 if control else None)] * 2
    assert blas._function("no_such_symbol", None) is None


@needs_control
def test_top_pairs_finds_its_lapack_functions():
    # numpy's scipy-openblas exports dsytrd, dstevx and dormtr; were one
    # missing, every matrix would silently go to a full eigh, about 3.5
    # times slower at n = 150
    assert blas._lapack() is not None
    assert blas.top_pairs(np.eye(3)[np.newaxis])[2].all()


def _psd_stack(n, k, seed):
    rng = np.random.default_rng(seed)
    return np.stack([covariance(rng.standard_normal((n + 3, n)))
                     for _ in range(k)])


def _dsyevr_pairs(a):
    pairs = dsyevr_top(a)
    if pairs is None:
        pytest.skip("numpy's BLAS has no LAPACKE_dsyevr")
    return pairs


def _residuals(a, lam, v):
    return np.linalg.norm((a @ v[..., np.newaxis])[..., 0]
                          - lam[:, np.newaxis] * v, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 32, 33, 50, 100, 134])
def test_top_pairs_are_dsyevr_bit_for_bit(n):
    # up to n = 134 dsyevr's own back-transform runs unblocked too
    a = _psd_stack(n, 6, seed=n)
    want, got = _dsyevr_pairs(a), blas.top_pairs(a)
    assert want[2].all() and got[2].all()
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", [135, 136, 150, 200])
def test_top_pairs_match_dsyevr_where_it_blocks(n):
    # from n = 135 the 31n of workspace dsyevr leaves its dormql holds the
    # 4160-entry T factor and a block of 2 or more reflectors, so dormql
    # goes blocked and the vector moves in its last bits
    a = _psd_stack(n, 4, seed=n)
    want, got = _dsyevr_pairs(a), blas.top_pairs(a)
    assert want[2].all() and got[2].all()
    assert np.array_equal(got[0], want[0])
    assert np.abs(got[1] - want[1]).max() <= 1e-14
    assert (_residuals(a, *got[:2]) <= 1e-10 * np.abs(got[0])).all()


@pytest.mark.parametrize("largest", [1e-300, 1e-150, 1e80, 1e150])
def test_top_pairs_at_extreme_scales(largest):
    # dsyevr scales the matrix before its reduction and top_pairs scales
    # the tridiagonal after it (dstevx), so lambda moves by a few ulps: by
    # up to 1.22e-15 relative over 200 random matrices each of n = 5, 20
    # and 50 at these scales. Against the same matrices scaled to a
    # largest entry in (0.5, 1] by a power of two, top_pairs moved lambda
    # by at most 5.6e-16, and dsyevr by up to 1.55e-15.
    a = _psd_stack(20, 8, seed=7)
    unit = a / 2.0 ** np.ceil(np.log2(np.abs(a).max(axis=(1, 2))))[
        :, np.newaxis, np.newaxis]
    scale = 2.0 ** round(np.log2(largest))
    scaled = unit * scale
    want, got = _dsyevr_pairs(scaled), blas.top_pairs(scaled)
    assert got[2].all()
    assert np.abs(got[0] / want[0] - 1.0).max() <= 2e-15
    assert np.abs(got[0] / scale / blas.top_pairs(unit)[0] - 1.0).max() <= (
        1e-15)
    assert (_residuals(scaled, *got[:2]) <= 1e-10 * np.abs(got[0])).all()
