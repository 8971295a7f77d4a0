"""numpy's OpenBLAS held at one thread across threads and processes,
output across BLAS thread counts, and a run that needs no scipy.

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

import pytest

from msc3 import benchmark_spec, blas, generate, save_tensor

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
        from msc3 import blas

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
