"""msc3 benchmark: closed-loop timing of whole CLI operations.

    python3 benchmarks/run.py --workload cube150 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0

A run is one process and one workload (see workloads.py). It imports msc3
from the checkout's src/ and makes the inputs from --seed. setup_s is the
median time from starting a fresh interpreter to msc3 imported (over
IMPORT_SAMPLES interpreters) plus the median time to make one input. It runs
one warm-up op, checked but not timed, then runs ops in a closed loop (one
client; the next op starts only when the previous one has completed) until
--seconds have passed. Every op's output is checked.

The bounded op time is op_s_p50, the median op wall time. The tail and ops
per second are measured too, printed on the "# notes" line and kept in the
result file, but not bounded: on a shared 2-vCPU host their spread over runs
of the same code reaches the largest bound allowed. The last line of stdout
is the result JSON: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. In a traced run, ops alternate between
untraced and traced (tracing.py), so the tracing overhead is measured on the
same machine state.
The machine facts, every op's time and, for traced runs, every span are
written under .bench_out/.

--workload all runs each workload in its own process, one after the other,
since ru_maxrss is a high-water mark of the whole process, and prints every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import COUNTS, ROOT, TARGETS, Tracer
from workloads import WORKLOADS, CheckFailed

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".bench_out"
# only the first few failing ops print a traceback
MAX_TRACEBACKS = 3
# fresh interpreters timed for the import part of setup_s
IMPORT_SAMPLES = 3


def import_msc3():
    """Import msc3 from this checkout's src/; returns (module, seconds)."""
    src = ROOT_DIR / "src"
    if not (src / "msc3" / "__init__.py").is_file():
        raise SystemExit(f"error: no msc3 package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import msc3
    import msc3.cli
    seconds = time.perf_counter() - start
    if not Path(msc3.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported msc3 from {msc3.__file__}, "
                         f"not from {src}")
    return msc3, seconds


def time_fresh_imports(n):
    """Seconds from starting a fresh interpreter to msc3 imported, n times."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT_DIR / 'src')!r}); "
            f"import msc3, msc3.cli")
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def machine_facts():
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # numpy's wheels bundle scipy-openblas; ask the loaded library directly
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            facts["blas_threads"] = get()
    return facts


def run_op(msc3, workload, k, tracer, failures):
    """One op: the CLI call, timed, then the output check.

    Returns a record with the CLI wall and CPU times, the wall time
    including the check, the per-mode ARIs and whether the output was right.
    """
    argv = workload.argv(k)
    ctx = tracer.op(k) if tracer else contextlib.nullcontext()
    aris, problem = [], None
    cpu = time.process_time()
    start = time.perf_counter()
    # the CLI's one-line progress messages are dropped, not printed
    with ctx, contextlib.redirect_stdout(io.StringIO()):
        try:
            code = msc3.cli.main(argv)
        except Exception:
            code = "exception"
            if len(failures) < MAX_TRACEBACKS:
                traceback.print_exc()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if code != 0:
            problem = f"exit code {code}"
        else:
            try:
                aris = workload.check(k)
            except CheckFailed as e:
                aris, problem = e.aris, str(e)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                problem = f"unreadable output: {e!r}"
    total = time.perf_counter() - start
    if problem:
        failures.append(problem)
        print(f"op {k} failed: {problem}", file=sys.stderr)
    return {"k": k, "wall": wall, "cpu": cpu, "total": total, "aris": aris,
            "ok": problem is None, "traced": tracer is not None}


def tail(walls):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile). Below 21 samples that percentile would lie
    at or below the median, so the median (percentile 50) is reported.
    """
    walls = sorted(walls)
    n = len(walls)
    if n < 21:
        return statistics.median(walls), 50.0
    return walls[n - 11], 100.0 * (n - 10) / n


def end_to_end(warmup, ops, attempted, failed, window, setup_s):
    walls = [o["wall"] for o in ops if not o["traced"]]
    tail_s, tail_pct = tail(walls)
    aris = [a for o in [warmup, *ops] for a in o["aris"]]
    values = {
        "op_s_p50": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_frac": (attempted - failed) / attempted,
        "ari_min": min(aris) if aris else 0.0,
    }
    notes = {"samples": len(walls), "op_s_tail": tail_s,
             "op_s_tail_percentile": tail_pct, "ops_per_s": len(ops) / window}
    return values, notes


def per_layer(ops, tracer, setup):
    """Per-layer metrics of a traced run, plus set-up and trace health.

    Times are means per op over the timed traced ops. Calls and the other
    computed counts come from the traced warm-up op alone (op 0, always on
    input 0), so they repeat exactly for a seed however many ops fit a run.
    """
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    calls, self_s, op_self_s = tracer.totals({o["k"] for o in traced})
    warm_calls, _, _ = tracer.totals({0})
    values = {}
    for name in {name for _, _, name, _ in TARGETS} | {ROOT}:
        values[f"{name}.calls"] = warm_calls[name]
        values[f"{name}.self_s"] = self_s[name] / n
    for key in COUNTS:
        values[key] = tracer.counts[0][key]
    eig_calls = calls["spectral.top_eigen"]
    values["spectral.top_eigen.s_per_call"] = (
        self_s["spectral.top_eigen"] / eig_calls if eig_calls else 0.0)
    values["setup.import_s"] = statistics.median(setup["imports"])
    for part in ("generate", "save"):
        values[f"setup.{part}_s"] = statistics.median(
            parts.get(part, 0.0) for parts in setup["inputs"])
    values["trace.ops"] = n
    values["trace.op_s_p50"] = statistics.median(o["wall"] for o in traced)
    values["trace.overhead"] = (values["trace.op_s_p50"]
                                / statistics.median(o["wall"] for o in plain) - 1)
    # the share of each traced op's wall time that lands in some span's self
    # time; the op furthest from 1 is reported
    values["trace.coverage"] = min(
        (op_self_s[o["k"]] / o["total"] for o in traced),
        key=lambda share: abs(share - 1))
    return values


def run_workload(args, spec):
    msc3, import_s = import_msc3()
    facts = machine_facts()
    imports = time_fresh_imports(IMPORT_SAMPLES)
    workload = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    failures = []
    try:
        setup = {"in_process_import": import_s, "imports": imports,
                 "inputs": workload.prepare(msc3, str(workdir), args.seed)}
        tracer = Tracer() if args.trace else None
        warmup = run_op(msc3, workload, 0, tracer, failures)
        ops = []
        start = time.perf_counter()
        deadline = start + args.seconds
        k = 1
        # at least two ops per run, so a traced run has a traced and an
        # untraced op even when one op outlasts --seconds
        while time.perf_counter() < deadline or len(ops) < 2:
            ops.append(run_op(msc3, workload, k,
                              tracer if k % 2 == 0 else None, failures))
            k += 1
        window = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) + 1
    failed = len(failures)
    setup_s = statistics.median(imports) + statistics.median(
        sum(parts.values()) for parts in setup["inputs"])
    e2e, notes = end_to_end(warmup, ops, attempted, failed, window, setup_s)
    correct = failed == 0
    if args.trace:
        values = per_layer(ops, tracer, setup)
        if not 0.95 <= values["trace.coverage"] <= 1.05:
            print(f"layer self times cover {values['trace.coverage']:.3f} "
                  f"of op wall time, outside 0.95..1.05", file=sys.stderr)
            correct = False
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts,
        "targets": workload.targets, "bypasses": workload.bypasses,
        "excluded": workload.excluded, "notes": notes,
        "setup": setup, "warmup": warmup, "ops": ops, "failures": failures,
        "end_to_end": e2e, "values": values,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(f"{stem}.spans.jsonl")

    print("# facts " + json.dumps(facts))
    print("# notes " + json.dumps({**notes, "attempted": attempted,
                                   "failed": failed}))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; prints a table and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=300, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:36s} {m['value']:>14.6g} {m['unit']}")
            summary["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open(ROOT_DIR / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
