"""Command-line surface: synth, cluster, eval, and sweep subcommands.

Exit codes: 0 success, 1 I/O problem (missing or malformed file), 2 usage or
validation problem or a failed allocation, 3 degenerate data (no usable
signal or no detectable cluster structure). All randomness flows from --seed
(default 0); nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    FormatError,
    NoGapError,
    ValidationError,
)
from .metrics import ari, labels_from_clusters, rmse_subcube, weighted_mean_rmse
from .msc import SliceMemo
from .pipeline import (
    METHODS,
    clusters_from_json,
    clusters_to_json,
    modes_from_msc,
    run_msc_dbscan,
)
from .spectral import EIG_ROUTES, usable_cores
from .synth import (benchmark_spec, generate, noise_tensor, truth_from_json,
                    truth_to_json)
from .tensor import (_mode_axis, as_index, as_real, integer, load_tensor,
                     number, save_tensor)

RESULT_HEADER = "gamma,seed,method,mode,ari,rmse,wall_ms,status"
AGGREGATE_HEADER = "gamma,method,ari_mean,ari_std,rmse_mean"
MSC, MSC_DBSCAN, _ = METHODS  # the method names, in table order
SWEEP_METHODS = (MSC, MSC_DBSCAN)
# the most gammas a range may list, and (gamma, seed) cells a sweep may run
_MAX_CELLS = 10**6


def _parse_dims(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--dims wants m1,m2,m3, got {text!r}")
    return tuple(integer(p) for p in parts)


def _parse_gamma_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--gamma wants start:stop:step, got {text!r}")
    start, stop, step = (number(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"--gamma range must be finite, got {text!r}")
    as_real(step, "gamma step", positive=True)
    if stop < start:
        raise ValueError("gamma stop must be >= start")
    if (stop - start) / step > _MAX_CELLS:
        raise ValueError(f"--gamma {text} lists more than {_MAX_CELLS} values")
    # the slack takes in the rounding of the sums; at most half a step, so
    # that it never takes in one more step, which the cap above does not count
    slack = min(1e-9, step / 2)
    out = []
    v = start
    while v <= stop + slack:
        out.append(round(v, 10))
        if v + step == v:
            # a stuck step is an error only while a further value is due
            if v < stop:
                raise ValueError(f"gamma step {step!r} does not change {v!r}")
            break
        v += step
    return out


def _distinct_outputs(outputs, inputs=()):
    # no output file of a command may overwrite one of its inputs or another
    # of its outputs; unset (None) paths are skipped
    ins = {os.path.realpath(p): p for p in inputs if p}
    outs = {}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if real in ins:
            raise ValueError(f"output path {path} and input {ins[real]} name one file")
        if real in outs:
            raise ValueError(f"output paths {outs[real]} and {path} name one file")
        outs[real] = path


def cmd_synth(args):
    _distinct_outputs([args.out, args.truth])
    dims = _parse_dims(args.dims)
    spec = benchmark_spec([number(p) for p in args.gamma.split(",")], args.seed,
                          dims=dims, cluster_size=args.cluster_size,
                          rank=args.rank, noise_scale=args.noise)
    t, truth = generate(spec)
    save_tensor(t, args.out, fmt=args.format)
    if args.truth:
        with open(args.truth, "w") as fh:
            fh.write(truth_to_json(spec, truth))
    print(
        f"wrote {args.out} dims={dims[0]}x{dims[1]}x{dims[2]} "
        f"rank={args.rank} cluster_size={args.cluster_size} "
        f"noise={args.noise} seed={args.seed}"
    )
    return 0


def cmd_cluster(args):
    _distinct_outputs([args.out], [args.input])
    t = load_tensor(args.input, fmt=args.format)
    run = METHODS[args.method]
    modes, triset = run(t, args.epsilon, args.eig)
    text = clusters_to_json(args.epsilon, args.method, modes, triset)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        sizes = ["/".join(str(len(c)) for c in mc.clusters) or "-" for mc in modes]
        print(
            f"wrote {args.out} method={args.method} "
            f"clusters per mode: {' '.join(sizes)}"
        )
    else:
        print(text)
    return 0


def cmd_eval(args):
    _distinct_outputs([args.out], [args.clusters, args.truth, args.tensor])
    with open(args.clusters, "rb") as fh:
        pred = clusters_from_json(fh.read())
    lines = []
    if args.truth:
        with open(args.truth, "rb") as fh:
            truth = truth_from_json(fh.read())
        dims = truth["dims"]
        mode_aris = []
        for entry in pred["modes"]:
            mode = entry["mode"]
            m = dims[_mode_axis(mode)]
            if entry["d"] and len(entry["d"]) != m:
                raise ValidationError(
                    f"mode-{mode} size mismatch: prediction has "
                    f"{len(entry['d'])} slices, truth has {m}"
                )
            true_clusters = truth["modes"][mode - 1]["clusters"]
            a = labels_from_clusters(true_clusters, m)
            b = labels_from_clusters(entry["clusters"], m)
            mode_aris.append(ari(a, b))
            lines.append((f"ari_mode{mode}", mode_aris[-1]))
        lines.append(("ari_mean", float(np.mean(mode_aris))))
    if args.tensor:
        t = load_tensor(args.tensor, fmt=args.tensor_format)
        tris = [(tc["j1"], tc["j2"], tc["j3"]) for tc in pred["triclusters"]]
        for k, tri in enumerate(tris):
            lines.append((f"rmse_tri{k}", rmse_subcube(t, tri)))
        lines.append(("rmse_weighted_mean", weighted_mean_rmse(t, tris)))
    for name, value in lines:
        print(f"{name} {value!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("metric,value\n")
            for name, value in lines:
                fh.write(f"{name},{value!r}\n")
    return 0


def _sweep_one(task):
    """One task: one seed's run of consecutive gammas.

    The seed's noise is drawn once (synth.noise_tensor), each gamma's tensor
    is a copy of it plus the planted blocks, and one msc.SliceMemo carries
    the pairs of the slices that equal the noise from gamma to gamma, so
    each such slice is solved once. Returns one list of finished CSV rows a
    gamma, in task order: both methods across the three modes.
    """
    gammas, seed, epsilon, eig, dims, cluster_size, rank = task
    start = time.perf_counter()  # the first cell's wall time has the draw
    specs = [benchmark_spec(g, seed, dims=dims, cluster_size=cluster_size,
                            rank=rank) for g in gammas]
    memo = SliceMemo(noise_tensor(specs[0]))
    cells = []
    for gamma, spec in zip(gammas, specs):
        cells.append(_sweep_cell(spec, gamma, epsilon, eig, memo, start))
        start = time.perf_counter()
    return cells


def _sweep_cell(spec, gamma, epsilon, eig, memo, start):
    # one (gamma, seed) cell on the seed's noise: generate, cluster and
    # evaluate both methods. The cell's tensor is freed on return, so a task
    # holds two tensors at most: the noise and one cell's.
    t, truth = generate(spec, memo.base)
    seed = spec.seed
    rows = []
    try:
        modes, triset = run_msc_dbscan(t, epsilon, eig, memo=memo)
    except (DegenerateInputError, ConvergenceError) as e:
        wall = (time.perf_counter() - start) * 1000.0
        for method in SWEEP_METHODS:
            for mode in (1, 2, 3):
                rows.append((gamma, seed, method, mode, float("nan"),
                             float("nan"), wall, f"error:{type(e).__name__}"))
        return rows

    # the single-stage method's output is the per-mode cluster the second
    # stage started from, so one pipeline run serves both methods
    runs = (modes_from_msc([mc.msc for mc in modes], t), (modes, triset))
    wall = (time.perf_counter() - start) * 1000.0

    for method, (mmodes, mtriset) in zip(SWEEP_METHODS, runs):
        tris = [(tc.j1, tc.j2, tc.j3) for tc in mtriset.triclusters]
        rmse = weighted_mean_rmse(t, tris)
        status = "ok" if all(mc.clusters for mc in mmodes) else "empty"
        for mode in (1, 2, 3):
            pred = labels_from_clusters(mmodes[mode - 1].clusters, t.dims[mode - 1])
            a = ari(truth.mode_labels(mode), pred)
            rows.append((gamma, seed, method, mode, a, rmse, wall, status))
    return rows


def _format_row(row):
    gamma, seed, method, mode, a, rmse, wall, status = row
    return (
        f"{float(gamma)!r},{seed},{method},{mode},{float(a)!r},"
        f"{float(rmse)!r},{wall:.3f},{status}"
    )


def cmd_sweep(args):
    gammas = _parse_gamma_range(args.gamma)
    as_index(args.runs, "--runs", 1)
    as_index(args.jobs, "--jobs", 1)
    if len(gammas) * args.runs > _MAX_CELLS:
        raise ValueError(f"{len(gammas)} gammas x {args.runs} runs is over "
                         f"{_MAX_CELLS} cells")
    root, ext = os.path.splitext(args.out)
    agg_path = args.aggregate or f"{root}_agg{ext or '.csv'}"
    _distinct_outputs([args.out, agg_path])
    seeds = [args.seed + r for r in range(args.runs)]
    dims = _parse_dims(args.dims)
    # the pool starts all its workers at once: no more than cells or cores
    jobs = min(args.jobs, len(gammas) * args.runs, usable_cores())
    # a task is one seed's gammas, or a run of them when there are fewer
    # seeds than workers, so that every worker gets a task
    parts = -(-jobs // args.runs)
    cuts = [len(gammas) * c // parts for c in range(parts + 1)]
    tasks = [
        (gammas[lo:hi], s, args.epsilon, args.eig, dims, args.cluster_size,
         args.rank)
        for lo, hi in zip(cuts, cuts[1:])
        for s in seeds
    ]
    if jobs > 1:
        # each job's runs hold BLAS at one thread and solve on one thread
        # (spectral.top_eigen), so N jobs use N cores
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_one, tasks))
    else:
        done = list(map(_sweep_one, tasks))
    # deterministic row order: gamma, seed, method, mode. The tasks of one
    # run of gammas are consecutive, one a seed in seed order.
    ordered = [row for c in range(parts)
               for cells in zip(*done[c * args.runs:(c + 1) * args.runs])
               for rows in cells for row in rows]
    with open(args.out, "w") as fh:
        fh.write(RESULT_HEADER + "\n")
        for row in ordered:
            fh.write(_format_row(row) + "\n")

    # each (gamma, method)'s rows in row order, from one pass; a gamma
    # listed twice pools the rows of both
    groups = {}
    for row in ordered:
        groups.setdefault((row[0], row[2]), []).append(row)
    with open(agg_path, "w") as fh:
        fh.write(AGGREGATE_HEADER + "\n")
        for g in gammas:
            for method in SWEEP_METHODS:
                rows = groups[g, method]
                aris = np.array([r[4] for r in rows], dtype=float)
                rmses = np.array(
                    [r[5] for r in rows if r[3] == 1], dtype=float
                )
                finite = rmses[np.isfinite(rmses)]
                ari_mean = float(np.mean(aris))
                ari_std = float(np.std(aris))
                rmse_mean = float(np.mean(finite)) if finite.size else float("nan")
                fh.write(
                    f"{float(g)!r},{method},{ari_mean!r},{ari_std!r},"
                    f"{rmse_mean!r}\n"
                )
    print(
        f"wrote {args.out} ({len(ordered)} rows) and {agg_path} "
        f"({len(gammas) * len(SWEEP_METHODS)} rows)"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msc3",
        description=(
            "Multi-slice spectral clustering of 3rd-order tensors with "
            "density-based cluster splitting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-cluster tensor")
    p.add_argument("--dims", required=True, help="m1,m2,m3")
    p.add_argument("--rank", type=integer, default=1, help="number of planted components")
    p.add_argument("--gamma", required=True,
                   help="signal strength, one value or comma list per component")
    p.add_argument("--cluster-size", type=integer, default=10)
    p.add_argument("--noise", type=number, default=1.0, help="noise scale (0 = none)")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--format", choices=("t3b", "csv"), default="t3b")
    p.add_argument("-o", "--out", required=True, help="tensor output path")
    p.add_argument("--truth", help="ground-truth JSON output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster a tensor file")
    p.add_argument("input", help="tensor path")
    p.add_argument("--method", choices=METHODS, default=MSC_DBSCAN)
    p.add_argument("--epsilon", type=number, default=0.001)
    p.add_argument("--eig", choices=EIG_ROUTES, default="power")
    p.add_argument("--format", choices=("t3b", "csv"), default="t3b")
    p.add_argument("-o", "--out", help="clusters JSON path (default: stdout)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="score a clusters JSON against truth or tensor")
    p.add_argument("clusters", help="clusters JSON path")
    p.add_argument("--truth", help="truth JSON path (enables ARI)")
    p.add_argument("--tensor", help="tensor path (enables RMSE)")
    p.add_argument("--tensor-format", choices=("t3b", "csv"), default="t3b")
    p.add_argument("-o", "--out", help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="signal-strength sweep emitting CSV")
    p.add_argument("--gamma", required=True, help="start:stop:step")
    p.add_argument("--runs", type=integer, default=10, help="seeds per gamma")
    p.add_argument("--epsilon", type=number, default=0.001)
    p.add_argument("--seed", type=integer, default=0, help="base seed")
    p.add_argument("--eig", choices=EIG_ROUTES, default="power")
    p.add_argument("--dims", default="50,50,50")
    p.add_argument("--cluster-size", type=integer, default=10)
    p.add_argument("--rank", type=integer, default=2)
    p.add_argument("--jobs", type=integer, default=1,
                   help="parallel workers over seed-group tasks (one seed's "
                        "gammas, split when seeds are fewer than workers)")
    p.add_argument("-o", "--out", required=True, help="results CSV path")
    p.add_argument("--aggregate", help="aggregate CSV path (default: <out>_agg)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except (DegenerateInputError, NoGapError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
