"""The benchmark's workloads: inputs made from a seed, one op's argv, and the
check that every op's output is correct.

Each workload drives the package only through its public entry points:
`msc3.generate` and `msc3.save_tensor` make the input files during set-up,
and every op is one `msc3.cli.main(argv)` call. The program sees only the
generated files, never the seed or the planted truth.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections import Counter
from functools import partial


def _block(start, size):
    return tuple(range(start, start + size))


def ari(a, b):
    """Adjusted Rand index by pair counting over a contingency table.

    Kept independent of `msc3.metrics.ari` so the output check does not
    trust the code it checks.
    """
    def pairs(n):
        return n * (n - 1) / 2

    sum_ij = sum(pairs(v) for v in Counter(zip(a, b)).values())
    sum_a = sum(pairs(v) for v in Counter(a).values())
    sum_b = sum(pairs(v) for v in Counter(b).values())
    expected = sum_a * sum_b / pairs(len(a))
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def labels(clusters, m):
    """Cluster list to a labelling (list position is the id, the rest -1).

    Raises ValueError on an out-of-range or repeated index.
    """
    lab = [-1] * m
    for cid, members in enumerate(clusters):
        for i in members:
            if not isinstance(i, int) or not 0 <= i < m or lab[i] != -1:
                raise ValueError(f"bad or repeated index {i!r} in a cluster")
            lab[i] = cid
    return lab


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class CheckFailed(Exception):
    """An op's output is wrong; the message says how.

    aris holds the per-mode ARIs when the output could still be scored.
    """

    def __init__(self, message, aris=()):
        super().__init__(message)
        self.aris = list(aris)


class TensorWorkload:
    """Every op runs `msc3 cluster` on one of `inputs` generated tensor files.

    Set-up writes `inputs` tensors that differ only in their noise (input i
    of run seed s uses generator seed s * inputs + i), and op k clusters input
    k % inputs, so a run's figures do not hang on one noise draw.

    blocks lists the planted components as (gamma, j1, j2, j3). With ordered
    set, the first len(blocks) clusters of each mode must equal the planted
    blocks in order of strength and later clusters are allowed (reported
    through ARI only); otherwise each mode's clusters must equal the planted
    blocks as a set.
    """

    def __init__(self, name, targets, bypasses, excluded, dims, blocks, fmt,
                 args, ordered=False, inputs=5):
        self.name = name
        self.targets = targets
        self.bypasses = bypasses
        self.excluded = excluded
        self.dims = dims
        self.blocks = blocks
        self.fmt = fmt
        self.args = args
        self.ordered = ordered
        self.inputs = inputs

    def prepare(self, msc3, workdir, seed):
        """Generate the tensors and write the input files.

        Returns, per input, the seconds spent in generate and in save_tensor.
        """
        comps = [msc3.Component(gamma=g, j1=j1, j2=j2, j3=j3)
                 for g, j1, j2, j3 in self.blocks]
        self.paths = []
        self.out = os.path.join(workdir, "clusters.json")
        times = []
        for i in range(self.inputs):
            path = os.path.join(workdir, f"{self.name}-{i}.{self.fmt}")
            start = time.perf_counter()
            t, _ = msc3.generate(msc3.SynthSpec(
                dims=self.dims, components=comps, seed=seed * self.inputs + i))
            mid = time.perf_counter()
            msc3.save_tensor(t, path, fmt=self.fmt)
            times.append({"generate": mid - start,
                          "save": time.perf_counter() - mid})
            self.paths.append(path)
        return times

    def argv(self, k):
        return ["cluster", self.paths[k % self.inputs], "--format", self.fmt,
                *self.args, "-o", self.out]

    def check(self, k):
        """Check the clusters JSON; returns the per-mode ARIs."""
        # removed before parsing, so a later op that writes nothing fails
        with open(self.out) as fh:
            text = fh.read()
        os.remove(self.out)
        doc = strict_json(text)
        aris = []
        problem = None
        for axis in range(3):
            got = [tuple(c) for c in doc["modes"][axis]["clusters"]]
            want = [b[axis + 1] for b in self.blocks]
            m = self.dims[axis]
            aris.append(ari(labels(want, m), labels(got, m)))
            if self.ordered:
                ok = got[:len(want)] == want
            else:
                ok = sorted(got) == sorted(want)
            if not ok and problem is None:
                sizes = "/".join(str(len(c)) for c in got) or "-"
                problem = (f"mode {axis + 1}: planted blocks not recovered "
                           f"(cluster sizes {sizes})")
        if problem:
            raise CheckFailed(problem, aris)
        return aris


class SweepWorkload:
    """Every op is one `msc3 sweep` over GAMMAS x RUNS (gamma, seed) cells.

    The sweep generates its own tensors inside the op, so set-up writes no
    file. Op k uses seeds base + k * RUNS up to base + k * RUNS + RUNS - 1,
    each at every gamma. A single cell takes about 0.1 s, short enough that
    a burst of load on a shared host decides whether a cell is fast or slow
    and the median of single cells jumps between the two; six cells per op
    average such bursts out.
    """

    # At the default epsilon 0.001 the spread-bound refinement drops a weak
    # planted slice now and then: 2 cells in 200 at gamma 50, 1 in 400 at
    # 60, 1 in 800 at 70, 1 in about 1,400 at 80. At epsilon 0.1 the bound
    # is 1.0 wider (2.84 at l = 20, m = 50) and no planted step came within
    # 1.2 of it at gamma 80 (1,500 cells); instead the wider DBSCAN radius
    # merges the two blocks at low gamma: 78 cells in 600 at 50, 2 in 300 at
    # 60, none in 300 at 70, 1,500 at 80 or 300 at 100.
    GAMMAS = (90.0, 100.0, 110.0)
    EPSILON = 0.1
    RUNS = 2
    SEEDS_PER_RUN = 1000000

    def __init__(self, name, targets, bypasses, excluded):
        self.name = name
        self.targets = targets
        self.bypasses = bypasses
        self.excluded = excluded

    def prepare(self, msc3, workdir, seed):
        """Nothing to write: set-up is the import alone."""
        self.base = seed * self.SEEDS_PER_RUN
        self.out = os.path.join(workdir, "sweep.csv")
        self.agg = os.path.join(workdir, "sweep_agg.csv")
        return [{}]

    def _seeds(self, k):
        first = self.base + k * self.RUNS
        return list(range(first, first + self.RUNS))

    def argv(self, k):
        lo, hi = self.GAMMAS[0], self.GAMMAS[-1]
        step = self.GAMMAS[1] - self.GAMMAS[0]
        return ["sweep", "--gamma", f"{lo}:{hi}:{step}", "--runs",
                str(self.RUNS), "--seed", str(self._seeds(k)[0]), "--jobs",
                "1", "--epsilon", str(self.EPSILON), "--dims", "50,50,50",
                "--cluster-size", "10", "--rank", "2", "-o", self.out,
                "--aggregate", self.agg]

    def check(self, k):
        """Check the results CSV; returns the msc-dbscan per-mode ARIs."""
        with open(self.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(self.out)
        os.remove(self.agg)
        # row order: gamma, then seed, then method, then mode
        want = [(gamma, seed, meth, str(mode))
                for gamma in self.GAMMAS for seed in self._seeds(k)
                for meth in ("msc", "msc-dbscan") for mode in (1, 2, 3)]
        got = [(float(r["gamma"]), int(r["seed"]), r["method"], r["mode"])
               for r in rows]
        if got != want:
            raise CheckFailed(f"results CSV does not hold {len(self.GAMMAS)} "
                              f"gammas x {self.RUNS} seeds x 2 methods x 3 "
                              f"modes in order")
        aris = []
        problem = None
        for r in rows:
            if r["method"] != "msc-dbscan":
                continue
            if r["status"] != "ok":
                raise CheckFailed(f"gamma {r['gamma']} seed {r['seed']} mode "
                                  f"{r['mode']} status {r['status']}", aris)
            aris.append(float(r["ari"]))
            if aris[-1] != 1.0 and problem is None:
                problem = (f"gamma {r['gamma']} seed {r['seed']} mode "
                           f"{r['mode']}: msc-dbscan ARI {aris[-1]}, a block "
                           f"was missed")
        if problem:
            raise CheckFailed(problem, aris)
        return aris


_PAIR10 = ((80.0, _block(0, 10), _block(0, 10), _block(0, 10)),
           (80.0, _block(10, 10), _block(10, 10), _block(10, 10)))

# name -> constructor of a fresh workload, so no run shares state
WORKLOADS = {
    "cube150": partial(
        TensorWorkload, "cube150",
        targets="spectral.top_eigen (power path), spectral.covariance, tensor.slice",
        bypasses="spectral.jacobi, iterated extraction, synth and metrics inside ops",
        excluded=("200^3: about 3 s per op, so 6 ops fit a 20-s run and op_s_p50 "
                  "spread 10% over 5 seeds; 400^3: 8.3 s and 2.2 GB for one mode, "
                  "and gamma 80 is not recovered there"),
        dims=(150, 150, 150), blocks=_PAIR10, fmt="t3b", args=[],
    ),
    "sweep50": partial(
        SweepWorkload, "sweep50",
        targets="spectral.top_eigen on 50x50 problems (six sweep cells per op), synth.generate, metrics",
        bypasses="tensor.load, spectral.jacobi, large density splits",
        excluded=("gamma 50-80 and the default epsilon 0.001: some cells miss "
                  "or merge a block (see GAMMAS), so ops would fail; the "
                  "full sweep as one op (17 s): too few ops per run; one cell "
                  "per op (0.1 s): its median jumped with bursts of host load; "
                  "--jobs > 1: a pool would time worker start-up"),
    ),
    "tall600": partial(
        TensorWorkload, "tall600",
        targets="dbscan.split (300x300x600 difference array), msc.similarity at 600x600",
        bypasses="spectral.jacobi, large eigenproblems (30x30 slices only)",
        excluded=("epsilon 0.001 and 0.03: the largest in-cluster d-step (up "
                  "to 10.9 over 150 noise draws) exceeds the spread bound (2.5 "
                  "and 6.9 at l = 300), so refinement empties mode 1 on some "
                  "draws; at epsilon 0.1 the bound is 17.4"),
        dims=(600, 30, 30),
        blocks=((400.0, _block(0, 150), _block(0, 8), _block(0, 8)),
                (400.0, _block(150, 150), _block(8, 8), _block(8, 8))),
        fmt="t3b", args=["--epsilon", "0.1"],
    ),
    "iterated_exact": partial(
        TensorWorkload, "iterated_exact",
        targets="spectral.jacobi, iterated extraction, tensor.subcube, the csv reader",
        bypasses="spectral.top_eigen power path, dbscan.split",
        excluded=("28^3 with 7-blocks: 6-9 s per op in the pure-Python Jacobi "
                  "loop, so 3 ops fit a 20-s run and op_s_p50 spread 23% over "
                  "5 seeds"),
        dims=(16, 16, 16),
        blocks=tuple((g, _block(4 * c, 4), _block(4 * c, 4), _block(4 * c, 4))
                     for c, g in enumerate((160.0, 120.0, 90.0))),
        fmt="csv", args=["--method", "msc-iterated", "--eig", "exact"],
        # a fourth round in the pure-noise remainder shows on some noise
        # draws only; with a fresh input for nearly every op it shows in most
        # runs. An odd count lets traced and untraced ops see every input.
        ordered=True, inputs=15,
    ),
}
