"""Golden outputs of `msc3 cluster` and `msc3 sweep` on fixed seeded inputs.

For every case x method x eigensolver x epsilon, tests/golden/cluster.json
holds the exit code and the exact stdout (the clusters JSON, or nothing on
an error); tests/golden/sweep.json holds one sweep's aggregate CSV and its
results CSV without the wall_ms column. A refactor must keep all of them
byte for byte. The two eigensolver routes must also agree with each other:
the same output apart from d, and d within 1e-11 relative. To record an
intended output change, rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from msc3 import Component, SynthSpec, Tensor3, benchmark_spec, generate, save_tensor
from msc3.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

METHODS = ("msc", "msc-dbscan", "msc-iterated")
EIGS = ("power", "exact")
EPSILONS = ("0.001", "0.1")


def _blocks(dims, gammas, size, seed, noise=1.0):
    comps = []
    for c, g in enumerate(gammas):
        j = tuple(range(c * size, (c + 1) * size))
        comps.append(Component(gamma=g, j1=j, j2=j, j3=j))
    return generate(SynthSpec(dims=dims, components=comps, seed=seed,
                              noise_scale=noise))[0]


def _gapless():
    g = np.array([2.0, 2.0, 1.0, 1.0, 1.0])
    h = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    return Tensor3(np.ones((4, 5, 6)) * g[None, :, None] * h[None, None, :])


CASES = {
    "three_blocks_16": lambda: _blocks((16, 16, 16), (160.0, 120.0, 90.0), 4, 0),
    "rank2_24x20x18": lambda: generate(benchmark_spec(
        60.0, 1, dims=(24, 20, 18), cluster_size=5, rank=2))[0],
    "two_equal_20": lambda: _blocks((20, 20, 20), (45.0, 45.0), 4, 2),
    "rank1_12": lambda: generate(benchmark_spec(
        30.0, 3, dims=(12, 12, 12), cluster_size=4, rank=1))[0],
    "unequal_16x14x12": lambda: _blocks((16, 14, 12), (60.0, 30.0), 4, 4, 0.5),
    "weak_12": lambda: _blocks((12, 12, 12), (11.0, 11.0), 3, 5),
    "zero_5": lambda: Tensor3(np.zeros((5, 5, 5))),
    "gapless_4x5x6": _gapless,
    "thin_2x6x6": lambda: _blocks((2, 6, 6), (10.0,), 2, 6),
}

SWEEP_ARGS = ["--gamma", "30:40:10", "--runs", "2", "--dims", "16,14,12",
              "--cluster-size", "4", "--rank", "2", "--seed", "5"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _key(case, method, eig, eps):
    return f"{case}|{method}|{eig}|{eps}"


def cluster_outputs(workdir):
    """Exit code and stdout of every cluster run, keyed by _key."""
    outputs = {}
    for case, make in CASES.items():
        path = os.path.join(workdir, f"{case}.t3b")
        save_tensor(make(), path)
        for method in METHODS:
            for eig in EIGS:
                for eps in EPSILONS:
                    code, stdout = _run(["cluster", path, "--method", method,
                                         "--eig", eig, "--epsilon", eps])
                    outputs[_key(case, method, eig, eps)] = {
                        "exit": code, "stdout": stdout}
    return outputs


def _strip_wall(results):
    lines = []
    for line in results.splitlines():
        parts = line.split(",")
        lines.append(",".join(parts[:6] + parts[7:]))
    return "\n".join(lines) + "\n"


def sweep_output(workdir):
    out = os.path.join(workdir, "sweep.csv")
    agg = os.path.join(workdir, "sweep_agg.csv")
    code, _ = _run(["sweep", *SWEEP_ARGS, "-o", out, "--aggregate", agg])
    with open(out) as fh:
        results = fh.read()
    with open(agg) as fh:
        aggregate = fh.read()
    return {"exit": code, "aggregate": aggregate,
            "results_without_wall_ms": _strip_wall(results)}


def _load(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cluster_runs(tmp_path_factory):
    return cluster_outputs(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def cluster_golden():
    return _load("cluster.json")


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("eig", EIGS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", list(CASES))
def test_cluster_matches_golden(cluster_runs, cluster_golden, case, method,
                                eig, eps):
    key = _key(case, method, eig, eps)
    want = cluster_golden[key]
    got = cluster_runs[key]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


def _without_d(doc):
    return {**doc, "modes": [{**m, "d": None} for m in doc["modes"]]}


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", list(CASES))
def test_power_and_exact_routes_agree(cluster_runs, case, method, eps):
    power = cluster_runs[_key(case, method, "power", eps)]
    exact = cluster_runs[_key(case, method, "exact", eps)]
    assert power["exit"] == exact["exit"]
    if not power["stdout"]:
        assert exact["stdout"] == ""
        return
    p, e = json.loads(power["stdout"]), json.loads(exact["stdout"])
    assert _without_d(p) == _without_d(e)
    for pm, em in zip(p["modes"], e["modes"]):
        assert pm["d"] == pytest.approx(em["d"], rel=1e-11, abs=0.0)


def test_golden_covers_every_run(cluster_runs, cluster_golden):
    assert sorted(cluster_runs) == sorted(cluster_golden)


def test_sweep_matches_golden(tmp_path):
    assert sweep_output(str(tmp_path)) == _load("sweep.json")


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        docs = {"cluster.json": cluster_outputs(workdir),
                "sweep.json": sweep_output(workdir)}
    for name, doc in docs.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(docs['cluster.json'])} cluster runs and one sweep "
          f"to {GOLDEN_DIR}", file=sys.stderr)
