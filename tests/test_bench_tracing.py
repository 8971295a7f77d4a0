"""The benchmark's per-layer tracer still finds every layer it wraps.

benchmarks/tracing.py patches functions at the attribute their callers look
up. When a refactor moves one of them, the benchmark only prints "not
traced" and carries on, so these tests pin the wiring instead.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import pytest

import msc3.cli
from msc3 import Component, SynthSpec, generate, save_tensor, spectral

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing, capsys):
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
    tracing.Tracer()
    assert "not traced" not in capsys.readouterr().err


# layers a traced `cluster` run reaches on both routes, and the solver's own
COMMON = {"tensor.load", "tensor.slice", "spectral.covariance",
          "msc.slice_spectra", "msc.similarity", "msc.seed_refine",
          "pipeline.pair", "pipeline.to_json"}
SOLVER = {"power": "spectral.top_eigen", "exact": "spectral.jacobi"}
# the layers each method adds, and those it never reaches
METHOD_LAYERS = {
    "msc": (set(), {"dbscan.split"}),
    "msc-dbscan": ({"dbscan.split"}, set()),
    "msc-iterated": ({"tensor.subcube"}, {"dbscan.split"}),
}


def _planted(tmp_path):
    blocks = [Component(gamma=g, j1=j, j2=j, j3=j)
              for g, j in ((40.0, (0, 1, 2)), (20.0, (3, 4, 5)))]
    t, _ = generate(SynthSpec(dims=(12, 12, 12), components=blocks, seed=0,
                              noise_scale=0.5))
    path = tmp_path / "t.t3b"
    save_tensor(t, str(path))
    return path


# the default method's cases keep the ids of the eig route alone
@pytest.mark.parametrize("eig, method", [
    pytest.param(eig, method,
                 id=eig if method == "msc-dbscan" else f"{eig}-{method}")
    for eig in ("power", "exact") for method in METHOD_LAYERS])
def test_traced_cluster_run_records_each_layer(tracing, tmp_path, capsys, eig,
                                               method):
    path = _planted(tmp_path)
    main = msc3.cli.main
    tracer = tracing.Tracer()
    with tracer.op(0):
        rc = msc3.cli.main(["cluster", str(path), "--eig", eig, "--method",
                            method, "-o", str(tmp_path / "c.json")])
    capsys.readouterr()
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    reached, unreached = METHOD_LAYERS[method]
    assert COMMON | reached | {SOLVER[eig], "cli.main", tracing.ROOT} <= names
    [other] = set(SOLVER.values()) - {SOLVER[eig]}
    assert not (unreached | {other}) & names
    # the originals are back once the op ends
    assert msc3.cli.main is main


@pytest.mark.parametrize("eig", ["power", "exact"])
def test_every_traced_layer_runs_on_the_calling_thread(tracing, tmp_path,
                                                       capsys, monkeypatch,
                                                       eig):
    # the tracer keeps one span stack, so a wrapped call on a solver thread
    # would corrupt its spans; modes here span several chunks
    path = _planted(tmp_path)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 2 * 8 * 12 * 12)
    calls = []
    for module, attr, name, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        *parts, leaf = attr.split(".")
        for part in parts:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)

        def wrapped(*args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, wrapped)
    rc = msc3.cli.main(["cluster", str(path), "--eig", eig,
                        "-o", str(tmp_path / "c.json")])
    capsys.readouterr()
    assert rc == 0
    assert [name for name, _ in calls].count(SOLVER[eig]) >= 3
    off = {name for name, thread in calls
           if thread is not threading.main_thread()}
    assert not off
