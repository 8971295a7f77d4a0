import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msc3 import (DegenerateInputError, Tensor3, ari, benchmark_spec, cli,
                  generate, labels_from_clusters, load_tensor, modes_from_msc,
                  msc, run_msc_dbscan, save_tensor, weighted_mean_rmse)
from msc3.cli import AGGREGATE_HEADER, RESULT_HEADER, main


def _synth_args(tmp_path, name="t.t3b", truth=None, gamma="25", rank=2,
                dims="12,12,12", size=3, noise="0", seed=0, fmt=None):
    args = [
        "synth", "--dims", dims, "--rank", str(rank), "--gamma", gamma,
        "--cluster-size", str(size), "--noise", noise, "--seed", str(seed),
        "-o", str(tmp_path / name),
    ]
    if truth:
        args += ["--truth", str(tmp_path / truth)]
    if fmt:
        args += ["--format", fmt]
    return args


def test_synth_writes_tensor_and_truth(tmp_path, capsys):
    rc = main(_synth_args(tmp_path, truth="truth.json"))
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    t = load_tensor(str(tmp_path / "t.t3b"))
    assert t.dims == (12, 12, 12)
    expect = 25.0 / (3.0 * np.sqrt(3.0))
    assert np.abs(t.data[:3, :3, :3] - expect).max() <= 1e-12
    assert t.data[6:, 6:, 6:].max() == 0.0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["modes"][0]["clusters"] == [[0, 1, 2], [3, 4, 5]]
    assert truth["gammas"] == [25.0, 25.0]


def test_synth_csv_format_round_trips(tmp_path):
    rc = main(_synth_args(tmp_path, name="t.csv", fmt="csv", dims="4,5,6",
                          rank=1, gamma="9", size=2, noise="1", seed=3))
    assert rc == 0
    t = load_tensor(str(tmp_path / "t.csv"), fmt="csv")
    assert t.dims == (4, 5, 6)


def test_synth_missing_required_flag_exits_2(tmp_path, capsys):
    rc = main(["synth", "--gamma", "10", "-o", str(tmp_path / "x.t3b")])
    capsys.readouterr()
    assert rc == 2


def test_synth_oversized_blocks_exit_2(tmp_path, capsys):
    rc = main(_synth_args(tmp_path, dims="5,5,5", rank=2, size=3))
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("noise", "nan"), ("noise", "inf"), ("gamma", "inf"), ("gamma", "nan"),
])
def test_synth_nonfinite_input_exits_2_without_warning(tmp_path, capsys, flag,
                                                       value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(_synth_args(tmp_path, **{flag: value}))
    assert rc == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Warning" not in captured.err
    assert not (tmp_path / "t.t3b").exists()


def test_cluster_missing_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.t3b")
    rc = main(["cluster", missing])
    assert rc == 1
    assert "nope.t3b" in capsys.readouterr().err


def test_cluster_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.t3b"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["cluster", str(bad)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"2,2,2\n\xff\n", b"1,1,1\n1_0\n"],
                         ids=["not_utf8", "underscore"])
def test_cluster_bad_csv_bytes_exit_1(tmp_path, capsys, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    rc = main(["cluster", str(bad), "--format", "csv"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cluster_msc_stdout_json(tmp_path, capsys):
    main(_synth_args(tmp_path))
    capsys.readouterr()
    rc = main(["cluster", str(tmp_path / "t.t3b"), "--method", "msc"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "msc"
    assert doc["epsilon"] == 0.001
    assert doc["modes"][0]["msc_cluster"] == [0, 1, 2, 3, 4, 5]
    assert doc["modes"][0]["clusters"] == [[0, 1, 2, 3, 4, 5]]


def test_cluster_msc_dbscan_splits_and_writes_file(tmp_path, capsys):
    main(_synth_args(tmp_path))
    out = tmp_path / "clusters.json"
    rc = main(["cluster", str(tmp_path / "t.t3b"), "-o", str(out)])
    assert rc == 0
    assert "clusters per mode: 3/3 3/3 3/3" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["method"] == "msc-dbscan"
    for entry in doc["modes"]:
        assert entry["clusters"] == [[0, 1, 2], [3, 4, 5]]
        assert entry["noise"] == []
    assert len(doc["triclusters"]) == 2


def test_cluster_exact_eig_matches_power(tmp_path, capsys):
    main(_synth_args(tmp_path, noise="1", seed=5))
    capsys.readouterr()
    docs = []
    for eig in ("power", "exact"):
        rc = main(["cluster", str(tmp_path / "t.t3b"), "--eig", eig])
        assert rc == 0
        docs.append(json.loads(capsys.readouterr().out))
    for a, b in zip(docs[0]["modes"], docs[1]["modes"]):
        assert a["clusters"] == b["clusters"]


def test_cluster_zero_tensor_exits_3(tmp_path, capsys):
    path = tmp_path / "zero.t3b"
    save_tensor(Tensor3(np.zeros((5, 5, 5))), str(path))
    rc = main(["cluster", str(path)])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_cluster_gapless_msc_exits_3(tmp_path, capsys):
    g = np.array([2.0, 2.0, 1.0, 1.0, 1.0])
    h = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    data = np.ones((4, 5, 6)) * g[None, :, None] * h[None, None, :]
    path = tmp_path / "flat.t3b"
    save_tensor(Tensor3(data), str(path))
    rc = main(["cluster", str(path), "--method", "msc"])
    assert rc == 3
    capsys.readouterr()


def test_cluster_iterated_extracts_rounds(tmp_path, capsys):
    main(_synth_args(tmp_path, gamma="40,20"))
    capsys.readouterr()
    rc = main(["cluster", str(tmp_path / "t.t3b"), "--method", "msc-iterated"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "msc-iterated"
    for entry in doc["modes"]:
        assert entry["clusters"] == [[0, 1, 2], [3, 4, 5]]
        assert entry["msc_cluster"] == [0, 1, 2]
    tcs = doc["triclusters"]
    assert [tc["j1"] for tc in tcs] == [[0, 1, 2], [3, 4, 5]]
    assert tcs[0]["score"] > tcs[1]["score"] > 0


def test_eval_against_truth_and_tensor(tmp_path, capsys):
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    capsys.readouterr()
    metrics_csv = tmp_path / "metrics.csv"
    rc = main([
        "eval", str(clusters), "--truth", str(tmp_path / "truth.json"),
        "--tensor", str(tmp_path / "t.t3b"), "-o", str(metrics_csv),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        name, value = line.split(" ", 1)
        values[name] = float(value)
    for mode in (1, 2, 3):
        assert values[f"ari_mode{mode}"] == 1.0
    assert values["ari_mean"] == 1.0
    assert values["rmse_tri0"] == 0.0
    assert values["rmse_tri1"] == 0.0
    assert values["rmse_weighted_mean"] == 0.0
    lines = metrics_csv.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "ari_mode1,1.0"


def test_eval_ari_matches_library(tmp_path, capsys):
    main(_synth_args(tmp_path, truth="truth.json", gamma="40,20"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(tmp_path / "truth.json")])
    assert rc == 0
    out = capsys.readouterr().out
    got = float(out.splitlines()[0].split(" ")[1])
    # the dominant-block-only prediction against the two-block truth
    want = ari([0, 0, 0, -1, -1, -1] + [-1] * 6,
               [0, 0, 0, 1, 1, 1] + [-1] * 6)
    assert got == pytest.approx(want, abs=1e-12)


def test_eval_dim_mismatch_exits_2(tmp_path, capsys):
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    main(_synth_args(tmp_path, name="t2.t3b", truth="truth2.json",
                     dims="14,14,14"))
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(tmp_path / "truth2.json")])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("clusters, message", [
    ([[1, 1]], "index 1 appears twice in cluster 0"),
    ([[0, 1], [2, 1]], "index 1 appears in clusters 0 and 1"),
])
def test_eval_names_a_repeated_cluster_index(tmp_path, capsys, clusters,
                                             message):
    main(_synth_args(tmp_path, truth="truth.json"))
    path = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(path)])
    doc = json.loads(path.read_text())
    doc["modes"][0]["clusters"] = clusters
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", str(path), "--truth", str(tmp_path / "truth.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["eval", str(bad), "--truth", str(bad)])
    assert rc == 1
    capsys.readouterr()


def _drop_modes(doc):
    del doc["modes"]
    return json.dumps(doc)


def _modes_as_object(doc):
    doc["modes"] = {"1": doc["modes"][0]}
    return json.dumps(doc)


def _first_cluster_as_strings(doc):
    doc["modes"][0]["clusters"][0] = [str(i) for i in doc["modes"][0]["clusters"][0]]
    return json.dumps(doc)


def _nan_number(doc):
    # the document a non-finite epsilon used to produce: not RFC 8259 JSON
    doc["epsilon" if "epsilon" in doc else "gammas"] = float("nan")
    return json.dumps(doc)


@pytest.mark.parametrize("which", ["clusters", "truth"])
@pytest.mark.parametrize("corrupt, code", [
    pytest.param(lambda doc: "{not json", 1, id="not_json"),
    pytest.param(lambda doc: "", 1, id="empty"),
    pytest.param(lambda doc: "\udcff garbage", 1, id="not_utf8"),
    pytest.param(lambda doc: "[" * 100000 + "]" * 100000, 1, id="deep_nesting"),
    pytest.param(_nan_number, 1, id="nan_number"),
    pytest.param(lambda doc: "[1, 2]", 2, id="top_level_array"),
    pytest.param(_drop_modes, 2, id="no_modes"),
    pytest.param(_modes_as_object, 2, id="modes_as_object"),
    pytest.param(_first_cluster_as_strings, 2, id="string_members"),
])
def test_eval_bad_input_document_exit_code(tmp_path, capsys, which, corrupt,
                                           code):
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    bad = clusters if which == "clusters" else tmp_path / "truth.json"
    bad.write_bytes(corrupt(json.loads(bad.read_text())).encode(
        "utf-8", "surrogateescape"))
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(tmp_path / "truth.json")])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {which} JSON")


@pytest.mark.parametrize("mode", [0, -1, 4])
def test_eval_mode_out_of_range_exits_2(tmp_path, capsys, mode):
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    doc = json.loads(clusters.read_text())
    doc["modes"][0]["mode"] = mode
    clusters.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(tmp_path / "truth.json")])
    assert rc == 2
    assert "mode" in capsys.readouterr().err


def _no_modes(doc):
    doc["modes"] = []


def _mode_1_three_times(doc):
    for entry in doc["modes"]:
        entry["mode"] = 1


def _four_dims(doc):
    doc["dims"].append(12)


def _two_dims(doc):
    doc["dims"].pop()


def _one_mode(doc):
    del doc["modes"][1:]


def _mode_1_relabelled(doc):
    doc["modes"][0] = {"mode": 2, "clusters": [[5, 6, 7]]}


@pytest.mark.parametrize("which, edit", [
    ("clusters", _no_modes),
    ("clusters", _mode_1_three_times),
    ("truth", _four_dims),
    ("truth", _two_dims),
    ("truth", _one_mode),
    ("truth", _mode_1_relabelled),
], ids=lambda v: v if isinstance(v, str) else v.__name__.strip("_"))
def test_eval_rejects_documents_without_three_modes(tmp_path, capsys, which,
                                                     edit):
    # eval scored the first two as ari_mean nan and ari_mode1 1.0 three
    # times, the next two ended in a bare IndexError, and the relabelled
    # mode-2 entry was scored as mode 1 (ari_mode1 -0.128)
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    bad = clusters if which == "clusters" else tmp_path / "truth.json"
    doc = json.loads(bad.read_text())
    edit(doc)
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(tmp_path / "truth.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {which} JSON must ")


def test_eval_rejects_a_truth_without_mode_keys(tmp_path, capsys):
    # eval reads truth entries by position, so it needs their mode keys to
    # know which mode each one is
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    truth = tmp_path / "truth.json"
    doc = json.loads(truth.read_text())
    for entry in doc["modes"]:
        del entry["mode"]
    truth.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", str(clusters), "--truth", str(truth)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: truth JSON.modes[0] has no key 'mode'")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", ["msc", "msc-dbscan", "msc-iterated"])
def test_cluster_nonfinite_epsilon_exits_2(tmp_path, capsys, method, value):
    main(_synth_args(tmp_path))
    capsys.readouterr()
    rc = main(["cluster", str(tmp_path / "t.t3b"), "--method", method,
               f"--epsilon={value}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err


@pytest.mark.parametrize("method", ["msc", "msc-dbscan", "msc-iterated"])
def test_cluster_huge_epsilon_exits_2_before_the_run(tmp_path, capsys,
                                                     method):
    # 12 * 1e308 / 2 overflows the spread bound; 1e300 still fits
    main(_synth_args(tmp_path, noise="0.5"))
    capsys.readouterr()
    path = str(tmp_path / "t.t3b")
    rc = main(["cluster", path, "--method", method, "--epsilon", "1e308"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err
    rc = main(["cluster", path, "--method", method, "--epsilon", "1e300"])
    assert rc == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_nonfinite_epsilon_exits_2(tmp_path, capsys, value):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims",
               "12,12,12", "--cluster-size", "3", f"--epsilon={value}",
               "-o", str(out)])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("method", ["msc", "msc-dbscan", "msc-iterated"])
@pytest.mark.parametrize("planted", [False, True])
def test_cluster_nonpositive_epsilon_exits_2(tmp_path, capsys, planted, method,
                                             value):
    # the gapless all-ones tensor never reaches refinement, so the check
    # has to come before it
    path = tmp_path / "t.t3b"
    if planted:
        main(_synth_args(tmp_path, dims="20,20,20", size=4, noise="1"))
    else:
        save_tensor(Tensor3(np.ones((4, 5, 6))), str(path))
    capsys.readouterr()
    rc = main(["cluster", str(path), "--method", method, f"--epsilon={value}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err


def test_bad_msc3_jobs_variable_is_ignored(tmp_path, capsys, monkeypatch):
    # --jobs has no environment-variable source
    monkeypatch.setenv("MSC3_JOBS", "abc")
    main(_synth_args(tmp_path))
    rc = main(["cluster", str(tmp_path / "t.t3b"), "-o", str(tmp_path / "c.json")])
    assert rc == 0
    rc = main(["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims",
               "12,12,12", "--cluster-size", "3", "-o", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(2, 6, 6), (6, 1, 6), (6, 6, 2)])
def test_cluster_iterated_small_dims_exit_2(tmp_path, capsys, dims):
    path = tmp_path / "x.t3b"
    save_tensor(Tensor3(np.random.default_rng(0).standard_normal(dims)), str(path))
    rc = main(["cluster", str(path), "--method", "msc-iterated"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _run_sweep(tmp_path, name):
    out = tmp_path / name
    rc = main([
        "sweep", "--gamma", "20:25:5", "--runs", "2", "--dims", "12,12,12",
        "--cluster-size", "3", "--rank", "2", "--seed", "0",
        "-o", str(out),
    ])
    assert rc == 0
    agg = tmp_path / f"{out.stem}_agg{out.suffix}"
    return out.read_text(), agg.read_text()


def test_sweep_csv_shape(tmp_path, capsys):
    results, agg = _run_sweep(tmp_path, "sweep.csv")
    capsys.readouterr()
    rlines = results.splitlines()
    assert rlines[0] == RESULT_HEADER
    # 2 gammas x 2 seeds x 2 methods x 3 modes
    assert len(rlines) == 1 + 24
    first = rlines[1].split(",")
    assert first[0] == "20.0"
    assert first[1] == "0"
    assert first[2] == "msc"
    assert first[3] == "1"
    assert first[7] in ("ok", "empty")
    alines = agg.splitlines()
    assert alines[0] == AGGREGATE_HEADER
    assert len(alines) == 1 + 4
    assert alines[1].startswith("20.0,msc,")
    assert alines[2].startswith("20.0,msc-dbscan,")


def _strip_wall(results_text):
    rows = []
    for line in results_text.splitlines():
        parts = line.split(",")
        rows.append(",".join(parts[:6] + parts[7:]))
    return "\n".join(rows)


def test_sweep_deterministic_across_runs(tmp_path, capsys):
    res1, agg1 = _run_sweep(tmp_path, "s1.csv")
    res2, agg2 = _run_sweep(tmp_path, "s2.csv")
    capsys.readouterr()
    assert agg1 == agg2
    assert _strip_wall(res1) == _strip_wall(res2)


def test_sweep_bad_gamma_range_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--gamma", "50-100", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [
    ["--gamma", "10:inf:10"],
    ["--gamma", "nan:nan:5"],
    ["--gamma", "20:20:5", "--runs", "0"],
    ["--gamma", "20:20:5", "--rank", "0"],
    ["--gamma", "20:20:5", "--rank", "-1"],
    ["--gamma", "20:20:5", "--jobs", "0"],
    ["--gamma", "20:20:5", "--jobs", "-3"],
])
def test_sweep_bad_range_or_runs_exits_2(tmp_path, capsys, extra):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--dims", "12,12,12", "--cluster-size", "3",
               "-o", str(out), *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_module_entry_point_runs(tmp_path):
    # pytest's pythonpath setting does not reach subprocesses
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "cli.t3b"
    proc = subprocess.run(
        [sys.executable, "-m", "msc3", "synth", "--dims", "6,6,6",
         "--gamma", "12", "--cluster-size", "2", "--noise", "0",
         "-o", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "msc3", "cluster", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["modes"][0]["clusters"] == [[0, 1]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e150, 1e160])
@pytest.mark.parametrize("eig", ["power", "exact"])
@pytest.mark.parametrize("method", ["msc", "msc-dbscan", "msc-iterated"])
def test_cluster_huge_entry_exits_2_naming_the_slice(tmp_path, capsys, method,
                                                     eig, big):
    # a covariance trace of 1e300 (or inf) fails 4 t^2 < inf on both routes,
    # before any solver forms a square that overflows
    data = np.random.default_rng(0).standard_normal((6, 6, 6))
    data[2, 3, 4] = big
    path = str(tmp_path / "h.t3b")
    save_tensor(Tensor3(data), path)
    rc = main(["cluster", path, "--method", method, "--eig", eig,
               "--epsilon", "0.1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mode-1 slice 2 is too large")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eig", ["power", "exact"])
def test_cluster_large_entry_below_the_limit_runs(tmp_path, capsys, eig):
    # slice 2's trace is about 6.4e153, just under the limit
    data = np.random.default_rng(0).standard_normal((6, 6, 6))
    data[2, 3, 4] = 8e76
    path = str(tmp_path / "h.t3b")
    save_tensor(Tensor3(data), path)
    rc = main(["cluster", path, "--method", "msc", "--eig", eig,
               "--epsilon", "0.1"])
    assert rc == 0
    json.loads(capsys.readouterr().out)


# each value, read as 10, gives a run that does not exit 2: argv, then the
# flag and a template for its value
_NUMBER_CASES = [
    (["synth", "--dims", "12,12,12", "--gamma", "25", "--cluster-size", "2"],
     [("--dims", "{},12,12"), ("--gamma", "{}"), ("--seed", "{}"),
      ("--cluster-size", "{}"), ("--noise", "{}")]),
    (["synth", "--dims", "12,12,12", "--gamma", "25", "--cluster-size", "1"],
     [("--rank", "{}")]),
    (["synth", "--dims", "12,12,12", "--rank", "2", "--cluster-size", "2"],
     [("--gamma", "25,{}")]),
    (["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims", "12,12,12",
      "--cluster-size", "3"],
     [("--gamma", "{}:20:5"), ("--dims", "12,12,{}"), ("--seed", "{}"),
      ("--epsilon", "{}"), ("--runs", "{}"), ("--jobs", "{}")]),
    (["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims", "12,12,12",
      "--rank", "1"],
     [("--cluster-size", "{}")]),
    (["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims", "12,12,12",
      "--cluster-size", "1"],
     [("--rank", "{}")]),
    (["cluster", "{path}"], [("--epsilon", "{}")]),
]


@pytest.mark.parametrize("digits", ["1_0", "１０", "١٠"],
                         ids=["underscore", "fullwidth", "arabic_indic"])
@pytest.mark.parametrize("argv, flag, template", [
    (argv, flag, template) for argv, flags in _NUMBER_CASES
    for flag, template in flags
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_cli_numbers_reject_literal_forms(tmp_path, capsys, argv, flag,
                                          template, digits):
    # int() and float() read each of these as 10; the rule is the csv
    # reader's
    path = tmp_path / "in.t3b"
    save_tensor(Tensor3(np.ones((4, 4, 4))), str(path))
    out = tmp_path / "out"
    argv = [a.format(path=path) for a in argv]
    argv += [flag, template.format(digits), "-o", str(out)]
    rc = main(argv)
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--dims", "6,6", "--gamma", "25"],
    ["synth", "--dims", "6,6,6,6", "--gamma", "25"],
    ["synth", "--dims", "6,0,6", "--gamma", "25"],
    ["synth", "--dims", "6,6,6", "--rank", "2", "--gamma", "25,10,5"],
    ["synth", "--dims", "6,6,6", "--rank", "2", "--gamma", "25,0"],
    ["sweep", "--dims", "6,-6,6", "--gamma", "20:20:5"],
    ["sweep", "--gamma", "20:30:0"],
    ["sweep", "--gamma", "20:30:-5"],
    ["sweep", "--gamma", "30:20:5"],
    # 1e17 + 1 == 1e17, so this range would never reach its stop
    ["sweep", "--gamma", "1e17:1.0000000000000002e17:1"],
], ids=["two_dims", "four_dims", "zero_dim", "three_gammas_rank_2",
        "zero_gamma", "negative_dim", "zero_step", "negative_step",
        "stop_below_start", "step_lost_to_rounding"])
def test_bad_dims_gammas_and_gamma_ranges_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_one_value_range_with_a_lost_step_runs(tmp_path, capsys):
    # start equals stop: no further value is due, so the lost step is fine
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--gamma", "1e16:1e16:1", "--runs", "1",
               "--dims", "12,12,12", "--cluster-size", "3", "-o", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6 and {r.split(",")[0] for r in rows} == {"1e+16"}


@pytest.mark.parametrize("text, want", [
    # the slack of 1e-9 took in 93,826 further steps of 1e-14
    ("20:20:1e-14", [20.0]),
    # and 9 further steps of 1e-10, up to 0.500000001
    ("0.5:0.5000000001:1e-10", [0.5, 0.5000000001]),
    ("90:110:10", [90.0, 100.0, 110.0]),
    ("0:1:0.1", [round(0.1 * k, 10) for k in range(11)]),
])
def test_gamma_range_lists_no_value_past_stop(text, want):
    assert cli._parse_gamma_range(text) == want


class _InlinePool:
    # ProcessPoolExecutor's stand-in: the tasks run in this process, and
    # the worker counts asked for and the tasks are recorded
    asked, tasks = [], []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks.append(list(tasks))
        return map(fn, self.tasks[-1])


def _cell_rows(gamma, seed, epsilon, eig, rank):
    # one (gamma, seed) cell's results rows but wall_ms, built on its own
    # through generate and run_msc_dbscan, with no memo and no shared noise
    t, truth = generate(benchmark_spec(gamma, seed, dims=(12, 12, 12),
                                       cluster_size=3, rank=rank))
    modes, triset = run_msc_dbscan(t, epsilon, eig)
    runs = (modes_from_msc([mc.msc for mc in modes], t), (modes, triset))
    rows = []
    for method, (mmodes, mtriset) in zip(cli.SWEEP_METHODS, runs):
        rmse = weighted_mean_rmse(
            t, [(tc.j1, tc.j2, tc.j3) for tc in mtriset.triclusters])
        status = "ok" if all(mc.clusters for mc in mmodes) else "empty"
        for mode in (1, 2, 3):
            pred = labels_from_clusters(mmodes[mode - 1].clusters, 12)
            a = ari(truth.mode_labels(mode), pred)
            line = cli._format_row((gamma, seed, method, mode, a, rmse, 0.0,
                                    status))
            rows.append(_strip_wall(line))
    return rows


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("eig", ["power", "exact"])
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), start=st.sampled_from([20, 40, 60]),
       runs=st.integers(1, 2), twice=st.booleans())
def test_sweep_rows_match_cells_run_one_by_one(eig, rank, jobs, seed, start,
                                              runs, twice):
    # a seed's gammas share one noise draw and one memo of the slices that
    # equal it; its rows must be those of each cell run alone. With --jobs
    # 3 each seed's gammas are split into three tasks, each with its memo;
    # a range of step 1e-11 lists its start twice (values keep 10 decimals)
    gamma = (f"{start}:{start}.00000000001:1e-11" if twice
             else f"{start}:{start + 30}:10")
    gammas = cli._parse_gamma_range(gamma)
    assert len(set(gammas)) == (1 if twice else 4)
    _InlinePool.asked, _InlinePool.tasks = [], []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ProcessPoolExecutor", _InlinePool)
        mp.setattr(cli, "usable_cores", lambda: 8)
        out = os.path.join(tmp, "s.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--gamma", gamma, "--runs", str(runs),
                         "--seed", str(seed), "--dims", "12,12,12",
                         "--cluster-size", "3", "--rank", str(rank),
                         "--eig", eig, "--epsilon", "0.1", "--jobs", str(jobs),
                         "-o", out]) == 0
        with open(out) as fh:
            got = _strip_wall(fh.read()).splitlines()[1:]
    want = [row for g in gammas for s in range(seed, seed + runs)
            for row in _cell_rows(g, s, 0.1, eig, rank)]
    assert got == want
    if jobs == 1:
        assert _InlinePool.asked == []
    else:
        # each seed's gammas in as many runs as it takes to feed the workers
        workers = min(jobs, len(gammas) * runs)
        assert _InlinePool.asked == [workers]
        assert len(_InlinePool.tasks[0]) == -(-workers // runs) * runs


def test_sweep_builds_only_the_slices_that_differ_from_the_noise(monkeypatch):
    # the first gamma of a task builds every slice's covariance (12 + 10 +
    # 8); a later gamma only the slices its planted blocks touch, 6 a mode
    calls, marks = [], []
    covariance = msc.covariance

    def counted(m):
        calls.append(m.shape)
        return covariance(m)

    def marked(spec, noise=None):
        marks.append(len(calls))
        return generate(spec, noise)

    monkeypatch.setattr(msc, "covariance", counted)
    monkeypatch.setattr(cli, "generate", marked)
    cells = cli._sweep_one(([40.0, 60.0, 80.0], 3, 0.1, "power", (12, 10, 8),
                            3, 2))
    assert len(cells) == 3
    marks.append(len(calls))
    assert [b - a for a, b in zip(marks, marks[1:])] == [30, 18, 18]
    # the memo-less run of the last cell builds them all
    calls.clear()
    run_msc_dbscan(generate(benchmark_spec(80.0, 3, dims=(12, 10, 8),
                                           cluster_size=3))[0], 0.1)
    assert len(calls) == 30


def test_synth_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    out = tmp_path / "t.t3b"
    assert main(_synth_args(tmp_path, seed=-1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--gamma", "0:1e300:1"], "lists more than 1000000 values"),
    (["--gamma", "20:20:1", "--runs", "100000000000"],
     "1 gammas x 100000000000 runs is over 1000000 cells"),
    (["--gamma", "1:1000:1", "--runs", "1001"],
     "1000 gammas x 1001 runs is over 1000000 cells"),
], ids=["range", "runs", "gammas_times_runs"])
def test_sweep_past_the_cell_cap_exits_2_at_once(tmp_path, capsys,
                                                 monkeypatch, argv, message):
    # sweeps with no practical end are refused before any cell runs
    def fail(task):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_one", fail)
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert not out.exists()


def test_sweep_writes_error_rows_for_a_run_that_fails(tmp_path, capsys,
                                                      monkeypatch):
    def fail(t, epsilon, config=None, memo=None):
        raise DegenerateInputError("no usable signal")

    monkeypatch.setattr(cli, "run_msc_dbscan", fail)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--gamma", "20:25:5", "--runs", "1", "--dims",
               "12,12,12", "--cluster-size", "3", "-o", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == RESULT_HEADER
    # 2 gammas x 1 seed x 2 methods x 3 modes
    assert len(lines) == 1 + 12
    for line in lines[1:]:
        gamma, seed, method, mode, a, rmse, wall, status = line.split(",")
        assert status == "error:DegenerateInputError"
        assert math.isnan(float(a)) and math.isnan(float(rmse))
        assert float(wall) >= 0
    agg = (tmp_path / "s_agg.csv").read_text().splitlines()
    assert agg[0] == AGGREGATE_HEADER
    assert [row.split(",")[:2] for row in agg[1:]] == [
        ["20.0", "msc"], ["20.0", "msc-dbscan"],
        ["25.0", "msc"], ["25.0", "msc-dbscan"]]
    for row in agg[1:]:
        assert all(math.isnan(float(v)) for v in row.split(",")[2:])


def _huge_truth_eval(tmp_path):
    # a clusters JSON without marginals skips the size check, so eval sizes
    # its label array from the truth's 10^18 slices
    main(_synth_args(tmp_path, truth="truth.json"))
    clusters = tmp_path / "clusters.json"
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(clusters)])
    doc = json.loads(clusters.read_text())
    for entry in doc["modes"]:
        entry["d"] = []
    clusters.write_text(json.dumps(doc))
    truth = json.loads((tmp_path / "truth.json").read_text())
    truth["dims"] = [10**18, 3, 3]
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    return ["eval", str(clusters), "--truth", str(tmp_path / "truth.json")]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["synth", "--dims", "100000,100000,100000", "--gamma", "1",
                      "-o", str(tmp_path / "x.t3b")],
    _huge_truth_eval,
], ids=["synth", "eval"])
def test_allocation_larger_than_any_address_space_exits_2(tmp_path, capsys,
                                                          argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate")
    assert not (tmp_path / "x.t3b").exists()


def test_memory_error_without_a_message_exits_2(capsys, monkeypatch):
    # a list that outgrows memory raises MemoryError with no text
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert main(["synth", "--dims", "5,5,5", "--gamma", "1", "-o", "x"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_synth_truth_onto_the_tensor_exits_2(tmp_path, capsys):
    # the truth JSON overwrote the tensor, which then failed to load
    rc = main(_synth_args(tmp_path, truth="t.t3b"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: output paths ")
    assert not (tmp_path / "t.t3b").exists()


@pytest.mark.parametrize("aggregate", ["same", "dotted", "symlink"])
def test_sweep_aggregate_onto_the_results_exits_2_at_once(tmp_path, capsys,
                                                          monkeypatch,
                                                          aggregate):
    # the aggregate CSV overwrote the results CSV, and the run exited 0
    def fail(task):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_one", fail)
    out = tmp_path / "s.csv"
    (tmp_path / "sub").mkdir()
    agg = {"same": out, "dotted": tmp_path / "sub" / ".." / "s.csv",
           "symlink": tmp_path / "link.csv"}[aggregate]
    if aggregate == "symlink":
        agg.symlink_to(out)
    rc = main(["sweep", "--gamma", "20:20:5", "--runs", "1", "--dims",
               "12,12,12", "--cluster-size", "3", "-o", str(out),
               "--aggregate", str(agg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: output paths ")
    assert not out.exists()


def test_cluster_output_onto_its_input_exits_2(tmp_path, capsys):
    # the clusters JSON overwrote the tensor, and the next run failed with
    # bad magic
    main(_synth_args(tmp_path))
    tensor = tmp_path / "t.t3b"
    before = tensor.read_bytes()
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    rc = main(["cluster", str(tensor), "-o", str(tmp_path / "sub" / ".." / "t.t3b")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: output path ")
    assert tensor.read_bytes() == before


@pytest.mark.parametrize("target", ["clusters.json", "truth.json", "t.t3b"])
def test_eval_output_onto_one_of_its_inputs_exits_2(tmp_path, capsys, target):
    # the metrics CSV replaced the clusters JSON, the truth or the tensor
    main(_synth_args(tmp_path, truth="truth.json"))
    main(["cluster", str(tmp_path / "t.t3b"), "-o", str(tmp_path / "clusters.json")])
    before = (tmp_path / target).read_bytes()
    capsys.readouterr()
    rc = main(["eval", str(tmp_path / "clusters.json"), "--truth",
               str(tmp_path / "truth.json"), "--tensor", str(tmp_path / "t.t3b"),
               "-o", str(tmp_path / target)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: output path ")
    assert captured.out == ""
    assert (tmp_path / target).read_bytes() == before


@pytest.mark.parametrize("gamma, cpus, want", [
    ("20:20:5", 8, None), ("20:30:5", 8, 3), ("20:30:5", 2, 2)])
def test_sweep_asks_for_no_more_workers_than_cells_or_cores(
        tmp_path, capsys, monkeypatch, gamma, cpus, want):
    # the pool forks all max_workers processes at once, even for one cell
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "usable_cores", lambda: cpus)
    rc = main(["sweep", "--gamma", gamma, "--runs", "1", "--dims", "12,12,12",
               "--cluster-size", "3", "--jobs", "64", "-o", str(tmp_path / "s.csv")])
    capsys.readouterr()
    assert rc == 0
    assert asked == ([] if want is None else [want])
