"""Fuzz msc3.cli.main with random argv and random or damaged input files.

Whatever the arguments and file bytes, main must return an exit code in
{0, 1, 2, 3} without letting an exception escape, and whatever it prints
as JSON on stdout must be strict RFC 8259 (no NaN or Infinity). Value pools
stay small (dims of at most 8, one seed per sweep cell, no worker
processes) so an example takes milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msc3.cli import main

SYNTH = ["synth", "--dims", "6,6,6", "--rank", "2", "--gamma", "25",
         "--cluster-size", "2", "--noise", "0.5", "--seed", "1"]

DIMS = ["6,6,6", "8,8,8", "2,2,2", "1,6,6", "0,6,6", "6,6", "a,6,6", "-1,6,6"]
GAMMAS = ["25", "25,10", "0", "-5", "nan", "inf", "1e308", "x"]
GAMMA_RANGES = ["20:20:5", "20:30:10", "5:1:1", "nan:1:1", "1:2:0", "1:2", "x"]
EPSILONS = ["0.001", "0.1", "0", "-1", "nan", "inf", "1e308", "1e-300", "x"]
SMALL_INTS = ["1", "2", "3", "0", "-1", "x"]
NOISES = ["0", "0.5", "1", "nan", "inf", "-1"]
FILES = ["t3b", "csv", "clusters", "truth", "missing", "dir"]


def _files(tmp):
    """Valid inputs of every kind the CLI reads, written once per example."""
    paths = {kind: os.path.join(tmp, f"in.{kind}") for kind in FILES}
    paths["missing"] = os.path.join(tmp, "missing.t3b")
    paths["dir"] = tmp
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(SYNTH + ["-o", paths["t3b"], "--truth", paths["truth"]]) == 0
        assert main(SYNTH + ["--format", "csv", "-o", paths["csv"]]) == 0
        assert main(["cluster", paths["t3b"], "-o", paths["clusters"]]) == 0
    return paths


@st.composite
def damage(draw):
    """A way to corrupt a file's bytes, or none."""
    kind = draw(st.sampled_from(["keep", "truncate", "flip", "replace"]))
    if kind == "keep":
        return lambda raw: raw
    if kind == "truncate":
        frac = draw(st.floats(0.0, 1.0))
        return lambda raw: raw[:int(len(raw) * frac)]
    if kind == "flip":
        frac = draw(st.floats(0.0, 1.0))
        byte = draw(st.integers(0, 255))

        def flip(raw):
            if not raw:
                return raw
            at = min(int(len(raw) * frac), len(raw) - 1)
            return raw[:at] + bytes([byte]) + raw[at + 1:]
        return flip
    junk = draw(st.binary(max_size=64))
    return lambda raw: junk


def _opt(draw, flag, pool):
    return [flag, draw(st.sampled_from(pool))] if draw(st.booleans()) else []


@st.composite
def argv(draw, paths, out):
    """argv for one subcommand, from pools of valid and invalid values."""
    path = st.sampled_from([paths[k] for k in FILES])
    fmt = ["t3b", "csv", "json"]
    command = draw(st.sampled_from(["synth", "cluster", "eval", "sweep", "bogus"]))
    if command == "synth":
        args = ["synth", "--dims", draw(st.sampled_from(DIMS)),
                "--gamma", draw(st.sampled_from(GAMMAS)), "-o", out]
        args += _opt(draw, "--rank", SMALL_INTS)
        args += _opt(draw, "--cluster-size", SMALL_INTS)
        args += _opt(draw, "--noise", NOISES)
        args += _opt(draw, "--format", fmt)
        args += _opt(draw, "--truth", [out + ".truth", paths["dir"]])
    elif command == "cluster":
        args = ["cluster", draw(path)]
        args += _opt(draw, "--method", ["msc", "msc-dbscan", "msc-iterated", "x"])
        args += _opt(draw, "--epsilon", EPSILONS)
        args += _opt(draw, "--eig", ["power", "exact", "x"])
        args += _opt(draw, "--format", fmt)
        args += _opt(draw, "-o", [out, paths["dir"]])
    elif command == "eval":
        args = ["eval", draw(path)]
        args += _opt(draw, "--truth", [paths[k] for k in FILES])
        args += _opt(draw, "--tensor", [paths[k] for k in FILES])
        args += _opt(draw, "--tensor-format", fmt)
        args += _opt(draw, "-o", [out, paths["dir"]])
    elif command == "sweep":
        args = ["sweep", "--gamma", draw(st.sampled_from(GAMMA_RANGES)),
                "--dims", draw(st.sampled_from(DIMS)),
                "--runs", draw(st.sampled_from(["1", "0", "-2", "x"])),
                "--cluster-size", draw(st.sampled_from(SMALL_INTS)), "-o", out]
        args += _opt(draw, "--rank", SMALL_INTS)
        args += _opt(draw, "--epsilon", EPSILONS)
        args += _opt(draw, "--jobs", ["1", "0", "-3", "x"])
        args += _opt(draw, "--eig", ["power", "exact", "x"])
    else:
        args = [command]
    # sometimes drop one argument, or add a stray one
    if len(args) > 1 and draw(st.booleans()):
        del args[draw(st.integers(0, len(args) - 1))]
    if draw(st.booleans()):
        args.insert(draw(st.integers(0, len(args))),
                    draw(st.sampled_from(["--help", "--x", "-o", "", "1_0"])))
    return args


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _check_strict_json(text):
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        json.loads(stripped, parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_survives_random_argv_and_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _files(tmp)
        for kind in ("t3b", "csv", "clusters", "truth"):
            wreck = data.draw(damage(), label=f"damage {kind}")
            with open(paths[kind], "rb") as fh:
                raw = fh.read()
            with open(paths[kind], "wb") as fh:
                fh.write(wreck(raw))
        args = data.draw(argv(paths, os.path.join(tmp, "out")), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    assert rc in (0, 1, 2, 3), (args, rc, err.getvalue())
    _check_strict_json(out.getvalue())
