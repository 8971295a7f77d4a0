"""Per-layer spans recorded from outside the package.

For a traced op, each function in TARGETS is replaced by a timing wrapper at
the module attribute its caller looks up. `msc.py` imports `covariance` by
name, so the wrapper must go on `msc3.msc.covariance`; wrapping
`msc3.spectral.covariance` would miss those calls. The originals are put
back after every traced op, so untraced ops run the unmodified package.

A span is (name, start, end, parent, op). Spans stay in memory and are
written when the run ends. A span's self time is its duration minus the
durations of its child spans; the op's root span ("harness.op") covers the
`cli.main` call and the output check, so the self times of one op's spans
add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _load_counts(args, kwargs, result):
    return {"tensor.load.bytes": os.path.getsize(args[0])}


def _covariance_counts(args, kwargs, result):
    rows, cols = args[0].shape
    return {"spectral.covariance.flops": 2 * rows * cols * cols}


def _split_counts(args, kwargs, result):
    sim, members = args[0], args[1]
    n, m = len(members), sim.c.shape[0]
    return {"dbscan.split.members": n, "dbscan.split.dist_bytes": n * n * m * 8}


def _refine_counts(args, kwargs, result):
    # refinement drops the lowest-d member until the spread test passes; a
    # cluster that never passes is dropped down to one member
    kept = result.size if result.converged else 1
    return {"msc.refine.drops": len(set(args[0])) - kept}


def _json_counts(args, kwargs, result):
    return {"pipeline.to_json.bytes": len(result.encode())}


# every name the counters above produce
COUNTS = ("tensor.load.bytes", "spectral.covariance.flops",
          "dbscan.split.members", "dbscan.split.dist_bytes", "msc.refine.drops",
          "pipeline.to_json.bytes")

# (module, attribute looked up by the caller, layer name, counter)
TARGETS = (
    ("msc3.cli", "main", "cli.main", None),
    ("msc3.cli", "load_tensor", "tensor.load", _load_counts),
    ("msc3.cli", "generate", "synth.generate", None),
    ("msc3.cli", "clusters_to_json", "pipeline.to_json", _json_counts),
    ("msc3.cli", "ari", "metrics.ari", None),
    ("msc3.cli", "weighted_mean_rmse", "metrics.rmse", None),
    ("msc3.tensor", "Tensor3.slice", "tensor.slice", None),
    ("msc3.tensor", "Tensor3.subcube", "tensor.subcube", None),
    ("msc3.pipeline", "split_cluster", "dbscan.split", _split_counts),
    ("msc3.pipeline", "pair_triclusters", "pipeline.pair", None),
    ("msc3.msc", "slice_spectra", "msc.slice_spectra", None),
    ("msc3.msc", "covariance", "spectral.covariance", _covariance_counts),
    ("msc3.msc", "similarity_matrix", "msc.similarity", None),
    ("msc3.msc", "initial_cluster_by_gap", "msc.seed_refine", None),
    ("msc3.msc", "refine_cluster", "msc.seed_refine", _refine_counts),
    # the power path of top_eigen; the exact path is the Jacobi solver
    ("msc3.spectral", "top_eigenpair", "spectral.top_eigen", None),
    ("msc3.spectral", "full_eigen_jacobi", "spectral.jacobi", None),
)

ROOT = "harness.op"


class Tracer:
    """Installs the wrappers around traced ops and keeps their spans."""

    def __init__(self):
        self.spans = []
        # op -> computed count name -> total
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = [None]
        self._op = None
        self._patches = []
        for module, attr, name, counter in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                # a later refactor moved the function; its time then counts
                # as its caller's self time
                print(f"trace: {module}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            original = getattr(owner, leaf)
            self._patches.append(
                (owner, leaf, original, self._wrap(original, name, counter)))

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self._op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[self._op][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: wrappers on, a root span around the body, then off."""
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, None, op_id)
            self._op = None
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)

    def totals(self, ops):
        """Calls and self seconds per layer name over the given ops, and
        self seconds per op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        op_self_s = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            op_self_s[op] += end - start - child[i]
            if op in ops:
                calls[name] += 1
                self_s[name] += end - start - child[i]
        return calls, self_s, op_self_s

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
