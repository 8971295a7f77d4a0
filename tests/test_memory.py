"""Peak memory of making, writing and reading a tensor, of a density split
and of a sweep task, by tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every tensor-sized copy. Each tensor bound is a ratio to the tensor's own
bytes at 100^3 (8 MB), or at 40^3 for the slower csv reader.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from msc3 import (benchmark_spec, cli, dbscan, generate, load_tensor,
                  save_tensor)

DIMS = (100, 100, 100)
NBYTES = 8 * 100 ** 3


def _peak_ratio(fn):
    """The peak of what fn allocates, as a multiple of NBYTES, and fn's
    result. Memory allocated before the call is not traced."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / NBYTES, result


@pytest.fixture(scope="module")
def tensor():
    # a small run first, so first-call allocations are not counted
    generate(benchmark_spec(80.0, 0, dims=(12, 12, 12), cluster_size=3))
    return generate(benchmark_spec(80.0, 0, dims=DIMS))[0]


def test_generate_keeps_one_tensor_sized_buffer(tensor):
    ratio, (t, _) = _peak_ratio(
        lambda: generate(benchmark_spec(80.0, 0, dims=DIMS)))
    assert t.data.tobytes() == tensor.data.tobytes()
    assert ratio <= 1.25


def test_save_tensor_makes_no_payload_copy(tensor, tmp_path):
    path = str(tmp_path / "t.t3b")
    ratio, _ = _peak_ratio(lambda: save_tensor(tensor, path))
    assert ratio <= 0.1
    with open(path, "rb") as fh:
        assert fh.read()[16:] == tensor.data.tobytes()


def test_load_t3b_keeps_one_tensor_sized_buffer(tensor, tmp_path):
    path = str(tmp_path / "t.t3b")
    save_tensor(tensor, path)
    load_tensor(path)
    ratio, t = _peak_ratio(lambda: load_tensor(path))
    assert ratio <= 1.25
    assert t.data.tobytes() == tensor.data.tobytes()


def test_load_csv_parses_into_one_tensor_sized_buffer(tmp_path):
    # a list of Python floats copied into an array peaked at about 5.2x
    t = generate(benchmark_spec(80.0, 0, dims=(40, 40, 40), cluster_size=5))[0]
    path = str(tmp_path / "t.csv")
    save_tensor(t, path, fmt="csv")
    load_tensor(path, fmt="csv")
    ratio, loaded = _peak_ratio(lambda: load_tensor(path, fmt="csv"))
    assert ratio * NBYTES <= 1.3 * t.data.nbytes
    assert loaded.data.tobytes() == t.data.tobytes()


def test_dbscan_of_two_dense_blobs_keeps_one_neighbor_matrix():
    # each point reaches its whole 1000-point blob: a queue of neighbor
    # indices per pop, and one index array per point, peaked at 34.9 MiB
    block = importlib.import_module("msc3.dbscan")._BLOCK_BYTES
    rng = np.random.default_rng(4)
    pts = 0.01 * rng.standard_normal((2000, 400))
    pts[1000:, 0] += 10.0
    dbscan(pts[:10], 1.0, 2)
    ratio, labels = _peak_ratio(lambda: dbscan(pts, 1.0, 2))
    assert ratio * NBYTES <= 2000 ** 2 + 4 * block
    assert np.bincount(labels).tolist() == [1000, 1000]


def test_a_sweep_seed_group_keeps_the_noise_and_one_cell_tensor(tensor):
    # a task holds its seed's noise for all its gammas and builds one
    # cell's tensor at a time: about two tensors, where a cell's tensor
    # kept alive into the next cell would make three
    task = ([80.0, 90.0, 100.0], 0, 0.1, "power", DIMS, 10, 2)
    ratio, cells = _peak_ratio(lambda: cli._sweep_one(task))
    assert [row[7] for rows in cells for row in rows] == ["ok"] * 18
    assert ratio <= 2.5
