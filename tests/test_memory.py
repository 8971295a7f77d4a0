"""Peak memory of making, writing and reading a tensor, by tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every tensor-sized copy. Each bound is a ratio to the tensor's own bytes at
100^3 (8 MB), or at 40^3 for the slower csv reader.
"""

import tracemalloc

import pytest

from msc3 import benchmark_spec, generate, load_tensor, save_tensor

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
