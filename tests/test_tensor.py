import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msc3 import (
    FormatError,
    Tensor3,
    ValidationError,
    check_index_set,
    load_tensor,
    save_tensor,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def small_tensors():
    shapes = st.tuples(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
    )
    return shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=finite_floats)
    ).map(Tensor3)


def test_layout_slice_mode1():
    t = Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2))
    assert np.array_equal(t.slice(1, 0), [[0, 1], [2, 3]])


def test_layout_slice_mode3():
    t = Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2))
    assert np.array_equal(t.slice(3, 1), [[1, 3], [5, 7]])


def test_zero_slice_mode2():
    t = Tensor3(np.zeros((3, 4, 5)))
    s = t.slice(2, 2)
    assert s.shape == (3, 5)
    assert np.all(s == 0)


def test_slice_out_of_range_names_mode_and_bound():
    t = Tensor3(np.zeros((3, 4, 5)))
    with pytest.raises(IndexError, match="mode-2.*0..3"):
        t.slice(2, 4)
    with pytest.raises(IndexError):
        t.slice(1, -1)


def test_slice_is_a_copy():
    t = Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2))
    s = t.slice(1, 0)
    s[0, 0] = 99.0
    assert t.data[0, 0, 0] == 0.0


def test_tensor_data_read_only():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_subcube_full_identity():
    t = Tensor3(np.arange(24, dtype=float).reshape(2, 3, 4))
    sub = t.subcube(range(2), range(3), range(4))
    assert np.array_equal(sub.data, t.data)


def test_subcube_singleton():
    t = Tensor3(np.arange(24, dtype=float).reshape(2, 3, 4))
    sub = t.subcube([1], [2], [3])
    assert sub.dims == (1, 1, 1)
    assert sub.data[0, 0, 0] == t.data[1, 2, 3]


def test_subcube_sum_tensor():
    i, j, k = np.meshgrid(range(4), range(4), range(4), indexing="ij")
    t = Tensor3((i + j + k).astype(float))
    sub = t.subcube([0, 1], [0, 1], [0, 1])
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert sub.data[a, b, c] == a + b + c


def test_subcube_empty_set_rejected():
    t = Tensor3(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError, match="empty"):
        t.subcube([], [0], [0])


def test_subcube_out_of_range():
    t = Tensor3(np.zeros((3, 3, 3)))
    with pytest.raises(IndexError):
        t.subcube([0], [0], [5])


def test_nan_rejected_on_construction():
    data = np.zeros((2, 2, 2))
    data[1, 1, 1] = np.nan
    with pytest.raises(ValidationError):
        Tensor3(data)


def test_t3b_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    t = Tensor3(rng.standard_normal((5, 6, 7)))
    path = tmp_path / "t.t3b"
    save_tensor(t, path, fmt="t3b")
    back = load_tensor(path, fmt="t3b")
    assert back.dims == (5, 6, 7)
    assert np.array_equal(back.data, t.data)


def test_t3b_save_deterministic(tmp_path):
    rng = np.random.default_rng(8)
    t = Tensor3(rng.standard_normal((3, 4, 5)))
    p1 = tmp_path / "a.t3b"
    p2 = tmp_path / "b.t3b"
    save_tensor(t, p1)
    save_tensor(t, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_t3b_minimal_file(tmp_path):
    t = Tensor3(np.zeros((1, 1, 1)))
    path = tmp_path / "m.t3b"
    save_tensor(t, path)
    assert load_tensor(path).data[0, 0, 0] == 0.0


def test_t3b_bad_magic(tmp_path):
    path = tmp_path / "bad.t3b"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError) as exc:
        load_tensor(path)
    assert exc.value.offset == 0


def test_t3b_payload_mismatch(tmp_path):
    import struct

    path = tmp_path / "short.t3b"
    payload = struct.pack("<7d", *range(7))  # header says 8 values
    path.write_bytes(b"T3B1" + struct.pack("<III", 2, 2, 2) + payload)
    with pytest.raises(FormatError, match="mismatch"):
        load_tensor(path)


def test_t3b_zero_dim(tmp_path):
    import struct

    path = tmp_path / "zero.t3b"
    path.write_bytes(b"T3B1" + struct.pack("<III", 0, 2, 2))
    with pytest.raises(FormatError) as exc:
        load_tensor(path)
    assert exc.value.offset == 4


def test_t3b_truncated_header(tmp_path):
    path = tmp_path / "trunc.t3b"
    path.write_bytes(b"T3B1\x01\x00")
    with pytest.raises(FormatError):
        load_tensor(path)


def test_csv_format_definition(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("2,2,1\n0\n1\n2\n3\n")
    t = load_tensor(path, fmt="csv")
    assert t.dims == (2, 2, 1)
    assert list(t.data.ravel()) == [0.0, 1.0, 2.0, 3.0]


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    t = Tensor3(rng.standard_normal((2, 3, 2)))
    path = tmp_path / "t.csv"
    save_tensor(t, path, fmt="csv")
    back = load_tensor(path, fmt="csv")
    assert np.array_equal(back.data, t.data)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,2\n0\n")
    with pytest.raises(FormatError):
        load_tensor(path, fmt="csv")


def test_csv_value_count_mismatch(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("2,2,1\n0\n1\n2\n")
    with pytest.raises(FormatError, match="count"):
        load_tensor(path, fmt="csv")


def test_csv_nan_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,1,2\nnan\n0\n")
    with pytest.raises(ValidationError):
        load_tensor(path, fmt="csv")


@pytest.mark.parametrize("raw", [
    b"1,1,2\n0.5\n\xff\xfe\n",  # bytes that are not UTF-8 in a value
    b"1,1,\xc3\n0\n",  # a truncated UTF-8 sequence in the header
    b"\x80" * 40,
], ids=["value", "header", "garbage"])
def test_csv_non_utf8_bytes_are_a_format_error(tmp_path, raw):
    path = tmp_path / "bytes.csv"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="UTF-8"):
        load_tensor(path, fmt="csv")


@pytest.mark.parametrize("text", [
    "1,1,2\n1_0\n0\n",  # float() reads 1_0 as 10.0
    "1,1,2\n0\n2.5_0e1\n",
    "1,1,1_0\n" + "0\n" * 10,  # int() reads 1_0 as 10
    "1,1,2\n\uff11\n0\n",  # a fullwidth digit one
    "1,1,\u0662\n0\n0\n",  # an Arabic-Indic digit two
], ids=["value", "exponent", "header", "fullwidth", "arabic_indic"])
def test_csv_number_forms_csv_files_never_hold_are_rejected(tmp_path, text):
    path = tmp_path / "forms.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError):
        load_tensor(path, fmt="csv")


def test_unknown_format_rejected(tmp_path):
    t = Tensor3(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        save_tensor(t, tmp_path / "x", fmt="bin")
    with pytest.raises(ValueError):
        load_tensor(tmp_path / "x", fmt="bin")


def test_check_index_set():
    assert check_index_set([3, 1, 2], 5, 1) == (1, 2, 3)
    with pytest.raises(ValueError, match="duplicates"):
        check_index_set([1, 1], 5, 1)
    with pytest.raises(ValueError, match="empty"):
        check_index_set([], 5, 1)
    with pytest.raises(IndexError):
        check_index_set([5], 5, 1)


@settings(max_examples=50, deadline=None)
@given(small_tensors())
def test_t3b_round_trip_exact_property(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("t3b") / "r.t3b"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.dims == t.dims
    # bit-exact: compare raw buffers so -0.0 vs 0.0 differences would show
    assert back.data.tobytes() == t.data.tobytes()


@settings(max_examples=30, deadline=None)
@given(small_tensors())
def test_slice_index_consistency_property(t):
    m1, m2, m3 = t.dims
    for i in range(m1):
        for j in range(m2):
            for k in range(m3):
                v = t.data[i, j, k]
                assert t.slice(1, i)[j, k] == v
                assert t.slice(2, j)[i, k] == v
                assert t.slice(3, k)[i, j] == v
