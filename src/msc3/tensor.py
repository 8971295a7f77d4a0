"""Dense 3rd-order tensor storage, mode-wise slicing, sub-cubes, and file I/O.

Layout is row-major: entry (i, j, k) of an m1 x m2 x m3 tensor lives at flat
index ((i * m2) + j) * m3 + k, which is exactly numpy C order for shape
(m1, m2, m3).

Indices (0-based), modes, sizes and counts are integers (as_index), and
epsilon, a radius, a gamma or a tolerance real numbers (as_real); each
owns the range rule it is given, and a value out of range raises
ValidationError, a ValueError.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

T3B_MAGIC = b"T3B1"


def as_index(value, name="an index, mode or count", low=None):
    """value as an int, if it is a Python or numpy integer and not a bool.

    Anything else raises ValueError naming it, 2.0 included, which numpy's
    own indexing refuses too; int() would read 1.5 and True as 1. An
    integer below low, when low is given, raises ValidationError.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low is not None and value < low:
            raise ValidationError(f"{name} must be at least {low}, got {value}")
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(value, name, positive=False):
    """value as a float, if it is a real number and not a bool.

    Anything else raises ValueError naming it; numpy's bool is no real
    number, and float() would read True as 1.0. An int too large for a
    float raises ValueError too, where float() raises OverflowError. With
    positive, a float outside (0, inf), NaN included, raises ValidationError.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        if positive and not 0 < real < math.inf:
            raise ValidationError(f"{name} must be finite and positive, got {real}")
        return real
    raise ValueError(f"{name} must be a real number, got {value!r}")


def check_index_set(indices, size, mode):
    """Validate a cluster index set for one mode.

    Returns the indices as a sorted tuple. Raises ValueError on an empty set,
    duplicates or a member or size that is not an integer (as_index),
    IndexError on out-of-range members. mode is only used in messages; pass
    any label when there is no mode context.
    """
    label = f"mode-{mode}" if isinstance(mode, int) else str(mode)
    idx = tuple(sorted(as_index(i) for i in indices))
    if len(idx) == 0:
        raise ValueError(f"{label} index set is empty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{label} index set has duplicates")
    if idx[0] < 0 or idx[-1] >= as_index(size):
        raise IndexError(
            f"{label} index out of range: valid range is 0..{size - 1}"
        )
    return idx


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense 3rd-order tensor of float64 values."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("tensor contains NaN or Inf entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self):
        return self.data.shape

    def slice(self, mode, index):
        """Matrix obtained by fixing one index of the tensor.

        mode 1 fixes i and returns the m2 x m3 matrix T(i, :, :); mode 2
        returns T(:, j, :); mode 3 returns T(:, :, k). Always a copy.
        """
        axis = _mode_axis(mode)
        m = self.dims[axis]
        if not 0 <= as_index(index) < m:
            raise IndexError(
                f"mode-{mode} slice index {index} out of range 0..{m - 1}"
            )
        # a basic index gives a view to copy; np.moveaxis and np.take are slower
        return self.data[(slice(None),) * axis + (index,)].copy()

    def subcube(self, j1, j2, j3):
        """Sub-tensor on the index sets (j1, j2, j3), preserving index order."""
        s1 = check_index_set(j1, self.dims[0], 1)
        s2 = check_index_set(j2, self.dims[1], 2)
        s3 = check_index_set(j3, self.dims[2], 3)
        return Tensor3(self.data[np.ix_(s1, s2, s3)])


def _mode_axis(mode):
    if as_index(mode) not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
    return mode - 1


def save_tensor(t, path, fmt="t3b"):
    """Write a tensor to path in t3b or csv format.

    t3b: magic "T3B1", then m1, m2, m3 as unsigned 32-bit little-endian,
    then the payload as IEEE-754 binary64 little-endian in row-major order.
    Byte-deterministic for equal inputs.

    csv: first line "m1,m2,m3", then one value per line in row-major order.
    """
    m1, m2, m3 = t.dims
    if fmt == "t3b":
        payload = np.ascontiguousarray(t.data, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(T3B_MAGIC)
            fh.write(struct.pack("<III", m1, m2, m3))
            # the array's own buffer, not a bytes copy of it
            fh.write(memoryview(payload).cast("B"))
    elif fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"{m1},{m2},{m3}\n")
            for v in t.data.ravel():
                fh.write(f"{float(v)!r}\n")
    else:
        raise ValueError(f"unknown tensor format {fmt!r}")


def load_tensor(path, fmt="t3b"):
    """Read a tensor written by save_tensor. Exact round trip for t3b."""
    if fmt == "t3b":
        return _load_t3b(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown tensor format {fmt!r}")


def _load_t3b(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != T3B_MAGIC:
        raise FormatError(f"bad magic in {path}: expected {T3B_MAGIC!r}", offset=0)
    if len(raw) < 16:
        raise FormatError(f"truncated header in {path}", offset=len(raw))
    m1, m2, m3 = struct.unpack("<III", raw[4:16])
    if min(m1, m2, m3) < 1:
        raise FormatError(f"non-positive dims ({m1},{m2},{m3}) in {path}", offset=4)
    n = m1 * m2 * m3
    expected = 16 + 8 * n
    if len(raw) != expected:
        raise FormatError(
            f"payload size mismatch in {path}: expected {expected} bytes, "
            f"got {len(raw)}",
            offset=min(len(raw), expected),
        )
    # a view of the payload in raw; raw[16:] would copy it
    return _tensor(np.frombuffer(raw, dtype="<f8", offset=16), (m1, m2, m3),
                   path)


def _tensor(values, dims, path):
    # Tensor3 makes the one finiteness pass; its error names the file here
    try:
        return Tensor3(values.reshape(dims))
    except ValidationError:
        raise ValidationError(f"non-finite entry in {path}") from None


def _load_csv(path):
    try:
        return _parse_csv(path)
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e.reason}") from None


def _parse_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.strip().split(",")
        if len(parts) != 3:
            raise FormatError(f"bad csv header in {path}: {header.strip()!r}", offset=0)
        try:
            m1, m2, m3 = (integer(p) for p in parts)
        except ValueError:
            raise FormatError(
                f"non-integer dims in csv header of {path}: {header.strip()!r}",
                offset=0,
            ) from None
        if min(m1, m2, m3) < 1:
            raise FormatError(f"non-positive dims ({m1},{m2},{m3}) in {path}", offset=0)
        n = m1 * m2 * m3
        # parsed straight into the array; a file of s bytes holds at most
        # s // 2 values (a pipe reports 0 bytes), so a header that claims
        # more than the file can hold allocates no more than the file
        data = np.empty(min(n, os.fstat(fh.fileno()).st_size // 2 or n))
        count = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                value = number(line)
            except ValueError:
                raise FormatError(
                    f"bad value on line {lineno} of {path}: {line!r}"
                ) from None
            if count < data.size:
                data[count] = value
            count += 1
    if count != n:
        raise FormatError(
            f"value count mismatch in {path}: expected {n}, got {count}"
        )
    return _tensor(data, (m1, m2, m3), path)


def integer(text):
    """int(text) for plain ASCII text: no digit-group underscores.

    int() and float() also take underscores and non-ASCII digits, which no
    file that save_tensor writes and no documented CLI value holds.
    """
    return int(_plain(text))


def number(text):
    """float(text) for plain ASCII text, as integer() does for int."""
    return float(_plain(text))


def _plain(text):
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return text
