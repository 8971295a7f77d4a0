"""Planted-cluster synthetic tensors with ground truth.

A dataset is a sum of rank-1 signal components plus Gaussian noise:

    T(i, j, k) = sum_c gamma_c * w_c(i) * u_c(j) * v_c(k) + noise_scale * z_ijk

where each component's (w, u, v) are indicator vectors normalized to unit
norm (value 1/sqrt(|J|) on the member set J, 0 elsewhere) and z is i.i.d.
standard normal.

Reproducibility: the noise stream is PCG64 uniforms fed through an explicit
Box-Muller transform. Uniforms are consumed in pairs (u1, u2) from a single
flat draw laid out as u1 = draw[0::2], u2 = draw[1::2]; each pair yields
z0 = sqrt(-2 ln(1 - u1)) cos(2 pi u2) and z1 = sqrt(-2 ln(1 - u1))
sin(2 pi u2), emitted interleaved (z0, z1, z0, z1, ...) and truncated to the
requested count. This pins the byte-level output to the documented PCG64
uniform stream instead of any library's normal-sampler internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, dump_json, load_json
from .metrics import labels_from_clusters
from .tensor import Tensor3, _mode_axis, as_index, as_real, check_index_set

# Box-Muller pairs transformed at once: each temporary is 8 bytes a pair
_BOXMULLER_BLOCK = 1 << 14


@dataclass(frozen=True)
class Component:
    """One rank-1 signal: strength gamma and a member set per mode."""

    gamma: float
    j1: tuple
    j2: tuple
    j3: tuple


@dataclass(frozen=True)
class SynthSpec:
    dims: tuple
    components: list
    seed: int = 0
    noise_scale: float = 1.0


@dataclass(frozen=True)
class GroundTruth:
    """Per-mode label arrays (-1 background, component index otherwise)."""

    labels: list = field(repr=False)
    components: list = field(default_factory=list)

    def mode_labels(self, mode):
        return self.labels[_mode_axis(mode)]


def unit_cluster_vector(j, m):
    """Unit-norm indicator vector: 1/sqrt(|J|) on J, 0 elsewhere."""
    members = check_index_set(j, m, mode="member")
    v = np.zeros(m)
    v[list(members)] = 1.0 / math.sqrt(len(members))
    return v


def boxmuller_normals(rng, n):
    """n standard normals from a numpy Generator's uniform stream.

    See the module docstring for the exact pairing and interleaving rules.
    The uniforms are drawn into one buffer and transformed in place,
    _BOXMULLER_BLOCK pairs at a time, so the only other memory is one block.
    n is an integer (as_index) of 0 or more.
    """
    n = as_index(n, "count", 0)
    pairs = (n + 1) // 2
    out = rng.random(2 * pairs)
    uv = out.reshape(pairs, 2)
    for lo in range(0, pairs, _BOXMULLER_BLOCK):
        u1 = uv[lo:lo + _BOXMULLER_BLOCK, 0]
        u2 = uv[lo:lo + _BOXMULLER_BLOCK, 1]
        r = np.negative(u1)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        a = 2.0 * np.pi * u2
        u1[...] = np.cos(a)
        u1 *= r
        np.sin(a, out=a)
        a *= r
        u2[...] = a
    return out[:n]


def _check_dims(dims):
    # generate's and benchmark_spec's dims: 3 integers (as_index) of 1 or more
    if np.ndim(dims) != 1 or len(dims) != 3:
        raise ValidationError(f"dims must be 3 sizes, got {dims!r}")
    return tuple(as_index(m, "a size in dims", 1) for m in dims)


def _check_noise_scale(noise_scale):
    # generate's and benchmark_spec's noise_scale: a finite real of 0 or more
    noise_scale = as_real(noise_scale, "noise_scale")
    if not 0 <= noise_scale < math.inf:
        raise ValidationError(
            f"noise_scale must be finite and nonnegative, got {noise_scale}")
    return noise_scale


# an entry that overflows is left to Tensor3's finiteness check
@np.errstate(over="ignore")
def generate(spec):
    """Build the tensor and its ground truth from a SynthSpec.

    Deterministic per (seed, dims, components, noise_scale). Component
    member sets must be pairwise disjoint within each mode. dims and seed
    are integers (as_index), noise_scale and each gamma real numbers
    (as_real).
    """
    dims = _check_dims(spec.dims)
    seed = as_index(spec.seed, "seed", 0)
    noise_scale = _check_noise_scale(spec.noise_scale)
    members = [[], [], []]
    gammas = []
    for comp in spec.components:
        gammas.append(as_real(comp.gamma, "component gamma", positive=True))
        for axis, j in enumerate((comp.j1, comp.j2, comp.j3)):
            members[axis].append(check_index_set(j, dims[axis], axis + 1))
    labels = []
    for axis, (sets, m) in enumerate(zip(members, dims)):
        try:  # the sets are checked, so only an overlap can fail here
            labels.append(labels_from_clusters(sets, m))
        except ValidationError:
            raise ValidationError(
                f"mode-{axis + 1} component member sets overlap") from None

    # each component adds gamma * w x u x v on its member block only; the
    # blocks are disjoint, so every entry gets at most one term, as in
    # signal + noise_scale * z with a zero signal off the blocks
    if noise_scale > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        data = boxmuller_normals(rng, math.prod(dims)).reshape(dims)
        data *= noise_scale
        # 0.0 + (-0.0) is 0.0: the sign of zero the sum gives
        data += 0.0
    else:
        data = np.zeros(dims)
    for gamma, ms in zip(gammas, zip(*members)):
        # unit_cluster_vector's entries on each checked member set
        w, u, v = (np.full(len(j), 1.0 / math.sqrt(len(j))) for j in ms)
        block = np.ix_(*ms)
        data[block] += gamma * w[:, None, None] * u[None, :, None] * v[None, None, :]

    comps = list(zip(members[0], members[1], members[2]))
    truth = GroundTruth(labels=labels, components=comps)
    return Tensor3(data), truth


def benchmark_spec(gamma, seed, dims=(50, 50, 50), cluster_size=10, rank=2,
                   noise_scale=1.0):
    """The planted layout: rank components on leading diagonal blocks.

    Component c occupies indices [c * cluster_size, (c + 1) * cluster_size)
    in every mode. gamma is one strength for every component or a sequence
    of one per component. The default (two strength-gamma components of
    size 10 in a 50^3 tensor with unit noise) is the sweep workload used
    throughout the acceptance experiments. seed and noise_scale are checked
    as in generate.
    """
    rank = as_index(rank, "rank", 1)
    cluster_size = as_index(cluster_size, "cluster size", 1)
    gammas = [as_real(g, "gamma", positive=True)
              for g in (gamma if np.ndim(gamma) else [gamma])]
    if len(gammas) not in (1, rank):
        raise ValueError(f"gamma wants 1 or {rank} values, got {gamma}")
    dims = _check_dims(dims)
    if rank * cluster_size > min(dims):
        raise ValueError(
            f"rank {rank} x cluster size {cluster_size} exceeds min dim {min(dims)}"
        )
    comps = []
    for c, g in enumerate(np.broadcast_to(gammas, rank)):
        block = tuple(range(c * cluster_size, (c + 1) * cluster_size))
        comps.append(Component(gamma=float(g), j1=block, j2=block, j3=block))
    return SynthSpec(dims=dims, components=comps, seed=as_index(seed, "seed", 0),
                     noise_scale=_check_noise_scale(noise_scale))


def truth_to_json(spec, truth):
    """Stable-order truth document.

    {"dims": [...], "modes": [{"mode": 1, "clusters": [[...], ...]}, ...],
    "gammas": [...], "seed": N}
    """
    return dump_json({
        "dims": spec.dims,
        "modes": [{"mode": axis + 1,
                   "clusters": [comp[axis] for comp in truth.components]}
                  for axis in range(3)],
        "gammas": [c.gamma for c in spec.components],
        "seed": spec.seed,
    })


def truth_from_json(text):
    """Parse a 3-dim truth JSON of modes 1, 2, 3 in that order (eval reads
    the entries by position), checking every key eval reads."""
    doc = load_json(text, "truth JSON", {
        "dims": [int], "modes": [{"mode": int, "clusters": [[int]]}]})
    if (len(doc["dims"]) != 3
            or [entry["mode"] for entry in doc["modes"]] != [1, 2, 3]):
        raise ValidationError(
            "truth JSON must hold 3 dims and modes 1, 2, 3 in order")
    return doc
