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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, load_json
from .tensor import Tensor3, check_index_set


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
        return self.labels[mode - 1]


def unit_cluster_vector(j, m):
    """Unit-norm indicator vector: 1/sqrt(|J|) on J, 0 elsewhere."""
    members = check_index_set(j, m, mode="member")
    v = np.zeros(m)
    v[list(members)] = 1.0 / math.sqrt(len(members))
    return v


def boxmuller_normals(rng, n):
    """n standard normals from a numpy Generator's uniform stream.

    See the module docstring for the exact pairing and interleaving rules.
    """
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    u = rng.random(2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n]


def generate(spec):
    """Build the tensor and its ground truth from a SynthSpec.

    Deterministic per (seed, dims, components, noise_scale). Component
    member sets must be pairwise disjoint within each mode.
    """
    m1, m2, m3 = spec.dims
    if not (math.isfinite(spec.noise_scale) and spec.noise_scale >= 0):
        raise ValidationError(
            f"noise_scale must be finite and nonnegative, got {spec.noise_scale}")
    members = [[], [], []]
    for comp in spec.components:
        if not (math.isfinite(comp.gamma) and comp.gamma > 0):
            raise ValidationError(
                f"component gamma must be finite and positive, got {comp.gamma}")
        for axis, (j, m) in enumerate(
            ((comp.j1, m1), (comp.j2, m2), (comp.j3, m3))
        ):
            idx = check_index_set(j, m, mode=axis + 1)
            members[axis].append(idx)
    for axis in range(3):
        flat = [i for idx in members[axis] for i in idx]
        if len(flat) != len(set(flat)):
            raise ValidationError(
                f"mode-{axis + 1} component member sets overlap"
            )

    signal = np.zeros(spec.dims)
    for comp, ms in zip(spec.components, zip(*members)):
        w = unit_cluster_vector(ms[0], m1)
        u = unit_cluster_vector(ms[1], m2)
        v = unit_cluster_vector(ms[2], m3)
        signal += comp.gamma * w[:, None, None] * u[None, :, None] * v[None, None, :]

    if spec.noise_scale > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        z = boxmuller_normals(rng, m1 * m2 * m3).reshape(spec.dims)
        data = signal + spec.noise_scale * z
    else:
        data = signal

    labels = []
    for axis, m in enumerate(spec.dims):
        lab = np.full(m, -1, dtype=int)
        for cidx, idx in enumerate(members[axis]):
            lab[list(idx)] = cidx
        labels.append(lab)
    comps = list(zip(members[0], members[1], members[2]))
    truth = GroundTruth(labels=labels, components=comps)
    return Tensor3(data), truth


def benchmark_spec(gamma, seed, dims=(50, 50, 50), cluster_size=10, rank=2,
                   noise_scale=1.0):
    """Standard benchmark layout: equal-strength components on leading blocks.

    Component c occupies indices [c * cluster_size, (c + 1) * cluster_size)
    in every mode. The default (two strength-gamma components of size 10 in
    a 50^3 tensor with unit noise) is the sweep workload used throughout the
    acceptance experiments.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if rank < 1:
        raise ValidationError(f"rank must be at least 1, got {rank}")
    if rank * cluster_size > min(dims):
        raise ValueError(
            f"rank {rank} x cluster size {cluster_size} exceeds min dim {min(dims)}"
        )
    comps = []
    for c in range(rank):
        block = tuple(range(c * cluster_size, (c + 1) * cluster_size))
        comps.append(Component(gamma=float(gamma), j1=block, j2=block, j3=block))
    return SynthSpec(dims=tuple(dims), components=comps, seed=seed,
                     noise_scale=noise_scale)


def truth_to_json(spec, truth):
    """Stable-order truth document.

    {"dims": [...], "modes": [{"mode": 1, "clusters": [[...], ...]}, ...],
    "gammas": [...], "seed": N}
    """
    modes = []
    for axis in range(3):
        clusters = [
            [int(i) for i in comp[axis]] for comp in truth.components
        ]
        modes.append({"mode": axis + 1, "clusters": clusters})
    doc = {
        "dims": [int(m) for m in spec.dims],
        "modes": modes,
        "gammas": [float(c.gamma) for c in spec.components],
        "seed": int(spec.seed),
    }
    return json.dumps(doc, indent=2)


def truth_from_json(text):
    """Parse a truth JSON, checking every key eval reads (see load_json)."""
    return load_json(text, "truth JSON",
                     {"dims": [int], "modes": [{"clusters": [[int]]}]})
