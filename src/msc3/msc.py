"""Per-mode multi-slice clustering.

For one mode of a 3rd-order tensor: summarize every slice by the top
eigenpair of its covariance, scale each eigenvector by its normalized
eigenvalue, and measure slice similarity as C = |V^T V|. The row sums d of C
separate signal slices (high d) from background. A cluster is seeded at the
largest gap in sorted d and then shrunk until the d values over the cluster
form a chain with no oversized step. split_cluster then splits a cluster by
density over its similarity columns, with a radius derived from the same
spread bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import blas_held
from .dbscan import NOISE, dbscan
from .errors import DegenerateInputError, NoGapError, ValidationError
from .spectral import covariance, top_eigen
from .tensor import _mode_axis, as_index, as_real

EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class SliceSpectra:
    """Spectral summary of all slices along one mode.

    v_matrix column i is (lambdas[i] / lambda_max) * (top eigenvector of
    slice i's covariance), so its norm encodes relative slice energy;
    lambda_max is derived, the largest of lambdas.
    """

    lambdas: np.ndarray
    v_matrix: np.ndarray

    @property
    def lambda_max(self):
        return float(self.lambdas.max())


@dataclass(frozen=True)
class SliceMemo:
    """Top pairs of a base tensor's slices, for runs on tensors that keep
    most of those slices bit for bit, such as one sweep seed's tensors
    (their shared noise plus each gamma's planted blocks).

    base is the base tensor's array; pairs maps (mode, index, eig route) to
    the EigenPair of that base slice's covariance. slice_spectra reads and
    fills pairs.
    """

    base: np.ndarray
    pairs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Similarity C = |V^T V| together with its row marginal sums d."""

    c: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class MscResult:
    """One mode's cluster with its diagnostics.

    bound is the spread allowance l * epsilon / 2 + sqrt(max(0, ln(m - l)))
    at the final cluster size l. size and converged are derived: len(cluster)
    and bool(cluster), as a kept cluster has 2 or more members and no step
    between its consecutive sorted d values above the bound.
    strength_ratio compares lambda_max against the random-slice baseline
    (sqrt(rows - 1) + sqrt(cols))^2 for this mode's slice shape; it is a
    diagnostic only and is never enforced.
    """

    mode: int
    cluster: tuple
    d: np.ndarray
    bound: float
    similarity: SimilarityMatrix | None = field(default=None, repr=False)
    lambda_max: float | None = None
    strength_ratio: float | None = None

    @property
    def size(self):
        return len(self.cluster)

    @property
    def converged(self):
        return bool(self.cluster)


def marginal_spread_bound(l, epsilon, m):
    """Spread allowance for a size-l cluster over m slices.

    l * epsilon / 2 + sqrt(max(0, ln(m - l))); the log term is clamped to 0
    when m - l <= 1 so the bound is defined for every feasible size. l and
    m are integers (as_index) with 1 <= l <= m, and epsilon a finite
    positive real (as_real), computed with as a float; any other value, or
    a size too large for a float, raises ValueError.
    """
    l = as_index(l, "cluster size l", 1)
    m = as_index(m, "slice count m", l)
    epsilon = as_real(epsilon, "epsilon", positive=True)
    gap = m - l
    term = math.sqrt(math.log(gap)) if gap >= 1 else 0.0
    return as_real(l, "size") * epsilon / 2.0 + term


def _check_epsilon(epsilon, m):
    # epsilon as the float a run computes with, once marginal_spread_bound
    # has taken it and found the bound at size m (so at every l) finite
    if not math.isfinite(marginal_spread_bound(m, epsilon, m)):
        raise ValueError(f"epsilon {epsilon} overflows the spread bound")
    return float(epsilon)


def _check_marginals(d):
    # marginals are row sums of |V^T V|: finite and nonnegative, one per slice
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or not np.all((0 <= d) & (d < np.inf)):
        raise ValueError("marginals must be a 1-d array of finite values >= 0")
    return d


def slice_spectra(t, mode, eig="power", memo=None):
    """Top eigenpair of every slice covariance along one mode, by route eig.

    mode may also be a tuple of modes. One top_eigen call then solves the
    covariances of all of them, in mode order, and a list of one
    SliceSpectra per mode is returned, each bit for bit what its mode gets
    alone. Every mode's slice count is checked before any solve, and each
    slice as its covariance is built: a covariance trace t (the slice's
    squared norm) failing 4 t^2 < inf raises ValidationError naming it.
    Raises DegenerateInputError when all slices of a mode are zero (nothing
    to normalize against).

    With a SliceMemo, a slice that is bit for bit the same slice of
    memo.base takes the pair memo.pairs holds for it, if any, and is not
    built or solved again; the base slices solved here are added to
    memo.pairs. Each pair is what its matrix gets when solved alone, so
    the result is bit for bit the memo-less one. A base of another shape
    than t raises ValueError.
    """
    modes = mode if isinstance(mode, tuple) else (mode,)
    spans = [(k, t.dims[_mode_axis(k)]) for k in modes]
    for k, m in spans:
        if m < 3:
            raise ValueError(f"mode-{k} needs at least 3 slices, got {m}")
    same = _base_slices(t, modes, memo)
    known = {(k, i): memo.pairs[k, i, eig] for k, i in same
             if (k, i, eig) in memo.pairs}
    todo = [(k, i) for k, m in spans for i in range(m) if (k, i) not in known]
    solved = dict(zip(todo, top_eigen(
        (_solvable(covariance(t.slice(k, i)), k, i) for k, i in todo), eig)))
    if memo is not None:
        memo.pairs.update(((k, i, eig), solved[k, i])
                          for k, i in same if (k, i) in solved)
    known.update(solved)
    spectra = [_normalized([known[k, i] for i in range(m)], k)
               for k, m in spans]
    return spectra if isinstance(mode, tuple) else spectra[0]


def _base_slices(t, modes, memo):
    # the (mode, index) of each slice of t that is bit for bit the same
    # slice of memo.base: one comparison of the two arrays' bits, reduced
    # over each mode's other two axes; none without a memo
    if memo is None:
        return set()
    base = np.ascontiguousarray(memo.base, dtype=np.float64)
    if base.shape != t.dims:
        raise ValueError(f"memo base has shape {base.shape}, the tensor "
                         f"{t.dims}")
    equal = base.view(np.uint64) == t.data.view(np.uint64)
    return {(k, int(i)) for k in modes for i in np.flatnonzero(equal.all(
        axis=tuple(a for a in range(3) if a != _mode_axis(k))))}


def _solvable(c, mode, i):
    # c, the covariance of mode-{mode} slice i, if its trace t passes
    # 4 t^2 < inf: t bounds a PSD matrix's ||C||_F, lambda and ||C v||, so no
    # squared norm a solver forms overflows. Python floats overflow silently.
    t = sum(c.diagonal().tolist())
    if not 4.0 * t * t < math.inf:
        raise ValidationError(
            f"mode-{mode} slice {i} is too large to solve: its covariance "
            f"trace (the slice's squared norm) is {t:.3e}, and 4 t^2 "
            f"must be finite (t below about 6.7e153)")
    return c


def _normalized(pairs, mode):
    # one mode's SliceSpectra from the top pairs of its slices
    lams = np.array([pair.value for pair in pairs])
    vecs = [pair.vector for pair in pairs]
    lam_max = float(lams.max())
    if lam_max <= 0.0:
        raise DegenerateInputError(
            f"every mode-{mode} slice has zero energy; cannot normalize"
        )
    ratios = lams / lam_max
    v = np.column_stack(vecs) * ratios[np.newaxis, :]
    return SliceSpectra(lambdas=lams, v_matrix=v)


@blas_held()
def similarity_matrix(spectra):
    """C = |V^T V| (exactly symmetric, as in covariance) and its row sums d.

    Holds BLAS at one thread, as a run does, so C does not depend on the
    thread count.
    """
    c = np.abs(spectra.v_matrix.T @ spectra.v_matrix)
    d = c.sum(axis=1)
    return SimilarityMatrix(c=c, d=d)


def initial_cluster_by_gap(d):
    """Seed cluster: indices above the largest gap in sorted d.

    Sorts d ascending, finds the largest consecutive gap (ties prefer the
    gap at larger d values, which yields the smaller, tighter group), and
    returns the indices whose d exceeds the gap midpoint. Raises NoGapError
    when all values are equal within 1e-12, and ValueError unless d is a
    1-d array of finite values >= 0.
    """
    d = _check_marginals(d)
    if d.size < 3:
        raise ValueError(f"need at least 3 marginals, got {d.size}")
    vals = np.sort(d)
    if vals[-1] - vals[0] <= EQUAL_TOL:
        raise NoGapError("all marginals equal within 1e-12; no cluster to seed", d=d)
    gaps = np.diff(vals)
    # last occurrence of the maximum gap = the tie at larger d values
    pos = len(gaps) - 1 - int(np.argmax(gaps[::-1]))
    # 0.5 * (a + b) to the bit above the subnormals, but it cannot overflow
    mid = 0.5 * vals[pos] + 0.5 * vals[pos + 1]
    return tuple(int(i) for i in np.flatnonzero(d > mid))


def _check_members(j, m):
    # a cluster is 2 or more distinct integer slice indices in 0..m - 1;
    # returns them sorted, or raises ValueError
    members = sorted(as_index(i) for i in j)
    if len(members) < 2:
        raise ValueError(f"a cluster needs at least 2 members, got {len(members)}")
    if members[0] < 0 or members[-1] >= m or len(set(members)) < len(members):
        raise ValueError(f"cluster members must be distinct indices in 0..{m - 1}")
    return members


def refine_cluster(j0, d, epsilon, m, mode=0):
    """Shrink a seed cluster until its d values satisfy the spread test.

    At size l the allowance is marginal_spread_bound(l, epsilon, m). The
    cluster converges when no step between consecutive sorted d values over
    its members exceeds the allowance; otherwise the member with the
    smallest d is removed and the test repeats. Removal-only, so the loop
    runs at most |j0| - 1 times. If the size drops below 2 the result is an
    empty, non-converged cluster. epsilon and d are checked as in msc_mode
    and initial_cluster_by_gap, j0 as in _check_members, and m must be an
    integer (as_index) no less than len(d), which holds one value a slice.
    """
    d = _check_marginals(d)
    m = as_index(m, f"slice count m for the {d.size} marginals", d.size)
    epsilon = _check_epsilon(epsilon, m)
    members = _check_members(j0, d.size)
    while len(members) >= 2:
        bound = marginal_spread_bound(len(members), epsilon, m)
        if np.diff(np.sort(d[members])).max() <= bound:
            break
        members.remove(members[int(np.argmin(d[members]))])
    cluster = tuple(members) if len(members) >= 2 else ()
    return MscResult(mode=mode, cluster=cluster, d=d, bound=bound)


def msc_stage(t, mode, spectra, epsilon):
    """One mode's stage after its spectra: similarity, gap seed, refinement.

    The similarity matrix is retained on the result for the density-split
    stage. A singleton seed (a lone outlying slice) is reported as an empty,
    non-converged result rather than a cluster. Gapless marginals raise
    NoGapError.
    """
    m = t.dims[_mode_axis(mode)]
    sim = similarity_matrix(spectra)
    rows, cols = t.dims[:mode - 1] + t.dims[mode:]
    baseline = (math.sqrt(rows - 1) + math.sqrt(cols)) ** 2
    seed = initial_cluster_by_gap(sim.d)
    if len(seed) < 2:
        res = MscResult(mode=mode, cluster=(), d=sim.d,
                        bound=marginal_spread_bound(2, epsilon, m))
    else:
        res = refine_cluster(seed, sim.d, epsilon, m, mode=mode)
    return replace(res, similarity=sim, lambda_max=spectra.lambda_max,
                   strength_ratio=spectra.lambda_max / baseline)


def mode_stages(t, modes, epsilon, eig="power", gapless=False, memo=None):
    """One round: msc_stage on each of modes, from one slice_spectra pass.

    epsilon is checked against each mode's size, in mode order, before any
    solve (ValueError). A gapless mode raises NoGapError, or with
    gapless=True gives the empty result MscResult(mode, (), d, 0.0). memo,
    a SliceMemo or None, goes to slice_spectra.
    """
    for mode in modes:
        _check_epsilon(epsilon, t.dims[_mode_axis(mode)])
    results = []
    for mode, spectra in zip(modes, slice_spectra(t, tuple(modes), eig, memo)):
        try:
            results.append(msc_stage(t, mode, spectra, epsilon))
        except NoGapError as e:
            if not gapless:
                raise
            results.append(MscResult(mode=mode, cluster=(), d=e.d, bound=0.0))
    return results


@blas_held()
def msc_mode(t, mode, epsilon, eig="power"):
    """Full single-mode run: mode_stages on the one mode.

    Raises ValueError on an epsilon that is not finite and positive, or so
    large that the spread bound at the full size m overflows, and NoGapError
    on gapless marginals.
    """
    return mode_stages(t, (mode,), epsilon, eig)[0]


def derived_radius(l, epsilon, m):
    """Neighborhood radius sqrt(marginal_spread_bound(l, epsilon, m)).

    This ties the density radius to the marginal spread allowance of a
    size-l cluster over m slices. Clamped from below at 1e-12 so the
    l = 2, epsilon -> 0 boundary still yields a usable radius. epsilon is
    checked as in msc_mode, and l and m are integers with 2 <= l < m.
    """
    l = as_index(l, "cluster size l", 2)
    m = as_index(m, "slice count m", l + 1)
    epsilon = _check_epsilon(epsilon, m)
    return max(math.sqrt(marginal_spread_bound(l, epsilon, m)), 1e-12)


@dataclass(frozen=True)
class SplitResult:
    """Sub-clusters of one mode cluster plus the members left as noise."""

    clusters: list
    noise: tuple
    radius: float


def split_cluster(sim, j, epsilon):
    """Split one mode cluster by density over similarity columns.

    Each member i of j is represented by the full i-th column of the
    similarity matrix (length m, not restricted to j), and the members are
    clustered with the derived radius and minpts = 2. Non-noise clusters
    come back as sorted index tuples ordered by descending mean marginal;
    noise members are reported separately. j must be 2 or more distinct
    indices in 0..m - 1, or ValueError is raised.
    """
    m = sim.c.shape[0]
    members = _check_members(j, m)
    radius = derived_radius(len(members), epsilon, m)
    points = sim.c[:, members].T
    labels = dbscan(points, radius, minpts=2)
    clusters = []
    for cid in range(labels.max() + 1):
        idx = tuple(members[k] for k in np.flatnonzero(labels == cid))
        clusters.append(idx)
    noise = tuple(members[k] for k in np.flatnonzero(labels == NOISE))
    clusters.sort(key=lambda c: -float(np.mean(sim.d[list(c)])))
    return SplitResult(clusters=clusters, noise=noise, radius=radius)
