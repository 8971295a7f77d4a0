"""Slice covariance matrices and eigen solvers.

Two independent routes to the top eigenpair are kept on purpose: power
iteration (the production path) and a cyclic Jacobi full-spectrum solver
(the exact path, also used as a cross-check oracle in the tests). They share
no code beyond numpy primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

JACOBI_MAX_N = 512

# power steps between Rayleigh-Ritz rotations: long enough for the plain
# steps to damp components outside the leading plane, short enough that
# near-tied pairs still resolve in a few hundred iterations
_RITZ_EVERY = 40


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with a unit-norm eigenvector.

    degenerate marks the zero-matrix fallback (value 0, vector e1), where the
    eigenvector direction carries no information.
    """

    value: float
    vector: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class EigConfig:
    """Eigen solver selection: 'power' iteration or 'exact' (Jacobi)."""

    method: str = "power"

    def __post_init__(self):
        if self.method not in ("power", "exact"):
            raise ValueError(f"unknown eig method {self.method!r}")


def covariance(m):
    """Gram matrix M^T M of a rows x cols matrix, exactly symmetric.

    Each unordered entry pair is computed once and mirrored, so the result
    is symmetric to the bit.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    c = m.T @ m
    upper = np.triu(c)
    return upper + np.triu(c, 1).T


def _check_symmetric(c):
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    if c.shape[0] > 1 and np.abs(c - c.T).max() > 1e-9:
        raise ValidationError("matrix is not symmetric within 1e-9")
    return c


def _fix_sign(v):
    # deterministic orientation: largest-magnitude entry nonnegative,
    # ties broken by lowest index (argmax returns the first maximum)
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def _ritz_step(c, x, y, lam, resvec, res):
    """Best unit vector in span{x, Cx} by the 2x2 Rayleigh-Ritz problem.

    Plain power iteration stalls when the two leading eigenvalues nearly
    coincide (the iterate rotates inside their plane at a rate set by the
    tiny gap); the Ritz extraction resolves that plane in one step. It must
    be interleaved with plain steps: the rotation direction is built from
    the residual, so components outside the leading plane pollute it, and
    only the plain steps contract those away.
    """
    q2 = resvec / res
    q2 -= float(x @ q2) * x
    q2n = float(np.linalg.norm(q2))
    if q2n <= 1e-30:
        return y / float(np.linalg.norm(y))
    q2 /= q2n
    cq2 = c @ q2
    a12 = float(q2 @ y)
    a22 = float(q2 @ cq2)
    half = 0.5 * (lam - a22)
    mu = 0.5 * (lam + a22) + float(np.hypot(half, a12))
    w = (a12, mu - lam)
    alt = (mu - a22, a12)
    if alt[0] * alt[0] + alt[1] * alt[1] > w[0] * w[0] + w[1] * w[1]:
        w = alt
    wn = float(np.hypot(w[0], w[1]))
    if wn <= 1e-30:
        return y / float(np.linalg.norm(y))
    xnew = (w[0] / wn) * x + (w[1] / wn) * q2
    return xnew / float(np.linalg.norm(xnew))


def top_eigenpair(c, tol=1e-10, max_iter=5000):
    """Dominant eigenpair of a symmetric PSD matrix via power iteration.

    Deterministic: starts from the normalized all-ones vector and restarts
    with basis vectors e1, e2, ... if an iterate lands in the nullspace.
    Most updates are plain power steps; every _RITZ_EVERY-th update takes
    the top Rayleigh-Ritz pair of span{x, Cx} instead, which rotates the
    iterate through near-tied leading eigenvalues that plain power steps
    cannot separate. Stops when ||C v - lambda v|| <= tol * max(lambda, 1).
    The returned vector has its largest-magnitude entry nonnegative.
    """
    c = _check_symmetric(c)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = c.shape[0]
    scale = float(np.sqrt((c * c).sum()))
    if scale == 0.0:
        e1 = np.zeros(n)
        e1[0] = 1.0
        return EigenPair(0.0, e1, degenerate=True)

    x = np.ones(n) / np.sqrt(n)
    restart = 0
    res = np.inf
    for it in range(max_iter):
        y = c @ x
        ynorm = float(np.linalg.norm(y))
        if ynorm <= 1e-14 * scale:
            # stagnant near-zero image: restart from the next basis vector
            if restart >= n:
                break
            x = np.zeros(n)
            x[restart] = 1.0
            restart += 1
            continue
        lam = float(x @ y)
        resvec = y - lam * x
        res = float(np.linalg.norm(resvec))
        if res <= tol * max(lam, 1.0):
            return EigenPair(max(lam, 0.0), _fix_sign(x))
        if (it + 1) % _RITZ_EVERY == 0:
            # rotating along a residual direction still polluted by
            # components outside the leading plane can stall the iteration,
            # so keep the rotation only when it lowers the true residual
            xr = _ritz_step(c, x, y, lam, resvec, res)
            yr = c @ xr
            lamr = float(xr @ yr)
            resr = float(np.linalg.norm(yr - lamr * xr))
            x = xr if resr < res else y / ynorm
        else:
            x = y / ynorm
    else:
        # the loop ended on an un-checked update; accept it if it meets
        # the residual contract
        y = c @ x
        lam = float(x @ y)
        res = float(np.linalg.norm(y - lam * x))
        if res <= tol * max(lam, 1.0):
            return EigenPair(max(lam, 0.0), _fix_sign(x))
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(residual {res:.3e})",
        residual=res,
    )


def full_eigen_jacobi(c, tol_factor=1e-12, max_sweeps=60):
    """All eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Reduces the off-diagonal Frobenius norm below tol_factor * ||C||_F and
    returns EigenPairs sorted by descending eigenvalue. Capped at n <= 512;
    this solver exists for exact small-scale work and as the independent
    cross-check for top_eigenpair.
    """
    a = _check_symmetric(c).copy()
    n = a.shape[0]
    if n > JACOBI_MAX_N:
        raise ValueError(f"jacobi solver capped at n={JACOBI_MAX_N}, got {n}")
    v = np.eye(n)
    fnorm = float(np.sqrt((a * a).sum()))
    if fnorm == 0.0:
        return [EigenPair(0.0, v[:, i].copy(), degenerate=True) for i in range(n)]
    thresh = tol_factor * fnorm
    # pivots at or below this leave the off-diagonal norm under thresh even
    # if none of them is ever rotated: n(n-1) entries of size thresh/(2n)
    # give a Frobenius norm of at most thresh/2
    skip = thresh / (2.0 * n)
    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    # 1/(|theta| + sqrt(1 + theta^2)) underflows; use the
                    # first-order form to dodge overflow in theta*theta
                    t = 1.0 / (2.0 * theta)
                else:
                    t = (1.0 if theta >= 0 else -1.0) / (
                        abs(theta) + np.sqrt(1.0 + theta * theta)
                    )
                cth = 1.0 / np.sqrt(1.0 + t * t)
                sth = t * cth
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = cth * rp - sth * rq
                a[q, :] = sth * rp + cth * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = cth * cp - sth * cq
                a[:, q] = sth * cp + cth * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = cth * vp - sth * vq
                v[:, q] = sth * vp + cth * vq
    else:
        raise ConvergenceError(
            f"jacobi did not converge in {max_sweeps} sweeps "
            f"(off-diagonal norm {_offdiag_norm(a):.3e})",
            residual=_offdiag_norm(a),
        )
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return [
        EigenPair(float(vals[i]), _fix_sign(v[:, i].copy())) for i in order
    ]


def _offdiag_norm(a):
    # measured on the actual off-diagonal entries; the algebraic shortcut
    # ||A||_F^2 - sum(diag^2) cancels catastrophically near convergence
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.sqrt((b * b).sum()))


def top_eigen(c, config=None):
    """Top eigenpair via the configured method ('power' or 'exact')."""
    cfg = config or EigConfig()
    if cfg.method == "power":
        return top_eigenpair(c)
    top = full_eigen_jacobi(c)[0]
    return EigenPair(max(top.value, 0.0), top.vector, top.degenerate)
