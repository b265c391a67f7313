"""Dense matrix helpers: Frobenius norms, SVD, and truncated low-rank approximation.

Matrices are plain 2-D float64 ndarrays. All functions are pure and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdFactors",
    "as_matrix",
    "frobenius_norm",
    "svd",
    "check_k",
    "truncate",
    "low_rank_error",
]


def as_matrix(values) -> np.ndarray:
    """Validate and return a C-contiguous 2-D float64 matrix with finite entries.

    C order makes every result a function of the values alone: a reduction
    or product over another layout may add in another order.
    """
    w = np.asarray(values, dtype=np.float64, order="C")
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {w.shape}")
    if w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix contains non-finite entries")
    return w


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of an m-by-n matrix: ``u @ diag(sigma) @ v.T`` reconstructs it.

    u is m-by-r and v is n-by-r with orthonormal columns; sigma holds the
    r = min(m, n) singular values in descending order. u and v are None when
    only the values were computed.
    """

    u: np.ndarray | None
    sigma: np.ndarray
    v: np.ndarray | None

    @property
    def rank_bound(self) -> int:
        return len(self.sigma)


def frobenius_norm(w) -> float:
    """Square root of the sum of squared entries."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.sqrt(np.sum(w * w)))


def svd(w) -> SvdFactors:
    """Thin SVD with a deterministic sign convention.

    The sign of each left singular vector is fixed so that its first nonzero
    entry is non-negative (the matching right vector is flipped with it),
    which makes repeated calls on identical input bitwise reproducible. The
    rule is applied to all columns in one pass; an all-zero column is left
    as it is. No training or reporting path calls it: rank.py takes every
    spectrum from a Gram eigendecomposition, and this full SVD is the
    reference the tests and the acceptance suite hold those spectra to.
    """
    w = as_matrix(w)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    v = vt.T  # a view: the sign flips below write through to vt, which nothing else holds
    cols = np.arange(s.shape[0])
    flip = u[np.argmax(u != 0.0, axis=0), cols] < 0.0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdFactors(u=u, sigma=s, v=v)


def check_k(k, lo: int, hi: int) -> None:
    """Raise ValueError unless the rank k is an integer (not a bool) in [lo, hi]."""
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and lo <= k <= hi):
        raise ValueError(f"k={k} must be an integer in [{lo}, {hi}]")


def truncate(f: SvdFactors, k: int) -> np.ndarray:
    """Best rank-k approximation: sum of the top-k singular triplets."""
    check_k(k, 1, f.rank_bound)
    return (f.u[:, :k] * f.sigma[:k]) @ f.v[:, :k].T


def low_rank_error(f: SvdFactors, k: int) -> float:
    """Frobenius distance from the matrix to its best rank-k approximation.

    Equals sqrt(sum of squared singular values past k); k may be 0 (distance
    to the zero matrix) up to r (which gives 0).
    """
    check_k(k, 0, f.rank_bound)
    tail = f.sigma[k:]
    return float(np.sqrt(np.sum(tail * tail)))
