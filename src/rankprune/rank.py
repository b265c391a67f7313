"""Adversarial rank objective on weight matrices.

The loss is the negative squared Frobenius distance between the l2-normalized
weight matrix and its best rank-k approximation, which collapses to the
negative tail energy of the normalized spectrum: -sum_{i>k} sigma_i^2.
Minimizing it (maximizing tail energy) pushes the matrix away from every
low-rank matrix at once, since truncated SVD is the closest one.

Spectra are taken of the live block, the normalized matrix without its
all-zero rows and columns (at high sparsity whole rows and columns die), from
one symmetric eigendecomposition of its smaller Gram matrix. The mask-step
gradient takes the eigenvectors too, since by Eckart-Young the best rank-k fit
projects onto the top-k eigenspace; reported spectra (delta-rank, rank loss,
analyze) take the eigenvalues alone. A spectrum is a plain descending array
of the normalized singular values, zero-padded to min(m, n), and each reported
number is a tail sum of its squares, which the Gram gives to the accuracy the
training objective uses, so no path runs an SVD.

All functions operate on the effective (already masked) weight matrix and are
pure; per-layer calls may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, check_k, frobenius_norm, low_rank_error
from .linalg import svd  # noqa: F401  not called here; perfbench/spans.py wraps rank.svd by this name

__all__ = [
    "DEFAULT_DELTA",
    "NORM_FLOOR",
    "RankLossConfig",
    "RankTerm",
    "DegenerateWeightError",
    "DegenerateSpectrumError",
    "normalize",
    "select_k",
    "rank_loss",
    "rank_loss_gradient",
    "delta_rank",
    "rank_step_preview",
    "layer_rank_term",
    "layer_spectrum",
]

# Truncation boundary sigma_k == sigma_{k+1} makes the best rank-k
# approximation non-unique and the gradient undefined; gaps below this
# (on the normalized spectrum) are treated as degenerate.
SPECTRUM_GAP_TOL = 1e-10

# Relative bound on how far a cumulative-sum tail error may lie from
# low_rank_error's (plus 1e-150 for sums of subnormal squares): far above the
# rounding of either sum.
TAIL_SLACK = 1e-9

# Tolerance of reported delta-ranks unless [report] delta or --delta sets one.
DEFAULT_DELTA = 0.1

# A matrix whose Frobenius norm is at or below this counts as zero: it has no
# direction to normalize. RankLossConfig.norm_floor defaults to it.
NORM_FLOOR = 1e-12


class DegenerateWeightError(ValueError):
    """Weight norm at or below the floor; the rank term is meaningless."""


class DegenerateSpectrumError(ValueError):
    """sigma_k ~ sigma_{k+1}: truncated SVD non-unique, skip this step."""


@dataclass(frozen=True)
class RankLossConfig:
    """Knobs for the rank objective.

    target_error: desired approximation error of the adversary's low-rank fit,
        used to pick the truncation rank k per layer (in (0,1)).
    lam: weight of the rank loss in the combined objective (>= 0).
    norm_floor: the rank term (layer_rank_term, layer_spectrum's loss) skips
        matrices with Frobenius norm at or below this; every other path
        uses NORM_FLOOR.
    """

    target_error: float = 0.2
    lam: float = 0.1
    norm_floor: float = NORM_FLOOR

    def __post_init__(self):
        if not 0.0 < self.target_error < 1.0:
            raise ValueError(f"target_error must lie in (0,1), got {self.target_error}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not self.norm_floor > 0.0:
            raise ValueError(f"norm_floor must be positive, got {self.norm_floor}")


def _normalized(w: np.ndarray, norm_floor: float) -> tuple[np.ndarray, float]:
    """(w/||w||, ||w||) of a matrix from as_matrix."""
    norm = frobenius_norm(w)
    if norm <= norm_floor:
        raise DegenerateWeightError(
            f"Frobenius norm {norm} at or below floor {norm_floor}"
        )
    return w / norm, norm


def normalize(w) -> np.ndarray:
    """Scale a matrix to unit Frobenius norm, preserving direction."""
    return _normalized(as_matrix(w), NORM_FLOOR)[0]


def _gram(w, norm_floor: float, k: int | None = None, vectors: bool = True):
    """(w as a matrix, spectrum of w/||w||, live rank bound, fit) from one
    symmetric eigendecomposition of the live block's smaller Gram.

    The live block B is w/||w|| without its all-zero rows and columns (a row
    or column is live when it holds a nonzero of w/||w||); with no dead row
    or column it is w/||w|| itself, not a copy. The Gram is B B^T when B has
    no more rows than columns (left), else B^T B; its order is the live rank
    bound. The spectrum is sqrt(max(lambda, 0)) of its eigenvalues,
    descending and padded with zeros to r = min(m, n); a given k must be an
    integer in [1, r - 1]. fit is (||w||, w/||w||, Q, left). With vectors
    np.linalg.eigh decomposes the Gram, and Q is its eigenbasis in ascending
    eigenvalue order, its rows placed at the live rows (left) or columns of w
    and zero at the dead ones; without, np.linalg.eigvalsh gives the
    eigenvalues alone and Q is None.
    """
    w = as_matrix(w)
    wbar, norm = _normalized(w, norm_floor)
    nonzero = wbar != 0.0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    b = wbar if (len(rows), len(cols)) == w.shape else wbar[np.ix_(rows, cols)]
    if k is not None:
        check_k(k, 1, min(w.shape) - 1)
    left = b.shape[0] <= b.shape[1]
    g = b if left else b.T  # the Gram is g g^T
    lam, q = np.linalg.eigh(g @ g.T) if vectors else (np.linalg.eigvalsh(g @ g.T), None)
    basis = None if q is None else np.zeros((w.shape[0] if left else w.shape[1], q.shape[1]))
    if q is not None:
        basis[rows if left else cols] = q
    sigma = np.sqrt(np.maximum(lam[::-1], 0.0))
    sigma = np.concatenate([sigma, np.zeros(min(w.shape) - len(sigma))])
    return w, sigma, len(lam), (norm, wbar, basis, left)


def select_k(sigma_normalized, target_error: float) -> int:
    """Pick the truncation rank whose tail energy is closest to target_error.

    Expects the singular values of a unit-norm matrix (squares summing to 1),
    descending. Searches k in {1, ..., r-1}; ties break toward smaller k, and
    r == 1 returns 1.
    """
    sigma = np.asarray(sigma_normalized, dtype=np.float64)
    if sigma.ndim != 1 or sigma.shape[0] < 1:
        raise ValueError("sigma_normalized must be a non-empty 1-D sequence")
    sq = sigma * sigma
    total = float(np.sum(sq))
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"spectrum is not normalized: sum of squares = {total}")
    r = sigma.shape[0]
    if r == 1:
        return 1
    # tails[k-1] = sum_{i>k} sigma_i^2 for k = 1..r-1
    tails = np.cumsum(sq[::-1])[::-1][1:]
    best = int(np.argmin(np.abs(tails - target_error)))
    return best + 1


def _check_gap(sigma: np.ndarray, k: int) -> None:
    if not sigma[k - 1] > sigma[k] + SPECTRUM_GAP_TOL:
        raise DegenerateSpectrumError(
            f"sigma_{k}={sigma[k - 1]} ~ sigma_{k + 1}={sigma[k]}: "
            "truncation boundary degenerate"
        )


def _term(sigma: np.ndarray, live_bound: int, target_error: float) -> tuple[int, float]:
    """The rank term's k and loss; raises DegenerateSpectrumError where it is
    undefined or where one live row or column leaves an empty tail for every k."""
    if live_bound < 2:
        raise DegenerateSpectrumError("rank bound 1: no k leaves a nonzero tail")
    k = select_k(sigma, target_error)
    _check_gap(sigma, k)
    err = low_rank_error(sigma, k)
    return k, -(err * err)


def _gradient(w: np.ndarray, sigma: np.ndarray, fit, k: int) -> np.ndarray:
    """G = -T/||W|| + W * c/||W||^3, the raw weight's gradient, with c = sum(W . T).

    T = 2(Wbar - Wbar_k), twice the normalized matrix's residual from its best
    rank-k fit Wbar_k = Q_k Q_k^T Wbar (or Wbar Q_k Q_k^T), with Q_k the top-k
    eigenbasis of _gram. T is zero on dead rows and columns, and the
    projector Q_k Q_k^T does not depend on the signs Q_k comes with.

    Overwrites the fit's Wbar, which _gram may also have used as the live
    block.
    """
    _check_gap(sigma, k)
    norm, wbar, q, left = fit
    qk = q[:, -k:]
    # One buffer turns from Wbar_k into T into G, and once T exists the two
    # full-size products W . T and W * c/||W||^3 go into Wbar's: each
    # full-size temporary left to the allocator measurably raised peak RSS.
    g = qk @ (qk.T @ wbar) if left else (wbar @ qk) @ qk.T
    np.subtract(wbar, g, out=g)
    g *= 2.0
    c = float(np.sum(np.multiply(w, g, out=wbar)))
    g /= -norm
    g += np.multiply(w, c / norm**3, out=wbar)
    return g


def rank_loss(w, k: int) -> float:
    """Negative tail energy of the normalized spectrum: -sum_{i>k} sigma_i^2.

    Equal to the negative squared Frobenius distance between the normalized
    matrix and its best rank-k approximation. Lies in [-1, 0].
    """
    _, sigma, _, _ = _gram(w, NORM_FLOOR, k, vectors=False)
    err = low_rank_error(sigma, k)
    return -(err * err)


def rank_loss_gradient(w, k: int) -> np.ndarray:
    """Gradient of rank_loss with respect to the raw (unnormalized) weight.

    G = -T/||W|| + W * sum(W . T)/||W||^3 with T = sum_{i>k} 2 sigma_i u_i v_i^T
    the tail of the normalized matrix's SVD, built as 2(Wbar - Wbar_k) from one
    Gram eigendecomposition. Homogeneous of degree -1 in W, since the loss
    itself is scale invariant.
    """
    w, sigma, _, fit = _gram(w, NORM_FLOOR, k)
    return _gradient(w, sigma, fit, k)


def delta_rank(w, delta: float) -> int:
    """Smallest k whose best rank-k fit of the normalized matrix lands within delta.

    A zero matrix reports 0 by convention.
    """
    return layer_spectrum(w, delta)[1]


def rank_step_preview(w, k: int, gamma: float) -> np.ndarray:
    """One plain gradient step on the rank loss: w - gamma*rank_loss_gradient(w, k).

    In closed form
    W' = U[(1 - c*gamma/||W||^3) Sigma + (2*gamma/||W||) SigmaBar_{[k+1:r]}] V^T
    with U Sigma V^T the SVD of W, SigmaBar the normalized singular values and
    c = sum(W . T): the step keeps both singular subspaces while boosting the
    tail of the spectrum.
    """
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    w = as_matrix(w)
    check_k(k, 1, min(w.shape) - 1)  # before the gamma = 0 shortcut, which looks at no k
    if gamma == 0.0:
        return w.copy()
    return w - gamma * rank_loss_gradient(w, k)


@dataclass(frozen=True)
class RankTerm:
    """One layer's rank contribution at a mask-update step."""

    loss: float
    gradient: np.ndarray
    k: int


def layer_rank_term(w, cfg: RankLossConfig) -> RankTerm:
    """Loss, gradient and chosen k for one layer, sharing one Gram eigendecomposition.

    Equivalent to select_k + rank_loss + rank_loss_gradient composed; raises
    DegenerateWeightError / DegenerateSpectrumError for the caller to skip the
    layer this step. Matrices with one live row or column leave an empty tail
    for every k and also raise DegenerateSpectrumError.
    """
    w, sigma, bound, fit = _gram(w, cfg.norm_floor)
    k, loss = _term(sigma, bound, cfg.target_error)
    return RankTerm(loss=loss, gradient=_gradient(w, sigma, fit, k), k=k)


def _delta_rank(sigma: np.ndarray, delta: float) -> int:
    """Smallest k >= 1 with low_rank_error(sigma, k) < delta; k = r (error 0) always qualifies.

    All tail errors come from one reverse cumulative sum. It adds in another
    order than low_rank_error, so an error may differ in its last bits: every
    k whose cumulative-sum error lies within TAIL_SLACK of delta is settled by
    low_rank_error itself, in increasing k, which keeps the answer exact.
    """
    tails = np.sqrt(np.cumsum((sigma * sigma)[::-1])[::-1][1:])  # tails[k-1]: rank k
    # tails is non-increasing, so a count of entries at or above a bound is
    # the position of the first entry below it
    slack = delta * TAIL_SLACK + 1e-150
    lo = 1 + int(np.count_nonzero(tails >= delta + slack))
    hi = 1 + int(np.count_nonzero(tails >= delta - slack))
    return next((k for k in range(lo, hi) if low_rank_error(sigma, k) < delta), hi)


def layer_spectrum(w, delta: float, cfg: RankLossConfig | None = None):
    """(sigma, delta_rank, loss) of one layer from a single eigvalsh of its Gram.

    sigma holds the normalized singular values, delta_rank is delta_rank(w,
    delta), and loss is what layer_rank_term(w, cfg) would give, up to the
    last bits in which eigvalsh's eigenvalues differ from eigh's. A matrix at
    or below NORM_FLOOR reports an empty sigma and delta-rank 0; loss is None
    without cfg and wherever layer_rank_term would skip the layer, which
    includes a norm at or below cfg.norm_floor. No value depends on the signs
    of w's zeros.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    try:
        _, sigma, bound, (norm, *_) = _gram(w, NORM_FLOOR, vectors=False)
    except DegenerateWeightError:
        return np.zeros(0), 0, None
    drank = _delta_rank(sigma, delta)
    loss = None
    if cfg is not None and norm > cfg.norm_floor:
        try:
            loss = _term(sigma, bound, cfg.target_error)[1]
        except DegenerateSpectrumError:
            pass
    return sigma, drank, loss
