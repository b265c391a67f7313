"""Closed-form reference for rank.rank_step_preview.

rank_step_preview takes w - gamma*rank_loss_gradient(w, k), with the gradient
built from a Gram eigendecomposition. Its docstring's closed form, computed
here from one SVD U Sigma V^T of W, is the second route the tests compare it
with:
W' = U[(1 - c*gamma/||W||^3) Sigma + (2*gamma/||W||) SigmaBar_{[k+1:r]}] V^T
with SigmaBar the normalized singular values and c = 2 ||W|| sum_{i>k} SigmaBar_i^2.
"""

import numpy as np


def rank_step(w, k: int, gamma: float) -> np.ndarray:
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    norm = float(np.sqrt(np.sum(sigma * sigma)))
    tail = sigma / norm
    tail[:k] = 0.0  # SigmaBar_{[k+1:r]}
    c = 2.0 * norm * float(np.sum(tail * tail))
    return (u * ((1.0 - c * gamma / norm**3) * sigma + (2.0 * gamma / norm) * tail)) @ vt
