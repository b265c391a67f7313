"""Full-sort reference versions of the three sparsity selections.

They rank every candidate with a stable sort, as rankprune.sparsity did
before it switched to top-k selection; the tests require the same masks
from both.
"""

import math

import numpy as np

from rankprune import sparsity as sp


def global_density_split(weights, density, masks=None):
    mags = np.concatenate([np.abs(np.asarray(w, dtype=np.float64)).ravel() for w in weights])
    budget = min(mags.size, math.ceil(density * mags.size - 1e-9))
    if masks is None:
        order = np.argsort(-mags, kind="stable")
    else:
        active = np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in masks])
        order = np.lexsort((-active, -mags))  # magnitude desc, then active first
    keep = np.zeros(mags.size, dtype=bool)
    keep[order[:budget]] = True
    densities, start = [], 0
    for w in weights:
        size = np.asarray(w).size
        densities.append(max(int(np.count_nonzero(keep[start : start + size])), 1) / size)
        start += size
    return densities


def prune_layer(w, m, keep_density):
    w = np.asarray(w, dtype=np.float64)
    budget = sp.layer_budget(keep_density, w.size)
    active = np.flatnonzero(np.asarray(m, dtype=np.float64).ravel() == 1.0)
    if budget > active.size:
        raise sp.ScheduleError(f"prune keep budget {budget} exceeds active count {active.size}")
    order = np.argsort(-np.abs(w.ravel()[active]), kind="stable")
    new_mask = np.zeros(w.size)
    new_mask[active[order[:budget]]] = 1.0
    return new_mask.reshape(w.shape)


def grow_layer(dense_grad, m, target_density):
    g = np.asarray(dense_grad, dtype=np.float64)
    flat = np.asarray(m, dtype=np.float64).ravel()
    need = sp.layer_budget(target_density, g.size) - int(np.count_nonzero(flat == 1.0))
    if need < 0:
        raise sp.ScheduleError(f"grow target below current active count by {-need}")
    inactive = np.flatnonzero(flat == 0.0)
    order = np.argsort(-np.abs(g.ravel()[inactive]), kind="stable")
    new_mask = flat.copy()
    new_mask[inactive[order[:need]]] = 1.0
    return new_mask.reshape(g.shape)


def install(monkeypatch):
    """Make rankprune.sparsity (and so update_masks) use these reference versions."""
    for fn in (global_density_split, prune_layer, grow_layer):
        monkeypatch.setattr(sp, fn.__name__, fn)
