"""Gradual-sparsity schedules and prune-and-grow mask updates.

Masks are float64 arrays of exact 0.0/1.0 entries with the same shape as their
weight tensor. Every mask update first splits a global keep budget across
layers by selecting the largest effective magnitudes of all layers together,
then per layer prunes the smallest active weights down to (1 - alpha_t) of the
layer budget and regrows back up to the budget at the positions with the
largest gradient magnitude. Each of these steps needs only the set of kept
positions, never their order, so a partial-sort top-k selection with fixed
tie rules (_top_k) does the work of a full stable sort. It returns a boolean
keep-mask over its keys in place of index arrays.
Regrown weights start at zero so the loss is untouched at the instant of
growth.

Schedule and split functions are pure; update_masks mutates the network's
masks and must be externally serialized (single writer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparsitySchedule",
    "GrowSchedule",
    "ScheduleError",
    "target_sparsity",
    "grow_fraction",
    "layer_budget",
    "global_density_split",
    "prune_layer",
    "grow_layer",
    "update_masks",
]


class ScheduleError(ValueError):
    """A mask update was asked to do something the schedule forbids."""


@dataclass(frozen=True)
class SparsitySchedule:
    """Gradual schedule: sparsity ramps to final_sparsity over prune_steps.

    update_interval is the gap between mask updates; total_steps covers the
    fixed-mask finetuning tail as well.
    """

    final_sparsity: float
    prune_steps: int
    update_interval: int
    total_steps: int
    shape: str = "cubic"  # cubic | linear

    def __post_init__(self):
        if not 0.0 <= self.final_sparsity < 1.0:
            raise ValueError(f"final_sparsity must lie in [0,1), got {self.final_sparsity}")
        for name in ("prune_steps", "update_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.total_steps < self.prune_steps:
            raise ValueError(
                f"total_steps {self.total_steps} < prune_steps {self.prune_steps}"
            )
        if self.total_steps >= 1 << 32:  # a step is one uint32 word of its batch draw's seed
            raise ValueError(f"total_steps must be below 2**32, got {self.total_steps}")
        if self.shape not in ("cubic", "linear"):
            raise ValueError(f"shape must be cubic or linear, got {self.shape!r}")


@dataclass(frozen=True)
class GrowSchedule:
    """Cosine-annealed grow fraction, alpha0 at step 0 down to 0 at prune_steps."""

    alpha0: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError(f"alpha0 must lie in (0,1), got {self.alpha0}")


def target_sparsity(s: SparsitySchedule, t: int) -> float:
    """Scheduled sparsity at step t; flat at final_sparsity after prune_steps."""
    if t < 0:
        raise ValueError(f"step index must be >= 0, got {t}")
    frac = min(t, s.prune_steps) / s.prune_steps
    if s.shape == "linear":
        return s.final_sparsity * frac
    return s.final_sparsity * (1.0 - (1.0 - frac) ** 3)


def grow_fraction(g: GrowSchedule, s: SparsitySchedule, t: int) -> float:
    """Fraction of the budget reopened for regrowth at step t."""
    if t < 0:
        raise ValueError(f"step index must be >= 0, got {t}")
    frac = min(t, s.prune_steps) / s.prune_steps
    return g.alpha0 / 2.0 * (1.0 + math.cos(math.pi * frac))


def layer_budget(density: float, size: int) -> int:
    """Active-weight budget for a layer: ceil(density*size), floored at 1.

    The small slack absorbs float dust when density was itself derived from an
    integer count divided by size, so an exact count never rounds up.
    """
    return min(size, max(1, math.ceil(density * size - 1e-9)))


def _top_k(keys: np.ndarray, k: int, tiebreak: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask, the length of keys, of the k entries a stable descending
    sort of keys puts first.

    Ties at the cut go to the larger tiebreak value (when given), then to the
    smaller index, and NaN ranks below every number: the same set as
    ``np.argsort(-keys, kind="stable")[:k]``, or as ``np.lexsort((-tiebreak,
    -keys))[:k]`` with a tiebreak, found with one partition instead of a sort.
    keys must not hold -inf.
    """
    n = keys.shape[0]
    if k >= n or k <= 0:
        return np.full(n, k > 0)
    cut = np.partition(keys, n - k)
    if np.isnan(cut[-1]):  # partition sorts NaN last, i.e. as the largest
        keys = np.where(np.isnan(keys), -np.inf, keys)
        cut = np.partition(keys, n - k)
    threshold = cut[n - k]
    keep = keys > threshold
    tied = np.flatnonzero(keys == threshold)
    need = k - int(np.count_nonzero(keep))
    if tiebreak is not None:
        tied = tied[_top_k(tiebreak[tied], need)]
    keep[tied[:need]] = True
    return keep


def global_density_split(weights, density: float, masks=None) -> list[float]:
    """Split a global keep budget over layers by magnitude.

    Concatenates |effective weight| over all layers, keeps the top
    ceil(density * total) entries, and returns each layer's kept fraction.
    Ties sort by mask (active before masked, when masks are given) and then by
    concatenation order, so repeated calls on the same state agree. Every
    layer keeps at least one weight.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0,1], got {density}")
    mags = np.concatenate([np.abs(np.asarray(w, dtype=np.float64)).ravel() for w in weights])
    total = mags.shape[0]
    budget = min(total, math.ceil(density * total - 1e-9))
    active = None
    if masks is not None:
        active = np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in masks])
    # a zero or NaN magnitude ranks below every positive one, so when the
    # positives fill the budget only they need a partition: at high sparsity
    # most magnitudes are exact zeros, on which np.partition is slow. When
    # every magnitude is live, or the budget reaches past the live ones, the
    # selection runs on mags itself, with no index or gathered copy
    live = mags > 0.0
    if budget <= np.count_nonzero(live) < total:
        live = np.flatnonzero(live)
        keep = np.zeros(total, dtype=bool)
        keep[live[_top_k(mags[live], budget, None if active is None else active[live])]] = True
    else:
        keep = _top_k(mags, budget, active)

    densities = []
    start = 0
    for w in weights:
        size = int(np.asarray(w).size)
        kept = int(np.count_nonzero(keep[start : start + size]))
        densities.append(max(kept, 1) / size)
        start += size
    return densities


def _select(scores, m, flag: float, k: int) -> np.ndarray:
    """m with every entry equal to flag cleared and 1.0 set at the k of those
    entries with the largest |scores|, ties toward the smaller flat index, in
    the shape of scores. Prune selects among the active entries (flag 1.0),
    grow among the inactive ones (flag 0.0), which are clear already."""
    flat = np.ravel(m)
    candidates = np.flatnonzero(flat == flag)
    new_mask = np.zeros(flat.shape) if flag else flat.copy()
    new_mask[candidates[_top_k(np.abs(np.ravel(scores)[candidates]), k)]] = 1.0
    return new_mask.reshape(np.shape(scores))


def prune_layer(w, m, keep_density: float) -> np.ndarray:
    """Keep the top active weights by magnitude, zero the rest of the mask.

    The keep budget is ceil(keep_density * size). Ties break toward the
    smaller flat index.
    """
    if not 0.0 < keep_density <= 1.0:
        raise ValueError(f"keep_density must lie in (0,1], got {keep_density}")
    budget = layer_budget(keep_density, np.size(w))
    active_count = int(np.count_nonzero(np.ravel(m) == 1.0))
    if budget > active_count:
        raise ScheduleError(
            f"prune keep budget {budget} exceeds active count {active_count}"
        )
    return _select(w, m, 1.0, budget)


def grow_layer(dense_grad, m, target_density: float) -> np.ndarray:
    """Reactivate inactive positions with the largest gradient magnitude.

    Grows the mask up to ceil(target_density * size) active entries; ties
    break toward the smaller flat index. Weight values at grown positions are
    zero by construction (pruning zeroes stored values), so growth leaves the
    forward pass unchanged until the next optimizer step.
    """
    budget = layer_budget(target_density, np.size(dense_grad))
    active_count = int(np.count_nonzero(np.ravel(m) == 1.0))
    if budget < active_count:
        raise ScheduleError(
            f"grow target {budget} below current active count {active_count}"
        )
    return _select(dense_grad, m, 0.0, budget - active_count)


def update_masks(net, dense_grads, schedule: SparsitySchedule, grow: GrowSchedule, t: int) -> list[np.ndarray]:
    """One prune-and-grow pass over every prunable layer at step t.

    dense_grads holds the combined-objective gradient of each layer's
    effective weight, defined at all positions. Mutates the network: new masks
    are installed, stored weights at pruned positions are zeroed, and
    net.touch() makes every earlier forward cache stale. Returns the new masks.
    """
    if t % schedule.update_interval != 0:
        raise ScheduleError(f"step {t} is not a multiple of {schedule.update_interval}")
    if t > schedule.prune_steps:
        raise ScheduleError(f"step {t} is past prune_steps {schedule.prune_steps}")
    layers = net.prunable
    if len(dense_grads) != len(layers):
        raise ValueError("one dense gradient per prunable layer required")
    density = 1.0 - target_sparsity(schedule, t)
    if density <= 0.0:
        raise ScheduleError(f"scheduled density {density} at step {t} is not positive")
    effective = [p.effective() for p in layers]
    densities = global_density_split(effective, density, masks=[p.mask for p in layers])
    alpha = grow_fraction(grow, schedule, t)
    new_masks = []
    net.touch()  # before the first write, so a layer that raises leaves no cache valid
    for p, e, grad, d in zip(layers, effective, dense_grads, densities):
        pruned = prune_layer(e, p.mask, (1.0 - alpha) * d)
        p.set_mask(pruned)  # zero stored values now so same-step regrowth restarts cold
        grown = grow_layer(grad, pruned, d)
        p.set_mask(grown)
        new_masks.append(grown)
    return new_masks
