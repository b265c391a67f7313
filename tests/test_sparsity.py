"""Schedules, global budget split, and prune-and-grow mask updates."""

import numpy as np
import pytest
import sort_reference as ref

from rankprune import model, sparsity as sp
from rankprune.sparsity import GrowSchedule, ScheduleError, SparsitySchedule


def schedule(final=0.9, prune=100, interval=10, total=200, shape="cubic"):
    return SparsitySchedule(final, prune, interval, total, shape)


def test_prune_steps_must_be_a_multiple_of_update_interval():
    # the ramp reaches final_sparsity only at an update step
    with pytest.raises(ScheduleError, match="^prune_steps 100 must be a multiple of update_interval 30$"):
        SparsitySchedule(0.9, 100, 30, 200)


class TestTargetSparsity:
    def test_start(self):
        assert sp.target_sparsity(schedule(), 0) == 0.0

    def test_end_and_beyond(self):
        s = schedule()
        assert sp.target_sparsity(s, 100) == pytest.approx(0.9)
        assert sp.target_sparsity(s, 150) == pytest.approx(0.9)

    def test_midpoint(self):
        assert sp.target_sparsity(schedule(0.9, 100, 10, 200), 50) == pytest.approx(0.7875)

    def test_linear_shape(self):
        s = schedule(0.8, 100, 10, 200, shape="linear")
        assert sp.target_sparsity(s, 25) == pytest.approx(0.2)

    def test_monotone(self):
        s = schedule()
        values = [sp.target_sparsity(s, t) for t in range(0, 201, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestGrowFraction:
    def test_endpoints(self):
        s, g = schedule(), GrowSchedule(0.3)
        assert sp.grow_fraction(g, s, 0) == pytest.approx(0.3)
        assert sp.grow_fraction(g, s, 100) == pytest.approx(0.0, abs=1e-15)
        assert sp.grow_fraction(g, s, 160) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        assert sp.grow_fraction(GrowSchedule(0.3), schedule(), 50) == pytest.approx(0.15)

    def test_bounded(self):
        s, g = schedule(), GrowSchedule(0.3)
        for t in range(0, 101, 7):
            assert 0.0 <= sp.grow_fraction(g, s, t) <= 0.3


class TestGlobalDensitySplit:
    def test_hand_example(self):
        dens = sp.global_density_split([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 0.75)
        assert dens == [0.5, 1.0]

    def test_full_density(self):
        dens = sp.global_density_split([np.ones((2, 3)), np.ones(5)], 1.0)
        assert dens == [1.0, 1.0]

    def test_layer_floor(self):
        dens = sp.global_density_split([np.array([0.01, 0.02]), np.array([5.0, 6.0, 7.0])], 0.5)
        # budget 3 goes entirely to the big layer; small layer floored to 1
        assert dens == [0.5, 1.0]

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            sp.global_density_split([np.ones(4)], 0.0)
        with pytest.raises(ValueError):
            sp.global_density_split([np.ones(4)], -0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            layers = [rng.normal(size=int(rng.integers(3, 20))) for _ in range(3)]
            density = float(rng.uniform(0.15, 1.0))
            got = sp.global_density_split(layers, density)
            flat = np.concatenate([np.abs(l) for l in layers])
            budget = int(np.ceil(density * flat.size - 1e-9))
            cutoff_order = np.argsort(-flat, kind="stable")[:budget]
            keep = np.zeros(flat.size, dtype=bool)
            keep[cutoff_order] = True
            start = 0
            for layer, d in zip(layers, got):
                kept = int(keep[start : start + layer.size].sum())
                assert d == max(kept, 1) / layer.size
                start += layer.size


class TestPruneLayer:
    def test_hand_example(self):
        m = sp.prune_layer(
            np.array([0.5, -0.1, 0.3, 0.02]), np.array([1.0, 1.0, 1.0, 0.0]), 0.5
        )
        np.testing.assert_array_equal(m, [1.0, 0.0, 1.0, 0.0])

    def test_keep_current_density_is_identity(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=12)
        mask = (rng.random(12) < 0.6).astype(float)
        mask[0] = 1.0
        m2 = sp.prune_layer(w * mask, mask, mask.sum() / 12)
        np.testing.assert_array_equal(m2, mask)

    def test_budget_exceeds_active(self):
        with pytest.raises(ScheduleError):
            sp.prune_layer(np.ones(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.75)

    def test_tie_break_smaller_index(self):
        m = sp.prune_layer(np.array([0.5, 0.5, 0.5, 0.5]), np.ones(4), 0.5)
        np.testing.assert_array_equal(m, [1.0, 1.0, 0.0, 0.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = rng.normal(size=16)
            mask = (rng.random(16) < 0.7).astype(float)
            mask[int(rng.integers(16))] = 1.0
            active = int(mask.sum())
            budget = int(rng.integers(1, active + 1))
            got = sp.prune_layer(w * mask, mask, budget / 16)
            # brute force: sort active indices by (-|w|, index)
            idx = [i for i in range(16) if mask[i] == 1.0]
            order = sorted(idx, key=lambda i: (-abs(w[i] * mask[i]), i))
            expected = np.zeros(16)
            expected[order[:budget]] = 1.0
            np.testing.assert_array_equal(got, expected)


class TestGrowLayer:
    def test_hand_example(self):
        m = sp.grow_layer(
            np.array([0.0, 0.9, 0.0, 0.4]), np.array([1.0, 0.0, 1.0, 0.0]), 0.75
        )
        np.testing.assert_array_equal(m, [1.0, 1.0, 1.0, 0.0])

    def test_same_target_is_identity(self):
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        m = sp.grow_layer(np.ones(4), mask, 0.5)
        np.testing.assert_array_equal(m, mask)

    def test_target_below_active(self):
        with pytest.raises(ScheduleError):
            sp.grow_layer(np.ones(4), np.array([1.0, 1.0, 1.0, 0.0]), 0.25)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = rng.normal(size=16)
            mask = (rng.random(16) < 0.4).astype(float)
            active = int(mask.sum())
            budget = int(rng.integers(active, 17)) if active < 16 else 16
            budget = max(budget, 1)
            got = sp.grow_layer(g, mask, budget / 16)
            inactive = [i for i in range(16) if mask[i] == 0.0]
            order = sorted(inactive, key=lambda i: (-abs(g[i]), i))
            expected = mask.copy()
            for i in order[: budget - active]:
                expected[i] = 1.0
            np.testing.assert_array_equal(got, expected)

    def test_disjoint_sets(self):
        # a position cannot be both a kept active and a grown inactive
        rng = np.random.default_rng(4)
        w = rng.normal(size=20)
        g = rng.normal(size=20)
        mask = np.ones(20)
        pruned = sp.prune_layer(w, mask, 0.4)
        kept = set(np.nonzero(pruned.ravel() == 1.0)[0])
        grown_mask = sp.grow_layer(g, pruned, 0.6)
        grown = set(np.nonzero((grown_mask - pruned).ravel() == 1.0)[0])
        assert kept.isdisjoint(grown)


def tie_heavy(rng, size, zero_share, nan=False):
    """Signed small integers, about zero_share of them zero: many exact ties in |x|."""
    x = rng.integers(-3, 4, size=size).astype(float)
    x[rng.random(size) < zero_share] = 0.0
    if nan:
        x[rng.random(size) < 0.1] = np.nan
    return x


TIE_CASES = [(seed, zero_share) for seed in range(6) for zero_share in (0.0, 0.5, 0.9)]


class TestSelectionMatchesFullSort:
    """Top-k selection picks the same set as the stable full sort it replaced."""

    @pytest.mark.parametrize("seed,zero_share", TIE_CASES)
    def test_global_density_split(self, seed, zero_share):
        rng = np.random.default_rng(seed)
        layers = [tie_heavy(rng, int(rng.integers(1, 30)), zero_share) for _ in range(3)]
        masks = [(rng.random(l.size) < 0.5).astype(float) for l in layers]
        total = sum(l.size for l in layers)
        for budget in sorted({1, 2, total // 3, total // 2, total - 1, total} - {0}):
            for m in (None, masks):
                got = sp.global_density_split(layers, budget / total, masks=m)
                assert got == ref.global_density_split(layers, budget / total, masks=m)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("zero_share", [0.9, 0.99])
    def test_global_density_split_mostly_zero(self, seed, zero_share):
        # effective weights at high sparsity: zero at every masked position,
        # and some active weights exactly zero as well
        rng = np.random.default_rng(300 + seed)
        masks = [(rng.random(int(rng.integers(500, 2001))) >= zero_share).astype(float) for _ in range(3)]
        total = sum(m.size for m in masks)
        # masks that disagree with the weights make the tiebreak matter among nonzeros
        unrelated = [(rng.random(m.size) < 0.5).astype(float) for m in masks]
        for nan in (False, True):
            layers = [tie_heavy(rng, m.size, 0.2, nan) * m for m in masks]
            live = sum(int(np.count_nonzero(np.abs(l) > 0)) for l in layers)
            for budget in sorted({1, 2, live // 2, live - 1, live, live + 1, total // 2, total} - {0}):
                for m in (None, masks, unrelated):
                    got = sp.global_density_split(layers, budget / total, masks=m)
                    assert got == ref.global_density_split(layers, budget / total, masks=m)

    @pytest.mark.parametrize("seed,zero_share", TIE_CASES)
    def test_prune_layer(self, seed, zero_share):
        rng = np.random.default_rng(100 + seed)
        n = 40
        mask = (rng.random(n) < 0.7).astype(float)
        mask[0] = 1.0
        active = int(mask.sum())
        for nan in (False, True):
            w = tie_heavy(rng, n, zero_share, nan) * mask
            for budget in sorted({1, 2, active // 2, active - 1, active} - {0}):
                got = sp.prune_layer(w, mask, budget / n)
                np.testing.assert_array_equal(got, ref.prune_layer(w, mask, budget / n))

    @pytest.mark.parametrize("seed,zero_share", TIE_CASES)
    def test_grow_layer(self, seed, zero_share):
        rng = np.random.default_rng(200 + seed)
        n = 40
        mask = (rng.random(n) < 0.3).astype(float)
        active = int(mask.sum())
        for nan in (False, True):
            g = tie_heavy(rng, n, zero_share, nan)
            for budget in sorted({max(active, 1), active + 1, (active + n) // 2, n - 1, n}):
                got = sp.grow_layer(g, mask, budget / n)
                np.testing.assert_array_equal(got, ref.grow_layer(g, mask, budget / n))

    @pytest.mark.parametrize("k", [-1, 0, 1, 3, 5, 6, 7])
    def test_top_k_is_a_keep_mask(self, k):
        keys = np.array([2.0, np.nan, 1.0, 2.0, 0.0, 1.0])
        want = np.zeros(6, dtype=bool)
        want[np.argsort(-keys, kind="stable")[: max(k, 0)]] = True  # NaN sorts last
        got = sp._top_k(keys, k)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)

    def test_all_equal_keys_keep_smallest_indices(self):
        mask = np.ones(6)
        np.testing.assert_array_equal(sp.prune_layer(np.zeros(6), mask, 0.5), [1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(sp.grow_layer(np.zeros(6), np.zeros(6), 1 / 6), [1, 0, 0, 0, 0, 0])
        # equal magnitudes: active entries win, whatever their position
        layers, masks = [np.zeros(4), np.zeros(4)], [np.zeros(4), np.array([0.0, 0.0, 1.0, 1.0])]
        assert sp.global_density_split(layers, 0.25) == [0.5, 0.25]
        assert sp.global_density_split(layers, 0.25, masks=masks) == [0.25, 0.5]


def toy_network(seed=0, sizes=((5, 6),)):
    layers = []
    rng = np.random.default_rng(seed)
    for out, inp in sizes:
        w = rng.normal(size=(out, inp))
        layers.append(model.Layer(params=model.MaskedTensor(w, np.ones_like(w)), bias=np.zeros(out)))
    return model.Network(layers=layers)


class TestUpdateMasks:
    def test_alpha_zero_is_pure_magnitude_pruning(self):
        net = toy_network(seed=5)
        sched = schedule(final=0.5, prune=100, interval=10)
        grads = [np.ones_like(l.params.weight) for l in net.layers]
        # t == prune_steps makes the cosine-annealed grow fraction exactly 0
        sp.update_masks(net, grads, sched, GrowSchedule(0.3), 100)
        w = net.layers[0].params.weight
        dens = sp.global_density_split([np.abs(w)], 0.5)
        budget = sp.layer_budget(dens[0], w.size)
        flat = np.abs(w).ravel()
        expected = np.zeros(w.size)
        expected[np.argsort(-flat, kind="stable")[:budget]] = 1.0
        np.testing.assert_array_equal(net.layers[0].params.mask.ravel(), expected)

    def test_hand_enumeration_single_layer(self):
        net = toy_network(seed=0, sizes=((2, 3),))
        net.layers[0].params.weight = np.array([[0.9, -0.05, 0.4], [0.02, 0.6, -0.3]])
        grads = [np.array([[0.0, 0.8, 0.1], [0.9, 0.2, 0.05]])]
        sched = schedule(final=0.5, prune=100, interval=10)
        # t=50: density 1-0.5*(1-0.125)=0.5625 -> budget ceil(6*0.5625)=4
        # alpha=0.15 -> prune keeps ceil((1-.15)*4/6*6)=4 of the actives... then grow to 4
        sp.update_masks(net, grads, sched, GrowSchedule(0.3), 50)
        # enumeration: keep top-4 |w| of {0.9,.05,.4,.02,.6,.3}: 0.9,0.6,0.4,0.3
        np.testing.assert_array_equal(
            net.layers[0].params.mask, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        )
        # pruned stored values are zeroed
        assert net.layers[0].params.weight[0, 1] == 0.0
        assert net.layers[0].params.weight[1, 0] == 0.0

    def test_hand_enumeration_with_regrow(self):
        net = toy_network(seed=0, sizes=((2, 3),))
        net.layers[0].params.weight = np.array([[0.9, -0.05, 0.4], [0.02, 0.6, -0.3]])
        grads = [np.array([[0.0, 0.8, 0.1], [0.9, 0.2, 0.05]])]
        sched = schedule(final=0.4, prune=100, interval=10)
        # t=20: target sparsity 0.4*(1-0.8^3)=0.1952 -> density .8048 -> budget ceil(4.83)=5
        # alpha(t=20)=0.3/2*(1+cos(0.2pi))=0.2713; prune keep ceil((1-a)*d*6)=ceil(3.52)=4
        # keep |w| top-4: 0.9,0.6,0.4,0.3; grow 1 by |grad| among {(0,1),(1,0)}: 0.9 at (1,0)
        sp.update_masks(net, grads, sched, GrowSchedule(0.3), 20)
        np.testing.assert_array_equal(
            net.layers[0].params.mask, [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        )
        # grown weight starts at zero
        assert net.layers[0].params.weight[1, 0] == 0.0

    def test_fixed_point_zero_grads(self):
        # same sparsity + zero gradients twice -> second update is a no-op
        net = toy_network(seed=6, sizes=((4, 5), (3, 4)))
        sched = schedule(final=0.8, prune=100, interval=10)
        grads = [np.zeros_like(l.params.weight) for l in net.layers]
        first = sp.update_masks(net, grads, sched, GrowSchedule(0.3), 50)
        second = sp.update_masks(net, grads, sched, GrowSchedule(0.3), 50)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_budget_invariant(self):
        net = toy_network(seed=7, sizes=((6, 8), (5, 6), (4, 5)))
        sched = schedule(final=0.85, prune=100, interval=10)
        grow = GrowSchedule(0.3)
        rng = np.random.default_rng(8)
        for t in range(10, 101, 10):
            grads = [rng.normal(size=l.params.weight.shape) for l in net.layers]
            sp.update_masks(net, grads, sched, grow, t)
            density = 1.0 - sp.target_sparsity(sched, t)
            dens = sp.global_density_split(
                [p.effective() for p in net.prunable], density,
                masks=[p.mask for p in net.prunable],
            )
            for p, d in zip(net.prunable, dens):
                assert p.active_count == sp.layer_budget(d, p.weight.size)

    def test_backward_refuses_a_cache_from_before_the_update(self):
        # update_masks writes the stored weights in place
        net = toy_network(seed=3)
        batch = model.Batch(np.ones((2, 6)), np.array([0, 1]))
        logits, cache = model.forward(net, batch)
        grads = [np.ones_like(l.params.weight) for l in net.layers]
        sp.update_masks(net, grads, schedule(final=0.5, prune=100, interval=10), GrowSchedule(0.3), 50)
        with pytest.raises(model.InvalidStateError):
            model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])

    def test_wrong_step_raises(self):
        net = toy_network()
        sched = schedule(final=0.5, prune=100, interval=10)
        grads = [np.zeros_like(l.params.weight) for l in net.layers]
        with pytest.raises(ScheduleError):
            sp.update_masks(net, grads, sched, GrowSchedule(0.3), 55)
        with pytest.raises(ScheduleError):
            sp.update_masks(net, grads, sched, GrowSchedule(0.3), 110)

    def test_prune_then_grow_conserves_count(self):
        net = toy_network(seed=9, sizes=((6, 6),))
        sched = schedule(final=0.7, prune=100, interval=10)
        grow = GrowSchedule(0.3)
        rng = np.random.default_rng(10)
        sp.update_masks(net, [rng.normal(size=(6, 6))], sched, grow, 50)
        before = net.prunable[0].active_count
        # repeat at the same step: count must not change, positions may
        sp.update_masks(net, [rng.normal(size=(6, 6))], sched, grow, 50)
        assert net.prunable[0].active_count == before


class TestMaskInvariants:
    def test_masks_binary(self):
        net = toy_network(seed=11, sizes=((5, 7),))
        sched = schedule(final=0.6, prune=100, interval=10)
        rng = np.random.default_rng(12)
        for t in (10, 50, 100):
            sp.update_masks(net, [rng.normal(size=(5, 7))], sched, GrowSchedule(0.3), t)
            mask = net.prunable[0].mask
            assert set(np.unique(mask)) <= {0.0, 1.0}
