"""Combined objective, SGD, and the two-stage training loop."""

import contextlib
import dataclasses
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sort_reference

import rankprune
from rankprune import checkpoint as ckpt
from rankprune import config, datasets, model, rank, sparsity as sp, trainer
from rankprune.model import Batch
from rankprune.rank import RankLossConfig
from rankprune.sparsity import GrowSchedule, ScheduleError, SparsitySchedule
from rankprune.trainer import OptimizerState, TrainConfig


def small_config(final_sparsity=0.9, prune=200, interval=50, total=300, lam=0.1, **kw):
    defaults = dict(learning_rate=0.03, momentum=0.9, weight_decay=0.0, batch_size=16, seed=0)
    defaults.update(kw)
    return TrainConfig(
        schedule=SparsitySchedule(final_sparsity, prune, interval, total),
        grow=GrowSchedule(0.3),
        rank_cfg=RankLossConfig(lam=lam),
        **defaults,
    )


def small_dataset(seed=0):
    spec = datasets.SyntheticDatasetSpec(
        num_classes=4, features=12, samples_per_class=30, cluster_spread=0.8, seed=seed
    )
    return datasets.make_blobs(spec)


def small_net(seed=0):
    return model.build_network(12, [("dense", 16)], 4, seed=seed)


class TestCombinedGradient:
    def test_lambda_zero_equals_task_gradient(self):
        net = small_net()
        data = small_dataset()
        batch = Batch(data.train_x[:8], data.train_y[:8])
        grads = trainer.combined_gradient(net, batch, RankLossConfig(lam=0.0))
        logits, cache = model.forward(net, batch)
        task = model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])
        for (dw, db), (tw, tb) in zip(grads, task):
            np.testing.assert_array_equal(dw, tw)
            np.testing.assert_array_equal(db, tb)

    def test_constant_task_loss_isolates_rank_gradient(self):
        # zero out the head so logits are constant: task gradient vanishes on
        # the hidden layer, leaving lambda * rank gradient only
        net = small_net()
        net.layers[-1].params.weight[:] = 0.0
        net.touch()
        data = small_dataset()
        batch = Batch(data.train_x[:8], data.train_y[:8])
        lam = 0.25
        grads = trainer.combined_gradient(net, batch, RankLossConfig(lam=lam))
        term = rank.layer_rank_term(
            model.reshape_to_matrix(net.layers[0]), RankLossConfig(lam=lam)
        )
        np.testing.assert_allclose(grads[0][0], lam * term.gradient, atol=1e-12)

    def test_finite_differences_combined(self):
        lam = 0.1
        cfg = RankLossConfig(lam=lam, target_error=0.2)
        arch = (6, [("dense", 5)], 3)
        net = model.build_network(*arch, seed=1)
        rng = np.random.default_rng(2)
        for l in net.layers:
            l.bias = rng.normal(size=l.bias.shape) * 0.1
        x = rng.normal(size=(4, 6))
        labels = rng.integers(0, 3, 4)
        batch = Batch(x, labels)
        grads = trainer.combined_gradient(net, batch, cfg)

        # freeze per-layer k at the base point, as the trainer does for one step
        ks = [
            rank.select_k(
                np.linalg.svd(
                    rank.normalize(model.reshape_to_matrix(l)), compute_uv=False
                ),
                cfg.target_error,
            )
            for l in net.layers
        ]
        effs = [l.params.effective() for l in net.layers]

        def objective(layer_idx, pos, delta):
            twin = model.build_network(*arch, seed=1)
            for tl, e, orig in zip(twin.layers, effs, net.layers):
                tl.params.weight = e.copy()
                tl.params.mask = np.ones_like(e)
                tl.bias = orig.bias.copy()
            twin.layers[layer_idx].params.weight[pos] += delta
            logits, _ = model.forward(twin, batch)
            total = model.loss_and_dout(logits, labels)[0]
            for tl, k in zip(twin.layers, ks):
                total += lam * rank.rank_loss(model.reshape_to_matrix(tl), k)
            return total

        eps = 1e-6
        rng2 = np.random.default_rng(3)
        for li in range(len(net.layers)):
            dw = grads[li][0]
            for fp in rng2.choice(dw.size, size=10, replace=False):
                pos = np.unravel_index(fp, dw.shape)
                fd = (objective(li, pos, eps) - objective(li, pos, -eps)) / (2 * eps)
                assert fd == pytest.approx(dw[pos], rel=1e-4, abs=1e-8)

    def test_skipped_layer_is_logged(self, caplog):
        net = small_net()
        net.layers[0].params.set_mask(np.zeros_like(net.layers[0].params.mask))  # its weight falls to 0
        data = small_dataset()
        with caplog.at_level(logging.INFO, logger="rankprune.trainer"):
            trainer.combined_gradient(net, Batch(data.train_x[:8], data.train_y[:8]), RankLossConfig(lam=0.1))
        skipped = [r.getMessage() for r in caplog.records if r.name == "rankprune.trainer"]
        assert len(skipped) == 1
        assert skipped[0].startswith(f"rank term skipped for {net.layers[0].name}: Frobenius norm 0.0")

    def test_degenerate_layer_contributes_task_only(self):
        net = small_net()
        net.layers[0].params.weight[:] = 0.0  # degenerate weight: skip rank term
        net.touch()
        data = small_dataset()
        batch = Batch(data.train_x[:8], data.train_y[:8])
        grads = trainer.combined_gradient(net, batch, RankLossConfig(lam=1.0))
        logits, cache = model.forward(net, batch)
        task = model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])
        np.testing.assert_array_equal(grads[0][0], task[0][0])


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        net = small_net()
        before = [l.params.weight.copy() for l in net.layers]
        opt = OptimizerState.zeros_like(net)
        grads = [(np.zeros_like(l.params.weight), np.zeros_like(l.bias)) for l in net.layers]
        trainer.sgd_step(net, grads, opt, lr=0.1, momentum=0.9, weight_decay=0.0)
        for l, b in zip(net.layers, before):
            np.testing.assert_array_equal(l.params.weight, b)

    def test_single_step_formula(self):
        net = small_net()
        mask = net.layers[0].params.mask
        w0 = net.layers[0].params.weight.copy()
        opt = OptimizerState.zeros_like(net)
        rng = np.random.default_rng(4)
        grads = [
            (rng.normal(size=l.params.weight.shape), rng.normal(size=l.bias.shape))
            for l in net.layers
        ]
        lr, wd = 0.05, 0.01
        trainer.sgd_step(net, grads, opt, lr=lr, momentum=0.0, weight_decay=wd)
        expected = w0 - lr * (grads[0][0] + wd * w0) * mask
        np.testing.assert_allclose(net.layers[0].params.weight, expected, atol=1e-14)

    def test_momentum_recurrence_two_steps(self):
        net = small_net()
        w0 = net.layers[0].params.weight.copy()
        opt = OptimizerState.zeros_like(net)
        rng = np.random.default_rng(5)
        g1 = [(rng.normal(size=l.params.weight.shape), np.zeros_like(l.bias)) for l in net.layers]
        g2 = [(rng.normal(size=l.params.weight.shape), np.zeros_like(l.bias)) for l in net.layers]
        lr, mu = 0.1, 0.9
        trainer.sgd_step(net, g1, opt, lr=lr, momentum=mu, weight_decay=0.0)
        trainer.sgd_step(net, g2, opt, lr=lr, momentum=mu, weight_decay=0.0)
        # hand-unrolled: v1 = g1; w1 = w0 - lr v1; v2 = mu v1 + g2; w2 = w1 - lr v2
        v1 = g1[0][0]
        w1 = w0 - lr * v1
        v2 = mu * v1 + g2[0][0]
        w2 = w1 - lr * v2
        np.testing.assert_allclose(net.layers[0].params.weight, w2, atol=1e-14)

    def test_masked_positions_stay_zero(self):
        net = small_net()
        mask = (np.random.default_rng(6).random(net.layers[0].params.weight.shape) < 0.5).astype(float)
        mask.ravel()[0] = 1.0
        net.layers[0].params.set_mask(mask)
        opt = OptimizerState.zeros_like(net)
        grads = [(np.ones_like(l.params.weight), np.ones_like(l.bias)) for l in net.layers]
        trainer.sgd_step(net, grads, opt, lr=0.1, momentum=0.9, weight_decay=0.01)
        assert np.all(net.layers[0].params.weight[mask == 0.0] == 0.0)


class TestAverageDeltaRank:
    def test_rank_one_layers(self):
        net = small_net()
        for l in net.layers:
            out, inp = l.params.weight.shape
            l.params.weight = np.outer(np.linspace(1, 2, out), np.linspace(1, 2, inp))
            l.params.mask = np.ones_like(l.params.weight)
        net.touch()
        assert trainer.average_delta_rank(net, 0.1)[0] == pytest.approx(1.0)

    def test_all_zero_weights(self):
        net = small_net()
        for l in net.layers:
            l.params.weight[:] = 0.0
        net.touch()
        assert trainer.average_delta_rank(net, 0.1)[0] == 0.0

    def test_matches_direct_recomputation(self):
        net = small_net(seed=7)
        expected = np.mean(
            [rank.delta_rank(model.reshape_to_matrix(l), 0.2) for l in net.layers]
        )
        assert trainer.average_delta_rank(net, 0.2)[0] == pytest.approx(expected)


def eval_net(kind):
    """(net, input shape) of a dense or a conv net on 3 classes."""
    if kind == "dense":
        return model.build_network(12, [("dense", 16)], 3, seed=1), (12,)
    return model.build_network((1, 6, 6), [("conv2d", 4, 3, 3), ("dense", 8)], 3, seed=1), (1, 6, 6)


def conv_s90_case():
    """The conv-s90 benchmark's net, 120 images, their first 32 as a batch, and
    one training step on that batch: forward, loss and backward. A first
    forward has run, so its one-time allocations fall outside later traces."""
    rng = np.random.default_rng(0)
    net = model.build_network((1, 12, 12), [("conv2d", 8, 3, 3), ("conv2d", 16, 3, 3)], 10, seed=0)
    x, y = rng.normal(size=(120, 1, 12, 12)), rng.integers(0, 10, 120)
    batch = Batch(x[:32], y[:32])
    model.forward(net, batch)

    def step():
        logits, cache = model.forward(net, batch)
        _, dout = model.loss_and_dout(logits, batch.labels)
        model.backward(net, cache, dout)

    return net, x, y, batch, step


TOY_CFG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"


def toy_mask_step_case(t=100):
    """The toy benchmark's net, batch and schedule at mask step t, and one
    plain step (forward, loss, backward and sgd_step), already run once. At
    the first mask step, 100, every weight is nonzero; a later t trains the
    steps before it, so the masks hold zeros."""
    cfg = config.parse_config(TOY_CFG)
    data = datasets.make_blobs(cfg.dataset)
    net = model.build_network(cfg.model.input_shape, cfg.model.layers, cfg.model.num_classes, seed=0)
    batch = Batch(data.train_x[: cfg.train.batch_size], data.train_y[: cfg.train.batch_size])
    opt = OptimizerState.zeros_like(net)
    if t > cfg.train.schedule.update_interval:
        opt = trainer.train(net, data, cfg.train, stop_after=t - 1).optimizer

    def step():
        logits, cache = model.forward(net, batch)
        _, dout = model.loss_and_dout(logits, batch.labels)
        trainer.sgd_step(net, model.backward(net, cache, dout), opt, 0.03, 0.9, 0.0)

    step()
    return net, batch, cfg.train, step


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees allocated during run(), numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestEvaluate:
    def test_train_refuses_an_empty_eval_split(self):
        data = small_dataset()
        data.eval_x, data.eval_y = data.eval_x[:0], data.eval_y[:0]
        net = small_net()
        before = [l.params.weight.copy() for l in net.layers]
        with pytest.raises(ValueError, match="^dataset has no eval rows$"):
            trainer.train(net, data, small_config())
        for l, w in zip(net.layers, before):  # refused before step 1
            np.testing.assert_array_equal(l.params.weight, w)

    @pytest.mark.parametrize("n", [5, 8, 24, 29])  # below, at, a multiple of and off the batch size
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_slices_give_the_whole_set_accuracy(self, kind, n):
        net, shape = eval_net(kind)
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n,) + shape), rng.integers(0, 3, n)
        logits, _ = model.forward(net, Batch(x, y))
        assert trainer._evaluate(net, x, y, 8) == model.accuracy(logits, y)

    def test_no_forward_is_wider_than_the_batch(self, monkeypatch):
        d = datasets.make_blobs(datasets.SyntheticDatasetSpec(4, 12, samples_per_class=60, cluster_spread=0.8))
        d.train_x = d.train_x.reshape(-1, 1, 3, 4)
        d.eval_x = d.eval_x.reshape(-1, 1, 3, 4)[:37]
        d.eval_y = d.eval_y[:37]
        rows, eval_rows = [], []

        def spy(net, batch):
            (eval_rows if np.shares_memory(batch.inputs, d.eval_x) else rows).append(len(batch.inputs))
            return model.forward(net, batch)

        monkeypatch.setattr(trainer, "forward", spy)
        net = model.build_network((1, 3, 4), [("conv2d", 4, 3, 3), ("dense", 8)], 4, seed=1)
        res = trainer.train(net, d, small_config(prune=100, interval=25, total=120, batch_size=16))
        records = sum(m.eval_acc is not None for m in res.metrics)
        assert records == 5
        assert set(rows) == {16}
        assert eval_rows == [16, 16, 5] * records  # ceil(37 / 16) slices per record step

    def test_eval_peak_memory_within_a_training_step(self):
        # the conv-s90 benchmark's shape: a whole-set eval forward of its 120
        # images peaks near 3.5 times one training step
        net, x, y, batch, step = conv_s90_case()
        eval_peak = traced_peak(lambda: trainer._evaluate(net, x, y, 32))
        assert eval_peak <= traced_peak(step)
        # one slice's forward at a time: a slice's cache kept alive through the
        # next forward would nearly double the peak
        assert eval_peak < 1.5 * traced_peak(lambda: model.forward(net, batch))


def numpy_batch(seed, step, n, batch_size):
    """Step step's batch indices as numpy draws them from (seed, step) alone."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1, step])))
    return rng.integers(0, n, size=batch_size)


@pytest.mark.parametrize("seed", [0, 3, 11, 2**31, 2**32 + 7, 2**64 + 3])
@pytest.mark.parametrize("first, count", [(1, 100), (95, 10), (2999, 2), (2**32 - 3, 3)],
                         ids=["first block", "across a block boundary", "resumed", "last steps"])
def test_block_draw_is_numpys_draw_per_step(seed, first, count):
    # seeds of one, two and three uint32 words take SeedSequence's three
    # entropy paths: padded with a zero, filling the pool, and mixed in after it
    block = trainer._draw_block(seed, first, count, 300, 32)
    assert block.shape == (count, 32) and block.dtype == np.int64
    for row, step in zip(block, range(first, first + count)):
        assert np.array_equal(row, numpy_batch(seed, step, 300, 32))


def test_train_takes_each_steps_numpy_batch(monkeypatch):
    # a run resumed inside its first block draws blocks from steps 41, 141
    # and 241, the last one for the 10 steps left, and every step's batch is
    # numpy's draw for (seed, step)
    cfg, data = small_config(total=250, prune=200), small_dataset()
    res = trainer.train(small_net(), data, cfg, stop_after=40)
    blocks, inputs = [], []
    draw_block = trainer._draw_block

    def drawing(seed, first, count, n, batch_size):
        blocks.append((first, count))
        return draw_block(seed, first, count, n, batch_size)

    def batching(x, labels):
        if not np.shares_memory(x, data.eval_x):
            inputs.append(x)
        return Batch(x, labels)

    monkeypatch.setattr(trainer, "_draw_block", drawing)
    monkeypatch.setattr(trainer, "Batch", batching)
    trainer.train(res.net, data, cfg, start_step=40, optimizer=res.optimizer)
    assert blocks == [(41, 100), (141, 100), (241, 10)]
    n = len(data.train_y)
    assert len(inputs) == 210
    for step, x in zip(range(41, 251), inputs):
        assert np.array_equal(x, data.train_x[numpy_batch(cfg.seed, step, n, cfg.batch_size)])


class TestTrain:
    def test_step_peak_memory_within_its_forward(self):
        # backward lets go of each layer's cached arrays once it has read
        # them, so the second conv layer's patch matrix is gone before its
        # patch gradient, the same size, exists: ~1.08x. A cache held whole
        # until backward returns reads ~1.84x
        net, _, _, batch, step = conv_s90_case()
        assert traced_peak(step) <= 1.15 * traced_peak(lambda: model.forward(net, batch))

    def test_peak_memory_within_one_training_step(self):
        # the conv-s90 benchmark's net over plain (1, 3, 5), mask (2, 4) and
        # record (2, 4, 6) steps reads ~1.09x: no cache or gradient outlives
        # its step. A step's gradients kept through the next step read
        # ~1.17x, a plain step's cache kept into the next forward ~1.2x, and
        # one kept through a mask step's own forward and backward ~1.7x
        net, x, y, _, step = conv_s90_case()
        data = datasets.Dataset(x, y, x[:40], y[:40])
        cfg = small_config(final_sparsity=0.5, prune=4, interval=2, total=6, batch_size=32)
        assert traced_peak(lambda: trainer.train(net, data, cfg)) <= 1.15 * traced_peak(step)

    def test_mask_update_peak_memory_near_a_plain_step(self):
        # the selection runs on the concatenated magnitudes themselves and
        # returns a boolean keep-mask: ~1.7x. Index arrays of every kept
        # position and a gathered copy of the magnitudes read ~3.97x
        net, batch, cfg, step = toy_mask_step_case()
        dws = [dw for dw, _ in trainer.combined_gradient(net, batch, cfg.rank_cfg)]
        assert all(np.all(l.params.weight != 0.0) for l in net.layers)
        peak = traced_peak(lambda: sp.update_masks(net, dws, cfg.schedule, cfg.grow, 100))
        assert peak <= 2.5 * traced_peak(step)
        # at the second mask step the masked zeros send the selection through
        # the live positions only, with a boolean tiebreak: ~2.15x. A float64
        # copy of every mask as the tiebreak read ~2.98x
        net, batch, cfg, step = toy_mask_step_case(200)
        dws = [dw for dw, _ in trainer.combined_gradient(net, batch, cfg.rank_cfg)]
        assert not all(np.all(l.params.weight != 0.0) for l in net.layers)
        peak = traced_peak(lambda: sp.update_masks(net, dws, cfg.schedule, cfg.grow, 200))
        assert peak <= 2.4 * traced_peak(step)

    def test_combined_gradient_peak_memory_near_a_plain_step(self):
        # the rank term goes into the task gradient in place, and its
        # gradient's full-size products into the normalized weight's buffer:
        # ~1.75x. A new array for each reads ~2.11x
        net, batch, cfg, step = toy_mask_step_case()
        peak = traced_peak(lambda: trainer.combined_gradient(net, batch, cfg.rank_cfg))
        assert peak <= 1.9 * traced_peak(step)

    def test_run_without_skips_imports_no_logging(self, tmp_path):
        # two mask steps, each with the rank term on every layer: logging is
        # imported only to log a skipped layer
        code = (
            "import sys\n"
            "from rankprune import cli\n"
            f"assert cli.main(['train', '--config', {str(TOY_CFG)!r}, '--stop-after', '200', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('logging' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rankprune.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "False"

    def test_dense_schedule_keeps_masks_full(self):
        cfg = small_config(final_sparsity=0.0, prune=100, interval=50, total=150)
        res = trainer.train(small_net(), small_dataset(), cfg)
        assert res.net.sparsity() == 0.0
        for l in res.net.layers:
            assert np.all(l.params.mask == 1.0)

    def test_sparsity_trajectory_and_final_budget(self):
        cfg = small_config(final_sparsity=0.9, prune=200, interval=50, total=250)
        res = trainer.train(small_net(), small_dataset(), cfg)
        sps = [m.sparsity for m in res.metrics]
        assert all(b >= a - 1e-12 for a, b in zip(sps, sps[1:]))
        # final sparsity within one weight per layer of the target
        total = res.net.total_weights()
        slack = len(res.net.layers) / total
        assert res.net.sparsity() == pytest.approx(0.9, abs=slack + 1e-9)
        # sparsity at each update step matches the schedule
        for m in res.metrics:
            if m.step % 50 == 0 and m.step <= 200:
                want = sp.target_sparsity(cfg.schedule, m.step)
                assert m.sparsity == pytest.approx(want, abs=slack + 1e-9)

    def test_stage2_masks_frozen(self):
        cfg = small_config(final_sparsity=0.8, prune=100, interval=50, total=200)
        net = small_net()
        data = small_dataset()
        partial = trainer.train(net, data, cfg, stop_after=100)
        masks_at_freeze = [l.params.mask.copy() for l in net.layers]
        trainer.train(net, data, cfg, start_step=100, optimizer=partial.optimizer)
        for l, m in zip(net.layers, masks_at_freeze):
            assert np.array_equal(l.params.mask, m)

    def test_determinism(self):
        cfg = small_config()
        r1 = trainer.train(small_net(seed=3), small_dataset(), cfg)
        r2 = trainer.train(small_net(seed=3), small_dataset(), cfg)
        assert len(r1.metrics) == len(r2.metrics)
        for a, b in zip(r1.metrics, r2.metrics):
            assert a.csv_row() == b.csv_row()
        for la, lb in zip(r1.net.layers, r2.net.layers):
            assert np.array_equal(la.params.weight, lb.params.weight)

    def test_momentum_zero_at_pruned_positions(self):
        cfg = small_config(final_sparsity=0.85, prune=100, interval=50, total=100)
        net = small_net()
        res = trainer.train(net, small_dataset(), cfg)
        for buf, l in zip(res.optimizer.weight_buffers, net.layers):
            assert np.all(buf[l.params.mask == 0.0] == 0.0)

    def test_lambda_zero_is_pure_magnitude_grow_baseline(self):
        # identical to a run whose rank gradients are never added
        cfg0 = small_config(lam=0.0)
        res0 = trainer.train(small_net(seed=4), small_dataset(), cfg0)
        assert res0.net.sparsity() == pytest.approx(0.9, abs=0.01)

    def test_rank_metrics_measured_after_the_step(self):
        # step 100 is a mask step: its row must describe the network the step
        # leaves behind, the same state the checkpoint and eval_acc see
        cfg = small_config(final_sparsity=0.9, prune=200, interval=50, total=250)
        res = trainer.train(small_net(), small_dataset(), cfg, stop_after=100, delta=0.3)
        last = res.metrics[-1]
        assert last.step == 100
        losses, ranks = [], []
        for layer in res.net.layers:
            w = model.reshape_to_matrix(layer)
            sigma = np.linalg.svd(rank.normalize(w), compute_uv=False)
            k = rank.select_k(sigma, cfg.rank_cfg.target_error)
            losses.append(rank.rank_loss(w, k))
            ranks.append(rank.delta_rank(w, 0.3))
        assert last.rank_loss == pytest.approx(sum(losses), abs=1e-12)
        assert last.avg_delta_rank == np.mean(ranks)

    def test_average_delta_rank_runs_once_per_record_step(self, monkeypatch):
        calls = []
        real = trainer.average_delta_rank

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "average_delta_rank", counting)
        res = trainer.train(small_net(), small_dataset(), small_config(prune=200, interval=50, total=260))
        recorded = [m.step for m in res.metrics if m.avg_delta_rank is not None]
        assert recorded == [50, 100, 150, 200, 250, 260]
        assert len(calls) == len(recorded)

    def test_empty_dataset_rejected(self):
        data = small_dataset()
        data.train_x = data.train_x[:0]
        with pytest.raises(ValueError):
            trainer.train(small_net(), data, small_config())

    @pytest.mark.parametrize("layer, what", [(0, "weights"), (1, "weights"), (0, "activations")])
    def test_nonfinite_loss_names_step_and_layer(self, layer, what):
        net = small_net()
        target = net.layers[layer]
        if what == "weights":
            target.params.weight[0, 0] = np.nan  # an active position: masks start full
        else:
            target.bias[0] = np.inf
        net.touch()
        before = [l.params.weight.copy() for l in net.layers]
        with np.errstate(invalid="ignore"), \
                pytest.raises(trainer.DivergenceError, match=f"^step 1: .* the {what} of layer {target.name} are not"):
            trainer.train(net, small_dataset(), small_config())
        for l, w in zip(net.layers, before):
            np.testing.assert_array_equal(l.params.weight, w)

    def test_divergence_stops_before_nonfinite_weights(self):
        # a huge step size overflows the activations within a few steps; the
        # run stops there, before any weight turns non-finite
        net = small_net()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(trainer.DivergenceError, match="activations of layer") as exc:
            trainer.train(net, small_dataset(), small_config(learning_rate=1e4))
        assert not str(exc.value).startswith("step 1:")
        assert all(np.all(np.isfinite(l.params.weight)) for l in net.layers)

    def test_weight_norm_overflow_at_record_step_names_step_and_layer(self):
        # step 1's loss is finite, but its update leaves finite weights whose
        # squared sum overflows; step 1 records rank metrics
        net = small_net()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            trainer.DivergenceError, match=f"^step 1: the weight norm of layer {net.layers[0].name} is inf$"
        ):
            trainer.train(net, small_dataset(), small_config(prune=200, interval=1, learning_rate=1e306))
        assert all(np.all(np.isfinite(l.params.weight)) for l in net.layers)

    def test_indivisible_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            small_config(prune=130, interval=50, total=200)

    def test_conv_network_trains_with_rank_term(self):
        spec = datasets.SyntheticDatasetSpec(
            num_classes=3, features=16, samples_per_class=40, cluster_spread=0.8, seed=2
        )
        d = datasets.make_blobs(spec)
        d.train_x = d.train_x.reshape(-1, 1, 4, 4)
        d.eval_x = d.eval_x.reshape(-1, 1, 4, 4)
        net = model.build_network((1, 4, 4), [("conv2d", 4, 3, 3), ("dense", 12)], 3, seed=1)
        cfg = TrainConfig(
            schedule=SparsitySchedule(0.8, 100, 50, 150),
            grow=GrowSchedule(0.3),
            rank_cfg=RankLossConfig(lam=0.5),
            learning_rate=0.03,
            momentum=0.9,
            batch_size=16,
            seed=3,
        )
        res = trainer.train(net, d, cfg)
        slack = len(net.layers) / net.total_weights()
        assert res.net.sparsity() == pytest.approx(0.8, abs=slack + 1e-9)
        assert res.metrics[-1].eval_acc > 0.5

    def test_cosine_lr_changes_trajectory(self):
        cfg_const = small_config()
        cfg_cos = small_config(cosine_lr=True)
        r1 = trainer.train(small_net(seed=8), small_dataset(), cfg_const)
        r2 = trainer.train(small_net(seed=8), small_dataset(), cfg_cos)
        assert not np.array_equal(r1.net.layers[0].params.weight, r2.net.layers[0].params.weight)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan])
    def test_nonpositive_delta_refused_before_the_first_step(self, delta):
        # rank metrics are first taken at step 10; the delta is checked at entry
        rows = []
        with pytest.raises(ValueError, match="delta must be positive"):
            trainer.train(small_net(), small_dataset(), small_config(interval=10), delta=delta, metrics=rows)
        assert rows == []

    def test_resume_matches_uninterrupted(self):
        cfg = small_config(final_sparsity=0.7, prune=200, interval=50, total=250)
        data = small_dataset()
        full = trainer.train(small_net(seed=5), data, cfg)

        net = small_net(seed=5)
        part1 = trainer.train(net, data, cfg, stop_after=120)
        part2 = trainer.train(net, data, cfg, start_step=120, optimizer=part1.optimizer)
        resumed = part1.metrics + part2.metrics
        assert len(resumed) == len(full.metrics)
        for a, b in zip(full.metrics, resumed):
            assert a.csv_row() == b.csv_row()
        for la, lb in zip(full.net.layers, net.layers):
            assert np.array_equal(la.params.weight, lb.params.weight)
            assert np.array_equal(la.params.mask, lb.params.mask)

    @pytest.mark.parametrize("lam,alpha0,zero_features", [(0.1, 0.3, 0), (0.0, 0.9, 8)])
    def test_selection_matches_full_sort_reference(self, tmp_path, monkeypatch, lam, alpha0, zero_features):
        # masks every 10 steps up to sparsity 0.95: the same checkpoint bytes
        # whether the mask updates select top-k sets or fully sort. Without the
        # rank term, all-zero input features give exactly zero gradients and
        # weights, so the tie rules decide part of the masks.
        cfg = dataclasses.replace(
            small_config(final_sparsity=0.95, prune=200, interval=10, total=250, lam=lam, weight_decay=0.001),
            grow=GrowSchedule(alpha0),
        )
        data = small_dataset()
        data.train_x[:, :zero_features] = 0.0

        def run(name):
            net = model.build_network(12, [("dense", 16), ("dense", 16)], 4, seed=9)
            res = trainer.train(net, data, cfg)
            path = tmp_path / name
            ckpt.save_checkpoint(path, ckpt.state_from(res.net, res.optimizer, res.final_step, b"\0" * 32))
            return path.read_bytes(), [m.csv_row() for m in res.metrics]

        fast = run("fast.bin")
        sort_reference.install(monkeypatch)
        assert run("sorted.bin") == fast


class FakeLibc:
    """Records the malloc tuning calls train makes; mallopt returns took."""

    def __init__(self, took=1):
        self.took, self.calls = took, []

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return self.took

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad))
        return 1


PINNED = [("mallopt", -3, 32 << 20), ("mallopt", -1, 32 << 20)]
RELEASED = [("malloc_trim", 0), ("mallopt", -1, 128 << 10)]


class TestSteadyHeap:
    def test_pins_before_the_steps_and_trims_after_a_failed_run(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(trainer, "_libc", lambda: libc)
        seen = []

        def failing(seed, first, count, n, batch_size):
            seen.extend(libc.calls)
            raise ValueError("bad batch")

        monkeypatch.setattr(trainer, "_draw_block", failing)
        with pytest.raises(ValueError, match="bad batch"):
            trainer.train(small_net(), small_dataset(), small_config())
        assert seen == PINNED
        assert libc.calls == PINNED + RELEASED

    def test_trim_threshold_set_only_where_the_mmap_threshold_took(self, monkeypatch):
        # a trim threshold alone, set or restored, would freeze glibc's mmap
        # threshold at 128 KiB
        libc = FakeLibc(took=0)
        monkeypatch.setattr(trainer, "_libc", lambda: libc)
        trainer.train(small_net(), small_dataset(), small_config(total=50, prune=50))
        assert libc.calls == [PINNED[0], ("malloc_trim", 0)]

    @pytest.mark.parametrize("libc", [None, object()], ids=["no C library", "no malloc tuning"])
    def test_runs_without_malloc_tuning(self, monkeypatch, libc):
        cfg = small_config(total=100, prune=100)
        want = [m.csv_row() for m in trainer.train(small_net(), small_dataset(), cfg).metrics]
        monkeypatch.setattr(trainer, "_libc", lambda: libc)
        assert [m.csv_row() for m in trainer.train(small_net(), small_dataset(), cfg).metrics] == want


class FakeBlas:
    """A BLAS thread count, starting at threads, that records each count set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


class TestOneBlasThread:
    @pytest.mark.parametrize("fails", [False, True], ids=["normal run", "failed run"])
    def test_one_thread_for_the_steps_and_the_count_restored(self, monkeypatch, fails):
        blas = FakeBlas(threads=3)
        monkeypatch.setattr(trainer, "_blas", lambda: (blas.get, blas.set))
        seen, draw_block = [], trainer._draw_block

        def spying(*args):
            seen.append(blas.threads)
            if fails:
                raise ValueError("bad batch")
            return draw_block(*args)

        monkeypatch.setattr(trainer, "_draw_block", spying)
        with pytest.raises(ValueError, match="bad batch") if fails else contextlib.nullcontext():
            trainer.train(small_net(), small_dataset(), small_config(total=250, prune=50))
        assert seen == [1] * (1 if fails else 3)  # a draw per 100 steps
        assert blas.sets == [1, 3]

    def test_runs_without_blas(self, monkeypatch):
        cfg = small_config(total=100, prune=100)
        want = [m.csv_row() for m in trainer.train(small_net(), small_dataset(), cfg).metrics]
        monkeypatch.setattr(trainer, "_blas", lambda: None)
        assert [m.csv_row() for m in trainer.train(small_net(), small_dataset(), cfg).metrics] == want
