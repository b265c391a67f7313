"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 6 and 7 share one training-run matrix (60 runs on a pool of
up to four processes, about a minute on two cores); everything else is fast.
"""

import dataclasses
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
import rank_step_reference

from rankprune import datasets, linalg, model, rank, sparsity as sp, trainer
from rankprune.cli import main
from rankprune.config import parse_config
from rankprune.sparsity import GrowSchedule, SparsitySchedule
from rankprune.trainer import TrainConfig

LAMBDAS = (0.0, 0.01, 0.1, 1.0)
SPARSITIES = (0.90, 0.95, 0.99)
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# 1. SVD correctness on 500 matrices up to 64x64, everything within 1e-8
# ----------------------------------------------------------------------


def test_criterion_1_svd_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        w = rng.normal(size=(m, n)) * float(rng.uniform(0.1, 10.0))
        f = linalg.svd(w)
        r = len(f.sigma)
        wnorm = linalg.frobenius_norm(w)
        recon = np.max(np.abs((f.u * f.sigma) @ f.v.T - w)) / max(1.0, wnorm)
        orth_u = np.max(np.abs(f.u.T @ f.u - np.eye(r)))
        orth_v = np.max(np.abs(f.v.T @ f.v - np.eye(r)))
        defining = np.max(np.abs(w @ f.v - f.u * f.sigma))
        assert np.all(np.diff(f.sigma) <= 0.0) and np.all(f.sigma >= 0.0)
        worst = max(worst, recon, orth_u, orth_v, defining / max(1.0, wnorm))
        assert recon <= 1e-8 and orth_u <= 1e-8 and orth_v <= 1e-8
        assert defining <= 1e-8 * max(1.0, wnorm)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, True, f"500 SVDs up to 64x64, worst residual {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. Eckart-Young: truncation error formula + 500 sampled rank-k rivals
# ----------------------------------------------------------------------


def test_criterion_2_eckart_young():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        w = rng.normal(size=(m, n))
        f = linalg.svd(w)
        wnorm = linalg.frobenius_norm(w)
        for k in range(1, len(f.sigma) + 1):
            best = linalg.low_rank_error(f, k)
            explicit = linalg.frobenius_norm(w - linalg.truncate(f, k))
            assert abs(explicit - best) <= 1e-10
            a = rng.normal(size=(500, m, k))
            b = rng.normal(size=(500, k, n))
            cand = a @ b
            norms = np.sqrt(np.sum(cand * cand, axis=(1, 2)))
            norms[norms == 0.0] = 1.0
            cand *= (wnorm / norms)[:, None, None]
            dists = np.sqrt(np.sum((cand - w) ** 2, axis=(1, 2)))
            assert np.all(dists >= best - 1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, True, f"200 matrices, every k, 500 rank-k samples each, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. Rank-loss equivalence (distance definition vs sigma tail) + gradient
# ----------------------------------------------------------------------


def _nondegenerate(rng, shape, k, min_gap=1e-3):
    while True:
        w = rng.normal(size=shape)
        sigma = np.linalg.svd(w / np.linalg.norm(w), compute_uv=False)
        if sigma[k - 1] - sigma[k] > min_gap:
            return w


def test_criterion_3_rank_loss_and_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst_equiv = 0.0
    worst_rel = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(m, n)))
        w = _nondegenerate(rng, (m, n), k)

        wbar = rank.normalize(w)
        f = linalg.svd(wbar)
        definition = -linalg.frobenius_norm(wbar - linalg.truncate(f, k)) ** 2
        tail_form = rank.rank_loss(w, k)
        worst_equiv = max(worst_equiv, abs(definition - tail_form))
        assert abs(definition - tail_form) <= 1e-8

        g = rank.rank_loss_gradient(w, k)
        eps = 1e-6
        fd = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            pos = it.multi_index
            wp = w.copy()
            wp[pos] += eps
            wm = w.copy()
            wm[pos] -= eps
            fd[pos] = (rank.rank_loss(wp, k) - rank.rank_loss(wm, k)) / (2 * eps)
        rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        3,
        True,
        f"equivalence gap {worst_equiv:.2e}, worst FD rel err {worst_rel:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 4. One closed-form rank step: subspaces kept, matches generic step,
#    normalized tail energy strictly up
# ----------------------------------------------------------------------


def test_criterion_4_rank_step():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    gamma = 1e-2
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(m, n)))
        w = _nondegenerate(rng, (m, n), k)
        stepped = rank.rank_step_preview(w, k, gamma)

        # the gradient step against the docstring's closed form from one SVD
        closed_form = rank_step_reference.rank_step(w, k, gamma)
        assert np.max(np.abs(stepped - closed_form)) <= 1e-8

        f0, f1 = linalg.svd(w), linalg.svd(stepped)
        cos_u = np.linalg.svd(f0.u.T @ f1.u, compute_uv=False)
        cos_v = np.linalg.svd(f0.v.T @ f1.v, compute_uv=False)
        assert np.arccos(np.clip(cos_u.min(), -1.0, 1.0)) <= 1e-6
        assert np.arccos(np.clip(cos_v.min(), -1.0, 1.0)) <= 1e-6

        def tail_fraction(mat):
            s = np.linalg.svd(mat, compute_uv=False)
            return float(np.sum(s[k:] ** 2) / np.sum(s * s))

        assert tail_fraction(stepped) > tail_fraction(w)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, True, f"100 closed-form steps at gamma={gamma}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 5. Mask machinery vs brute-force oracles on 200 random layers
# ----------------------------------------------------------------------


def test_criterion_5_mask_machinery():
    start = time.monotonic()
    rng = np.random.default_rng(505)

    for _ in range(200):
        size = int(rng.integers(4, 40))
        w = rng.normal(size=size)
        mask = (rng.random(size) < float(rng.uniform(0.3, 0.9))).astype(float)
        mask[int(rng.integers(size))] = 1.0
        active = int(mask.sum())

        keep = int(rng.integers(1, active + 1))
        got = sp.prune_layer(w * mask, mask, keep / size)
        order = sorted(
            [i for i in range(size) if mask[i] == 1.0],
            key=lambda i: (-abs(w[i] * mask[i]), i),
        )
        expected = np.zeros(size)
        expected[order[:keep]] = 1.0
        assert np.array_equal(got, expected)

        g = rng.normal(size=size)
        target = int(rng.integers(active, size + 1))
        grown = sp.grow_layer(g, mask, target / size)
        inact = sorted(
            [i for i in range(size) if mask[i] == 0.0], key=lambda i: (-abs(g[i]), i)
        )
        expected = mask.copy()
        for i in inact[: target - active]:
            expected[i] = 1.0
        assert np.array_equal(grown, expected)

    # global split oracle on 200 random multi-layer groups
    for _ in range(200):
        layers = [rng.normal(size=int(rng.integers(3, 25))) for _ in range(int(rng.integers(2, 5)))]
        density = float(rng.uniform(0.1, 1.0))
        got = sp.global_density_split(layers, density)
        flat = np.concatenate([np.abs(l) for l in layers])
        budget = int(np.ceil(density * flat.size - 1e-9))
        keep = np.zeros(flat.size, dtype=bool)
        keep[np.argsort(-flat, kind="stable")[:budget]] = True
        at = 0
        for layer, d in zip(layers, got):
            kept = int(keep[at : at + layer.size].sum())
            assert d == max(kept, 1) / layer.size
            at += layer.size

    # post-update budgets exact per layer
    net = model.build_network(10, [("dense", 12), ("dense", 8)], 5, seed=6)
    sched = SparsitySchedule(0.8, 100, 10, 150)
    grow = GrowSchedule(0.3)
    for t in range(10, 101, 10):
        grads = [rng.normal(size=l.params.weight.shape) for l in net.layers]
        sp.update_masks(net, grads, sched, grow, t)
        density = 1.0 - sp.target_sparsity(sched, t)
        dens = sp.global_density_split(
            [p.effective() for p in net.prunable], density, masks=[p.mask for p in net.prunable]
        )
        for p, d in zip(net.prunable, dens):
            assert p.active_count == sp.layer_budget(d, p.weight.size)
        total_active = sum(p.active_count for p in net.prunable)
        total = sum(p.weight.size for p in net.prunable)
        budget = int(np.ceil(density * total - 1e-9))
        assert abs(total_active - budget) <= len(net.layers)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, True, f"prune/grow/split oracles on 200 layers each, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6 & 7. Trend reproduction on the toy benchmark (shared run matrix)
# ----------------------------------------------------------------------

TOY = parse_config(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")
BENCH_DATASET = TOY.dataset


def bench_config(final_sparsity: float, lam: float, seed: int) -> TrainConfig:
    t = TOY.train
    return dataclasses.replace(
        t,
        schedule=dataclasses.replace(t.schedule, final_sparsity=final_sparsity),
        rank_cfg=dataclasses.replace(t.rank_cfg, lam=lam),
        seed=seed,
    )


def _bench_run(key):
    """One run of the matrix in a pool worker: (final avg delta-rank at 0.1,
    eval accuracy, sparsity reached, its allowed slack)."""
    seed, s, lam = key
    net = model.build_network(TOY.model.input_shape, TOY.model.layers, TOY.model.num_classes, seed=seed)
    res = trainer.train(net, datasets.make_blobs(BENCH_DATASET), bench_config(s, lam, seed))
    slack = len(res.net.layers) / res.net.total_weights()
    return trainer.average_delta_rank(res.net, 0.1)[0], res.metrics[-1].eval_acc, res.net.sparsity(), slack


@pytest.fixture(scope="module")
def run_matrix():
    """(seed, sparsity, lambda) -> (final avg delta-rank at 0.1, eval accuracy).

    Each run is deterministic and independent of the others, so they run on a
    spawn pool; train runs BLAS on one thread in each worker.
    """
    keys = [(seed, s, lam) for seed in SEEDS for s in SPARSITIES for lam in LAMBDAS]
    t0 = time.monotonic()
    with multiprocessing.get_context("spawn").Pool(min(os.cpu_count() or 1, 4)) as pool:
        runs = pool.map(_bench_run, keys, chunksize=1)
    results = {}
    for key, (rank_value, acc, sparsity, slack) in zip(keys, runs):
        # sanity: the run really hit its target sparsity
        assert sparsity == pytest.approx(key[1], abs=slack + 1e-9)
        results[key] = (rank_value, acc)
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_6_rank_trend(run_matrix):
    seeds_ok = 0
    details = []
    for seed in SEEDS:
        good = True
        for s in SPARSITIES:
            base = run_matrix[(seed, s, 0.0)][0]
            best = max(run_matrix[(seed, s, lam)][0] for lam in LAMBDAS[1:])
            if s == 0.99:
                good = good and best > base
            else:
                good = good and best >= base
        seeds_ok += good
        details.append("Y" if good else "N")
    elapsed = run_matrix["elapsed"]
    assert elapsed < 2 * 15 * 60  # criteria 6+7 share the matrix
    report(
        6,
        seeds_ok >= 4,
        f"best-lambda rank >= baseline at all sparsities, strict at 0.99: "
        f"{seeds_ok}/5 seeds [{''.join(details)}], runs took {elapsed:.0f}s",
    )


def test_criterion_7_lambda_sweep_trend(run_matrix):
    # rank rises from lambda=0 to its peak (seed-averaged), then may decline
    avg = [
        float(np.mean([run_matrix[(seed, 0.99, lam)][0] for seed in SEEDS]))
        for lam in LAMBDAS
    ]
    peak = int(np.argmax(avg))
    rises = peak >= 1 and avg[peak] > avg[0]
    prefix_monotone = all(avg[i + 1] >= avg[i] - 1e-9 for i in range(peak))

    acc_ok = 0
    for seed in SEEDS:
        ranks = {lam: run_matrix[(seed, 0.99, lam)][0] for lam in LAMBDAS[1:]}
        best = max(LAMBDAS[1:], key=lambda lam: (ranks[lam], -lam))
        if run_matrix[(seed, 0.99, best)][1] >= run_matrix[(seed, 0.99, 0.0)][1]:
            acc_ok += 1

    ok = rises and prefix_monotone and acc_ok >= 4
    report(
        7,
        ok,
        f"avg rank over lambda {[round(v, 2) for v in avg]} peaks at "
        f"lambda={LAMBDAS[peak]}; accuracy clause {acc_ok}/5 seeds",
    )


# ----------------------------------------------------------------------
# 8. Determinism and persistence through the CLI
# ----------------------------------------------------------------------

ACCEPT_CONFIG = """\
[model]
input = 12
layers = dense:16
classes = 4

[dataset]
kind = synthetic
features = 12
samples_per_class = 30
cluster_spread = 0.8
seed = 7

[train]
final_sparsity = 0.9
prune_steps = 100
update_interval = 50
total_steps = 150
learning_rate = 0.03
batch_size = 16
seed = 1

[report]
out_dir = {out}
delta = 0.1
"""


def test_criterion_8_determinism_and_persistence(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    out = tmp_path / "full"
    cfg_path.write_text(ACCEPT_CONFIG.format(out=out), encoding="utf-8")

    assert main(["train", "--config", str(cfg_path)]) == 0
    first_csv = (out / "metrics.csv").read_bytes()
    first_ckpt = (out / "checkpoint.bin").read_bytes()
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "metrics.csv").read_bytes() == first_csv
    assert (out / "checkpoint.bin").read_bytes() == first_ckpt

    part_a = tmp_path / "a"
    part_b = tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(part_a), "--stop-after", "70"]) == 0
    assert (
        main([
            "train", "--config", str(cfg_path), "--out", str(part_b),
            "--resume", str(part_a / "checkpoint.bin"),
        ])
        == 0
    )
    full_rows = first_csv.decode().splitlines()
    rows_a = (part_a / "metrics.csv").read_text().splitlines()
    rows_b = (part_b / "metrics.csv").read_text().splitlines()
    assert rows_a[1:] + rows_b[1:] == full_rows[1:]
    assert (part_b / "checkpoint.bin").read_bytes() == first_ckpt

    report(8, True, "byte-identical reruns; resumed run bitwise equals uninterrupted")
