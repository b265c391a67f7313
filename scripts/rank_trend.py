#!/usr/bin/env python3
"""Rank-vs-sparsity trend on the toy benchmark.

Trains the toy benchmark (configs/toy.cfg: the 64-128-128-10 MLP on synthetic
blobs) at several target sparsities, once without the rank objective (lambda=0)
and once with it, then writes a CSV and an SVG comparing the final average
delta-rank of the two methods.

With --draw-salts it instead reruns the acceptance suite's run matrix (seeds
0-4 x sparsities 0.90/0.95/0.99 x lambda 0/0.01/0.1/1) once per salt, each
net built at its seed and trained with the batch-draw seed seed + 1000*salt,
and prints criteria 6 and 7 of tests/test_acceptance.py per salt, then each
lambda's rise over lambda=0 at sparsity 0.99 with its range over the salts.
Salt 0 is the suite's own matrix.

Usage: python scripts/rank_trend.py --out runs/trend [--seeds 0,1,2] [--lambda 1.0]
       python scripts/rank_trend.py --draw-salts 0,1,2,3,4,5,6,7
"""

import argparse
import dataclasses
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankprune import datasets, model, svgplot, trainer
from rankprune.config import parse_config

SPARSITIES = (0.90, 0.95, 0.99)
# the acceptance suite's run matrix
SUITE_SEEDS = (0, 1, 2, 3, 4)
SUITE_LAMBDAS = (0.0, 0.01, 0.1, 1.0)

TOY = parse_config(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")


def train_toy(data, seed, lam, final_sparsity, train_seed, delta):
    """Train the toy net built at seed, its batches drawn at train_seed."""
    m = TOY.model
    net = model.build_network(m.input_shape, m.layers, m.num_classes, seed=seed)
    t = TOY.train
    cfg = dataclasses.replace(
        t,
        schedule=dataclasses.replace(t.schedule, final_sparsity=final_sparsity),
        rank_cfg=dataclasses.replace(t.rank_cfg, lam=lam),
        seed=train_seed,
    )
    return trainer.train(net, data, cfg, delta=delta)


def run(data, seed, lam, final_sparsity, delta):
    last = train_toy(data, seed, lam, final_sparsity, seed, delta).metrics[-1]
    return last.avg_delta_rank, last.eval_acc


def salted_run(key):
    """One run of the suite's matrix in a pool worker, as the suite takes it:
    (final average delta-rank at 0.1, eval accuracy)."""
    salt, seed, s, lam = key
    res = train_toy(datasets.make_blobs(TOY.dataset), seed, lam, s, seed + 1000 * salt, 0.1)
    return trainer.average_delta_rank(res.net, 0.1)[0], res.metrics[-1].eval_acc


def criteria(runs):
    """Criteria 6 and 7 of tests/test_acceptance.py on one matrix
    {(seed, sparsity, lambda): (delta-rank, accuracy)}: (seeds passing 6,
    seed-averaged delta-ranks at 0.99, criterion 7's verdict)."""
    seeds_ok = 0
    for seed in SUITE_SEEDS:
        good = True
        for s in SPARSITIES:
            base = runs[(seed, s, 0.0)][0]
            best = max(runs[(seed, s, lam)][0] for lam in SUITE_LAMBDAS[1:])
            good = good and (best > base if s == 0.99 else best >= base)
        seeds_ok += good
    avg = [float(np.mean([runs[(seed, 0.99, lam)][0] for seed in SUITE_SEEDS])) for lam in SUITE_LAMBDAS]
    peak = int(np.argmax(avg))
    acc_ok = 0
    for seed in SUITE_SEEDS:
        ranks = {lam: runs[(seed, 0.99, lam)][0] for lam in SUITE_LAMBDAS[1:]}
        best = max(SUITE_LAMBDAS[1:], key=lambda lam: (ranks[lam], -lam))
        acc_ok += runs[(seed, 0.99, best)][1] >= runs[(seed, 0.99, 0.0)][1]
    falls = [i for i in range(peak) if avg[i + 1] < avg[i] - 1e-9]
    if not (peak >= 1 and avg[peak] > avg[0]):
        verdict = "fail: no rise over lambda=0"
    elif falls:
        verdict = f"fail: {SUITE_LAMBDAS[falls[0] + 1]:g} below {SUITE_LAMBDAS[falls[0]]:g}"
    elif acc_ok < 4:
        verdict = f"fail: accuracy clause {acc_ok}/5"
    else:
        verdict = "pass"
    return seeds_ok, avg, verdict


def draw_salts(salts):
    keys = [(salt, seed, s, lam) for salt in salts for seed in SUITE_SEEDS for s in SPARSITIES for lam in SUITE_LAMBDAS]
    with multiprocessing.get_context("spawn").Pool(min(os.cpu_count() or 1, 4)) as pool:
        results = dict(zip(keys, pool.map(salted_run, keys, chunksize=1)))
    rises = []
    for salt in salts:
        seeds_ok, avg, verdict = criteria({key[1:]: v for key, v in results.items() if key[0] == salt})
        rises.append([v - avg[0] for v in avg[1:]])
        print(f"salt {salt}: criterion 6 {seeds_ok}/5, mean delta-rank at 0.99 {[round(v, 2) for v in avg]}, criterion 7 {verdict}")
    for lam, rise in zip(SUITE_LAMBDAS[1:], zip(*rises)):
        print(f"lambda={lam:g}: rise over lambda=0 {' '.join(f'{r:+.2f}' for r in rise)} (range {min(rise):+.2f} to {max(rise):+.2f})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/trend")
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--draw-salts", help="comma-separated batch-draw salts; print the acceptance criteria per salt instead")
    args = ap.parse_args()
    if args.draw_salts is not None:
        draw_salts([int(s) for s in args.draw_salts.split(",")])
        return

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in args.seeds.split(",")]
    data = datasets.make_blobs(TOY.dataset)

    rows = ["method,sparsity,avg_delta_rank,eval_accuracy"]
    series = {}
    for label, lam in (("magnitude+grow (lambda=0)", 0.0), (f"rank objective (lambda={args.lam:g})", args.lam)):
        xs, ys = [], []
        for s in SPARSITIES:
            ranks, accs = zip(*(run(data, seed, lam, s, args.delta) for seed in seeds))
            mean_rank, mean_acc = float(np.mean(ranks)), float(np.mean(accs))
            rows.append(f"{label},{s!r},{mean_rank!r},{mean_acc!r}")
            xs.append(s)
            ys.append(mean_rank)
            print(f"{label:32s} sparsity {s:.2f}: rank {mean_rank:.2f} acc {mean_acc:.3f}")
        series[label] = (xs, ys)

    (out / "trend.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    svg = svgplot.line_chart(
        [(label, xs, ys) for label, (xs, ys) in series.items()],
        title=f"Average delta-rank (delta={args.delta:g}) vs sparsity",
        xlabel="sparsity",
        ylabel="average delta-rank",
    )
    (out / "trend.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {out / 'trend.csv'} and {out / 'trend.svg'}")


if __name__ == "__main__":
    main()
