#!/usr/bin/env python3
"""Rank-vs-sparsity trend on the toy benchmark.

Trains the toy benchmark (configs/toy.cfg: the 64-128-128-10 MLP on synthetic
blobs) at several target sparsities, once without the rank objective (lambda=0)
and once with it, then writes a CSV and an SVG comparing the final average
delta-rank of the two methods.

Usage: python scripts/rank_trend.py --out runs/trend [--seeds 0,1,2] [--lambda 1.0]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankprune import datasets, model, svgplot, trainer
from rankprune.config import parse_config

SPARSITIES = (0.90, 0.95, 0.99)

TOY = parse_config(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")


def run(data, seed, lam, final_sparsity, delta):
    m = TOY.model
    net = model.build_network(m.input_shape, m.layers, m.num_classes, seed=seed)
    t = TOY.train
    cfg = dataclasses.replace(
        t,
        schedule=dataclasses.replace(t.schedule, final_sparsity=final_sparsity),
        rank_cfg=dataclasses.replace(t.rank_cfg, lam=lam),
        seed=seed,
    )
    res = trainer.train(net, data, cfg, delta=delta)
    last = res.metrics[-1]
    return last.avg_delta_rank, last.eval_acc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/trend")
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.1)
    args = ap.parse_args()

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
