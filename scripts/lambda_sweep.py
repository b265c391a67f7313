#!/usr/bin/env python3
"""Rank and accuracy versus the rank-loss weight at 99% sparsity.

Drives the CLI end to end: runs `sweep-lambda` on the toy benchmark
(configs/toy.cfg), then renders the sweep CSV with `plot`.

Usage: python scripts/lambda_sweep.py --out runs/sweep [--lambdas 0,0.01,0.1,1]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankprune.cli import main as cli

BENCH_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/sweep")
    ap.add_argument("--lambdas", default="0,0.01,0.1,1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    code = cli([
        "sweep-lambda", "--config", str(BENCH_CONFIG),
        "--lambdas", args.lambdas, "--seed", str(args.seed), "--out", str(out),
    ])
    if code != 0:
        sys.exit(code)
    sys.exit(cli(["plot", str(out / "lambda_sweep.csv"), "--out", str(out)]))


if __name__ == "__main__":
    main()
