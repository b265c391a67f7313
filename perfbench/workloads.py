"""Workload inputs, the commands each repetition runs, and the checks on their outputs.

Inputs are generated from the seed only: a config file per workload and,
for ``conv-s90``, a pair of IDX files. The toy config below is the one the
repository's README and scripts describe; it is written out here on purpose
so that the benchmark does not depend on any other file of the repository.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_LAMBDAS = ("0", "0.01", "0.1", "1")

TOY_CONFIG = """\
[model]
input = 64
layers = dense:128, dense:128
classes = 10

[dataset]
kind = synthetic
features = 64
samples_per_class = 100
cluster_spread = 0.8
seed = {seed}

[train]
final_sparsity = 0.99
prune_steps = 2800
update_interval = {update_interval}
total_steps = 3000
lambda = 0.1
learning_rate = 0.03
momentum = 0.9
weight_decay = 0.001
batch_size = 32
seed = {seed}

[report]
delta = 0.1
"""

CONV_CONFIG = """\
[model]
input = 1x{side}x{side}
layers = conv:8x3x3, conv:16x3x3
classes = 10

[dataset]
kind = idx
images = {images}
labels = {labels}

[train]
final_sparsity = 0.9
prune_steps = 400
update_interval = 50
total_steps = 500
lambda = 0.1
learning_rate = 0.03
momentum = 0.9
weight_decay = 0.001
batch_size = 32
seed = {seed}

[report]
delta = 0.1
"""

CONV_SIDE = 12
CONV_PER_CLASS = 60


@dataclass(frozen=True)
class Workload:
    name: str
    total_steps: int
    final_sparsity: float
    # None: the BLAS thread variables are removed from the environment.
    blas_threads: str | None
    sweep_workers: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-s99", 3000, 0.99, "1"),
        Workload("rank-s99", 3000, 0.99, "1"),
        Workload("conv-s90", 500, 0.9, "1"),
        Workload("sweep", 3000, 0.99, None, sweep_workers=2),
    )
}


def write_idx(images_path: Path, labels_path: Path, seed: int) -> None:
    """Ten classes of noisy 12x12 prototypes as big-endian IDX image/label files."""
    rng = random.Random(seed)
    npix = CONV_SIDE * CONV_SIDE
    prototypes = [[rng.randrange(256) for _ in range(npix)] for _ in range(10)]
    count = 10 * CONV_PER_CLASS
    order = list(range(count))
    rng.shuffle(order)
    pixels = bytearray()
    labels = bytearray()
    for i in order:
        label = i % 10
        for base in prototypes[label]:
            pixels.append(min(255, max(0, int(base + rng.gauss(0.0, 48.0)))))
        labels.append(label)
    images_path.write_bytes(struct.pack(">IIII", 0x803, count, CONV_SIDE, CONV_SIDE) + pixels)
    labels_path.write_bytes(struct.pack(">II", 0x801, count) + labels)


def prepare(workload: Workload, seed: int, inputs: Path, out: Path) -> list[list[str]]:
    """Write the workload's inputs under ``inputs``; return the CLI argv lists of one repetition.

    Every repetition writes to the same ``out`` path, so outputs that name
    a path are comparable byte for byte.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    cfg = inputs / "bench.cfg"
    if workload.name == "conv-s90":
        images, labels = inputs / "images.idx", inputs / "labels.idx"
        write_idx(images, labels, seed)
        cfg.write_text(CONV_CONFIG.format(side=CONV_SIDE, images=images, labels=labels, seed=seed))
    else:
        interval = 10 if workload.name == "rank-s99" else 100
        cfg.write_text(TOY_CONFIG.format(seed=seed, update_interval=interval))
    if workload.name == "sweep":
        first, last = (out / f"lambda_{float(x):g}" / "checkpoint.bin" for x in SWEEP_LAMBDAS[::3])
        return [
            ["sweep-lambda", "--config", str(cfg), "--lambdas", ",".join(SWEEP_LAMBDAS), "--out", str(out)],
            ["analyze", str(first), str(last)],
            ["plot", str(out / "lambda_sweep.csv"), "--out", str(out)],
        ]
    commands = [["train", "--config", str(cfg), "--out", str(out)]]
    if workload.name == "toy-s99":
        commands += [
            ["analyze", str(out / "checkpoint.bin")],
            ["plot", str(out / "metrics.csv"), "--out", str(out)],
        ]
    return commands


def digest(out: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_train_dir(run_dir: Path, workload: Workload, problems: list[str]) -> dict:
    summary = json.loads((run_dir / "summary.json").read_text())
    rows = (run_dir / "metrics.csv").read_text().splitlines()
    header, body = rows[0].split(","), [r.split(",") for r in rows[1:]]
    steps = [int(r[0]) for r in body]
    if steps != list(range(1, workload.total_steps + 1)):
        problems.append(f"{run_dir}: metrics.csv does not hold steps 1..{workload.total_steps}")
    if summary["final_step"] != workload.total_steps:
        problems.append(f"{run_dir}: final_step {summary['final_step']}")
    if abs(summary["final_sparsity"] - workload.final_sparsity) > 0.01:
        problems.append(f"{run_dir}: final sparsity {summary['final_sparsity']}")
    if not 0.0 <= summary["eval_accuracy"] <= 1.0:
        problems.append(f"{run_dir}: eval accuracy {summary['eval_accuracy']}")
    last = dict(zip(header, body[-1]))
    # The last row is recorded on the same network the summary reports.
    if float(last["avg_delta_rank"]) != summary["avg_delta_rank"] or summary["avg_delta_rank"] < 1:
        problems.append(f"{run_dir}: avg_delta_rank {summary['avg_delta_rank']} vs last row {last['avg_delta_rank']}")
    if float(last["eval_acc"]) != summary["eval_accuracy"]:
        problems.append(f"{run_dir}: eval accuracy differs from the last metrics row")
    if (run_dir / "checkpoint.bin").stat().st_size == 0:
        problems.append(f"{run_dir}: empty checkpoint")
    return summary


def check_outputs(workload: Workload, out: Path, stdout_lines: list[str]) -> tuple[dict, list[str]]:
    """Validate one repetition's files; return (result values, problems found)."""
    problems: list[str] = []
    if workload.name != "sweep":
        summary = _check_train_dir(out, workload, problems)
        if workload.name == "toy-s99":
            _check_analyze(stdout_lines, [summary], problems)
            _check_svg(out / "rank_vs_sparsity.svg", problems)
        return {"avg_delta_rank": summary["avg_delta_rank"], "eval_accuracy": summary["eval_accuracy"]}, problems
    summaries = [_check_train_dir(out / f"lambda_{float(x):g}", workload, problems) for x in SWEEP_LAMBDAS]
    rows = [r.split(",") for r in (out / "lambda_sweep.csv").read_text().splitlines()[1:]]
    if [float(r[0]) for r in rows] != [float(x) for x in SWEEP_LAMBDAS]:
        problems.append("lambda_sweep.csv rows are not in input order")
    for row, s in zip(rows, summaries):
        if float(row[1]) != s["avg_delta_rank"] or float(row[2]) != s["eval_accuracy"]:
            problems.append(f"lambda_sweep.csv row {row} disagrees with its summary.json")
    _check_analyze(stdout_lines, summaries[::3], problems)
    _check_svg(out / "rank_vs_lambda.svg", problems)
    return {k: sum(s[k] for s in summaries) / len(summaries) for k in ("avg_delta_rank", "eval_accuracy")}, problems


def _check_analyze(stdout_lines: list[str], summaries: list[dict], problems: list[str]) -> None:
    """The analyze JSON must agree with the summaries of the checkpoints it read."""
    text = "\n".join(stdout_lines)
    start = text.find('{\n  "checkpoints"')
    if start < 0:
        problems.append("no analyze report on stdout")
        return
    report, _ = json.JSONDecoder().raw_decode(text[start:])
    found = report["checkpoints"]
    if len(found) != len(summaries):
        problems.append(f"analyze reported {len(found)} checkpoints, expected {len(summaries)}")
        return
    for ckpt, s in zip(found, summaries):
        ranks = [layer["delta_rank"] for layer in ckpt["layers"]]
        if ckpt["global_sparsity"] != s["final_sparsity"] or ckpt["step"] != s["final_step"]:
            problems.append(f"analyze of {ckpt['checkpoint']} disagrees with summary.json")
        if abs(sum(ranks) / len(ranks) - s["avg_delta_rank"]) > 1e-9:
            problems.append(f"analyze delta-ranks {ranks} disagree with avg {s['avg_delta_rank']}")


def _check_svg(path: Path, problems: list[str]) -> None:
    if not path.is_file() or "<svg" not in path.read_text():
        problems.append(f"{path.name} missing or not SVG")
