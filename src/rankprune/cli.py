"""Command line front end: train, sweep-lambda, analyze, plot.

Each command runs in its own process with no shared state; sweep-lambda
trains its lambdas on a pool of spawned workers, one per usable CPU and at
most one per lambda. All outputs are deterministic functions of (config,
seed), whatever the pool size; metrics CSVs from identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import datasets, model, rank, svgplot, trainer
from .config import ExperimentConfig, config_hash, parse_config
from .datasets import IdxError, SyntheticDatasetSpec
from .trainer import MetricsRecord

__all__ = ["main"]

# the header of lambda_sweep.csv, which sweep-lambda writes and plot reads
SWEEP_HEADER = "lambda,avg_delta_rank,eval_accuracy"


def _build_dataset(cfg: ExperimentConfig) -> datasets.Dataset:
    if isinstance(cfg.dataset, SyntheticDatasetSpec):
        return datasets.make_blobs(cfg.dataset)
    images = datasets.load_idx_images(cfg.dataset.images, cfg.dataset.labels)
    sample, want = images.inputs.shape[1:], cfg.model.input_shape
    flatten = len(want) == 1
    if ((int(np.prod(sample)),) if flatten else sample) != want:
        raise IdxError(
            f"{cfg.dataset.images}: images are {'x'.join(map(str, sample))}, "
            f"which does not fit [model] input {'x'.join(map(str, want))}"
        )
    if images.labels.max() >= cfg.model.num_classes:
        raise IdxError(f"{cfg.dataset.labels}: largest label is {images.labels.max()}, "
                       f"which does not fit [model] classes {cfg.model.num_classes}")
    return datasets.stack_batches(images, flatten=flatten)


def _build_network(cfg: ExperimentConfig) -> model.Network:
    return model.build_network(cfg.model.input_shape, cfg.model.layers, cfg.model.num_classes, cfg.train.seed)


class _MetricsRows:
    """What train appends its records to in a run of this front end: their
    metrics.csv rows go to file a block at a time, and no more than a block
    of records is held, so a run's memory does not grow with its step count.
    A block's rows are made together: on the toy run a row made between two
    steps took about 18 us, against 9 in a block, and slowed the steps."""

    BLOCK = 100

    def __init__(self, file):
        self.file = file
        self.count = 0
        self.block: list[MetricsRecord] = []
        self.last: MetricsRecord | None = None
        file.write(MetricsRecord.CSV_HEADER + "\n")

    def append(self, record: MetricsRecord) -> None:
        self.block.append(record)
        self.count += 1
        self.last = record
        if len(self.block) == self.BLOCK:
            self.flush()

    def flush(self) -> None:
        """Write the rows of the records held, and let them go."""
        self.file.write("".join([r.csv_row() + "\n" for r in self.block]))
        self.block.clear()

    def __len__(self) -> int:
        return self.count


def _final_summary(cfg: ExperimentConfig, result: trainer.TrainResult) -> dict:
    """The run's end state. avg_delta_rank and eval_accuracy are the last metrics
    row's, so both are None when the run stopped between record steps."""
    last = result.metrics.last
    return {
        "final_step": result.final_step,
        "final_sparsity": result.net.sparsity(),
        "eval_accuracy": last.eval_acc if last else None,
        "avg_delta_rank": last.avg_delta_rank if last else None,
        "delta": cfg.report.delta,
        "config_sha256": config_hash(cfg).hex(),
    }


def _run_single(cfg: ExperimentConfig, data: datasets.Dataset, out_dir: Path, stop_after=None, resume=None) -> dict:
    net = _build_network(cfg)
    opt = trainer.OptimizerState.zeros_like(net)
    digest = config_hash(cfg)
    start_step = 0
    if resume is not None:
        state = ckpt.load_checkpoint(resume)
        if state.config_digest != digest:
            raise state.error("checkpoint config digest does not match this config")
        ckpt.restore_into(state, net, opt)
        start_step = state.step
        last = min(stop_after or cfg.train.schedule.total_steps, cfg.train.schedule.total_steps)
        if start_step >= last:
            raise state.error(f"checkpoint is at step {start_step} and this run stops at step {last}: no step to run")
    out_dir.mkdir(parents=True, exist_ok=True)
    # rows go to a temporary file, so a run that raises leaves no metrics.csv
    tmp = out_dir / "metrics.csv.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            rows = _MetricsRows(f)
            result = trainer.train(net, data, cfg.train, start_step=start_step, optimizer=opt,
                                   stop_after=stop_after, delta=cfg.report.delta, metrics=rows)
            rows.flush()
        os.replace(tmp, out_dir / "metrics.csv")
    finally:
        tmp.unlink(missing_ok=True)
    ckpt.save_checkpoint(
        out_dir / "checkpoint.bin",
        ckpt.state_from(net, result.optimizer, result.final_step, digest),
    )
    summary = _final_summary(cfg, result)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


# (run flag, config section, field) of each flag that overrides a config key
_OVERRIDES = (("seed", "train", "seed"), ("delta", "report", "delta"), ("out", "report", "out_dir"))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    for flag, section, name in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            cfg = dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **{name: value})})
    return cfg


def cmd_train(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    out_dir = Path(cfg.report.out_dir)
    summary = _run_single(cfg, _build_dataset(cfg), out_dir, stop_after=args.stop_after, resume=args.resume)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _sweep_one(payload):
    cfg, data, lam, out_dir = payload
    cfg = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, rank_cfg=dataclasses.replace(cfg.train.rank_cfg, lam=lam))
    )
    summary = _run_single(cfg, data, out_dir)
    return lam, summary


def cmd_sweep_lambda(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    texts = [s.strip() for s in args.lambdas.split(",") if s.strip() != ""]
    try:
        lambdas = [float(s) for s in texts]
    except ValueError:
        raise ValueError(f"bad lambda list {args.lambdas!r}") from None
    if not lambdas:
        raise ValueError("need at least one lambda value")
    bad = [t for t, lam in zip(texts, lambdas) if not (np.isfinite(lam) and lam >= 0.0)]
    if bad:
        raise ValueError(f"--lambdas: lambda must be finite and >= 0, got {', '.join(bad)}")
    # each run writes lambda_{lam:g}, so two values may not print the same there
    dirs = [f"lambda_{lam:g}" for lam in lambdas]
    shared = [f"{t} -> {d}" for t, d in zip(texts, dirs) if dirs.count(d) > 1]
    if shared:
        raise ValueError(f"--lambdas: values share an output directory: {', '.join(shared)}")
    # built once, so an input file that does not fit the model fails before
    # --out exists, and each job takes it in place of reading the files again
    data = _build_dataset(cfg)
    out_dir = Path(cfg.report.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg, data, lam, out_dir / d) for lam, d in zip(lambdas, dirs)]
    # train runs BLAS on one thread in each worker, so no byte depends on the pool size
    import multiprocessing as mp

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with mp.get_context("spawn").Pool(min(cpus, len(jobs))) as pool:
        results = pool.map(_sweep_one, jobs)
    lines = [SWEEP_HEADER]
    for lam, summary in results:
        lines.append(f"{lam!r},{summary['avg_delta_rank']!r},{summary['eval_accuracy']!r}")
    (out_dir / "lambda_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(str(out_dir / "lambda_sweep.csv"))
    return 0


def _layer_report(layer: model.Layer, delta: float) -> dict:
    sigma, drank, _ = rank.layer_spectrum(model.reshape_to_matrix(layer), delta)
    return {
        "layer": layer.name,
        "shape": list(layer.params.weight.shape),
        "sparsity": 1.0 - layer.params.active_count / layer.params.weight.size,
        "delta_rank": drank,
        "spectrum": [float(s) for s in sigma],
    }


def _analyze_state(path: str, delta: float) -> dict:
    """Per-layer report of a checkpoint, validated as train --resume validates it."""
    state = ckpt.load_checkpoint(path)
    net = ckpt.network_from(state)
    return {
        "checkpoint": str(path),
        "step": state.step,
        "global_sparsity": net.sparsity(),
        "layers": [_layer_report(layer, delta) for layer in net.layers],
    }


def cmd_analyze(args) -> int:
    reports = [_analyze_state(p, args.delta) for p in args.checkpoints]
    print(json.dumps({"delta": args.delta, "checkpoints": reports}, indent=2, sort_keys=True))
    return 0


def _read_csv(path: str):
    """(header, data rows as (line number, cells)) of a CSV file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        rows.append((lineno, cells))
    if not rows:
        raise ValueError(f"{path}:1: no data rows")
    return header, rows


def _float_columns(path: str, header, rows, names) -> list[list[float]]:
    """The named columns of rows as floats, one list per name; a bad cell names its line."""
    columns = [[] for _ in names]
    for lineno, cells in rows:
        for column, name in zip(columns, names):
            cell = cells[header.index(name)]
            try:
                column.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: column {name!r}: bad number {cell!r}") from None
    return columns


def cmd_plot(args) -> int:
    """Chart every metrics file as one series and at most one sweep file, each
    recognized by its exact header; nothing is written if any file is bad."""
    out_dir = Path(args.out if args.out else ".")
    series, sweeps = [], []
    for path in args.csvs:
        header, rows = _read_csv(path)
        if ",".join(header) == MetricsRecord.CSV_HEADER:
            rank = header.index("avg_delta_rank")
            rows = [(lineno, cells) for lineno, cells in rows if cells[rank] != ""]
            if not rows:
                raise ValueError(f"{path}:1: no rows with avg_delta_rank values")
            series.append((Path(path).stem, *_float_columns(path, header, rows, ("sparsity", "avg_delta_rank"))))
        elif ",".join(header) == SWEEP_HEADER:
            _, ranks, accs = _float_columns(path, header, rows, SWEEP_HEADER.split(","))
            sweeps.append((path, [cells[0] for _, cells in rows], ranks, accs))  # lambda's text is its tick label
        else:
            raise ValueError(f"{path}:1: unrecognized header {header!r}")
    if len(sweeps) > 1:
        raise ValueError(f"{', '.join(path for path, *_ in sweeps)}: plot takes at most one sweep file")
    charts = []
    if series:
        svg = svgplot.line_chart(series, title="Average delta-rank vs sparsity",
                                 xlabel="sparsity", ylabel="average delta-rank")
        charts.append(("rank_vs_sparsity.svg", svg))
    for _, lams, ranks, accs in sweeps:
        svg = svgplot.dual_axis_chart(lams, "average delta-rank", ranks, "eval accuracy", accs,
                                      title="Rank and accuracy vs rank-loss weight", xlabel="lambda")
        charts.append(("rank_vs_lambda.svg", svg))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, svg in charts:
        (out_dir / name).write_text(svg, encoding="utf-8")
    for name, _ in charts:
        print(out_dir / name)
    return 0


def _positive(kind):
    """argparse type of a number > 0 (--delta, --stop-after), so a bad value
    fails before anything is trained or written."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankprune",
        description="Sparse training that keeps weight matrices high-rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of a training run, shared by train and sweep-lambda
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, help="override [train] seed")
    run.add_argument("--out", help="override [report] out_dir")
    run.add_argument("--delta", type=_positive(float), help="override [report] delta")

    p_train = sub.add_parser("train", parents=[run], help="run one training per the config file")
    p_train.add_argument("--stop-after", type=_positive(int), dest="stop_after", help="halt after step N >= 1 (checkpoint written)")
    p_train.add_argument("--resume", help="resume from a checkpoint file")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep-lambda", parents=[run], help="train once per lambda, shared seed")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated values, e.g. 0,0.01,0.1,1")
    p_sweep.set_defaults(func=cmd_sweep_lambda)

    p_an = sub.add_parser("analyze", help="per-layer rank/sparsity report from checkpoints")
    p_an.add_argument("checkpoints", nargs="+", help="one or more checkpoint files")
    p_an.add_argument("--delta", type=_positive(float), default=rank.DEFAULT_DELTA, help="rank tolerance (default %(default)s)")
    p_an.set_defaults(func=cmd_analyze)

    p_plot = sub.add_parser("plot", help="emit SVG charts from metrics/sweep CSVs")
    p_plot.add_argument("csvs", nargs="+")
    p_plot.add_argument("--out", help="output directory (default .)")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every input error of this package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
