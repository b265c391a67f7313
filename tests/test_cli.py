"""Command-line behavior: artifacts, determinism, analyze, plot."""

import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import conv_reference
import numpy as np
import pytest
from test_datasets import write_idx_pair
from test_trainer import traced_peak

import rankprune
from rankprune import checkpoint as ckpt
from rankprune import cli, trainer
from rankprune.cli import main
from rankprune.config import parse_config

CONFIG = """\
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

IDX_CONFIG = """\
[model]
{model}
classes = 4

[dataset]
kind = idx
images = {images}
labels = {labels}

[train]
final_sparsity = 0.5
prune_steps = 20
update_interval = 10
total_steps = 30

[report]
out_dir = {out}
"""


def write_config(tmp_path, out_name="run", extra=""):
    out = tmp_path / out_name
    path = tmp_path / f"{out_name}.cfg"
    path.write_text(CONFIG.format(out=out) + extra, encoding="utf-8")
    return path, out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(config, checkpoint) of one full run of CONFIG, shared by the module."""
    cfg_path, out = write_config(tmp_path_factory.mktemp("trained"))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, out / "checkpoint.bin"


def pruned_entry(tensors):
    """A copy of layer0.weight that is nonzero at one position layer0.mask prunes."""
    weight = tensors["layer0.weight"].copy()
    weight.ravel()[np.flatnonzero(tensors["layer0.mask"] == 0)[0]] = 0.25
    return weight


def mask_holding_2(tensors):
    mask = tensors["layer0.mask"].copy()
    mask.ravel()[0] = 2
    return mask


BAD_CHECKPOINTS = {
    "mask shape": ("layer0.mask", lambda t: np.ones((3, 3), dtype=np.uint8)),
    "bias shape": ("layer0.bias", lambda t: np.zeros(7)),
    "stray tensor": ("layer7.weight", lambda t: np.zeros((16, 12))),
    "mask value 2": ("layer0.mask", mask_holding_2),
    "weight at masked position": ("layer0.weight", pruned_entry),
}


@pytest.mark.parametrize("command", ["analyze", "resume"])
@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_bad_checkpoint_names_file_and_tensor(tmp_path, capsys, trained, case, command):
    cfg_path, good = trained
    state = ckpt.load_checkpoint(good)
    name, make = BAD_CHECKPOINTS[case]
    state.tensors[name] = make(state.tensors)
    bad = tmp_path / "bad.bin"
    ckpt.save_checkpoint(bad, state)
    capsys.readouterr()
    if command == "analyze":
        argv = ["analyze", str(bad)]
    else:
        argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--resume", str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert name in captured.err


class TestCmdTrain:
    def test_artifacts_exist(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_step"] == 150
        assert summary["final_sparsity"] == pytest.approx(0.9, abs=0.02)
        assert "avg_delta_rank" in summary and "eval_accuracy" in summary

    def test_invalid_sparsity_names_field(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        bad = cfg_path.read_text().replace("final_sparsity = 0.9", "final_sparsity = 1.5")
        cfg_path.write_text(bad)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "final_sparsity" in err

    def test_rerun_byte_identical_csv(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        first = (out / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.csv").read_bytes() == first

    @pytest.mark.skipif(trainer._blas() is None, reason="numpy bundles no OpenBLAS that train can set")
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # on 2 BLAS threads the toy run's rank loss moves in its last bits from
        # step 1600 on, unless train runs BLAS on one
        toy = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=str(Path(rankprune.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "rankprune.cli", "train", "--config", str(toy), "--out", str(out),
                            "--stop-after", "1600"], env=env, capture_output=True, check=True)
            runs.append([(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.bin")])
        assert runs[0] == runs[1]

    def test_seed_override_changes_run(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        base = (out / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(cfg_path), "--seed", "9"]) == 0
        assert (out / "metrics.csv").read_bytes() != base

    def test_resume_reproduces_uninterrupted(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        full_rows = (out / "metrics.csv").read_text().splitlines()

        out_a = tmp_path / "part_a"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a), "--stop-after", "70"]) == 0
        out_b = tmp_path / "part_b"
        assert (
            main([
                "train", "--config", str(cfg_path), "--out", str(out_b),
                "--resume", str(out_a / "checkpoint.bin"),
            ])
            == 0
        )
        rows_a = (out_a / "metrics.csv").read_text().splitlines()
        rows_b = (out_b / "metrics.csv").read_text().splitlines()
        assert rows_a[1:] + rows_b[1:] == full_rows[1:]
        # final checkpoints bitwise identical
        assert (out_b / "checkpoint.bin").read_bytes() == (out / "checkpoint.bin").read_bytes()
        for run in (out, out_a, out_b):  # no temporary file is left
            assert sorted(p.name for p in run.iterdir()) == ["checkpoint.bin", "metrics.csv", "summary.json"]

    def test_memory_does_not_grow_with_the_step_count(self, tmp_path, capsys):
        # the longer run adds a fixed-mask tail; holding its records, or its
        # whole CSV text, would add about 450 B a step to the peak
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--stop-after", "1"]) == 0  # imports and caches first
        peaks = []
        for steps in (150, 600):
            cfg_path, out = write_config(tmp_path, f"steps{steps}")
            cfg_path.write_text(cfg_path.read_text().replace("total_steps = 150", f"total_steps = {steps}"))
            peaks.append(traced_peak(lambda: main(["train", "--config", str(cfg_path)])))
            assert json.loads((out / "summary.json").read_text())["final_step"] == steps
        assert abs(peaks[1] - peaks[0]) < 64 << 10, peaks

    def test_metrics_record_at_report_delta(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--delta", "0.5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        last = dict(zip(header.split(","), rows[-1].split(",")))
        assert summary["delta"] == 0.5
        assert float(last["avg_delta_rank"]) == summary["avg_delta_rank"]

    @pytest.mark.parametrize("command", ["train", "sweep-lambda"])
    @pytest.mark.parametrize("delta", ["0", "-0.1", "nan"])
    def test_nonpositive_delta_rejected_before_training(self, tmp_path, capsys, command, delta):
        cfg_path, out = write_config(tmp_path)
        argv = [command, "--config", str(cfg_path), "--delta", delta]
        if command == "sweep-lambda":
            argv += ["--lambdas", "0.1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --delta: must be positive" in capsys.readouterr().err
        assert not list(out.rglob("metrics.csv"))

    @pytest.mark.parametrize("side", [10, 12])
    @pytest.mark.parametrize("model", ["input = 1x10x10\nlayers = conv:4x3x3", "input = 100"])
    def test_idx_images_must_fit_model_input(self, tmp_path, capsys, model, side):
        pixels = np.random.default_rng(0).integers(0, 256, (40, side, side), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model=model, images=images, labels=labels, out=tmp_path / "run"))
        code = main(["train", "--config", str(cfg_path)])
        if side == 10:
            assert code == 0
            return
        assert code == 1
        err = capsys.readouterr().err
        want = model.split("\n")[0].removeprefix("input = ")
        assert f"{images}: images are 1x12x12, which does not fit [model] input {want}" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("command, at", [("train", 5), ("train", 35), ("sweep-lambda", 5), ("sweep-lambda", 35)],
                             ids=["train-split", "eval-tail", "sweep-train-split", "sweep-eval-tail"])
    def test_idx_labels_must_fit_model_classes(self, tmp_path, capsys, command, at):
        pixels = np.random.default_rng(0).integers(0, 256, (40, 10, 10), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [7 if i == at else i % 4 for i in range(40)])
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 100", images=images, labels=labels, out=tmp_path / "run"))
        lambdas = ["--lambdas", "0,0.1"] if command == "sweep-lambda" else []
        assert main([command, "--config", str(cfg_path)] + lambdas) == 1
        assert f"error: {labels}: largest label is 7, which does not fit [model] classes 4" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_conv_run_matches_reference_layout(self, tmp_path, monkeypatch):
        # masks every 10 steps, two conv layers, so every conv GEMM and the patch scatter run
        pixels = np.random.default_rng(3).integers(0, 256, (40, 10, 10), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
        runs = []
        for name in ("run", "reference"):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(IDX_CONFIG.format(model="input = 1x10x10\nlayers = conv:8x3x3, conv:16x3x3",
                                                  images=images, labels=labels, out=tmp_path / name))
            if name == "reference":
                conv_reference.install(monkeypatch)
            assert main(["train", "--config", str(cfg_path)]) == 0
            runs.append([(tmp_path / name / f).read_bytes() for f in ("metrics.csv", "checkpoint.bin")])
        assert runs[0] == runs[1]

    def test_conv_resume_reproduces_uninterrupted(self, tmp_path):
        # stops between two mask steps of the two-conv IDX run
        pixels = np.random.default_rng(4).integers(0, 256, (40, 10, 10), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
        cfg_path = tmp_path / "conv.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 1x10x10\nlayers = conv:8x3x3, conv:16x3x3",
                                              images=images, labels=labels, out=tmp_path / "full"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        out_a, out_b = tmp_path / "part_a", tmp_path / "part_b"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a), "--stop-after", "15"]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out_b),
                     "--resume", str(out_a / "checkpoint.bin")]) == 0
        rows = [(tmp_path / d / "metrics.csv").read_text().splitlines() for d in ("full", "part_a", "part_b")]
        assert len(rows[1]) > 1 and len(rows[2]) > 1
        assert rows[1][1:] + rows[2][1:] == rows[0][1:]
        assert (out_b / "checkpoint.bin").read_bytes() == (tmp_path / "full" / "checkpoint.bin").read_bytes()

    @pytest.mark.parametrize("case", ["dense-rank-decay", "dense-cosine", "conv"])
    def test_resume_at_every_step_reproduces_uninterrupted(self, tmp_path, case):
        # mask steps every 10 up to step 30 (20 for conv), so the stops fall on
        # and between mask steps, at the end of the ramp and in the finetune stage
        if case == "conv":
            pixels = np.random.default_rng(5).integers(0, 256, (40, 10, 10), dtype=np.uint8)
            images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
            text = IDX_CONFIG.format(model="input = 1x10x10\nlayers = conv:4x3x3", images=images, labels=labels,
                                     out=tmp_path / "full")
        else:
            schedule = "prune_steps = 30\nupdate_interval = 10\ntotal_steps = 40\n"
            schedule += "lambda = 0.5\nweight_decay = 0.001" if case == "dense-rank-decay" else "cosine_lr = true"
            text = CONFIG.format(out=tmp_path / "full").replace(
                "prune_steps = 100\nupdate_interval = 50\ntotal_steps = 150", schedule)
            if case == "dense-rank-decay":
                text = text.replace("layers = dense:16", "layers = dense:16, dense:16")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 0
        full_rows = (tmp_path / "full" / "metrics.csv").read_text().splitlines()[1:]
        full_checkpoint = (tmp_path / "full" / "checkpoint.bin").read_bytes()
        out_a, out_b = tmp_path / "part_a", tmp_path / "part_b"
        for stop in range(1, len(full_rows)):
            assert main(["train", "--config", str(cfg_path), "--out", str(out_a), "--stop-after", str(stop)]) == 0
            assert main(["train", "--config", str(cfg_path), "--out", str(out_b),
                         "--resume", str(out_a / "checkpoint.bin")]) == 0, f"resumed at step {stop}"
            rows = [(out / "metrics.csv").read_text().splitlines()[1:] for out in (out_a, out_b)]
            assert rows[0] + rows[1] == full_rows, f"resumed at step {stop}"
            assert (out_b / "checkpoint.bin").read_bytes() == full_checkpoint, f"resumed at step {stop}"

    def test_stop_between_record_steps_gives_null_summary_fields(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--stop-after", "70"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_step"] == 70
        assert summary["avg_delta_rank"] is None
        assert summary["eval_accuracy"] is None

    def test_empty_idx_pair_names_images_file(self, tmp_path, capsys):
        images, labels = write_idx_pair(tmp_path, np.zeros((0, 4, 4), dtype=np.uint8), [])
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 16\nlayers = dense:8", images=images,
                                              labels=labels, out=tmp_path / "run"))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert f"error: {images}: holds no images" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep-lambda"])
    def test_one_image_idx_set_rejected_before_writing(self, tmp_path, capsys, command):
        # one image leaves an empty eval split, whose accuracy NaN no strict JSON parser reads
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 4, 4), dtype=np.uint8), [0])
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 1x4x4\nlayers = conv:2x3x3", images=images,
                                              labels=labels, out=tmp_path / "run"))
        argv = [command, "--config", str(cfg_path)]
        assert main(argv + (["--lambdas", "0"] if command == "sweep-lambda" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: {images}: holds one image, and a run needs two: one to train, one to evaluate\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("[report]", "[reprot]", ":22: unknown section [reprot]"),
            ("learning_rate = 0.03", "learning_rate = inf", ":18: [train] learning_rate: expected a finite number, got 'inf'"),
            ("cluster_spread = 0.8", "cluster_spread = nan", ":10: [dataset] cluster_spread: expected a finite number, got 'nan'"),
            ("seed = 1\n", "seed = -1\n", ":20: [train] seed must be >= 0, got -1"),
            ("seed = 7", "seed = -1", ":11: [dataset] seed must be >= 0, got -1"),
        ],
    )
    def test_bad_config_rejected_before_writing(self, tmp_path, capsys, monkeypatch, old, new, message):
        monkeypatch.chdir(tmp_path)  # a misspelled [report] leaves the default out_dir
        cfg_path, out = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace(old, new))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {cfg_path}{message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [cfg_path.name]

    @pytest.mark.parametrize("command", ["train", "sweep-lambda"])
    def test_negative_seed_flag_rejected_before_writing(self, tmp_path, capsys, command):
        cfg_path, out = write_config(tmp_path)
        argv = [command, "--config", str(cfg_path), "--seed", "-2"]
        assert main(argv + (["--lambdas", "0"] if command == "sweep-lambda" else [])) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"
        assert not out.exists()

    def test_overflowing_idx_header_names_file(self, tmp_path, capsys):
        images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        images.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + bytes(4))
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 4\nlayers = dense:8", images=images,
                                              labels=labels, out=tmp_path / "run"))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {images}: truncated while reading pixel data\n"
        assert not (tmp_path / "run").exists()

    def test_diverging_toy_run_names_step_and_layer(self, tmp_path, capsys):
        toy = (Path(__file__).resolve().parent.parent / "configs" / "toy.cfg").read_text(encoding="utf-8")
        cfg_path = tmp_path / "lr50.cfg"
        cfg_path.write_text(toy.replace("learning_rate = 0.03", "learning_rate = 50"), encoding="utf-8")
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: step \d+: task loss is nan; the (weights|activations) of layer \w+ are not finite\n", err), err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "metrics.csv").exists()
        assert not (out / "metrics.csv.tmp").exists()

    def test_weight_norm_overflow_names_step_and_layer(self, tmp_path, capsys):
        toy = (Path(__file__).resolve().parent.parent / "configs" / "toy.cfg").read_text(encoding="utf-8")
        cfg_path = tmp_path / "lr1e306.cfg"
        cfg_path.write_text(toy.replace("learning_rate = 0.03", "learning_rate = 1e306")
                            .replace("update_interval = 100", "update_interval = 1"), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: step 1: the weight norm of layer dense0 is inf\n"
        assert not (out / "checkpoint.bin").exists()

    def test_resume_with_wrong_config_rejected(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--stop-after", "70"]) == 0
        other_cfg, _ = write_config(tmp_path, out_name="other")
        text = other_cfg.read_text().replace("learning_rate = 0.03", "learning_rate = 0.01")
        other_cfg.write_text(text)
        code = main(["train", "--config", str(other_cfg), "--resume", str(out / "checkpoint.bin")])
        assert code == 1
        assert "digest" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", ["0", "-3"])
    def test_nonpositive_stop_after_rejected_before_writing(self, tmp_path, capsys, stop):
        cfg_path, out = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg_path), "--stop-after", stop])
        assert exc.value.code == 2
        assert "argument --stop-after: must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first_stop, resume_stop, at, stops", [
        ("70", ["--stop-after", "50"], 70, 50),
        ("70", ["--stop-after", "70"], 70, 70),
        (None, [], 150, 150),
        (None, ["--stop-after", "200"], 150, 150),
    ])
    def test_resume_with_no_step_to_run_rejected(self, tmp_path, capsys, first_stop, resume_stop, at, stops):
        # the resumed run writes to the checkpoint's own directory, which keeps its bytes
        cfg_path, out = write_config(tmp_path)
        first = ["--stop-after", first_stop] if first_stop else []
        assert main(["train", "--config", str(cfg_path)] + first) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        resume = out / "checkpoint.bin"
        assert main(["train", "--config", str(cfg_path), "--resume", str(resume)] + resume_stop) == 1
        assert capsys.readouterr().err == (
            f"error: {resume}: checkpoint is at step {at} and this run stops at step {stops}: no step to run\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestCmdSweep:
    def test_single_lambda_equals_baseline(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        base = json.loads((out / "summary.json").read_text())

        sweep_out = tmp_path / "sweep"
        assert (
            main([
                "sweep-lambda", "--config", str(cfg_path),
                "--lambdas", "0.1", "--out", str(sweep_out),
            ])
            == 0
        )
        rows = (sweep_out / "lambda_sweep.csv").read_text().splitlines()
        assert rows[0] == "lambda,avg_delta_rank,eval_accuracy"
        assert len(rows) == 2
        lam, rank_val, acc = rows[1].split(",")
        # config lambda is 0.1 by default, so the single row IS the baseline run
        assert float(lam) == 0.1
        assert float(rank_val) == pytest.approx(base["avg_delta_rank"])
        assert float(acc) == pytest.approx(base["eval_accuracy"])

    def test_rows_in_input_order(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        sweep_out = tmp_path / "sweep2"
        assert (
            main([
                "sweep-lambda", "--config", str(cfg_path),
                "--lambdas", "0.1,0", "--out", str(sweep_out),
            ])
            == 0
        )
        rows = (sweep_out / "lambda_sweep.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.1", "0.0"]
        assert (sweep_out / "lambda_0.1" / "metrics.csv").exists()
        assert (sweep_out / "lambda_0" / "metrics.csv").exists()

    def test_empty_lambda_list_rejected(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["sweep-lambda", "--config", str(cfg_path), "--lambdas", ""]) == 1

    @pytest.mark.parametrize(
        "lambdas,named",
        [
            ("0.1,0.1", "0.1 -> lambda_0.1, 0.1 -> lambda_0.1"),
            ("0.1234567,0.1234568", "0.1234567 -> lambda_0.123457, 0.1234568 -> lambda_0.123457"),
            ("0,0.1,-1", "got -1"),
            ("0,nan", "got nan"),
            ("inf,0.1,-inf", "got inf, -inf"),
        ],
    )
    def test_bad_lambda_list_rejected_before_writing(self, tmp_path, capsys, lambdas, named):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep-lambda", "--config", str(cfg_path), "--lambdas", lambdas, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_equals_train_at_each_lambda(self, tmp_path, monkeypatch, cpus):
        # the pool has one worker per usable CPU; its size must not move a byte
        cfg_path, _ = write_config(tmp_path)
        sizes = []
        spawn = multiprocessing.get_context("spawn")
        pool = type(spawn).Pool
        monkeypatch.setattr(type(spawn), "Pool", lambda ctx, n: sizes.append(n) or pool(ctx, n))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        sweep_out = tmp_path / "sweep"
        assert main(["sweep-lambda", "--config", str(cfg_path), "--lambdas", "0,0.1", "--out", str(sweep_out)]) == 0
        assert sizes == [cpus]
        for lam in ("0", "0.1"):
            lam_cfg = tmp_path / f"lambda_{lam}.cfg"
            lam_cfg.write_text(cfg_path.read_text().replace("seed = 1\n", f"seed = 1\nlambda = {lam}\n"))
            train_out = tmp_path / f"train_{lam}"
            assert main(["train", "--config", str(lam_cfg), "--out", str(train_out)]) == 0
            for name in ("metrics.csv", "checkpoint.bin", "summary.json"):
                assert (sweep_out / f"lambda_{lam}" / name).read_bytes() == (train_out / name).read_bytes(), (lam, name)

    def test_job_runs_after_its_idx_files_are_gone(self, tmp_path):
        # a job trains on the dataset the parent built, so it reads no input file
        pixels = np.random.default_rng(0).integers(0, 256, (40, 10, 10), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 100\nlayers = dense:8", images=images,
                                              labels=labels, out=tmp_path / "train"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        data = cli._build_dataset(cfg)
        os.remove(images)
        os.remove(labels)
        assert cli._sweep_one((cfg, data, cfg.train.rank_cfg.lam, tmp_path / "job"))[0] == cfg.train.rank_cfg.lam
        for name in ("metrics.csv", "checkpoint.bin", "summary.json"):
            assert (tmp_path / "job" / name).read_bytes() == (tmp_path / "train" / name).read_bytes(), name


class TestCmdAnalyze:
    def test_dense_checkpoint_reports_zero_sparsity(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        text = cfg_path.read_text().replace("final_sparsity = 0.9", "final_sparsity = 0.0")
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out / "checkpoint.bin"), "--delta", "0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == 0.1
        ck = report["checkpoints"][0]
        assert ck["global_sparsity"] == 0.0
        for layer in ck["layers"]:
            assert layer["sparsity"] == 0.0
            assert layer["delta_rank"] >= 1
            assert layer["spectrum"][0] >= layer["spectrum"][-1]

    def test_sparsity_matches_training(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["analyze", str(out / "checkpoint.bin")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpoints"][0]["global_sparsity"] == pytest.approx(
            summary["final_sparsity"]
        )
        ranks = [layer["delta_rank"] for layer in report["checkpoints"][0]["layers"]]
        assert sum(ranks) / len(ranks) == summary["avg_delta_rank"]

    def test_conv_checkpoint_matches_training(self, tmp_path, capsys):
        pixels = np.random.default_rng(0).integers(0, 256, (40, 10, 10), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(40)])
        cfg_path, out = tmp_path / "idx.cfg", tmp_path / "run"
        cfg_path.write_text(IDX_CONFIG.format(model="input = 1x10x10\nlayers = conv:4x3x3", images=images,
                                              labels=labels, out=out))
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["analyze", str(out / "checkpoint.bin")]) == 0
        report = json.loads(capsys.readouterr().out)["checkpoints"][0]
        assert report["step"] == summary["final_step"]
        assert report["global_sparsity"] == summary["final_sparsity"]
        assert [layer["shape"] for layer in report["layers"]] == [[4, 1, 3, 3], [4, 400]]
        ranks = [layer["delta_rank"] for layer in report["layers"]]
        assert sum(ranks) / len(ranks) == summary["avg_delta_rank"]

    def test_two_checkpoints_side_by_side(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out / "checkpoint.bin"), str(out / "checkpoint.bin")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["checkpoints"]) == 2

    def test_corrupted_file_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage" * 10)
        assert main(["analyze", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial output
        assert "error" in captured.err


class TestCmdPlot:
    def metrics_csv(self, tmp_path, name="m.csv"):
        path = tmp_path / name
        path.write_text(
            "step,sparsity,task_loss,rank_loss,avg_delta_rank,train_acc,eval_acc\n"
            "50,0.4,1.0,-0.5,12.0,0.8,0.75\n"
            "100,0.7,0.8,,,0.9,\n"
            "150,0.9,0.6,-0.4,10.0,0.9,0.85\n"
        )
        return path

    def test_single_series_one_polyline(self, tmp_path):
        path = self.metrics_csv(tmp_path)
        out = tmp_path / "charts"
        assert main(["plot", str(path), "--out", str(out)]) == 0
        svg = (out / "rank_vs_sparsity.svg").read_text()
        assert svg.count("<polyline") == 1

    def test_two_series_two_legend_entries(self, tmp_path):
        a = self.metrics_csv(tmp_path, "baseline.csv")
        b = self.metrics_csv(tmp_path, "regularized.csv")
        out = tmp_path / "charts"
        assert main(["plot", str(a), str(b), "--out", str(out)]) == 0
        svg = (out / "rank_vs_sparsity.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "baseline" in svg and "regularized" in svg

    def test_sweep_chart(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "lambda,avg_delta_rank,eval_accuracy\n0.0,10.0,0.9\n0.1,12.0,0.92\n1.0,11.5,0.91\n"
        )
        out = tmp_path / "charts"
        assert main(["plot", str(path), "--out", str(out)]) == 0
        svg = (out / "rank_vs_lambda.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_bad_lambda_cell_names_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("lambda,avg_delta_rank,eval_accuracy\n0.0,10.0,0.9\n<b>,12.0,0.92\n")
        out = tmp_path / "charts"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: column 'lambda': bad number '<b>'\n"
        assert not out.exists()

    def test_markup_in_labels_is_escaped(self, tmp_path):
        metrics = self.metrics_csv(tmp_path, "a&b<c>.csv")
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("lambda,avg_delta_rank,eval_accuracy\n0.0,10.0,0.9\n1e-1,12.0,0.92\n")
        out = tmp_path / "charts"
        assert main(["plot", str(metrics), str(sweep), "--out", str(out)]) == 0
        for name, label in (("rank_vs_sparsity.svg", "a&b<c>"), ("rank_vs_lambda.svg", "1e-1")):
            doc = minidom.parse(str(out / name))
            assert label in [t.firstChild.data for t in doc.getElementsByTagName("text")]

    def test_empty_csv_no_file_written(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("step,sparsity,task_loss,rank_loss,avg_delta_rank,train_acc,eval_acc\n")
        out = tmp_path / "charts"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        assert not (out / "rank_vs_sparsity.svg").exists()

    def test_header_must_match_exactly(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("lambda,foo\n0.0,10.0\n")
        out = tmp_path / "charts"
        assert main(["plot", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: unrecognized header ['lambda', 'foo']\n"
        assert not out.exists()

    def test_two_sweep_files_rejected(self, tmp_path, capsys):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            path.write_text("lambda,avg_delta_rank,eval_accuracy\n0.0,10.0,0.9\n0.1,12.0,0.92\n")
        out = tmp_path / "charts"
        assert main(["plot", *map(str, paths), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {paths[0]}, {paths[1]}: plot takes at most one sweep file\n"
        assert not out.exists()

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        path = self.metrics_csv(tmp_path)
        text = path.read_text().splitlines()
        text[2] = "100,0.7,0.8"  # wrong column count on line 3
        path.write_text("\n".join(text) + "\n")
        assert main(["plot", str(path), "--out", str(tmp_path / "charts")]) == 1
        assert ":3" in capsys.readouterr().err

    def test_memory_stays_below_file_size(self, tmp_path):
        # a toy run's metrics.csv: 3000 steps, rank metrics on every 100th row
        path = tmp_path / "m.csv"
        rows = [trainer.MetricsRecord.CSV_HEADER]
        for step in range(1, 3001):
            rank = step % 100 == 0
            record = trainer.MetricsRecord(step, step / 3000, 0.5 + step / 1e4, -0.25 if rank else None,
                                   100.0 - step / 50 if rank else None, 0.875, 0.8125 if rank else None)
            rows.append(record.csv_row())
        path.write_text("\n".join(rows) + "\n")
        peak = traced_peak(lambda: main(["plot", str(path), "--out", str(tmp_path / "charts")]))
        assert (tmp_path / "charts" / "rank_vs_sparsity.svg").exists()
        assert peak < 3 * path.stat().st_size


# Trains CONV_60 through main in a fresh process and prints the minor page
# faults per step over steps 21-60, counted from step 21's accuracy, the
# one call train makes once a step, to the return of train.
FAULTS_PER_STEP = """\
import resource, sys
from rankprune import cli, trainer

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

faults, accuracy, train = {}, trainer.accuracy, trainer.train

def counted_accuracy(logits, labels):
    faults[len(faults) + 1] = minflt()
    return accuracy(logits, labels)

def counted_train(*args, **kwargs):
    result = train(*args, **kwargs)
    faults["end"] = minflt()
    return result

trainer.accuracy, trainer.train = counted_accuracy, counted_train
assert cli.main(["train", "--config", sys.argv[1]]) == 0
print((faults["end"] - faults[21]) / 40)
"""

# the conv-s90 benchmark's net, data size and rates over 60 steps, with mask
# steps at 20 and 40
CONV_60 = """\
[model]
input = 1x12x12
layers = conv:8x3x3, conv:16x3x3
classes = 10

[dataset]
kind = idx
images = {images}
labels = {labels}

[train]
final_sparsity = 0.9
prune_steps = 40
update_interval = 20
total_steps = 60
learning_rate = 0.03
weight_decay = 0.001
batch_size = 32

[report]
out_dir = {out}
"""


class TestSteadyHeap:
    @pytest.mark.skipif(not hasattr(trainer._libc(), "mallopt"), reason="the C library has no mallopt")
    def test_conv_steps_reuse_the_heap(self, tmp_path):
        # ~2 faults a step. With glibc's default thresholds the heap a step
        # frees goes back to the system and is faulted back in: ~1400 a step,
        # or ~95 where a plain step's cache is kept into the next forward
        pixels = np.random.default_rng(0).integers(0, 256, (600, 12, 12), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [i % 10 for i in range(600)])
        cfg_path = tmp_path / "conv.cfg"
        cfg_path.write_text(CONV_60.format(images=images, labels=labels, out=tmp_path / "run"))
        env = dict(os.environ, PYTHONPATH=str(Path(rankprune.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP, str(cfg_path)],
                             env=env, capture_output=True, text=True, check=True)
        assert float(run.stdout.splitlines()[-1]) <= 5.0
