"""Config file parsing, validation line-anchoring, and round-trips."""

import re
from pathlib import Path

import pytest

from rankprune.config import (
    ConfigError,
    ReportSpec,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)
from rankprune.datasets import SyntheticDatasetSpec
from rankprune.rank import RankLossConfig
from rankprune.sparsity import GrowSchedule, SparsitySchedule
from rankprune.trainer import TrainConfig

MINIMAL = """\
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
prune_steps = 200
update_interval = 50
total_steps = 300
"""


def test_minimal_parses_with_defaults():
    cfg = parse_config_text(MINIMAL, "test.cfg")
    assert cfg.model.input_shape == (12,)
    assert cfg.model.layers == (("dense", 16),)
    assert cfg.train.schedule.final_sparsity == 0.9
    assert cfg.train.rank_cfg.lam == 0.1
    assert cfg.train.grow.alpha0 == 0.3
    assert cfg.report.delta == 0.1


def test_round_trip_lossless():
    cfg = parse_config_text(MINIMAL, "test.cfg")
    text = serialize_config(cfg)
    again = parse_config_text(text, "serialized.cfg")
    assert again == cfg
    # second round trip is byte-stable
    assert serialize_config(again) == text


def test_round_trip_conv_and_idx():
    text = """\
[model]
input = 1x8x8
layers = conv:4x3x3, dense:12
classes = 3

[dataset]
kind = idx
images = data/imgs.idx
labels = data/labels.idx

[train]
final_sparsity = 0.5
prune_steps = 100
update_interval = 10
total_steps = 150
lambda = 0.25
cosine_lr = true

[report]
out_dir = out/exp
delta = 0.05
"""
    cfg = parse_config_text(text, "conv.cfg")
    assert cfg.model.input_shape == (1, 8, 8)
    assert cfg.model.layers == (("conv2d", 4, 3, 3), ("dense", 12))
    assert cfg.train.cosine_lr is True
    assert cfg.dataset.images == "data/imgs.idx"
    assert parse_config_text(serialize_config(cfg), "x") == cfg


def test_out_of_range_sparsity_names_field_and_line():
    bad = MINIMAL.replace("final_sparsity = 0.9", "final_sparsity = 1.5")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    msg = str(err.value)
    assert "final_sparsity" in msg
    assert "bad.cfg:14" in msg


def test_bad_number_names_line():
    bad = MINIMAL.replace("prune_steps = 200", "prune_steps = soon")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert "bad.cfg:15" in str(err.value)
    assert "prune_steps" in str(err.value)

def test_unknown_key_rejected():
    bad = MINIMAL + "typo_key = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert "typo_key" in str(err.value)


def test_missing_section():
    bad = MINIMAL.replace("[dataset]", "[data]")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert "dataset" in str(err.value)


def test_unknown_section_names_line():
    bad = MINIMAL + "\n[reprot]\nout_dir = elsewhere\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert str(err.value) == "bad.cfg:19: unknown section [reprot]"


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("total_steps = 300\n", "total_steps = 300\nweight_decay = nan\n",
         "bad.cfg:18: [train] weight_decay: expected a finite number, got 'nan'"),
        ("total_steps = 300\n", "total_steps = 300\nlearning_rate = inf\n",
         "bad.cfg:18: [train] learning_rate: expected a finite number, got 'inf'"),
        ("cluster_spread = 0.8", "cluster_spread = -inf",
         "bad.cfg:10: [dataset] cluster_spread: expected a finite number, got '-inf'"),
        ("total_steps = 300\n", "total_steps = 300\nseed = -1\n", "bad.cfg:18: [train] seed must be >= 0, got -1"),
        ("seed = 7", "seed = -1", "bad.cfg:11: [dataset] seed must be >= 0, got -1"),
        ("total_steps = 300\n", "total_steps = 300\nlearning_rate = -1\n",
         "bad.cfg:18: [train] learning_rate must be positive, got -1.0"),
        ("total_steps = 300\n", "total_steps = 300\nlambda = -1\n",
         "bad.cfg:18: [train] lambda must be finite and >= 0, got -1.0"),
        ("update_interval = 50", "update_interval = 0", "bad.cfg:16: [train] update_interval must be positive, got 0"),
        ("total_steps = 300", "total_steps = 100", "bad.cfg:17: [train] total_steps 100 < prune_steps 200"),
        ("update_interval = 50", "update_interval = 30",
         "bad.cfg:15: [train] prune_steps 200 must be a multiple of update_interval 30"),
        ("samples_per_class = 30", "samples_per_class = 0",
         "bad.cfg:9: [dataset] samples_per_class must be positive, got 0"),
        ("seed = 7", "seed = 7\nclasses = 1", "bad.cfg:12: [dataset] classes must be >= 2, got 1"),
        ("final_sparsity = 0.9", "final_sparsity = 1.5", "bad.cfg:14: [train] final_sparsity must lie in [0,1), got 1.5"),
        ("total_steps = 300\n", "total_steps = 300\nsparsity_schedule = spiral\n",
         "bad.cfg:18: [train] sparsity_schedule must be cubic or linear, got 'spiral'"),
        ("total_steps = 300", "total_steps = 4294967296",
         "bad.cfg:17: [train] total_steps must be below 2**32, got 4294967296"),
    ],
)
def test_non_finite_number_and_negative_seed_rejected(old, new, message):
    # a value a dataclass check rejects names its line, as a type error does
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL.replace(old, new), "bad.cfg")
    assert str(err.value) == message


def test_duplicate_key_rejected():
    bad = MINIMAL + "final_sparsity = 0.5\n"
    with pytest.raises(ConfigError):
        parse_config_text(bad, "bad.cfg")


def test_feature_mismatch_rejected():
    bad = MINIMAL.replace("features = 12", "features = 13")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert "features" in str(err.value)


def test_indivisible_schedule_rejected():
    bad = MINIMAL.replace("prune_steps = 200", "prune_steps = 170")
    with pytest.raises(ConfigError):
        parse_config_text(bad, "bad.cfg")


def test_comments_and_blanks_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "[train]", "; section comment\n[train]"
    )
    cfg = parse_config_text(text, "c.cfg")
    assert cfg.train.schedule.prune_steps == 200


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config_text(blocks[0], "README.md")
    assert cfg.model.input_shape == (64,)
    assert cfg.train.schedule.prune_steps == 2800
    assert cfg.report.delta == 0.1


def test_toy_config_hash_is_pinned():
    # checkpoints carry this digest; a change to it stops them from resuming
    toy = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"
    assert config_hash(parse_config(toy)).hex() == (
        "65fe6c0c6379834046f3bb615fe53d86f5abc0112b21b647519c589f0cdc0d17"
    )


# Every [dataset], [train] and [report] key set to a value that neither MINIMAL
# nor a default gives, each value distinct, with the field it must land in.
NON_DEFAULT = {
    "dataset": {
        "classes": ("5", lambda c: c.dataset.num_classes, 5),
        "features": ("13", lambda c: c.dataset.features, 13),
        "samples_per_class": ("31", lambda c: c.dataset.samples_per_class, 31),
        "cluster_spread": ("0.7", lambda c: c.dataset.cluster_spread, 0.7),
        "seed": ("9", lambda c: c.dataset.seed, 9),
    },
    "train": {
        "final_sparsity": ("0.85", lambda c: c.train.schedule.final_sparsity, 0.85),
        "prune_steps": ("120", lambda c: c.train.schedule.prune_steps, 120),
        "update_interval": ("20", lambda c: c.train.schedule.update_interval, 20),
        "total_steps": ("170", lambda c: c.train.schedule.total_steps, 170),
        "sparsity_schedule": ("linear", lambda c: c.train.schedule.shape, "linear"),
        "alpha0": ("0.25", lambda c: c.train.grow.alpha0, 0.25),
        "lambda": ("0.35", lambda c: c.train.rank_cfg.lam, 0.35),
        "target_error": ("0.15", lambda c: c.train.rank_cfg.target_error, 0.15),
        "norm_floor": ("1e-09", lambda c: c.train.rank_cfg.norm_floor, 1e-9),
        "learning_rate": ("0.05", lambda c: c.train.learning_rate, 0.05),
        "momentum": ("0.8", lambda c: c.train.momentum, 0.8),
        "weight_decay": ("0.002", lambda c: c.train.weight_decay, 0.002),
        "batch_size": ("16", lambda c: c.train.batch_size, 16),
        "seed": ("4", lambda c: c.train.seed, 4),
        "cosine_lr": ("true", lambda c: c.train.cosine_lr, True),
    },
    "report": {
        "out_dir": ("runs/all", lambda c: c.report.out_dir, "runs/all"),
        "delta": ("0.2", lambda c: c.report.delta, 0.2),
    },
}


def non_default_text():
    text = "[model]\ninput = 13\nlayers = dense:16\nclasses = 5\n"
    for section, keys in NON_DEFAULT.items():
        text += f"\n[{section}]\n" + "".join(f"{k} = {raw}\n" for k, (raw, _, _) in keys.items())
    return text


def test_every_key_lands_in_its_field():
    cfg = parse_config_text(non_default_text(), "all.cfg")
    defaults = parse_config_text(MINIMAL, "test.cfg")
    for section, keys in NON_DEFAULT.items():
        for key, (_, get, want) in keys.items():
            assert get(cfg) == want, (section, key)
            assert get(defaults) != want, (section, key)
    text = serialize_config(cfg)
    assert parse_config_text(text, "serialized.cfg") == cfg
    assert serialize_config(parse_config_text(text, "serialized.cfg")) == text


def test_minimal_defaults_are_the_dataclass_defaults():
    cfg = parse_config_text(MINIMAL, "test.cfg")
    assert cfg.dataset == SyntheticDatasetSpec(
        num_classes=4, features=12, samples_per_class=30, cluster_spread=0.8, seed=7
    )
    assert cfg.train == TrainConfig(
        schedule=SparsitySchedule(
            final_sparsity=0.9, prune_steps=200, update_interval=50, total_steps=300
        ),
        grow=GrowSchedule(),
        rank_cfg=RankLossConfig(),
    )
    assert cfg.report == ReportSpec()


def test_synthetic_dataset_needs_flat_input():
    bad = MINIMAL.replace("input = 12", "input = 1x3x4")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert str(err.value) == (
        "bad.cfg:2: [model] input: a synthetic dataset needs a flat input N, got 1x3x4"
    )


@pytest.mark.parametrize(
    "section, key",
    [
        ("model", "input"),
        ("model", "classes"),
        ("dataset", "features"),
        ("dataset", "samples_per_class"),
        ("train", "final_sparsity"),
        ("train", "prune_steps"),
        ("train", "update_interval"),
        ("train", "total_steps"),
    ],
)
def test_missing_required_key(section, key):
    # the dataclass defaults of features and samples_per_class do not make them optional
    head, _, rest = MINIMAL.partition(f"[{section}]\n")
    bad = head + f"[{section}]\n" + re.sub(rf"^{key} = .*\n", "", rest, count=1, flags=re.M)
    assert bad.count("\n") == MINIMAL.count("\n") - 1
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "test.cfg")
    assert str(err.value) == f"test.cfg: missing [{section}] {key}"


@pytest.mark.parametrize("key", ["images", "labels"])
def test_missing_idx_file_key(key):
    text = MINIMAL.replace(
        "kind = synthetic\nfeatures = 12\nsamples_per_class = 30\ncluster_spread = 0.8\nseed = 7\n",
        "kind = idx\n" + "".join(f"{k} = {k}.idx\n" for k in ("images", "labels") if k != key),
    ).replace("input = 12", "input = 1x3x4")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, "test.cfg")
    assert str(err.value) == f"test.cfg: missing [dataset] {key}"


def test_bad_dataset_number_names_line_once():
    bad = MINIMAL.replace("seed = 7", "seed = seven")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, "bad.cfg")
    assert str(err.value) == "bad.cfg:11: [dataset] seed: expected an integer, got 'seven'"
