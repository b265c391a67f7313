"""Config file parsing, validation line-anchoring, and round-trips."""

import re
from pathlib import Path

import pytest

from rankprune.config import (
    ConfigError,
    parse_config_text,
    serialize_config,
)

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
