"""Experiment configuration: a flat, sectioned key=value file.

The format is INI-flavored ([section] headers, key = value lines, # or ;
comments) but parsed by hand so every validation error can point at the exact
file line. parse(serialize(cfg)) round-trips losslessly; floats are written
with repr so no precision is lost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .rank import DEFAULT_DELTA, RankLossConfig
from .sparsity import GrowSchedule, SparsitySchedule
from .trainer import TrainConfig
from .datasets import SyntheticDatasetSpec

__all__ = [
    "ConfigError",
    "ModelSpec",
    "IdxDatasetSpec",
    "ReportSpec",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_hash",
]


class ConfigError(ValueError):
    """Invalid config file; message carries file:line and field name."""


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple  # (features,) or (c, h, w)
    layers: tuple  # ("dense", out) / ("conv2d", out, kh, kw)
    num_classes: int


@dataclass(frozen=True)
class IdxDatasetSpec:
    images: str
    labels: str


@dataclass(frozen=True)
class ReportSpec:
    out_dir: str = "runs/out"
    delta: float = DEFAULT_DELTA


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    dataset: SyntheticDatasetSpec | IdxDatasetSpec
    train: TrainConfig
    report: ReportSpec = field(default_factory=ReportSpec)


def _parse_lines(text: str, path: str):
    """-> dict[section][key] = (value, line_no); duplicate keys rejected."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


class _Section:
    def __init__(self, path: str, name: str, entries: dict):
        self.path = path
        self.name = name
        self.entries = dict(entries)
        self.seen: set[str] = set()

    def _raw(self, key: str, default=None):
        self.seen.add(key)
        if key not in self.entries:
            if default is not None:
                return default, 0
            raise ConfigError(f"{self.path}: missing [{self.name}] {key}")
        return self.entries[key]

    def _convert(self, key, conv, kindname, default):
        value, lineno = self._raw(key, default)
        if isinstance(value, str):
            try:
                return conv(value)
            except ValueError:
                raise ConfigError(
                    f"{self.path}:{lineno}: [{self.name}] {key}: expected {kindname}, got {value!r}"
                ) from None
        return value

    def get_int(self, key, default=None):
        return self._convert(key, int, "an integer", default)

    def get_float(self, key, default=None):
        return self._convert(key, float, "a number", default)

    def get_str(self, key, default=None):
        value, _ = self._raw(key, default)
        return value

    def get_bool(self, key, default=None):
        def conv(s):
            low = s.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(s)

        return self._convert(key, conv, "true/false", default)

    def error(self, key: str, message: str):
        _, lineno = self.entries.get(key, ("", 0))
        where = f"{self.path}:{lineno}" if lineno else self.path
        return ConfigError(f"{where}: [{self.name}] {key}: {message}")

    def check_unknown(self):
        extra = set(self.entries) - self.seen
        if extra:
            key = sorted(extra)[0]
            _, lineno = self.entries[key]
            raise ConfigError(f"{self.path}:{lineno}: unknown [{self.name}] key {key!r}")


def _parse_input_shape(sec: _Section) -> tuple:
    raw = sec.get_str("input")
    parts = [p for p in raw.lower().split("x") if p]
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise sec.error("input", f"expected N or CxHxW, got {raw!r}") from None
    if len(dims) not in (1, 3) or any(d < 1 for d in dims):
        raise sec.error("input", f"expected N or CxHxW with positive dims, got {raw!r}")
    return dims


def _parse_layers(sec: _Section) -> tuple:
    raw = sec.get_str("layers", default="")
    specs = []
    if raw.strip():
        for part in raw.split(","):
            part = part.strip()
            kind, _, dims = part.partition(":")
            kind = kind.strip().lower()
            try:
                nums = [int(d) for d in dims.lower().split("x")]
            except ValueError:
                nums = []
            if kind == "dense" and len(nums) == 1 and nums[0] >= 1:
                specs.append(("dense", nums[0]))
            elif kind in ("conv", "conv2d") and len(nums) == 3 and all(n >= 1 for n in nums):
                specs.append(("conv2d", nums[0], nums[1], nums[2]))
            else:
                raise sec.error(
                    "layers", f"bad layer {part!r}; use dense:OUT or conv:OUTxKHxKW"
                )
    return tuple(specs)


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    sections = _parse_lines(text, path)
    for name in ("model", "dataset", "train"):
        if name not in sections:
            raise ConfigError(f"{path}: missing [{name}] section")

    msec = _Section(path, "model", sections["model"])
    input_shape = _parse_input_shape(msec)
    layers = _parse_layers(msec)
    num_classes = msec.get_int("classes")
    if num_classes < 2:
        raise msec.error("classes", f"need at least 2 classes, got {num_classes}")
    msec.check_unknown()
    model_spec = ModelSpec(input_shape=input_shape, layers=layers, num_classes=num_classes)

    dsec = _Section(path, "dataset", sections["dataset"])
    kind = dsec.get_str("kind", default="synthetic").lower()
    if kind == "synthetic":
        try:
            dataset = SyntheticDatasetSpec(
                num_classes=dsec.get_int("classes", default=str(num_classes)),
                features=dsec.get_int("features"),
                samples_per_class=dsec.get_int("samples_per_class"),
                cluster_spread=dsec.get_float("cluster_spread", default="1.0"),
                seed=dsec.get_int("seed", default="0"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: [dataset] {exc}") from None
        if len(input_shape) == 1 and dataset.features != input_shape[0]:
            raise dsec.error(
                "features",
                f"dataset features {dataset.features} != model input {input_shape[0]}",
            )
        if dataset.num_classes != num_classes:
            raise dsec.error(
                "classes", f"dataset classes {dataset.num_classes} != model classes {num_classes}"
            )
    elif kind == "idx":
        dataset = IdxDatasetSpec(images=dsec.get_str("images"), labels=dsec.get_str("labels"))
    else:
        raise dsec.error("kind", f"unknown dataset kind {kind!r}")
    dsec.check_unknown()

    tsec = _Section(path, "train", sections["train"])
    final_sparsity = tsec.get_float("final_sparsity")
    if not 0.0 <= final_sparsity < 1.0:
        raise tsec.error("final_sparsity", f"must lie in [0,1), got {final_sparsity}")
    shape = tsec.get_str("sparsity_schedule", default="cubic")
    if shape not in ("cubic", "linear"):
        raise tsec.error("sparsity_schedule", f"must be cubic or linear, got {shape!r}")
    names = {
        "prune_steps": tsec.get_int("prune_steps"),
        "update_interval": tsec.get_int("update_interval"),
        "total_steps": tsec.get_int("total_steps"),
        "alpha0": tsec.get_float("alpha0", default="0.3"),
        "lambda": tsec.get_float("lambda", default="0.1"),
        "target_error": tsec.get_float("target_error", default="0.2"),
        "norm_floor": tsec.get_float("norm_floor", default="1e-12"),
        "learning_rate": tsec.get_float("learning_rate", default="0.1"),
        "momentum": tsec.get_float("momentum", default="0.9"),
        "weight_decay": tsec.get_float("weight_decay", default="0.0"),
        "batch_size": tsec.get_int("batch_size", default="32"),
        "seed": tsec.get_int("seed", default="0"),
        "cosine_lr": tsec.get_bool("cosine_lr", default="false"),
    }
    try:
        train_cfg = TrainConfig(
            schedule=SparsitySchedule(
                final_sparsity=final_sparsity,
                prune_steps=names["prune_steps"],
                update_interval=names["update_interval"],
                total_steps=names["total_steps"],
                shape=shape,
            ),
            grow=GrowSchedule(alpha0=names["alpha0"]),
            rank_cfg=RankLossConfig(
                target_error=names["target_error"],
                lam=names["lambda"],
                norm_floor=names["norm_floor"],
            ),
            learning_rate=names["learning_rate"],
            momentum=names["momentum"],
            weight_decay=names["weight_decay"],
            batch_size=names["batch_size"],
            seed=names["seed"],
            cosine_lr=names["cosine_lr"],
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [train] {exc}") from None
    tsec.check_unknown()

    if "report" in sections:
        rsec = _Section(path, "report", sections["report"])
        delta = rsec.get_float("delta", default=DEFAULT_DELTA)
        if not delta > 0.0:
            raise rsec.error("delta", f"must be positive, got {delta}")
        report = ReportSpec(out_dir=rsec.get_str("out_dir", default="runs/out"), delta=delta)
        rsec.check_unknown()
    else:
        report = ReportSpec()

    return ExperimentConfig(model=model_spec, dataset=dataset, train=train_cfg, report=report)


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), str(path))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig, include_report: bool = True) -> str:
    m = cfg.model
    input_str = "x".join(str(d) for d in m.input_shape)
    layer_strs = []
    for spec in m.layers:
        if spec[0] == "dense":
            layer_strs.append(f"dense:{spec[1]}")
        else:
            layer_strs.append(f"conv:{spec[1]}x{spec[2]}x{spec[3]}")
    lines = [
        "[model]",
        f"input = {input_str}",
        f"layers = {', '.join(layer_strs)}",
        f"classes = {m.num_classes}",
        "",
        "[dataset]",
    ]
    d = cfg.dataset
    if isinstance(d, SyntheticDatasetSpec):
        lines += [
            "kind = synthetic",
            f"classes = {d.num_classes}",
            f"features = {d.features}",
            f"samples_per_class = {d.samples_per_class}",
            f"cluster_spread = {_fmt(d.cluster_spread)}",
            f"seed = {d.seed}",
        ]
    else:
        lines += ["kind = idx", f"images = {d.images}", f"labels = {d.labels}"]
    t = cfg.train
    lines += [
        "",
        "[train]",
        f"final_sparsity = {_fmt(t.schedule.final_sparsity)}",
        f"prune_steps = {t.schedule.prune_steps}",
        f"update_interval = {t.schedule.update_interval}",
        f"total_steps = {t.schedule.total_steps}",
        f"sparsity_schedule = {t.schedule.shape}",
        f"alpha0 = {_fmt(t.grow.alpha0)}",
        f"lambda = {_fmt(t.rank_cfg.lam)}",
        f"target_error = {_fmt(t.rank_cfg.target_error)}",
        f"norm_floor = {_fmt(t.rank_cfg.norm_floor)}",
        f"learning_rate = {_fmt(t.learning_rate)}",
        f"momentum = {_fmt(t.momentum)}",
        f"weight_decay = {_fmt(t.weight_decay)}",
        f"batch_size = {t.batch_size}",
        f"seed = {t.seed}",
        f"cosine_lr = {_fmt(t.cosine_lr)}",
    ]
    if include_report:
        lines += [
            "",
            "[report]",
            f"out_dir = {cfg.report.out_dir}",
            f"delta = {_fmt(cfg.report.delta)}",
        ]
    lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> bytes:
    """Digest of the training-defining sections (model, dataset, train).

    Report paths and the reporting delta do not alter the trajectory, so
    checkpoints stay resumable under --out/--delta overrides.
    """
    return hashlib.sha256(
        serialize_config(cfg, include_report=False).encode("utf-8")
    ).digest()
