"""Experiment configuration: a flat, sectioned key=value file.

The format is INI-flavored ([section] headers, key = value lines, # or ;
comments) but parsed by hand so every validation error can point at the exact
file line. parse(serialize(cfg)) round-trips losslessly; floats are written
with repr so no precision is lost.

The [dataset], [train] and [report] keys are declared once, in the tables
below: parse and serialize walk the same rows, and each key takes its type and
default from the dataclass field it sets.
"""

from __future__ import annotations

import functools
import hashlib
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter

from .rank import DEFAULT_DELTA
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


# Rows are (file key, dataclass field), in serialized order. A dotted field
# such as schedule.shape lies in a dataclass part of the section's class.
_DATASET_KEYS = {
    "synthetic": (SyntheticDatasetSpec, (
        ("classes", "num_classes"),
        ("features", "features"),
        ("samples_per_class", "samples_per_class"),
        ("cluster_spread", "cluster_spread"),
        ("seed", "seed"),
    )),
    "idx": (IdxDatasetSpec, (("images", "images"), ("labels", "labels"))),
}
_TRAIN_KEYS = (
    ("final_sparsity", "schedule.final_sparsity"),
    ("prune_steps", "schedule.prune_steps"),
    ("update_interval", "schedule.update_interval"),
    ("total_steps", "schedule.total_steps"),
    ("sparsity_schedule", "schedule.shape"),
    ("alpha0", "grow.alpha0"),
    ("lambda", "rank_cfg.lam"),
    ("target_error", "rank_cfg.target_error"),
    ("norm_floor", "rank_cfg.norm_floor"),
    ("learning_rate", "learning_rate"),
    ("momentum", "momentum"),
    ("weight_decay", "weight_decay"),
    ("batch_size", "batch_size"),
    ("seed", "seed"),
    ("cosine_lr", "cosine_lr"),
)
_REPORT_KEYS = (("out_dir", "out_dir"), ("delta", "delta"))
_SECTIONS = ("model", "dataset", "train", "report")


def _parse_lines(text: str, path: str):
    """-> dict[section][key] = (value, line_no); duplicate keys, missing
    [model], [dataset] or [train] and then unknown sections rejected."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = unknown = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if current not in _SECTIONS and unknown is None:
                unknown = f"{path}:{lineno}: unknown section [{current}]"
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
    for name in ("model", "dataset", "train"):
        if name not in sections:
            raise ConfigError(f"{path}: missing [{name}] section")
    if unknown:
        raise ConfigError(unknown)
    return sections


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# Field type name -> (parser, what an error says was expected)
_TYPES = {
    "int": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "bool": (lambda text: _BOOLS[text.lower()], "true/false"),
    "str": (str, "text"),
}


class _Section:
    def __init__(self, path: str, name: str, entries: dict):
        self.path = path
        self.name = name
        self.entries = dict(entries)
        self.seen: set[str] = set()

    def get(self, key: str, kind: str = "str", default=MISSING):
        """The key's value parsed as kind (a _TYPES name); default if the key is absent."""
        self.seen.add(key)
        if key not in self.entries:
            if default is MISSING:
                raise ConfigError(f"{self.path}: missing [{self.name}] {key}")
            return default
        value, lineno = self.entries[key]
        parse, expected = _TYPES[kind]
        try:
            return parse(value)
        except (ValueError, KeyError):
            raise ConfigError(
                f"{self.path}:{lineno}: [{self.name}] {key}: expected {expected}, got {value!r}"
            ) from None

    def _where(self, key: str) -> str:
        _, lineno = self.entries.get(key, ("", 0))
        return f"{self.path}:{lineno}" if lineno else self.path

    def error(self, key: str, message: str):
        return ConfigError(f"{self._where(key)}: [{self.name}] {key}: {message}")

    def check_error(self, keys, exc: ValueError):
        """A dataclass check's error, at the line of the key whose file key or
        field name its message starts with (no line if none does); the
        message names the file key in place of the field."""
        word = str(exc).split(" ", 1)[0]
        key = next((k for k, path in keys if word in (k, path.rsplit(".", 1)[-1])), word)
        return ConfigError(f"{self._where(key)}: [{self.name}] {key}{str(exc)[len(word):]}")

    def check_unknown(self):
        extra = set(self.entries) - self.seen
        if extra:
            key = sorted(extra)[0]
            _, lineno = self.entries[key]
            raise ConfigError(f"{self.path}:{lineno}: unknown [{self.name}] key {key!r}")


# {field name: resolved type} of a dataclass; resolving string annotations is slow
_hints = functools.cache(typing.get_type_hints)


def _read(sec: _Section, cls, keys, defaults=None) -> dict:
    """The key table keys of dataclass cls as {field: value}, nested by dotted field.

    Each key takes the type of its field, and the field's default unless
    defaults gives another one for the key (MISSING makes the key required).
    """
    values = {}
    for key, path in keys:
        *parts, name = path.split(".")
        owner, into = cls, values
        for part in parts:
            owner, into = _hints(owner)[part], into.setdefault(part, {})
        kind = _hints(owner)[name].__name__
        default = next(f.default for f in fields(owner) if f.name == name)
        into[name] = sec.get(key, kind, (defaults or {}).get(key, default))
    return values


def _build(cls, values: dict):
    """cls from _read's values; the nested ones build its dataclass parts first."""
    hints = _hints(cls)
    return cls(**{k: _build(hints[k], v) if isinstance(v, dict) else v for k, v in values.items()})


def _parse_input_shape(sec: _Section) -> tuple:
    raw = sec.get("input")
    parts = [p for p in raw.lower().split("x") if p]
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise sec.error("input", f"expected N or CxHxW, got {raw!r}") from None
    if len(dims) not in (1, 3) or any(d < 1 for d in dims):
        raise sec.error("input", f"expected N or CxHxW with positive dims, got {raw!r}")
    return dims


def _parse_layers(sec: _Section) -> tuple:
    raw = sec.get("layers", default="")
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
    msec = _Section(path, "model", sections["model"])
    input_shape = _parse_input_shape(msec)
    layers = _parse_layers(msec)
    num_classes = msec.get("classes", "int")
    if num_classes < 2:
        raise msec.error("classes", f"need at least 2 classes, got {num_classes}")
    msec.check_unknown()
    model_spec = ModelSpec(input_shape=input_shape, layers=layers, num_classes=num_classes)

    dsec = _Section(path, "dataset", sections["dataset"])
    kind = dsec.get("kind", default="synthetic").lower()
    if kind not in _DATASET_KEYS:
        raise dsec.error("kind", f"unknown dataset kind {kind!r}")
    spec_cls, keys = _DATASET_KEYS[kind]
    # classes defaults to [model] classes; features and samples_per_class are
    # required, whatever defaults the spec has for code that builds it directly
    required = {"features": MISSING, "samples_per_class": MISSING}
    values = _read(dsec, spec_cls, keys, {"classes": num_classes, **required})
    try:
        dataset = _build(spec_cls, values)
    except ValueError as exc:
        raise dsec.check_error(keys, exc) from None
    if kind == "synthetic":
        if len(input_shape) != 1:
            got = "x".join(str(d) for d in input_shape)
            raise msec.error("input", f"a synthetic dataset needs a flat input N, got {got}")
        if dataset.features != input_shape[0]:
            raise dsec.error(
                "features",
                f"dataset features {dataset.features} != model input {input_shape[0]}",
            )
        if dataset.num_classes != num_classes:
            raise dsec.error(
                "classes", f"dataset classes {dataset.num_classes} != model classes {num_classes}"
            )
    dsec.check_unknown()

    tsec = _Section(path, "train", sections["train"])
    values = _read(tsec, TrainConfig, _TRAIN_KEYS)
    try:
        train_cfg = _build(TrainConfig, values)
    except ValueError as exc:
        raise tsec.check_error(_TRAIN_KEYS, exc) from None
    tsec.check_unknown()

    rsec = _Section(path, "report", sections.get("report", {}))
    report = _build(ReportSpec, _read(rsec, ReportSpec, _REPORT_KEYS))
    if not report.delta > 0.0:
        raise rsec.error("delta", f"must be positive, got {report.delta}")
    rsec.check_unknown()

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


def _lines(obj, keys) -> list[str]:
    return [f"{key} = {_fmt(attrgetter(path)(obj))}" for key, path in keys]


def serialize_config(cfg: ExperimentConfig, include_report: bool = True) -> str:
    m = cfg.model
    input_str = "x".join(str(d) for d in m.input_shape)
    layer_strs = []
    for spec in m.layers:
        if spec[0] == "dense":
            layer_strs.append(f"dense:{spec[1]}")
        else:
            layer_strs.append(f"conv:{spec[1]}x{spec[2]}x{spec[3]}")
    kind = "synthetic" if isinstance(cfg.dataset, SyntheticDatasetSpec) else "idx"
    lines = [
        "[model]",
        f"input = {input_str}",
        f"layers = {', '.join(layer_strs)}",
        f"classes = {m.num_classes}",
        "",
        "[dataset]",
        f"kind = {kind}",
        *_lines(cfg.dataset, _DATASET_KEYS[kind][1]),
        "",
        "[train]",
        *_lines(cfg.train, _TRAIN_KEYS),
    ]
    if include_report:
        lines += ["", "[report]", *_lines(cfg.report, _REPORT_KEYS)]
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
