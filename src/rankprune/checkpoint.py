"""Versioned little-endian binary checkpoints.

Layout: magic, format version, step counter, config digest, then a record per
tensor (name, dtype code, shape, raw bytes). Exact float64 bytes round-trip,
so resuming training reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm
from .model import Layer, MaskedTensor, Network
from .trainer import OptimizerState

__all__ = [
    "CheckpointError",
    "TrainState",
    "save_checkpoint",
    "load_checkpoint",
    "state_from",
    "restore_into",
    "network_from",
]

MAGIC = b"RNKPRUNE"
FORMAT_VERSION = 1

_DTYPES = {0: np.float64, 1: np.uint8}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.uint8): 1}


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass
class TrainState:
    step: int
    config_digest: bytes
    tensors: dict  # name -> ndarray
    path: str | None = None  # the file it was loaded from, named in every error

    def error(self, message: str) -> CheckpointError:
        return CheckpointError(message if self.path is None else f"{self.path}: {message}")


def state_from(net: Network, opt: OptimizerState, step: int, config_digest: bytes) -> TrainState:
    """A TrainState holding the live arrays of net and opt; masks are uint8 copies.

    sgd_step updates weights, biases and momentum in place, so save the state
    before training on.
    """
    tensors = {}
    for i, layer in enumerate(net.layers):
        tensors[f"layer{i}.weight"] = layer.params.weight
        tensors[f"layer{i}.mask"] = layer.params.mask.astype(np.uint8)
        tensors[f"layer{i}.bias"] = layer.bias
        tensors[f"layer{i}.momentum"] = opt.weight_buffers[i]
        tensors[f"layer{i}.bias_momentum"] = opt.bias_buffers[i]
    return TrainState(step=step, config_digest=config_digest, tensors=tensors)


def restore_into(state: TrainState, net: Network, opt: OptimizerState) -> None:
    """Install checkpointed tensors into an architecture-matched network.

    Every tensor is checked before any is installed: each one state_from would
    write for this model is present with the model's shape, masks hold only 0
    and 1, every entry and every weight norm is finite, weights and momentum
    are 0 wherever the mask is 0, and no tensor belongs to a layer the model
    does not have.
    """
    live = state_from(net, opt, state.step, state.config_digest).tensors
    for name in state.tensors:
        if name not in live:
            raise state.error(f"checkpoint tensor {name!r} is not part of this model")
    for name, want in live.items():
        got = state.tensors.get(name)
        if got is None:
            raise state.error(f"checkpoint is missing tensor {name!r}")
        if got.shape != want.shape:
            raise state.error(f"{name} shape {got.shape} does not match model shape {want.shape}")
        if name.endswith(".mask") and not np.isin(got, (0, 1)).all():
            raise state.error(f"{name} holds entries other than 0 and 1")
        if not np.isfinite(got).all():
            raise state.error(f"{name} holds entries that are not finite")
        with np.errstate(over="ignore"):
            # finite entries can still overflow the norm the rank metrics divide by
            if name.endswith(".weight") and not np.isfinite(frobenius_norm(got)):
                raise state.error(f"{name} has a Frobenius norm that is not finite")
    for i in range(len(net.layers)):
        pruned = state.tensors[f"layer{i}.mask"] == 0
        for name in (f"layer{i}.weight", f"layer{i}.momentum"):
            if state.tensors[name][pruned].any():
                raise state.error(f"{name} is nonzero where layer{i}.mask is 0")
    for i, layer in enumerate(net.layers):
        layer.params.mask = state.tensors[f"layer{i}.mask"].astype(np.float64)
    for name, arr in live.items():
        if not name.endswith(".mask"):
            np.copyto(arr, state.tensors[name])
    net.touch()


def network_from(state: TrainState) -> Network:
    """The network a checkpoint describes, restored through restore_into.

    Each layer{i}.weight must be a nonempty 2-D (dense) or 4-D (conv2d) tensor.
    """
    layers = []
    while (weight := state.tensors.get(f"layer{len(layers)}.weight")) is not None:
        if weight.ndim not in (2, 4) or weight.size == 0:
            raise state.error(f"layer{len(layers)}.weight has shape {weight.shape}, not a nonempty 2-D (dense) or 4-D (conv2d) one")
        params = MaskedTensor(np.zeros(weight.shape), np.ones(weight.shape))
        layers.append(Layer(params, np.zeros(weight.shape[0])))
    if not layers:
        raise state.error("no layer tensors found")
    net = Network(layers)
    restore_into(state, net, OptimizerState.zeros_like(net))
    return net


def save_checkpoint(path, state: TrainState) -> None:
    """Write state to path atomically: a failed write leaves any earlier file whole.

    Each piece goes to the file as it is made, tensors from their own
    buffers, so no copy of the file is held in memory.
    """
    digest = state.config_digest
    if len(digest) != 32:
        raise ValueError("config digest must be 32 bytes")
    # a temporary file in the same directory, so that os.replace stays on one filesystem
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IQ", FORMAT_VERSION, state.step))
            f.write(digest)
            f.write(struct.pack("<I", len(state.tensors)))
            for name, arr in state.tensors.items():
                arr = np.ascontiguousarray(arr)
                if arr.dtype not in _DTYPE_CODES:
                    arr = arr.astype(np.float64)
                code = _DTYPE_CODES[arr.dtype]
                name_bytes = name.encode("utf-8")
                f.write(struct.pack("<HBB", len(name_bytes), code, arr.ndim))
                f.write(name_bytes)
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> TrainState:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, str(path))
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, step = r.unpack("<IQ")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: incompatible format version {version}, expected {FORMAT_VERSION}"
        )
    digest = r.take(32)
    (count,) = r.unpack("<I")
    tensors = {}
    for _ in range(count):
        name_len, code, ndim = r.unpack("<HBB")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: a tensor name is not UTF-8") from None
        shape = r.unpack(f"<{ndim}I")
        if code not in _DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        dtype = np.dtype(_DTYPES[code]).newbyteorder("<")
        raw = r.take(math.prod(shape) * dtype.itemsize)
        try:
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_DTYPES[code])
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: tensor {name!r} of shape {shape}: {exc}") from None
        tensors[name] = arr
    if r.pos != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return TrainState(step=step, config_digest=digest, tensors=tensors, path=str(path))
