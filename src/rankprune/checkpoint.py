"""Versioned little-endian binary checkpoints.

Layout: magic, format version, step counter, config digest, then a record per
tensor (name, dtype code, shape, raw bytes). Exact float64 bytes round-trip,
so resuming training reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import Network
from .trainer import OptimizerState

__all__ = [
    "CheckpointError",
    "TrainState",
    "save_checkpoint",
    "load_checkpoint",
    "state_from",
    "restore_into",
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


def state_from(net: Network, opt: OptimizerState, step: int, config_digest: bytes) -> TrainState:
    """A TrainState holding the network's and optimizer's live arrays, not copies.

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

    Every tensor is checked before any is installed: each one the model needs
    is present with the model's shape, masks hold only 0 and 1, and no tensor
    belongs to a layer the model does not have.
    """
    shapes = {}
    for i, layer in enumerate(net.layers):
        w, b = layer.params.weight.shape, layer.bias.shape
        shapes.update({f"layer{i}.weight": w, f"layer{i}.mask": w, f"layer{i}.bias": b,
                       f"layer{i}.momentum": w, f"layer{i}.bias_momentum": b})
    for name in state.tensors:
        if name not in shapes:
            raise CheckpointError(f"checkpoint tensor {name!r} is not part of this model")
    for name, shape in shapes.items():
        if name not in state.tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        if state.tensors[name].shape != shape:
            raise CheckpointError(
                f"{name} shape {state.tensors[name].shape} does not match model shape {shape}"
            )
        if name.endswith(".mask") and not np.isin(state.tensors[name], (0, 1)).all():
            raise CheckpointError(f"{name} holds entries other than 0 and 1")
    for i, layer in enumerate(net.layers):
        layer.params.weight = state.tensors[f"layer{i}.weight"].copy()
        layer.params.mask = state.tensors[f"layer{i}.mask"].astype(np.float64)
        layer.bias = state.tensors[f"layer{i}.bias"].copy()
        opt.weight_buffers[i] = state.tensors[f"layer{i}.momentum"].copy()
        opt.bias_buffers[i] = state.tensors[f"layer{i}.bias_momentum"].copy()
    net.touch()


def save_checkpoint(path, state: TrainState) -> None:
    """Write state to path atomically: a failed write leaves any earlier file whole."""
    chunks = [MAGIC]
    chunks.append(struct.pack("<IQ", FORMAT_VERSION, state.step))
    digest = state.config_digest
    if len(digest) != 32:
        raise ValueError("config digest must be 32 bytes")
    chunks.append(digest)
    chunks.append(struct.pack("<I", len(state.tensors)))
    for name, arr in state.tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            arr = arr.astype(np.float64)
        code = _DTYPE_CODES[arr.dtype]
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<HBB", len(name_bytes), code, arr.ndim))
        chunks.append(name_bytes)
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        chunks.append(little.tobytes())
    # a temporary file in the same directory, so that os.replace stays on one filesystem
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(b"".join(chunks))
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
        name = r.take(name_len).decode("utf-8")
        shape = r.unpack(f"<{ndim}I")
        if code not in _DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        dtype = np.dtype(_DTYPES[code]).newbyteorder("<")
        nbytes = int(np.prod(shape)) * dtype.itemsize if ndim else dtype.itemsize
        raw = r.take(nbytes)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_DTYPES[code])
        tensors[name] = arr
    if r.pos != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return TrainState(step=step, config_digest=digest, tensors=tensors)
