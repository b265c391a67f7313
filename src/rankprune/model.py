"""Tiny dense/conv networks with exact manual backpropagation.

Forward passes use the effective weight (stored weight times binary mask)
everywhere, and backward returns the gradient of the loss with respect to that
effective tensor at *every* position, pruned ones included: the gradient a
masked weight would receive were it active. That dense gradient is what drives
regrowth.

Convolutions are direct im2col, stride 1, zero-padded to keep spatial size.
Sizes stay small enough that clarity beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "InvalidStateError",
    "MaskedTensor",
    "Layer",
    "Network",
    "Batch",
    "reshape_to_matrix",
    "matrix_to_tensor",
    "forward",
    "task_loss",
    "loss_and_dout",
    "accuracy",
    "backward",
    "build_network",
]


class ConfigurationError(ValueError):
    """Layer shapes do not compose with each other or the input."""


class InvalidStateError(RuntimeError):
    """A backward pass was given a cache from an outdated forward."""


@dataclass
class MaskedTensor:
    """A weight tensor and its same-shape binary mask (1 = active)."""

    weight: np.ndarray
    mask: np.ndarray

    def effective(self) -> np.ndarray:
        return self.weight * self.mask

    def set_mask(self, mask: np.ndarray) -> None:
        """Install a new mask and zero stored values at pruned positions."""
        if mask.shape != self.weight.shape:
            raise ValueError(f"mask shape {mask.shape} != weight shape {self.weight.shape}")
        self.mask = np.asarray(mask, dtype=np.float64)
        self.weight = self.weight * self.mask

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class Layer:
    """One prunable layer: dense (out, in) or conv2d (out, in, kh, kw)."""

    kind: str  # "dense" | "conv2d"
    params: MaskedTensor
    bias: np.ndarray
    activation: str  # "relu" | "none"
    name: str = ""


@dataclass
class Batch:
    """Inputs (batch, features) or (batch, c, h, w) with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray


@dataclass
class Network:
    layers: list[Layer]
    num_classes: int
    # bumped whenever parameters or masks change; guards stale backward caches
    version: int = 0

    @property
    def prunable(self) -> list[MaskedTensor]:
        return [l.params for l in self.layers]

    def touch(self) -> None:
        self.version += 1

    def total_weights(self) -> int:
        return sum(l.params.weight.size for l in self.layers)

    def active_weights(self) -> int:
        return sum(l.params.active_count for l in self.layers)

    def sparsity(self) -> float:
        total = self.total_weights()
        return 1.0 - self.active_weights() / total


def reshape_to_matrix(layer: Layer) -> np.ndarray:
    """View a layer's effective weight as the 2-D matrix the rank ops expect.

    Dense (out, in) stays as-is; conv (o, i, kh, kw) flattens to
    (o, i*kh*kw) in C order, so row o holds filter o's entries ordered by
    (input channel, kernel row, kernel col). matrix_to_tensor inverts exactly.
    """
    w = layer.params.effective()
    if layer.kind == "dense":
        return w
    if layer.kind == "conv2d":
        o = w.shape[0]
        return w.reshape(o, -1)
    raise ConfigurationError(f"unknown layer kind {layer.kind!r}")


def matrix_to_tensor(mat: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of the reshape above: restore the original tensor shape."""
    return np.asarray(mat).reshape(shape)


def _he_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def build_network(input_shape, layer_specs, num_classes: int, seed: int) -> Network:
    """Construct a network from specs like ("dense", 128) / ("conv2d", 8, 3, 3).

    Hidden layers get ReLU; a final dense layer onto num_classes logits (no
    activation) is appended. Weights use He-style uniform fan-in init from a
    seeded generator; biases start at zero; masks start all-ones.
    """
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    layers: list[Layer] = []
    shape = tuple(input_shape) if not np.isscalar(input_shape) else (int(input_shape),)
    for idx, spec in enumerate(layer_specs):
        kind = spec[0]
        if kind == "dense":
            (out,) = spec[1:]
            fan_in = int(np.prod(shape))
            w = _he_uniform(rng, (out, fan_in), fan_in)
            layers.append(
                Layer(
                    kind="dense",
                    params=MaskedTensor(w, np.ones_like(w)),
                    bias=np.zeros(out),
                    activation="relu",
                    name=f"dense{idx}",
                )
            )
            shape = (out,)
        elif kind == "conv2d":
            out, kh, kw = spec[1:]
            if len(shape) != 3:
                raise ConfigurationError(
                    f"conv2d layer {idx} needs (c, h, w) input, got shape {shape}"
                )
            c, h, wd = shape
            fan_in = c * kh * kw
            w = _he_uniform(rng, (out, c, kh, kw), fan_in)
            layers.append(
                Layer(
                    kind="conv2d",
                    params=MaskedTensor(w, np.ones_like(w)),
                    bias=np.zeros(out),
                    activation="relu",
                    name=f"conv{idx}",
                )
            )
            shape = (out, h, wd)
        else:
            raise ConfigurationError(f"unknown layer kind {kind!r}")
    fan_in = int(np.prod(shape))
    w = _he_uniform(rng, (num_classes, fan_in), fan_in)
    layers.append(
        Layer(
            kind="dense",
            params=MaskedTensor(w, np.ones_like(w)),
            bias=np.zeros(num_classes),
            activation="none",
            name="head",
        )
    )
    return Network(layers=layers, num_classes=num_classes)


def _pad_same(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    top, left = (kh - 1) // 2, (kw - 1) // 2
    bottom, right = kh - 1 - top, kw - 1 - left
    return np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(b, c, h, w) -> (b*h*w, c*kh*kw) patches for stride-1 same conv."""
    b, c, h, w = x.shape
    xp = _pad_same(x, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    # windows: (b, c, h, w, kh, kw) -> (b, h, w, c, kh, kw)
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w, c * kh * kw)
    return np.ascontiguousarray(patches)


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Scatter-add patch gradients back to the (padded, then cropped) input."""
    b, c, h, w = x_shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((b, c, h + kh - 1, w + kw - 1))
    cols = cols.reshape(b, h, w, c, kh, kw)
    for di in range(kh):
        for dj in range(kw):
            xp[:, :, di : di + h, dj : dj + w] += cols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return xp[:, :, top : top + h, left : left + w]


def forward(net: Network, batch: Batch):
    """Run the network on a batch; returns (logits, cache) for backward."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    steps = []
    for layer in net.layers:
        e = layer.params.effective()
        if layer.kind == "dense":
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            if x.shape[1] != e.shape[1]:
                raise ConfigurationError(
                    f"layer {layer.name}: input width {x.shape[1]} != fan-in {e.shape[1]}"
                )
            pre = x @ e.T + layer.bias
            step = {"x": x, "e": e, "pre": pre}
        elif layer.kind == "conv2d":
            if x.ndim != 4:
                raise ConfigurationError(
                    f"layer {layer.name}: conv2d needs (b, c, h, w) input, got {x.shape}"
                )
            o, c, kh, kw = e.shape
            if x.shape[1] != c:
                raise ConfigurationError(
                    f"layer {layer.name}: input channels {x.shape[1]} != {c}"
                )
            b, _, h, w = x.shape
            cols = _im2col(x, kh, kw)
            pre_cols = cols @ e.reshape(o, -1).T + layer.bias
            pre = pre_cols.reshape(b, h, w, o).transpose(0, 3, 1, 2)
            step = {"x": x, "e": e, "cols": cols, "pre": pre}
        else:
            raise ConfigurationError(f"unknown layer kind {layer.kind!r}")
        x = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        step["out"] = x
        steps.append(step)
    logits = x
    if logits.ndim != 2 or logits.shape[1] != net.num_classes:
        raise ConfigurationError(
            f"logits shape {logits.shape} does not match {net.num_classes} classes"
        )
    cache = {"steps": steps, "version": net.version, "net_id": id(net)}
    return logits, cache


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def loss_and_dout(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """task_loss and its gradient with respect to the logits, from one log-softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on batch size")
    rows = np.arange(len(labels))
    logp = _log_softmax(logits)
    probs = np.exp(logp)
    probs[rows, labels] -= 1.0
    return float(-np.mean(logp[rows, labels])), probs / len(labels)


def task_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    return loss_and_dout(logits, labels)[0]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def backward(net: Network, cache, labels, dout=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of task_loss w.r.t. every layer's effective weight and bias.

    Defined at all weight positions, masked ones included. The cache must come
    from a forward on the current parameters; it holds the effective weights
    that forward used. dout, the loss gradient with respect to the logits, is
    computed from labels unless the caller already has it from loss_and_dout
    on the cache's logits. The input gradient of the first layer is not
    computed, since nothing reads it.
    """
    if cache.get("net_id") != id(net) or cache.get("version") != net.version:
        raise InvalidStateError("cache is stale: parameters changed since forward")
    steps = cache["steps"]
    if dout is None:
        dout = loss_and_dout(steps[-1]["out"], labels)[1]

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        step = steps[idx]
        if layer.activation == "relu":
            dout = dout * (step["pre"] > 0.0)
        e = step["e"]
        if layer.kind == "dense":
            dw = dout.T @ step["x"]
            db = dout.sum(axis=0)
        else:
            o, c, kh, kw = e.shape
            bsz, _, h, w = step["x"].shape
            # one row per output pixel, matching step["cols"]
            dout = dout.transpose(0, 2, 3, 1).reshape(bsz * h * w, o)
            dw = (dout.T @ step["cols"]).reshape(o, c, kh, kw)
            db = dout.sum(axis=0)
        grads[idx] = (dw, db)
        if idx == 0:
            break
        if layer.kind == "dense":
            dout = (dout @ e).reshape(steps[idx - 1]["out"].shape)
        else:
            dout = _col2im(dout @ e.reshape(o, -1), step["x"].shape, kh, kw)
    return grads
