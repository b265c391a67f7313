"""Tiny dense/conv networks with exact manual backpropagation.

Forward passes use the effective weight (stored weight times binary mask)
everywhere, and backward returns the gradient of the loss with respect to that
effective tensor at *every* position, pruned ones included: the gradient a
masked weight would receive were it active. That dense gradient is what drives
regrowth.

The stored weight is the effective weight. MaskedTensor keeps it at +-0
wherever the mask is 0, so weight * mask would equal it bit for bit, and
effective() returns the stored array without computing that product.

A forward cache holds, per layer, only what backward reads: its input "x",
its pre-activation "pre" and, for a conv layer, its patch matrix "cols".
backward reads the weights from the network itself, which sgd_step and
update_masks update in place, so it refuses a cache from before the
network's last touch(). It takes dout, the loss gradient with respect to
the logits, from loss_and_dout, the one loss entry point.

A cache feeds one backward, which empties it: walking down from the head,
backward lets go of each layer's cached arrays once it has read them, so a
conv layer's patch matrix is gone before its patch gradient, an array of the
same size, is allocated, and a step peaks near its forward. A second
backward on the same cache is refused.

Each hidden layer's ReLU runs in place on its pre-activation, so a cached
"pre" is also that layer's activation, the next layer's "x" unless a flatten
copies it. backward's mask pre > 0.0 reads the same bits either way:
relu(p) > 0 holds exactly when p > 0, for -0.0 and NaN too.

Convolutions are stride 1, zero-padded to keep spatial size, and lowered to
one GEMM each (im2col; Chellapilla et al. 2006). Between conv layers the
activations are (c, b, h, w): channels first, then batch. The patch matrix is
then (c*kh*kw, b*h*w), its rows in the (c, kh, kw) order of the flattened
weight. Inputs are turned from (b, c, h, w) at the first layer, and back at
the flatten into a dense layer. Channels-last (b, h, w, c) would make the
gather strided, since each patch row runs over (c, kh, kw).

Each conv GEMM is taken in the orientation its operands already have, so none
needs a transposing copy: the forward is weight (o, c*kh*kw) @ patches, which
is the (o, b, h, w) output as it lies; the weight gradient is dout
(o, b*h*w) @ patches.T; and the patch gradient weight.T @ dout is a fresh
(c*kh*kw, b*h*w) array that the adjoint scatter then zeroes in place.

On the (c, b*h*w) view of the activations, kernel offset (di, dj) of a
same-padded conv is a flat shift of the whole plane by s = si*w + sj, with
(si, sj) = (di - (kh-1)//2, dj - (kw-1)//2). So the gather copies one
shifted plane per offset, and the adjoint scatter adds one. Where the offset
leaves the image, in a strip of |si| rows or |sj| columns of each image, the
shift wraps into a neighbouring row or image instead; the gather zeroes those
entries after its copy and the scatter before its add. The scatter thus adds
+0.0 at positions the offset does not reach, which leaves every bit as it
was: each running sum starts at +0.0 and so is never -0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "InvalidStateError",
    "MaskedTensor",
    "Layer",
    "Network",
    "Batch",
    "reshape_to_matrix",
    "forward",
    "loss_and_dout",
    "accuracy",
    "backward",
    "build_network",
]


class ConfigurationError(ValueError):
    """Layer shapes do not compose with each other or the input."""


class InvalidStateError(RuntimeError):
    """A backward pass was given a cache from an outdated forward, or one that
    an earlier backward already consumed."""


class MaskedTensor:
    """A weight tensor and its same-shape binary mask (1 = active).

    The stored weight is zero wherever the mask is 0: the constructor and
    both setters multiply it by the mask. The constructor and the weight
    setter store that product as a new array, so the caller's array is never
    written; the mask setter multiplies the stored weight in place, so arrays
    handed out earlier (checkpoint.state_from) stay the layer's.
    """

    __slots__ = ("_weight", "_mask")

    def __init__(self, weight: np.ndarray, mask: np.ndarray):
        self._mask = np.asarray(mask, dtype=np.float64)
        self.weight = weight

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @weight.setter
    def weight(self, weight: np.ndarray) -> None:
        if np.shape(weight) != self._mask.shape:
            raise ValueError(f"weight shape {np.shape(weight)} != mask shape {self._mask.shape}")
        self._weight = np.multiply(weight, self._mask, dtype=np.float64)

    def set_mask(self, mask: np.ndarray) -> None:
        """Install a new mask and zero stored values at pruned positions, in place."""
        if mask.shape != self._weight.shape:
            raise ValueError(f"mask shape {mask.shape} != weight shape {self._weight.shape}")
        self._mask = np.asarray(mask, dtype=np.float64)
        self._weight *= self._mask

    mask = property(lambda self: self._mask, set_mask)

    def effective(self) -> np.ndarray:
        """The weight as forward uses it: the stored weight itself, never a copy."""
        return self._weight

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self._mask))


@dataclass
class Layer:
    """One prunable layer, dense if its weight is (out, in) and conv2d if it is
    (out, in, kh, kw). ReLU follows every layer of a Network but the last,
    and its Network names it."""

    params: MaskedTensor
    bias: np.ndarray
    name: str = field(default="", init=False)


@dataclass
class Batch:
    """Inputs (batch, features) or (batch, c, h, w) with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray


@dataclass
class Network:
    """Layers in order; the last one's outputs are the class logits."""

    layers: list[Layer]
    # bumped whenever parameters or masks change; guards stale backward caches
    version: int = 0

    def __post_init__(self):
        # one naming rule, for built and restored networks alike
        for idx, layer in enumerate(self.layers):
            kind = "dense" if layer.params.weight.ndim == 2 else "conv"
            layer.name = "head" if idx == len(self.layers) - 1 else f"{kind}{idx}"

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
    (input channel, kernel row, kernel col), and reshaping to the weight's
    shape inverts it exactly.
    """
    w = layer.params.effective()
    return w.reshape(w.shape[0], -1)


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
    for idx, spec in enumerate([*layer_specs, ("dense", num_classes)]):
        kind = spec[0]
        if kind == "dense":
            (out,) = spec[1:]
            w_shape = (out, int(np.prod(shape)))
            shape = (out,)
        elif kind == "conv2d":
            out, kh, kw = spec[1:]
            if len(shape) != 3:
                raise ConfigurationError(
                    f"conv2d layer {idx} needs (c, h, w) input, got shape {shape}"
                )
            c, h, wd = shape
            w_shape = (out, c, kh, kw)
            shape = (out, h, wd)
        else:
            raise ConfigurationError(f"unknown layer kind {kind!r}")
        w = _he_uniform(rng, w_shape, int(np.prod(w_shape[1:])))
        layers.append(Layer(MaskedTensor(w, np.ones_like(w)), np.zeros(out)))
    return Network(layers)


def _shifts(b: int, h: int, w: int, kh: int, kw: int):
    """Yield (k, out, src, rows, cols) for each kernel offset (di, dj), in
    order: its patch row k = di*kw + dj; the flat ranges of output pixels and
    of the input pixels they read, shifted by s on a plane of b*h*w pixels;
    and the strips of rows and columns of each image where that shift wraps
    (see the module docstring). s is clamped to the plane; a shift that
    would leave it has a strip covering the whole image.
    """
    n = b * h * w
    for di, dj in np.ndindex(kh, kw):
        si, sj = di - (kh - 1) // 2, dj - (kw - 1) // 2
        s = min(max(si * w + sj, -n), n)
        rows = slice(max(0, h - si), h) if si > 0 else slice(0, min(h, -si))
        cols = slice(max(0, w - sj), w) if sj > 0 else slice(0, min(w, -sj))
        out = slice(max(0, -s), n - max(0, s))
        yield di * kw + dj, out, slice(out.start + s, out.stop + s), rows, cols


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(c, b, h, w) -> (c*kh*kw, b*h*w) patches for stride-1 same conv.

    Row (c, di, dj) is channel c shifted by kernel offset (di, dj), zero
    where the shift leaves the image. Each offset is one copy of the shifted
    (c, b*h*w) plane, after which its strips are zeroed.
    """
    c, b, h, w = x.shape
    x = x.reshape(c, -1)
    patches = np.empty((c, kh * kw, b * h * w))  # the strips cover every entry the copies skip
    planes = patches.reshape(c, kh * kw, b, h, w)
    for k, out, src, rows, cols in _shifts(b, h, w, kh, kw):
        patches[:, k, out] = x[:, src]
        planes[:, k, :, rows] = 0.0
        planes[:, k, :, :, cols] = 0.0
    return patches.reshape(c * kh * kw, -1)


def _col2im(dcols: np.ndarray, x_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Adjoint of _im2col: C-contiguous (c*kh*kw, b*h*w) patch gradients to the
    (c, b, h, w) input gradient, the kernel offsets added in (di, dj) order.

    Each offset is one add of the shifted (c, b*h*w) plane, its strips zeroed
    first, in dcols itself; the module docstring says why those +0.0 adds
    change no bit.
    """
    c, b, h, w = x_shape
    planes = dcols.reshape(c, kh * kw, b, h, w)
    patches = dcols.reshape(c, kh * kw, -1)
    dx = np.zeros((c, b * h * w))
    for k, out, src, rows, cols in _shifts(b, h, w, kh, kw):
        planes[:, k, :, rows] = 0.0
        planes[:, k, :, :, cols] = 0.0
        dx[:, src] += patches[:, k, out]
    return dx.reshape(x_shape)


def forward(net: Network, batch: Batch):
    """Run the network on a batch; returns (logits, cache) for backward."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.ndim == 4:
        x = x.swapaxes(0, 1)  # (c, b, h, w), see the module docstring
    steps = []
    last = len(net.layers) - 1
    for idx, layer in enumerate(net.layers):
        e = layer.params.effective()
        if e.ndim == 2:
            if x.ndim == 4:
                x = x.swapaxes(0, 1)
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            if x.shape[1] != e.shape[1]:
                raise ConfigurationError(
                    f"layer {layer.name}: input width {x.shape[1]} != fan-in {e.shape[1]}"
                )
            pre = x @ e.T
            pre += layer.bias
            step = {"x": x, "pre": pre}
        else:
            if x.ndim != 4:
                raise ConfigurationError(
                    f"layer {layer.name}: conv2d needs (b, c, h, w) input, got {x.shape}"
                )
            o, c, kh, kw = e.shape
            if x.shape[0] != c:
                raise ConfigurationError(
                    f"layer {layer.name}: input channels {x.shape[0]} != {c}"
                )
            _, b, h, w = x.shape
            cols = _im2col(x, kh, kw)
            pre = (e.reshape(o, -1) @ cols).reshape(o, b, h, w)
            pre += layer.bias[:, None, None, None]
            step = {"x": x, "cols": cols, "pre": pre}
        x = np.maximum(pre, 0.0, out=pre) if idx < last else pre
        steps.append(step)
    logits = x
    if logits.ndim != 2:
        raise ConfigurationError(f"logits shape {logits.shape}: the last layer must be dense")
    cache = {"steps": steps, "version": net.version, "net_id": id(net)}
    return logits, cache


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def loss_and_dout(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean softmax cross-entropy over the batch and its gradient with
    respect to the logits, from one log-softmax.

    The loss is the picked log-probabilities' sum over n, the same double as
    their np.mean; the gradient is taken in the log-softmax's own buffer.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if logits.shape[0] != n:
        raise ValueError("logits and labels disagree on batch size")
    rows = np.arange(n)
    logp = _log_softmax(logits)
    loss = -float(logp[rows, labels].sum() / n)
    probs = np.exp(logp, out=logp)
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, probs


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """The share of rows whose largest logit is the label's, a Python float."""
    return int(np.count_nonzero(np.argmax(logits, axis=1) == np.asarray(labels))) / len(logits)


def backward(net: Network, cache, dout: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of the loss w.r.t. every layer's effective weight and bias.

    Defined at all weight positions, masked ones included. dout is the loss
    gradient with respect to the logits, as loss_and_dout gives it for the
    cache's logits; it is read, never written. The cache must come from a
    forward on the current parameters, since the weights are read from net.
    The input gradient of the first layer is not computed, since nothing
    reads it.

    The cache is consumed: its step list is taken out of it, and each layer's
    arrays are let go of as soon as they are read. A second backward on it
    raises InvalidStateError.
    """
    if cache.get("net_id") != id(net) or cache.get("version") != net.version:
        raise InvalidStateError("cache is stale: parameters changed since forward")
    if "steps" not in cache:
        raise InvalidStateError("cache was already consumed: a forward cache feeds one backward")
    steps = cache.pop("steps")

    last = len(net.layers) - 1
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for idx in range(last, -1, -1):
        step = steps.pop()  # the layer's arrays go as they are read, the rest at the next pop
        if idx < last:
            dout *= step.pop("pre") > 0.0  # dout is this pass's own array below the logits
        e = net.layers[idx].params.weight
        if e.ndim == 2:
            dw = dout.T @ step.pop("x")
            db = dout.sum(axis=0)
        else:
            o, c, kh, kw = e.shape
            dout = np.ascontiguousarray(dout).reshape(o, -1)
            dw = (dout @ step.pop("cols").T).reshape(o, c, kh, kw)
            db = dout.sum(axis=1)
        grads[idx] = (dw, db)
        if idx == 0:
            break
        if e.ndim == 2:
            dout = dout @ e
            if steps[-1]["pre"].ndim == 4:
                c, b, h, w = steps[-1]["pre"].shape
                dout = dout.reshape(b, c, h, w).swapaxes(0, 1)
        else:
            dout = _col2im(e.reshape(o, -1).T @ dout, step["x"].shape, kh, kw)
    return grads
