"""Reference forward and backward with activations in (b, c, h, w) layout.

They lower each convolution with a padded NCHW input and a (b*h*w, c*kh*kw)
patch matrix, as rankprune.model did before it kept conv activations channels
first. Each GEMM is stated in rankprune.model's orientation, on operands stored
as it stores them (the patch matrix (c*kh*kw, b*h*w) C-contiguous, the output
gradient (o, b*h*w) C-contiguous), since BLAS's summation order depends on
both; the tests require the same logits, gradients and training bytes from
both.
"""

import numpy as np

from rankprune import model, trainer
from rankprune.model import ConfigurationError, InvalidStateError, loss_and_dout


def _pad_same(x, kh, kw):
    top, left = (kh - 1) // 2, (kw - 1) // 2
    bottom, right = kh - 1 - top, kw - 1 - left
    return np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))


def _im2col(x, kh, kw):
    """(b, c, h, w) -> (b*h*w, c*kh*kw) patches for stride-1 same conv."""
    b, c, h, w = x.shape
    xp = _pad_same(x, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w, c * kh * kw)
    return np.ascontiguousarray(patches)


def _col2im(cols, x_shape, kh, kw):
    """Scatter-add patch gradients back to the (padded, then cropped) input."""
    b, c, h, w = x_shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((b, c, h + kh - 1, w + kw - 1))
    cols = cols.reshape(b, h, w, c, kh, kw)
    for di in range(kh):
        for dj in range(kw):
            xp[:, :, di : di + h, dj : dj + w] += cols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return xp[:, :, top : top + h, left : left + w]


def forward(net, batch):
    x = np.asarray(batch.inputs, dtype=np.float64)
    steps = []
    for idx, layer in enumerate(net.layers):
        e = layer.params.effective()
        if e.ndim == 2:
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            if x.shape[1] != e.shape[1]:
                raise ConfigurationError(
                    f"layer {layer.name}: input width {x.shape[1]} != fan-in {e.shape[1]}"
                )
            pre = x @ e.T + layer.bias
            step = {"x": x, "e": e, "pre": pre}
        elif e.ndim == 4:
            if x.ndim != 4:
                raise ConfigurationError(
                    f"layer {layer.name}: conv2d needs (b, c, h, w) input, got {x.shape}"
                )
            o, c, kh, kw = e.shape
            if x.shape[1] != c:
                raise ConfigurationError(f"layer {layer.name}: input channels {x.shape[1]} != {c}")
            b, _, h, w = x.shape
            cols = np.ascontiguousarray(_im2col(x, kh, kw).T)
            pre = (e.reshape(o, -1) @ cols + layer.bias[:, None]).reshape(o, b, h, w).transpose(1, 0, 2, 3)
            step = {"x": x, "e": e, "cols": cols, "pre": pre}
        else:
            raise ConfigurationError(f"layer {layer.name}: weight shape {e.shape} is neither dense nor conv2d")
        x = np.maximum(pre, 0.0) if idx < len(net.layers) - 1 else pre
        step["out"] = x
        steps.append(step)
    logits = x
    num_classes = net.layers[-1].params.weight.shape[0]
    if logits.ndim != 2 or logits.shape[1] != num_classes:
        raise ConfigurationError(f"logits shape {logits.shape} does not match {num_classes} classes")
    return logits, {"steps": steps, "version": net.version, "net_id": id(net)}


def backward(net, cache, labels, dout=None):
    if cache.get("net_id") != id(net) or cache.get("version") != net.version:
        raise InvalidStateError("cache is stale: parameters changed since forward")
    steps = cache["steps"]
    if dout is None:
        dout = loss_and_dout(steps[-1]["out"], labels)[1]
    grads = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        step = steps[idx]
        if idx < len(net.layers) - 1:
            dout = dout * (step["pre"] > 0.0)
        e = step["e"]
        if e.ndim == 2:
            dw = dout.T @ step["x"]
            db = dout.sum(axis=0)
        else:
            o, c, kh, kw = e.shape
            dout = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(o, -1)
            dw = (dout @ step["cols"].T).reshape(o, c, kh, kw)
            db = dout.sum(axis=1)
        grads[idx] = (dw, db)
        if idx == 0:
            break
        if e.ndim == 2:
            dout = (dout @ e).reshape(steps[idx - 1]["out"].shape)
        else:
            dout = _col2im((e.reshape(o, -1).T @ dout).T, step["x"].shape, kh, kw)
    return grads


def install(monkeypatch):
    """Make rankprune.model and the trainer's forward/backward these reference
    versions; the trainer hands backward the logit gradient, not the labels."""
    for module in (model, trainer):
        monkeypatch.setattr(module, "forward", forward)
        monkeypatch.setattr(module, "backward", lambda net, cache, dout: backward(net, cache, None, dout))
