"""Binary checkpoint round-trips and corruption handling."""

import numpy as np
import pytest

from rankprune import checkpoint as ckpt
from rankprune import model
from rankprune.trainer import OptimizerState


def make_net():
    return model.build_network(6, [("dense", 5)], 3, seed=0)


def make_state(step=17):
    net = make_net()
    rng = np.random.default_rng(1)
    for l in net.layers:
        m = (rng.random(l.params.weight.shape) < 0.5).astype(float)
        m.ravel()[0] = 1.0
        l.params.set_mask(m)
        l.bias = rng.normal(size=l.bias.shape)
    opt = OptimizerState.zeros_like(net)
    for buf in opt.weight_buffers:
        buf += rng.normal(size=buf.shape) * (net.layers[0].params.mask if buf.shape == net.layers[0].params.mask.shape else 0)
    digest = bytes(range(32))
    return net, opt, ckpt.state_from(net, opt, step, digest)


def test_save_load_round_trip_bitwise(tmp_path):
    net, opt, state = make_state()
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    loaded = ckpt.load_checkpoint(path)
    assert loaded.step == state.step
    assert loaded.config_digest == state.config_digest
    assert set(loaded.tensors) == set(state.tensors)
    for name, arr in state.tensors.items():
        got = loaded.tensors[name]
        assert got.dtype == np.asarray(arr).dtype
        assert np.array_equal(got, arr)


def test_restore_into_reproduces_training_state(tmp_path):
    net, opt, state = make_state(step=23)
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)

    net2 = make_net()
    opt2 = OptimizerState.zeros_like(net2)
    ckpt.restore_into(ckpt.load_checkpoint(path), net2, opt2)
    for a, b in zip(net.layers, net2.layers):
        assert np.array_equal(a.params.weight, b.params.weight)
        assert np.array_equal(a.params.mask, b.params.mask)
        assert np.array_equal(a.bias, b.bias)
    for a, b in zip(opt.weight_buffers, opt2.weight_buffers):
        assert np.array_equal(a, b)


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_version_mismatch(tmp_path):
    net, opt, state = make_state()
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    data = bytearray(path.read_bytes())
    data[8] = 99  # bump the little-endian format version
    path.write_bytes(bytes(data))
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.load_checkpoint(path)
    assert "version" in str(err.value)


def test_truncated_file(tmp_path):
    net, opt, state = make_state()
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    net, opt, state = make_state()
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_shape_mismatch_on_restore(tmp_path):
    net, opt, state = make_state()
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    other = model.build_network(7, [("dense", 5)], 3, seed=0)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.restore_into(ckpt.load_checkpoint(path), other, OptimizerState.zeros_like(other))


@pytest.mark.parametrize(
    "name, tensor",
    [
        ("layer0.mask", np.ones((3, 3), dtype=np.uint8)),
        ("layer0.bias", np.zeros(7)),
        ("layer0.momentum", np.zeros((5, 7))),
        ("layer0.bias_momentum", np.zeros(4)),
    ],
)
def test_restore_rejects_wrong_shape(name, tensor):
    net, opt, state = make_state()
    state.tensors[name] = tensor
    fresh = make_net()
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.restore_into(state, fresh, OptimizerState.zeros_like(fresh))
    assert name in str(err.value)
    assert "shape" in str(err.value)
    # every tensor is checked before any is installed
    for a, b in zip(fresh.layers, make_net().layers):
        assert np.array_equal(a.params.mask, b.params.mask)
        assert np.array_equal(a.bias, b.bias)


def test_restore_rejects_mask_values_outside_0_1():
    net, opt, state = make_state()
    mask = state.tensors["layer0.mask"].copy()
    mask.ravel()[1] = 2
    state.tensors["layer0.mask"] = mask
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.restore_into(state, make_net(), OptimizerState.zeros_like(make_net()))
    assert "layer0.mask" in str(err.value)


def test_restore_rejects_tensor_of_missing_layer():
    net, opt, state = make_state()
    state.tensors["layer9.weight"] = np.zeros((5, 6))
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.restore_into(state, make_net(), OptimizerState.zeros_like(make_net()))
    assert "layer9.weight" in str(err.value)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    _, _, state = make_state(step=5)
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, state)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes the first 100 bytes of a write, then fails."""

        def __init__(self, name, mode):
            self.f = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:100])
            self.f.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(ckpt, "open", DiskFull, raising=False)
    _, _, newer = make_state(step=6)
    with pytest.raises(OSError):
        ckpt.save_checkpoint(path, newer)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


@pytest.mark.parametrize("name", ["layer0.weight", "layer0.momentum"])
def test_restore_rejects_nonzero_at_masked_position(name):
    net, opt, state = make_state()
    pruned = np.flatnonzero(state.tensors["layer0.mask"] == 0)[0]
    tensor = state.tensors[name].copy()
    tensor.ravel()[pruned] = 0.5
    state.tensors[name] = tensor
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.restore_into(state, make_net(), OptimizerState.zeros_like(make_net()))
    assert f"{name} is nonzero where layer0.mask is 0" in str(err.value)


@pytest.mark.parametrize(
    "input_shape, specs",
    [((6,), [("dense", 5)]), ((2, 4, 4), [("conv2d", 3, 3, 3), ("dense", 5)])],
    ids=["dense", "conv"],
)
def test_network_from_rebuilds_the_network(input_shape, specs):
    net = model.build_network(input_shape, specs, 4, seed=2)
    for layer in net.layers:
        w = layer.params.weight
        layer.params.set_mask(np.arange(w.size).reshape(w.shape) % 3 != 0)
    rebuilt = ckpt.network_from(ckpt.state_from(net, OptimizerState.zeros_like(net), 9, bytes(32)))
    assert [l.name for l in rebuilt.layers] == [f"layer{i}" for i in range(len(net.layers))]
    assert [(l.kind, l.activation) for l in rebuilt.layers] == [(l.kind, l.activation) for l in net.layers]
    assert rebuilt.num_classes == net.num_classes
    assert rebuilt.sparsity() == net.sparsity()
    batch = model.Batch(np.random.default_rng(3).random((4, *input_shape)), np.zeros(4, dtype=int))
    assert np.array_equal(model.forward(rebuilt, batch)[0], model.forward(net, batch)[0])


@pytest.mark.parametrize("shape", [(3, 5, 1), (3,), (0, 5)])
def test_network_from_rejects_weight_of_other_shape(shape):
    _, _, state = make_state()
    state.tensors["layer1.weight"] = np.zeros(shape)
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.network_from(state)
    assert f"layer1.weight has shape {shape}" in str(err.value)


def test_network_from_needs_layer_tensors():
    state = ckpt.TrainState(step=0, config_digest=bytes(32), tensors={}, path="empty.bin")
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.network_from(state)
    assert str(err.value) == "empty.bin: no layer tensors found"
