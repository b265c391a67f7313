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
