"""Binary checkpoint round-trips and corruption handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_trainer import traced_peak

from rankprune import checkpoint as ckpt
from rankprune import datasets, model, rank, trainer
from rankprune.rank import RankLossConfig
from rankprune.sparsity import GrowSchedule, SparsitySchedule
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


def test_save_peaks_below_half_the_file(tmp_path):
    # the toy run's tensors, 434 KiB on disk: each is written from its own
    # buffer, not gathered into a copy of the file first
    net = model.build_network(64, [("dense", 128), ("dense", 128)], 10, seed=0)
    state = ckpt.state_from(net, OptimizerState.zeros_like(net), 3000, bytes(32))
    path = tmp_path / "c.bin"
    peak = traced_peak(lambda: ckpt.save_checkpoint(path, state))
    assert ckpt.load_checkpoint(path).tensors.keys() == state.tensors.keys()
    assert peak < path.stat().st_size / 2


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
    "input_shape, specs, names",
    [
        ((6,), [("dense", 5)], ["dense0", "head"]),
        ((2, 4, 4), [("conv2d", 3, 3, 3), ("dense", 5)], ["conv0", "dense1", "head"]),
    ],
    ids=["dense", "conv"],
)
def test_network_from_rebuilds_the_network(input_shape, specs, names):
    net = model.build_network(input_shape, specs, 4, seed=2)
    for layer in net.layers:
        w = layer.params.weight
        layer.params.set_mask(np.arange(w.size).reshape(w.shape) % 3 != 0)
    rebuilt = ckpt.network_from(ckpt.state_from(net, OptimizerState.zeros_like(net), 9, bytes(32)))
    # one naming rule: the built and the rebuilt network name each layer alike
    assert [l.name for l in rebuilt.layers] == [l.name for l in net.layers] == names
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


@pytest.fixture(scope="module")
def real_checkpoint(tmp_path_factory):
    """(path, bytes) of the checkpoint of a trained, pruned conv -> dense network."""
    spec = datasets.SyntheticDatasetSpec(num_classes=3, features=36, samples_per_class=20,
                                         cluster_spread=0.8, seed=2)
    data = datasets.make_blobs(spec)
    data.train_x = data.train_x.reshape(-1, 1, 6, 6)
    data.eval_x = data.eval_x.reshape(-1, 1, 6, 6)
    net = model.build_network((1, 6, 6), [("conv2d", 3, 3, 3), ("dense", 6)], 3, seed=1)
    cfg = trainer.TrainConfig(SparsitySchedule(0.8, 20, 10, 30), GrowSchedule(0.3), RankLossConfig(lam=0.1),
                              batch_size=8)
    res = trainer.train(net, data, cfg)
    path = tmp_path_factory.mktemp("fuzz") / "real.bin"
    ckpt.save_checkpoint(path, ckpt.state_from(res.net, res.optimizer, res.final_step, bytes(32)))
    return path, path.read_bytes()


def analyze_like(path):
    """What `analyze` does with a checkpoint: load, rebuild, one spectrum per layer."""
    net = ckpt.network_from(ckpt.load_checkpoint(path))
    for layer in net.layers:
        rank.layer_spectrum(model.reshape_to_matrix(layer), 0.1)


def assert_fails_only_with_checkpoint_error(path, blob):
    mutant = path.with_name("mutant.bin")
    mutant.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            analyze_like(mutant)
        except ckpt.CheckpointError as exc:
            assert str(exc).startswith(f"{mutant}: ")


def test_real_checkpoint_analyzes(real_checkpoint):
    analyze_like(real_checkpoint[0])


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(min_value=0))
def test_truncated_checkpoint_fails_only_with_checkpoint_error(real_checkpoint, cut):
    path, data = real_checkpoint
    assert_fails_only_with_checkpoint_error(path, data[: cut % len(data)])


@settings(max_examples=600, deadline=None)
@given(bits=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_bit_flipped_checkpoint_fails_only_with_checkpoint_error(real_checkpoint, bits):
    path, data = real_checkpoint
    blob = bytearray(data)
    for bit in bits:
        bit %= 8 * len(blob)
        blob[bit // 8] ^= 1 << (bit % 8)
    assert_fails_only_with_checkpoint_error(path, bytes(blob))


@pytest.mark.parametrize("tensor, value, message", [
    ("layer1.weight", 1e300, "layer1.weight has a Frobenius norm that is not finite"),
    ("layer1.bias", np.nan, "layer1.bias holds entries that are not finite"),
    ("layer0.momentum", -np.inf, "layer0.momentum holds entries that are not finite"),
])
def test_restore_rejects_nonfinite_values(tensor, value, message):
    _, _, state = make_state()
    state.path = "c.bin"
    arr = state.tensors[tensor].copy()
    arr.ravel()[0] = value  # position 0 is active in every mask
    state.tensors[tensor] = arr
    with pytest.raises(ckpt.CheckpointError) as err:
        ckpt.network_from(state)
    assert str(err.value) == f"c.bin: {message}"


def test_undecodable_name_and_too_many_dimensions(tmp_path):
    path = tmp_path / "c.bin"
    ckpt.save_checkpoint(path, ckpt.TrainState(3, bytes(32), {"b\u00e9": np.zeros(2)}))
    data = path.read_bytes()
    path.write_bytes(data.replace("b\u00e9".encode(), b"b\xff\xfe"))
    with pytest.raises(ckpt.CheckpointError, match="a tensor name is not UTF-8"):
        ckpt.load_checkpoint(path)
    ckpt.save_checkpoint(path, ckpt.TrainState(3, bytes(32), {"t": np.zeros((0, 1, 1))}))
    data = bytearray(path.read_bytes())
    header = len(ckpt.MAGIC) + 12 + 32 + 4  # the first tensor's <HBB: name length, dtype code, ndim
    data[header + 3] = 65
    path.write_bytes(bytes(data[: header + 5]) + bytes(4 * 65))  # 65 zero dimensions, no payload
    with pytest.raises(ckpt.CheckpointError, match="tensor 't' of shape"):
        ckpt.load_checkpoint(path)
