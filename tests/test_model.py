"""Forward/backward correctness for the dense/conv networks."""

import conv_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprune import checkpoint, model, trainer
from rankprune.model import Batch, ConfigurationError, InvalidStateError, MaskedTensor


def naive_dense(x, w, b):
    out = np.zeros((x.shape[0], w.shape[0]))
    for i in range(x.shape[0]):
        for o in range(w.shape[0]):
            out[i, o] = np.dot(w[o], x[i]) + b[o]
    return out


def naive_conv_same(x, w, b):
    """Direct nested-loop stride-1 same-padding convolution (oracle)."""
    bsz, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((bsz, o, h, wd))
    for n in range(bsz):
        for f in range(o):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                ii, jj = i + di - top, j + dj - left
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += w[f, ci, di, dj] * x[n, ci, ii, jj]
                    out[n, f, i, j] = acc + b[f]
    return out


class TestReshape:
    def test_dense_is_identity(self):
        net = model.build_network(3, [("dense", 4)], 2, seed=0)
        layer = net.layers[0]
        np.testing.assert_array_equal(model.reshape_to_matrix(layer), layer.params.effective())

    def test_conv_1x1(self):
        net = model.build_network((3, 2, 2), [("conv2d", 2, 1, 1)], 2, seed=0)
        layer = net.layers[0]
        mat = model.reshape_to_matrix(layer)
        assert mat.shape == (2, 3)
        np.testing.assert_array_equal(mat, layer.params.effective().reshape(2, 3))

    def test_round_trip_exhaustive(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 2, 3, 3))
        layer = model.Layer(MaskedTensor(w, np.ones_like(w)), np.zeros(4))
        mat = model.reshape_to_matrix(layer)
        assert np.array_equal(mat.reshape(w.shape), w)
        # index map: mat[o, c*9 + i*3 + j] == w[o, c, i, j]
        for o in range(4):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        assert mat[o, c * 9 + i * 3 + j] == w[o, c, i, j]


class TestForward:
    def test_identity_layer(self):
        net = model.build_network(3, [], 3, seed=0)
        net.layers[0].params.weight = np.eye(3)
        net.layers[0].bias = np.zeros(3)
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        logits, _ = model.forward(net, Batch(x, np.array([0, 1])))
        np.testing.assert_allclose(logits, x)

    def test_fully_pruned_depends_on_survivor_only(self):
        net = model.build_network(3, [], 3, seed=1)
        mask = np.zeros((3, 3))
        mask[0, 0] = 1.0
        net.layers[0].params.set_mask(mask)
        x1 = np.array([[1.0, 2.0, 3.0]])
        x2 = np.array([[1.0, -9.0, 70.0]])  # differs only in masked-out inputs
        l1, _ = model.forward(net, Batch(x1, np.array([0])))
        l2, _ = model.forward(net, Batch(x2, np.array([0])))
        np.testing.assert_allclose(l1, l2)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(2)
        net = model.build_network((2, 5, 5), [("conv2d", 3, 3, 3), ("dense", 7)], 4, seed=3)
        for l in net.layers:
            m = (rng.random(l.params.weight.shape) < 0.8).astype(float)
            m.ravel()[0] = 1.0
            l.params.set_mask(m)
            l.bias = rng.normal(size=l.bias.shape)
        x = rng.normal(size=(4, 2, 5, 5))
        logits, _ = model.forward(net, Batch(x, np.zeros(4, dtype=int)))

        h = naive_conv_same(x, net.layers[0].params.effective(), net.layers[0].bias)
        h = np.maximum(h, 0.0)
        h = h.reshape(4, -1)
        h = naive_dense(h, net.layers[1].params.effective(), net.layers[1].bias)
        h = np.maximum(h, 0.0)
        expected = naive_dense(h, net.layers[2].params.effective(), net.layers[2].bias)
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_relu_follows_every_layer_but_the_last(self):
        # built by hand, as tests/test_sparsity.py::toy_network builds one
        rng = np.random.default_rng(7)
        w0, b0, w1, b1 = rng.normal(size=(6, 4)), rng.normal(size=6), rng.normal(size=(3, 6)), rng.normal(size=3)
        layers = [
            model.Layer(params=MaskedTensor(w, np.ones_like(w)), bias=b)
            for w, b in ((w0, b0), (w1, b1))
        ]
        net = model.Network(layers=layers)
        x, labels = rng.normal(size=(5, 4)), np.array([0, 1, 2, 0, 1])
        logits, cache = model.forward(net, Batch(x, labels))
        pre0 = x @ w0.T + b0
        assert (pre0 < 0).any() and (logits < 0).any()  # both rules are exercised
        np.testing.assert_array_equal(logits, np.maximum(pre0, 0.0) @ w1.T + b1)

        dout = model.loss_and_dout(logits, labels)[1]
        (dw0, db0), (dw1, db1) = model.backward(net, cache, dout)
        np.testing.assert_array_equal(dw1, dout.T @ np.maximum(pre0, 0.0))
        np.testing.assert_array_equal(db1, dout.sum(axis=0))
        dpre0 = (dout @ w1) * (pre0 > 0.0)
        np.testing.assert_array_equal(dw0, dpre0.T @ x)
        np.testing.assert_array_equal(db0, dpre0.sum(axis=0))

    def test_relu_in_place_keeps_the_backward_mask(self):
        # a hidden layer's cached pre is its activation, and backward's mask on
        # it has the bits of dout * (pre-activation > 0.0)
        rng = np.random.default_rng(8)
        w0, w1 = rng.normal(size=(8, 4)), rng.normal(size=(3, 8))
        w0[:4] = 0.0  # units 0-3: each pre-activation is the bias, +0.0 plus it
        b0 = np.array([-1.5, np.nan, 2.0, -0.0, 0.5, -0.5, 0.0, 0.0])
        layers = [
            model.Layer(params=MaskedTensor(w, np.ones_like(w)), bias=b)
            for w, b in ((w0, b0), (w1, np.zeros(3)))
        ]
        net = model.Network(layers=layers)
        x, labels = rng.normal(size=(6, 4)), np.array([0, 1, 2, 0, 1, 2])
        pre0 = x @ w0.T + b0
        assert np.isnan(pre0).any() and (pre0 < 0).any() and (pre0 == 0).any() and (pre0 > 0).any()
        _, cache = model.forward(net, Batch(x, labels))

        dout = rng.normal(size=(6, 3))  # finite, though the NaN unit makes the logits NaN
        dw0, db0 = model.backward(net, cache, dout)[0]
        dpre0 = (dout @ w1) * (pre0 > 0.0)
        assert same_bits(dw0, dpre0.T @ x) and same_bits(db0, dpre0.sum(axis=0))
        # a GEMM plus bias sums from +0.0, so -0.0 never reaches the ReLU
        # above; the in-place ReLU that forward runs keeps the mask there too
        p = np.array([-0.0, 0.0, -1.5, np.nan, -np.inf, 2.0, 5e-324, -5e-324])
        relu = p.copy()
        np.maximum(relu, 0.0, out=relu)
        assert same_bits(relu > 0.0, p > 0.0)

    def test_shape_mismatch_is_config_error(self):
        net = model.build_network(3, [("dense", 4)], 2, seed=0)
        with pytest.raises(ConfigurationError):
            model.forward(net, Batch(np.ones((2, 5)), np.array([0, 1])))

    def test_effective_weight_contract(self):
        # a value written at a masked position never changes outputs
        rng = np.random.default_rng(4)
        net = model.build_network(6, [("dense", 5)], 3, seed=5)
        mask = (rng.random((5, 6)) < 0.5).astype(float)
        mask[0, 0] = 1.0
        net.layers[0].params.mask = mask
        x = rng.normal(size=(3, 6))
        batch = Batch(x, np.array([0, 1, 2]))
        before, _ = model.forward(net, batch)
        net.layers[0].params.weight = net.layers[0].params.weight + (1.0 - mask) * rng.normal(size=mask.shape)
        net.touch()
        after, _ = model.forward(net, batch)
        np.testing.assert_array_equal(before, after)

    def test_forward_deterministic(self):
        x = np.random.default_rng(6).normal(size=(3, 4))
        batch = Batch(x, np.array([0, 1, 0]))
        n1 = model.build_network(4, [("dense", 6)], 3, seed=9)
        n2 = model.build_network(4, [("dense", 6)], 3, seed=9)
        l1, _ = model.forward(n1, batch)
        l2, _ = model.forward(n2, batch)
        assert np.array_equal(l1, l2)


def task_loss(logits, labels):
    return model.loss_and_dout(logits, labels)[0]


def task_grads(net, batch):
    """backward's gradients for one forward on batch, from loss_and_dout's dout."""
    logits, cache = model.forward(net, batch)
    return model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])


class TestTaskLoss:
    def test_uniform_softmax(self):
        assert task_loss(np.array([[0.0, 0.0]]), np.array([0])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_confident_margin_limit(self):
        losses = [
            task_loss(np.array([[m, 0.0, 0.0]]), np.array([0])) for m in (1, 5, 20)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-8

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(16, 5)) * 8
        labels = rng.integers(0, 5, 16)
        expected = 0.0
        for i in range(16):
            z = logits[i]
            expected += np.log(np.sum(np.exp(z - z.max()))) + z.max() - z[labels[i]]
        expected /= 16
        assert task_loss(logits, labels) == pytest.approx(expected, abs=1e-12)


class TestBackward:
    def test_zero_gradient_at_optimum(self):
        # one weight, one sample, perfectly separable: shift logits to optimum
        net = model.build_network(2, [], 2, seed=8)
        net.layers[0].params.weight = np.array([[40.0, 0.0], [0.0, 40.0]])
        x = np.array([[1.0, 0.0]])
        grads = task_grads(net, Batch(x, np.array([0])))
        assert np.max(np.abs(grads[0][0])) < 1e-12

    def test_finite_differences_all_positions(self):
        rng = np.random.default_rng(9)
        arch = ((1, 4, 4), [("conv2d", 2, 3, 3), ("conv2d", 2, 3, 3), ("dense", 6)], 3)
        net = model.build_network(*arch, seed=10)
        for l in net.layers:
            m = (rng.random(l.params.weight.shape) < 0.7).astype(float)
            m.ravel()[0] = 1.0
            l.params.set_mask(m)
            # nonzero biases keep pre-activations away from the ReLU kink,
            # where central differences would straddle the nondifferentiability
            l.bias = rng.normal(size=l.bias.shape) * 0.1
        assert net.total_weights() <= 2000
        x = rng.normal(size=(3, 1, 4, 4))
        labels = rng.integers(0, 3, 3)
        batch = Batch(x, labels)
        grads = task_grads(net, batch)

        effs = [l.params.effective() for l in net.layers]

        def loss_at(layer_idx, pos, delta):
            twin = model.build_network(*arch, seed=10)
            for tl, e in zip(twin.layers, effs):
                tl.params.weight = e.copy()
                tl.params.mask = np.ones_like(e)
            for tl, orig in zip(twin.layers, net.layers):
                tl.bias = orig.bias.copy()
            twin.layers[layer_idx].params.weight[pos] += delta
            lg, _ = model.forward(twin, batch)
            return task_loss(lg, labels)

        eps = 1e-6
        rng2 = np.random.default_rng(11)
        for li, layer in enumerate(net.layers):
            dw = grads[li][0]
            # spot-check 25 coordinates per layer, active and masked alike
            flat_positions = rng2.choice(dw.size, size=min(25, dw.size), replace=False)
            for fp in flat_positions:
                pos = np.unravel_index(fp, dw.shape)
                fd = (loss_at(li, pos, eps) - loss_at(li, pos, -eps)) / (2 * eps)
                assert fd == pytest.approx(dw[pos], rel=1e-4, abs=1e-9)

    def test_masked_gradient_equals_full_mask_twin(self):
        rng = np.random.default_rng(12)
        net = model.build_network(5, [("dense", 4)], 3, seed=13)
        mask = (rng.random((4, 5)) < 0.5).astype(float)
        mask[0, 0] = 1.0
        net.layers[0].params.set_mask(mask)

        twin = model.build_network(5, [("dense", 4)], 3, seed=13)
        for tl, orig in zip(twin.layers, net.layers):
            tl.params.weight = orig.params.effective().copy()
            tl.params.mask = np.ones_like(tl.params.weight)
            tl.bias = orig.bias.copy()

        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 3, 6)
        g = task_grads(net, Batch(x, labels))
        tg = task_grads(twin, Batch(x, labels))
        for (dw, db), (tdw, tdb) in zip(g, tg):
            np.testing.assert_allclose(dw, tdw, atol=1e-12)
            np.testing.assert_allclose(db, tdb, atol=1e-12)

    def test_passed_dout_gives_identical_gradients(self):
        rng = np.random.default_rng(19)
        net = model.build_network(5, [("dense", 4)], 3, seed=20)
        batch = Batch(rng.normal(size=(6, 5)), rng.integers(0, 3, 6))
        logits, cache = model.forward(net, batch)
        passed = model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])
        # the reference backward takes the labels and computes dout itself
        ref_cache = ref.forward(net, batch)[1]
        for (dw, db), (tdw, tdb) in zip(passed, ref.backward(net, ref_cache, batch.labels)):
            np.testing.assert_array_equal(dw, tdw)
            np.testing.assert_array_equal(db, tdb)

    def test_backward_consumes_its_cache(self):
        net = model.build_network((1, 4, 4), [("conv2d", 2, 3, 3), ("dense", 5)], 3, seed=21)
        batch = Batch(np.random.default_rng(22).normal(size=(3, 1, 4, 4)), np.array([0, 1, 2]))
        logits, cache = model.forward(net, batch)
        dout = model.loss_and_dout(logits, batch.labels)[1]
        model.backward(net, cache, dout)
        assert not any(isinstance(v, (np.ndarray, list, dict)) for v in cache.values())
        with pytest.raises(InvalidStateError, match="cache was already consumed"):
            model.backward(net, cache, dout)

    def test_stale_cache_rejected(self):
        net = model.build_network(3, [("dense", 4)], 2, seed=14)
        batch = Batch(np.ones((2, 3)), np.array([0, 1]))
        logits, cache = model.forward(net, batch)
        net.layers[0].params.weight *= 1.1
        net.touch()
        with pytest.raises(InvalidStateError):
            model.backward(net, cache, model.loss_and_dout(logits, batch.labels)[1])

    def test_bias_gradients_included(self):
        rng = np.random.default_rng(15)
        net = model.build_network(4, [("dense", 3)], 2, seed=16)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, 5)
        grads = task_grads(net, Batch(x, labels))
        eps = 1e-6
        for li, layer in enumerate(net.layers):
            for j in range(layer.bias.shape[0]):
                layer.bias[j] += eps
                net.touch()
                lp, _ = model.forward(net, Batch(x, labels))
                layer.bias[j] -= 2 * eps
                net.touch()
                lm, _ = model.forward(net, Batch(x, labels))
                layer.bias[j] += eps
                net.touch()
                fd = (task_loss(lp, labels) - task_loss(lm, labels)) / (2 * eps)
                assert fd == pytest.approx(grads[li][1][j], rel=1e-4, abs=1e-9)



@pytest.mark.parametrize(
    "arch",
    [((6,), [("dense", 5), ("dense", 4)], 3), ((2, 5, 5), [("conv2d", 3, 3, 3), ("conv2d", 4, 3, 3), ("dense", 6)], 3)],
    ids=["dense", "conv"],
)
def test_cache_holds_each_array_once(arch):
    # a cache step keeps only what backward reads; the weights it reads from net
    net = model.build_network(*arch, seed=23)
    rng = np.random.default_rng(24)
    batch = Batch(rng.normal(size=(4, *arch[0])), rng.integers(0, 3, 4))
    logits, cache = model.forward(net, batch)
    steps = cache["steps"]
    for layer, step in zip(net.layers, steps):
        assert step.keys() == ({"x", "cols", "pre"} if layer.params.weight.ndim == 4 else {"x", "pre"})
    assert steps[-1]["pre"] is logits
    # a hidden layer's pre is its activation, the next layer's input, unless
    # the flatten into a dense layer copies it
    for step, after in zip(steps, steps[1:]):
        flatten = step["pre"].ndim == 4 and after["x"].ndim == 2
        assert np.shares_memory(step["pre"], after["x"]) != flatten
    dout = model.loss_and_dout(logits, batch.labels)[1]
    given = dout.copy()
    model.backward(net, cache, dout)
    assert same_bits(dout, given)


KERNELS = [(1, 1), (3, 3), (5, 5), (3, 5), (2, 2)]
REFERENCE_CASES = [
    ((3, 9, 7), convs, kernel, batch)
    for kernel in KERNELS
    for convs in ((4, 6), (4,))  # conv -> conv -> dense head, conv -> dense head
    for batch in (1, 32)
] + [((1, 12, 12), (8, 16), (3, 3), 32)] + [
    # a flat shift of the whole plane wraps into the next row or image at an
    # edge: kernels larger than the image, one-pixel rows or columns, even kernels
    (input_shape, convs, kernel, batch)
    for input_shape, convs, kernel in (
        ((2, 2, 3), (4, 6), (5, 5)),
        ((2, 1, 1), (4,), (3, 3)),
        ((2, 1, 7), (4, 6), (3, 3)),
        ((2, 6, 1), (4, 6), (3, 3)),
        ((3, 5, 6), (4, 6), (4, 2)),
    )
    for batch in (1, 32)
]


def reference_case(input_shape, convs, kernel, batch, seed=0):
    """A masked network with a dead filter and a dead input channel in every
    conv layer, and one random batch."""
    rng = np.random.default_rng(seed)
    specs = [("conv2d", out, *kernel) for out in convs]
    net = model.build_network(input_shape, specs, 5, seed=seed)
    for layer in net.layers:
        m = (rng.random(layer.params.weight.shape) < 0.7).astype(float)
        if m.ndim == 4:
            m[0] = 0.0
            if m.shape[1] > 1:
                m[:, -1] = 0.0
        layer.params.set_mask(m)
        layer.bias = rng.normal(size=layer.bias.shape) * 0.1
    return net, Batch(rng.normal(size=(batch, *input_shape)), rng.integers(0, 5, batch))


class TestMatchesReference:
    """The (c, b, h, w) conv layout gives the bits of the NCHW reference."""

    @pytest.mark.parametrize("input_shape,convs,kernel,batch", REFERENCE_CASES)
    def test_logits_and_gradients_bitwise(self, input_shape, convs, kernel, batch):
        net, batch_ = reference_case(input_shape, convs, kernel, batch)
        logits, cache = model.forward(net, batch_)
        ref_logits, ref_cache = ref.forward(net, batch_)
        np.testing.assert_array_equal(logits, ref_logits)
        grads = model.backward(net, cache, model.loss_and_dout(logits, batch_.labels)[1])
        for (dw, db), (ref_dw, ref_db) in zip(grads, ref.backward(net, ref_cache, batch_.labels)):
            np.testing.assert_array_equal(dw, ref_dw)
            np.testing.assert_array_equal(db, ref_db)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_patch_matrix_has_one_layout(self, batch):
        # every conv GEMM reads the patch matrix as _im2col returns it
        for input_shape, convs, kernel, _ in REFERENCE_CASES:
            net, batch_ = reference_case(input_shape, convs, kernel, batch)
            _, cache = model.forward(net, batch_)
            h, w = input_shape[1:]
            for step in cache["steps"]:
                if "cols" in step:
                    c = step["x"].shape[0]
                    assert step["cols"].shape == (c * kernel[0] * kernel[1], batch * h * w)
                    assert step["cols"].flags.c_contiguous

    @pytest.mark.parametrize("input_shape,convs,kernel,batch", REFERENCE_CASES)
    def test_backward_leaves_cache_unchanged(self, input_shape, convs, kernel, batch):
        # _col2im zeroes strips of the patch gradient in place, never of a cached
        # array; backward lets go of the cache, so the test holds each array itself
        net, batch_ = reference_case(input_shape, convs, kernel, batch)
        logits, cache = model.forward(net, batch_)
        held = [dict(step) for step in cache["steps"]]
        assert len(held) == len(net.layers)
        before = [{k: v.copy() for k, v in step.items()} for step in held]
        model.backward(net, cache, model.loss_and_dout(logits, batch_.labels)[1])
        for step, saved in zip(held, before):
            assert step.keys() == saved.keys()
            for k in step:
                assert same_bits(step[k], saved[k]), k


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def patch_kernel_shapes(seed):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(v) for v in rng.integers(1, [4, 4, 8, 8, 7, 7])) for _ in range(50)]
    if seed == 0:  # one large patch matrix, 5.3 MB
        shapes.append((8, 64, 12, 12, 3, 3))
    return rng, shapes


@pytest.mark.parametrize("seed", range(4))
def test_patch_kernels_match_reference_bitwise(seed):
    """_im2col and _col2im on (c, b, h, w) give the bits, signed zeros included,
    of the reference's padded NCHW kernels on the same shapes."""
    rng, shapes = patch_kernel_shapes(seed)
    for c, b, h, w, kh, kw in shapes:
        x, d = (
            rng.normal(size=shape) * rng.choice([-0.0, 0.0, 1.0], size=shape, p=[0.2, 0.2, 0.6])
            for shape in ((b, c, h, w), (b * h * w, c * kh * kw))
        )
        expected = ref._im2col(x, kh, kw).T, ref._col2im(d, (b, c, h, w), kh, kw)
        assert same_bits(model._im2col(x.swapaxes(0, 1), kh, kw), expected[0]), (c, b, h, w, kh, kw)
        dx = model._col2im(np.ascontiguousarray(d.T), (c, b, h, w), kh, kw)
        assert same_bits(dx.swapaxes(0, 1), expected[1]), (c, b, h, w, kh, kw)


@pytest.mark.parametrize("seed", range(4))
def test_col2im_is_adjoint_of_im2col(seed):
    # <im2col(x), D> = <x, col2im(D)>, whatever the orientation of either kernel's GEMMs
    rng, shapes = patch_kernel_shapes(seed)
    for c, b, h, w, kh, kw in shapes:
        x = rng.normal(size=(c, b, h, w))
        d = rng.normal(size=(c * kh * kw, b * h * w))
        lhs = np.vdot(model._im2col(x, kh, kw), d)
        rhs = np.vdot(x, model._col2im(d.copy(), x.shape, kh, kw))
        assert lhs == pytest.approx(rhs, rel=1e-12), (c, b, h, w, kh, kw)


STORED_ARCH = ((1, 4, 4), [("conv2d", 2, 3, 3), ("dense", 5)], 3)


def assert_stored_is_effective(net):
    for layer in net.layers:
        p = layer.params
        assert p.effective() is p.weight
        assert not p.weight[p.mask == 0.0].any(), layer.name


def random_mask(rng, shape):
    m = (rng.random(shape) < 0.5).astype(float)
    m.ravel()[0] = 1.0
    return m


def donor_state(rng):
    """A checkpoint state of the same architecture, its masked entries zero."""
    net = model.build_network(*STORED_ARCH, seed=int(rng.integers(100)))
    opt = trainer.OptimizerState.zeros_like(net)
    for layer, buf in zip(net.layers, opt.weight_buffers):
        layer.params.mask = random_mask(rng, buf.shape)
        buf += rng.normal(size=buf.shape) * layer.params.mask
    return checkpoint.state_from(net, opt, 1, bytes(32))


class TestStoredWeightIsEffective:
    """MaskedTensor keeps the stored weight at zero wherever the mask is 0, so
    effective() can return it without forming weight * mask."""

    OPS = ("weight", "mask", "set_mask", "sgd_step", "restore_into")

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)), max_size=10))
    def test_any_sequence_keeps_masked_weights_zero(self, ops):
        net = model.build_network(*STORED_ARCH, seed=1)
        opt = trainer.OptimizerState.zeros_like(net)
        assert_stored_is_effective(net)
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            layer = net.layers[int(rng.integers(len(net.layers)))]
            shape = layer.params.weight.shape
            if op == "weight":
                layer.params.weight = rng.normal(size=shape)
            elif op in ("mask", "set_mask"):
                if op == "mask":
                    layer.params.mask = random_mask(rng, shape)
                else:
                    layer.params.set_mask(random_mask(rng, shape))
                opt.mask_pruned(net)  # as train does after every mask update
            elif op == "sgd_step":
                grads = [(rng.normal(size=l.params.weight.shape), rng.normal(size=l.bias.shape)) for l in net.layers]
                trainer.sgd_step(net, grads, opt, 0.1, 0.9, 0.01)
            else:
                state = donor_state(rng)
                checkpoint.restore_into(state, net, opt)
                for i, l in enumerate(net.layers):
                    assert np.array_equal(l.params.weight, state.tensors[f"layer{i}.weight"])
                    assert np.array_equal(l.params.mask, state.tensors[f"layer{i}.mask"])
            net.touch()
            assert_stored_is_effective(net)

    def test_restore_into_keeps_the_arrays_state_from_handed_out(self):
        rng = np.random.default_rng(2)
        net = model.build_network(*STORED_ARCH, seed=1)
        opt = trainer.OptimizerState.zeros_like(net)
        live = checkpoint.state_from(net, opt, 0, bytes(32)).tensors
        state = donor_state(rng)
        checkpoint.restore_into(state, net, opt)
        for i, l in enumerate(net.layers):
            assert l.params.weight is live[f"layer{i}.weight"]
            assert np.array_equal(l.params.weight, state.tensors[f"layer{i}.weight"])

    def test_constructor_and_weight_setter_leave_the_callers_array(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 5))
        m = random_mask(rng, w.shape)
        before = w.copy()
        params = MaskedTensor(w, m)
        assert same_bits(w, before) and params.weight is not w
        assert same_bits(params.weight, w * m)
        params.weight = w
        assert same_bits(w, before) and params.weight is not w

    def test_shape_mismatch_rejected(self):
        params = MaskedTensor(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="weight shape"):
            params.weight = np.ones(3)
        with pytest.raises(ValueError, match="mask shape"):
            params.mask = np.ones(3)

    def test_backward_refuses_a_cache_from_before_sgd_step(self):
        # backward reads the stored weights, which sgd_step updates in place
        net = model.build_network(*STORED_ARCH, seed=4)
        batch = Batch(np.random.default_rng(5).normal(size=(2, 1, 4, 4)), np.array([0, 2]))
        # a second cache that no backward consumes, so only staleness can refuse it
        logits, kept = model.forward(net, batch)
        grads = task_grads(net, batch)
        trainer.sgd_step(net, grads, trainer.OptimizerState.zeros_like(net), 0.1, 0.9, 0.0)
        with pytest.raises(InvalidStateError, match="stale"):
            model.backward(net, kept, model.loss_and_dout(logits, batch.labels)[1])


def old_loss_and_dout(logits, labels):
    """loss_and_dout as it read before it took its loss as sum / n in place."""
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    probs = np.exp(logp)
    probs[rows, labels] -= 1.0
    return float(-np.mean(logp[rows, labels])), probs / len(labels)


def old_accuracy(logits, labels):
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


@pytest.mark.parametrize("seed", range(20))
def test_loss_and_accuracy_match_the_old_formulas_bitwise(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 70)), int(rng.integers(2, 12))
    logits = rng.normal(size=(n, k)) * float(rng.choice([1e-3, 1.0, 30.0, 700.0]))
    logits[rng.random((n, k)) < 0.1] = 0.0
    labels = rng.integers(0, k, n)
    loss, dout = model.loss_and_dout(logits, labels)
    want_loss, want_dout = old_loss_and_dout(logits, labels)
    assert type(loss) is float and same_bits(np.float64(loss), np.float64(want_loss))
    assert same_bits(dout, want_dout) and dout.dtype == want_dout.dtype
    acc = model.accuracy(logits, labels)
    assert type(acc) is float and repr(acc) == repr(old_accuracy(logits, labels))
