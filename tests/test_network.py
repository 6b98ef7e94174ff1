import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

import pau
from pau import network
from pau.network import (Activation, Baseline, Conv2d, Dense, Flatten, MaxPool,
                         Network, Softmax, StaleTraceError, build_network,
                         lenet_spec, load_checkpoint, mlp_spec, param_count,
                         save_checkpoint, vgg8_spec)
from pau.rational import backward_pau, eval_pau_stacked, sample_noisy_coeffs
from pau.gradcheck import network_fd_gradients
from pau.train import SHARD_SAMPLES, nll_loss


def toy_net(seed=0):
    return build_network([Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
                         seed=seed)


class TestBuild:
    def test_lenet_counts(self):
        net = build_network(lenet_spec(), input_shape=(1, 32, 32))
        assert param_count(net) == (61746, 40)
        assert len(net.pau_units) == 4

    def test_vgg8_counts(self):
        net = build_network(vgg8_spec(), input_shape=(1, 32, 32))
        assert param_count(net) == (9224508, 50)
        assert len(net.pau_units) == 5

    def test_mlp_pau_count(self):
        net = build_network(mlp_spec((784, 128, 10)))
        total, pau_params = param_count(net)
        assert pau_params == 10
        assert total == 784 * 128 + 128 + 128 * 10 + 10 + 10

    def test_frozen_units_excluded_from_counts(self):
        net = build_network(mlp_spec((784, 128, 10)), trainable_units=False)
        total, pau_params = param_count(net)
        assert pau_params == 0
        assert total == 784 * 128 + 128 + 128 * 10 + 10

    def test_empty_network(self):
        net = build_network([], input_shape=(5,))
        assert param_count(net) == (0, 0)

    def test_same_seed_bit_identical(self):
        a = build_network(mlp_spec((20, 8, 4)), seed=11)
        b = build_network(mlp_spec((20, 8, 4)), seed=11)
        for i in a.parametric_indices():
            assert np.array_equal(a.weights[i]["W"], b.weights[i]["W"])
            assert np.array_equal(a.weights[i]["b"], b.weights[i]["b"])

    def test_weight_init_fan_in_bounds(self):
        net = build_network(mlp_spec((100, 30, 4)), seed=0)
        s = np.sqrt(1.0 / 100)
        W = net.weights[0]["W"]
        assert np.all(np.abs(W) <= s)
        assert not net.weights[0]["b"].any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="Dense expects"):
            build_network([Dense(4, 3), Dense(4, 2)], input_shape=(4,))
        with pytest.raises(ValueError, match="Conv2d expects"):
            build_network([Conv2d(3, 8, 3)], input_shape=(1, 8, 8))

    @pytest.mark.parametrize("make,message", [
        (lambda: Dense(0, 3), "Dense in_dim must be an integer >= 1, got 0"),
        (lambda: Conv2d(1, 2, 2.5), "Conv2d kernel must be an integer >= 1, got 2.5"),
        (lambda: Conv2d(1, 2, 3, padding=-1), "Conv2d padding must be an integer >= 0, got -1"),
        (lambda: MaxPool(0), "MaxPool window must be an integer >= 1, got 0"),
        (lambda: MaxPool(2, stride=0), "MaxPool stride must be an integer >= 1, got 0"),
        (lambda: Network([Dense(4, 2), Softmax()], (4,),
                         [{"W": np.zeros((2, 4)), "b": np.zeros(2)}, None], [], 0),
         "layer 0 (Dense) has weights {'W': (2, 4), 'b': (2,)}, "
         "its spec needs {'W': (4, 2), 'b': (2,)}"),
        (lambda: build_network([Conv2d(1, 2, 5)], input_shape=(1, 3, 3)),
         "Conv2d kernel 5 too large for (1, 3, 3)"),
        (lambda: build_network([Conv2d(1, 1, 1), MaxPool(4)], input_shape=(1, 3, 3)),
         "MaxPool window 4 too large for (1, 3, 3)"),
        (lambda: build_network([Dense(4, 4), MaxPool(2)], input_shape=(4,)),
         "MaxPool expects (C,H,W), got (4,)"),
        (lambda: Network([Dense(4, 2), Softmax()], (4,),
                         [{"W": np.zeros((4, 2)), "b": np.zeros(2)}], [], 0),
         "1 weight entries for 2 layers"),
        (lambda: build_network([Conv2d(1, 2, 3)]),
         "input_shape is required for convolutional specs"),
    ], ids=["dense-dim", "conv-kernel", "conv-padding", "pool-window", "pool-stride",
            "weight-shape", "conv-kernel-past-input", "pool-window-past-input",
            "pool-input-not-chw", "weight-entries", "conv-without-input-shape"])
    def test_layer_sizes_checked(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_unit_settings_checked(self):
        with pytest.raises(ValueError, match="noise_alpha must be >= 0"):
            build_network(mlp_spec((4, 3, 2)), noise_alpha=-1)

    def test_softmax_must_be_terminal(self):
        with pytest.raises(ValueError, match="terminal"):
            build_network([Dense(4, 2), Softmax(), Dense(2, 2)], input_shape=(4,))
        net = build_network([Dense(4, 2), Dense(2, 2)], input_shape=(4,))
        with pytest.raises(ValueError, match=r"^layer 1 \(Softmax\) must be the terminal"):
            Network([Dense(4, 2), Softmax(), Dense(2, 2)], (4,),
                    [net.weights[0], None, net.weights[1]], [], 0)

    def test_explicit_unit_sharing(self):
        net = build_network([Dense(4, 4), Activation(0), Dense(4, 4),
                             Activation(0), Dense(4, 2), Softmax()])
        assert len(net.pau_units) == 1

    def test_init_from_coefficients(self):
        c = pau.builtin_coefficients("tanh")
        net = build_network(mlp_spec((4, 3, 2)), init=c)
        assert net.pau_units[0].coefficients == c

    def test_default_init_is_lrelu_001(self):
        net = toy_net()
        assert net.pau_units[0].coefficients == pau.builtin_coefficients("lrelu(0.01)")


class TestForward:
    def test_zero_weight_network_uniform(self):
        net = build_network(mlp_spec((20, 8, 10)), seed=0)
        for i in net.parametric_indices():
            net.weights[i]["W"][...] = 0.0
            net.weights[i]["b"][...] = 0.0
        out, _ = pau.forward(net, np.random.default_rng(0).normal(size=(5, 20)))
        assert np.allclose(np.exp(out), 0.1, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        net = build_network(mlp_spec((20, 8, 10)), seed=1)
        out, _ = pau.forward(net, np.random.default_rng(1).normal(size=(16, 20)))
        assert np.max(np.abs(np.exp(out).sum(axis=1) - 1.0)) < 1e-12

    def test_forward_determinism_bitwise(self):
        net = build_network(mlp_spec((20, 8, 10)), seed=2, noise_alpha=0.02)
        x = np.random.default_rng(2).normal(size=(8, 20))
        a, _ = pau.forward(net, x, training=True, seed=5)
        b, _ = pau.forward(net, x, training=True, seed=5)
        assert np.array_equal(a, b)

    def test_training_flag_with_zero_noise_is_inference(self):
        net = build_network(mlp_spec((20, 8, 10)), seed=3, noise_alpha=0.0)
        x = np.random.default_rng(3).normal(size=(8, 20))
        a, _ = pau.forward(net, x, training=True, seed=9)
        b, _ = pau.forward(net, x, training=False)
        assert np.array_equal(a, b)

    def test_inference_ignores_noise(self):
        net = build_network(mlp_spec((20, 8, 10)), seed=4, noise_alpha=0.1)
        x = np.random.default_rng(4).normal(size=(8, 20))
        a, _ = pau.forward(net, x, training=False)
        b, _ = pau.forward(net, x, training=False, seed=77)
        assert np.array_equal(a, b)

    def test_batch_shape_checked(self):
        net = toy_net()
        with pytest.raises(ValueError, match="batch shape"):
            pau.forward(net, np.zeros((3, 5)))

    def test_pau_tracks_leaky_relu_reference(self):
        spec_p = [Dense(784, 128), Activation(), Dense(128, 10)]
        spec_b = [Dense(784, 128), Baseline("lrelu(0.01)"), Dense(128, 10)]
        net_p = build_network(spec_p, seed=3)
        net_b = build_network(spec_b, seed=3)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 784))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        out_p, _ = pau.forward(net_p, x)
        out_b, _ = pau.forward(net_b, x)
        assert np.max(np.abs(out_p - out_b)) <= 0.5

    def test_per_layer_sharing(self):
        net = build_network(mlp_spec((10, 6, 6, 4)), seed=6)
        assert len(net.pau_units) == 2
        x = np.random.default_rng(6).normal(size=(4, 10))
        base, trace = pau.forward(net, x)
        hidden_before = trace.caches[1]["x"]
        net.pau_units[0].coefficients.numerator[0] += 0.5
        net.params_changed()
        _, trace2 = pau.forward(net, x)
        act_before = pau.eval_pau_batch(hidden_before, net.pau_units[0].coefficients)
        # every element of the first activation layer shifted together
        assert np.array_equal(act_before, pau.eval_pau_batch(trace2.caches[1]["x"],
                                                             net.pau_units[0].coefficients))


class TestConv:
    def brute_conv(self, x, W, b, stride=1, padding=0):
        B, C, H, Wd = x.shape
        OC, _, k, _ = W.shape
        if padding:
            x = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
            H, Wd = H + 2 * padding, Wd + 2 * padding
        oh = (H - k) // stride + 1
        ow = (Wd - k) // stride + 1
        out = np.zeros((B, OC, oh, ow))
        for bi in range(B):
            for oc in range(OC):
                for i in range(oh):
                    for j in range(ow):
                        patch = x[bi, :, i * stride:i * stride + k,
                                  j * stride:j * stride + k]
                        out[bi, oc, i, j] = np.sum(patch * W[oc]) + b[oc]
        return out

    @pytest.mark.parametrize("padding,stride", [(0, 1), (1, 1), (0, 2)])
    def test_forward_matches_bruteforce(self, padding, stride):
        net = build_network([Conv2d(3, 5, 3, stride=stride, padding=padding)],
                            input_shape=(3, 8, 8), seed=7)
        x = np.random.default_rng(7).normal(size=(2, 3, 8, 8))
        out, _ = pau.forward(net, x)
        ref = self.brute_conv(x, net.weights[0]["W"], net.weights[0]["b"],
                              stride, padding)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_maxpool_matches_bruteforce(self):
        net = build_network([MaxPool(2)], input_shape=(2, 6, 6), seed=0)
        x = np.random.default_rng(8).normal(size=(3, 2, 6, 6))
        out, _ = pau.forward(net, x)
        for bi in range(3):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        assert out[bi, c, i, j] == np.max(
                            x[bi, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2])

    @staticmethod
    def pool_input_gradient(x, window, stride=None):
        pool = build_network([MaxPool(window, stride)], input_shape=x.shape[1:], seed=0)
        out, trace = pau.forward(pool, x, training=True)
        g = np.random.default_rng(window).normal(size=out.shape)
        g.flat[::5] = -0.0
        dx, _ = pool.specs[0].backward(pool, 0, g, trace.caches[0], True)
        return g, dx

    @staticmethod
    def brute_pool_backward(x, g, window, stride):
        # each window, in row-major order, adds its value to its first maximum
        dx = np.zeros_like(x)
        for b, c, i, j in np.ndindex(g.shape):
            r, q = i * stride, j * stride
            a, d = divmod(int(np.argmax(x[b, c, r:r + window, q:q + window])), window)
            dx[b, c, r + a, q + d] += g[b, c, i, j]
        return dx

    def test_maxpool_backward_skips_the_uncovered_edge(self):
        x = np.random.default_rng(11).normal(size=(2, 3, 7, 7))
        g, dx = self.pool_input_gradient(x, 2)
        assert np.array_equal(dx, self.brute_pool_backward(x, g, 2, 2))
        edge = np.concatenate([dx[:, :, 6, :], dx[:, :, :, 6]])
        assert np.all(edge == 0.0) and not np.signbit(edge).any()

    def test_maxpool_backward_sums_an_input_that_wins_several_windows(self):
        x = np.random.default_rng(12).normal(size=(2, 2, 6, 6))
        x[:, :, 2, 3] = 50.0   # the maximum of the nine windows that hold it
        g, dx = self.pool_input_gradient(x, 3, stride=1)
        assert np.array_equal(dx, self.brute_pool_backward(x, g, 3, 1))
        for b, c in np.ndindex(2, 2):
            assert dx[b, c, 2, 3] == sum(g[b, c, i, j] for i in range(3) for j in range(1, 4))

    @pytest.mark.parametrize("window,stride", [(2, None), (2, 1), (3, 1), (3, 2)])
    def test_maxpool_backward_ties_go_to_the_first_maximum(self, window, stride):
        x = np.random.default_rng(13).integers(0, 3, (2, 2, 7, 7)).astype(float)
        g, dx = self.pool_input_gradient(x, window, stride)
        assert np.array_equal(dx, self.brute_pool_backward(x, g, window, stride or window))

    @pytest.mark.parametrize("shape,window", [((2, 3, 7, 7), 2), ((2, 2, 9, 9), 3),
                                              ((3, 2, 8, 8), 2)])
    def test_maxpool_backward_keeps_the_offset_loop_values(self, shape, window):
        # the former backward, one masked strided add per window offset, gave
        # these values, signed zeros included, when stride = window
        x = np.random.default_rng(14).integers(0, 4, shape).astype(float)
        g, dx = self.pool_input_gradient(x, window)
        b_, c_, oh, ow = g.shape
        win = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(2, 3))
        idx = np.argmax(win[:, :, ::window, ::window].reshape(b_, c_, oh, ow, -1), axis=-1)
        ref = np.zeros(shape)
        for a in range(window):
            for c in range(window):
                ref[:, :, a:a + window * oh:window, c:c + window * ow:window] += \
                    np.where(idx == a * window + c, g, 0.0)
        assert np.array_equal(dx, ref)
        assert np.array_equal(np.signbit(dx), np.signbit(ref))

    def test_lenet_forward_shapes(self):
        net = build_network(lenet_spec(), input_shape=(1, 32, 32), seed=9)
        out, _ = pau.forward(net, np.zeros((2, 1, 32, 32)))
        assert out.shape == (2, 10)

    def test_vgg8_forward_shapes(self):
        net = build_network(vgg8_spec(), input_shape=(1, 32, 32), seed=9)
        out, _ = pau.forward(net, np.zeros((1, 1, 32, 32)))
        assert out.shape == (1, 10)
        assert np.max(np.abs(np.exp(out).sum(axis=1) - 1.0)) < 1e-12

    def test_conv_net_gradients_match_fd(self):
        net = build_network(
            [Conv2d(1, 2, 3), Activation(), MaxPool(2), Flatten(),
             Dense(2 * 3 * 3, 2), Softmax()],
            input_shape=(1, 8, 8), seed=10)
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(4, 1, 8, 8))
        labels = rng.integers(0, 2, 4)
        assert network_fd_gradients(net, batch, labels) < 1e-4

    @pytest.mark.parametrize("specs,input_shape", [
        ([Conv2d(1, 2, 3), Activation(),
          Conv2d(2, 3, 3, stride=2, padding=1), Activation(), Flatten(),
          Dense(3 * 3 * 3, 2), Softmax()], (1, 8, 8)),
        ([Conv2d(1, 2, 3), Activation(), MaxPool(3, stride=2), Flatten(),
          Dense(2 * 3 * 3, 2), Softmax()], (1, 10, 10)),
        ([Conv2d(1, 2, 3), Activation(), MaxPool(3, stride=2),
          Conv2d(2, 2, 2), Activation(), Flatten(), Dense(2 * 2 * 2, 2),
          Softmax()], (1, 10, 10)),
    ], ids=["strided-padded-conv-second", "overlapping-pool",
            "overlapping-pool-feeds-conv"])
    def test_input_gradient_paths_match_fd(self, specs, input_shape):
        net = build_network(specs, input_shape=input_shape, seed=18)
        rng = np.random.default_rng(18)
        batch = rng.normal(size=(4,) + input_shape)
        labels = rng.integers(0, 2, 4)
        assert_gradients_complete_and_match_fd(net, batch, labels)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_image_blocks_match_one_block(self, monkeypatch, stride, padding):
        conv = Conv2d(2, 3, 3, stride=stride, padding=padding)
        _, oh, ow = conv.out_shape((2, 7, 7))
        net = build_network([conv, Activation(), Flatten(), Dense(3 * oh * ow, 2),
                             Softmax()], input_shape=(2, 7, 7), seed=19)
        rng = np.random.default_rng(19)
        batch = rng.normal(size=(7, 2, 7, 7))
        labels = rng.integers(0, 2, 7)

        def run():
            out, trace = pau.forward(net, batch)
            _, dout = nll_loss(out, labels)
            return trace.caches[0], trace.caches[1]["x"], pau.backward(net, trace, dout)

        per_image = 2 * oh * ow * 3 * 3
        monkeypatch.setattr(network, "CONV_BLOCK_ELEMENTS", 7 * per_image)
        cache, y_one, g_one = run()
        monkeypatch.setattr(network, "CONV_BLOCK_ELEMENTS", 3 * per_image)
        win = network._conv_windows(cache["xp"], 3, stride)
        assert [s.indices(7) for s in network._image_blocks(win)] == \
            [(0, 3, 1), (3, 6, 1), (6, 7, 1)]
        _, y, g = run()
        assert np.array_equal(y, y_one) and y.flags.c_contiguous
        for name in ("W", "b"):
            np.testing.assert_allclose(g[("layer", 0, name)], g_one[("layer", 0, name)],
                                       rtol=1e-12, atol=0)
        assert network_fd_gradients(net, batch, labels) < 1e-4


def assert_gradients_complete_and_match_fd(net, batch, labels):
    out, trace = pau.forward(net, batch)
    _, dout = nll_loss(out, labels)
    gs = pau.backward(net, trace, dout)
    assert set(gs) == {key for key, _ in net.params()}
    assert network_fd_gradients(net, batch, labels) < 1e-4


class TestBackward:
    def test_zero_loss_grad_gives_zero_gradients(self):
        net = toy_net(1)
        x = np.random.default_rng(11).normal(size=(6, 4))
        out, trace = pau.forward(net, x)
        gs = pau.backward(net, trace, np.zeros_like(out))
        assert gs and not any(np.any(g) for g in gs.values())

    def test_full_finite_difference_check(self):
        rng = np.random.default_rng(12)
        net = toy_net(12)
        batch = rng.normal(size=(8, 4))
        labels = rng.integers(0, 2, 8)
        assert network_fd_gradients(net, batch, labels) < 1e-4

    def test_rpau_fixed_seed_gradients_match_fd(self):
        # differentiate at the sampled coefficients: check dL/dx against a
        # forward pass re-run with the same noise seed
        net = build_network([Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
                            seed=13, noise_alpha=0.05)
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, 6)
        out, trace = pau.forward(net, batch, training=True, seed=99)
        loss, dout = nll_loss(out, labels)
        gs = pau.backward(net, trace, dout)
        h = 1e-6
        W = net.weights[0]["W"]
        worst = 0.0
        for idx in [(0, 0), (1, 2), (3, 1)]:
            old = W[idx]
            W[idx] = old + h
            up, _ = pau.forward(net, batch, training=True, seed=99)
            W[idx] = old - h
            down, _ = pau.forward(net, batch, training=True, seed=99)
            W[idx] = old
            fd = (nll_loss(up, labels)[0] - nll_loss(down, labels)[0]) / (2 * h)
            worst = max(worst, abs(fd - gs[("layer", 0, "W")][idx])
                        / max(abs(fd), 1e-8))
        assert worst < 1e-4

    @pytest.mark.parametrize("specs,input_shape,trainable", [
        ([MaxPool(2), Conv2d(1, 2, 3), Activation(), Flatten(),
          Dense(2 * 2 * 2, 2), Softmax()], (1, 8, 8), True),
        ([Baseline("lrelu(0.01)"), Conv2d(1, 2, 3), Activation(), MaxPool(2),
          Flatten(), Dense(2 * 3 * 3, 2), Softmax()], (1, 8, 8), True),
        ([Activation(), Conv2d(1, 2, 3), Activation(), MaxPool(2), Flatten(),
          Dense(2 * 3 * 3, 2), Softmax()], (1, 8, 8), False),
        ([Activation(), Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
         (4,), False),
        ([Activation(), Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
         (4,), True),
    ], ids=["maxpool-first", "baseline-first", "frozen-unit-before-conv",
            "frozen-unit-before-dense", "trainable-unit-first"])
    def test_leading_layers_without_parameters(self, specs, input_shape, trainable):
        # backward stops at the first layer with parameters; every gradient
        # below the stop must still be complete and right
        net = build_network(specs, input_shape=input_shape, seed=19,
                            trainable_units=trainable)
        rng = np.random.default_rng(19)
        batch = rng.normal(size=(4,) + input_shape)
        labels = rng.integers(0, 2, 4)
        assert_gradients_complete_and_match_fd(net, batch, labels)

    def test_frozen_unit_absent_from_gradients(self):
        net = build_network([Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
                            seed=14, trainable_units=False)
        x = np.random.default_rng(14).normal(size=(6, 4))
        out, trace = pau.forward(net, x)
        _, dout = nll_loss(out, np.zeros(6, dtype=int))
        gs = pau.backward(net, trace, dout)
        assert set(gs) == {("layer", i, k) for i in (0, 2) for k in ("W", "b")}

    def test_stale_trace_rejected(self):
        net = toy_net(15)
        x = np.random.default_rng(15).normal(size=(4, 4))
        out, trace = pau.forward(net, x)
        net.params_changed()
        with pytest.raises(StaleTraceError):
            pau.backward(net, trace, np.zeros_like(out))

    @pytest.mark.parametrize("shape", [(1, 3), (8, 1), (), (8, 3)],
                             ids=["one-row", "one-column", "scalar", "output-shape"])
    def test_loss_gradient_must_have_the_output_shape(self, shape):
        # (1, 3) and (8, 1) would broadcast through Softmax into wrong values
        net = build_network(mlp_spec((5, 4, 3)), seed=17)
        out, trace = pau.forward(net, np.random.default_rng(17).normal(size=(8, 5)))
        assert out.shape == (8, 3)
        if shape == out.shape:
            assert set(pau.backward(net, trace, np.ones(shape))) == {k for k, _ in net.params()}
            return
        with pytest.raises(ValueError, match=re.escape(
                f"loss gradient of shape {shape}, the network output has shape (8, 3)")):
            pau.backward(net, trace, np.ones(shape))

    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("spec,input_shape", [
        (lenet_spec(), (1, 32, 32)), (mlp_spec(), None), (vgg8_spec(), (1, 32, 32)),
    ], ids=["lenet", "mlp", "vgg8"])
    def test_empty_batch(self, spec, input_shape, alpha, training):
        net = build_network(spec, input_shape=input_shape, seed=18, noise_alpha=alpha)
        out, trace = pau.forward(net, np.zeros((0,) + net.input_shape),
                                 training=training, seed=18)
        assert out.shape == (0, 10)
        grads = pau.backward(net, trace, np.zeros(out.shape))
        params = dict(net.params())
        assert set(grads) == set(params)
        for key, value in params.items():
            assert grads[key].shape == value.shape and not grads[key].any(), key

    def test_batch_order_invariance_within_tolerance(self):
        net = build_network(mlp_spec((50, 16, 4)), seed=16)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(32, 50))
        y = rng.integers(0, 4, 32)

        def grads(xb, yb):
            out, tr = pau.forward(net, xb)
            _, d = nll_loss(out, yb)
            return pau.backward(net, tr, d)

        g1 = grads(x, y)
        perm = rng.permutation(32)
        g2 = grads(x[perm], y[perm])
        assert set(g1) == set(g2)
        for key in g1:
            assert np.max(np.abs(g1[key] - g2[key])) < 1e-12


def unfused_forward(net, batch, seed):
    """The output and trace of a training forward run through each layer's
    own ``forward``: every noisy Activation draws its noise with
    ``sample_noisy_coeffs`` and keeps every element's row, and every MaxPool
    finds its own winners, with no fused stage.  The generator is seeded as
    ``forward`` seeds it, so the noise realization must be the same."""
    rng = np.random.default_rng(seed)
    x, trace = np.asarray(batch, dtype=np.float64), network.ForwardTrace(net.version)
    for i, spec in enumerate(net.specs):
        x, cache = spec.forward(net, i, x, rng)
        trace.caches.append(cache)
    return x, trace


def backward_each_layer(net, trace, g, dense):
    """The input gradient of every layer and the unit gradients, with every
    layer's backward asked for its input gradient.  ``dense`` runs the
    backward that every MaxPool and Activation had before the compact
    form: the pool scatters to a dense array, and the unit's kernel runs
    over all of its elements in one call.  A pool's pair ``(at, g)`` is
    recorded as the dense array it stands for."""
    inputs, units = {}, {}
    for i in range(len(net.specs) - 1, -1, -1):
        spec, cache = net.specs[i], trace.caches[i]
        if dense and isinstance(spec, MaxPool):
            g = network._scatter(cache["at"].reshape(-1), g.reshape(-1), cache["in_shape"])
        elif dense and isinstance(spec, Activation):
            unit = net.pau_units[spec.unit]
            d, sums = backward_pau(cache["x"], g, unit.coefficients, safe=unit.safe,
                                   coefficient_stacks=cache["stacks"])
            g = d.reshape(cache["x"].shape)
            units[spec.unit] = sums
        else:
            g, part = spec.backward(net, i, g, cache, True)
            if isinstance(spec, Activation):
                units[spec.unit] = (part[("unit", spec.unit, "num")],
                                    part[("unit", spec.unit, "den")])
        inputs[i] = network._scatter(*g, cache["in_shape"]) if isinstance(g, tuple) else g
    return inputs, units


class TestPoolWinners:
    """Under an Activation in ``net.pooled``, a MaxPool's backward hands on
    its winners only, and the unit differentiates those alone.  Over a pool
    whose windows overlap, both take the dense path."""

    # (pool, conv output side): each pool but the stride-1 one leaves its
    # last row and column uncovered; the last two have overlapping windows
    POOLS = [(MaxPool(2), 7), (MaxPool(3, stride=2), 8), (MaxPool(2, stride=1), 7)]

    @staticmethod
    def pool_net(pool, side, alpha, safe):
        _, oh, ow = pool.out_shape((2, side, side))
        net = build_network([Conv2d(1, 2, 3), Activation(), pool, Flatten(),
                             Dense(2 * oh * ow, 3), Softmax()],
                            input_shape=(1, side + 2, side + 2), seed=40, noise_alpha=alpha)
        net.pau_units[0].safe = safe
        return net

    # a "chunk" in the case ids is a block: one-chunk keeps BLOCK_ELEMENTS,
    # so each call is one block; chunks-of-7 sets it to 7, so the winners'
    # rows span several kernel blocks and, for a noisy unit, several stage
    # blocks
    @pytest.mark.parametrize("block", [None, 7], ids=["one-chunk", "chunks-of-7"])
    @pytest.mark.parametrize("safe", [True, False], ids=["safe", "unsafe"])
    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("pool,side", POOLS, ids=["pool2", "pool3-stride2", "pool2-stride1"])
    def test_matches_the_dense_backward(self, monkeypatch, pool, side, alpha, safe, block):
        if block:
            monkeypatch.setattr(network, "BLOCK_ELEMENTS", block)
            monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", block)
        net = self.pool_net(pool, side, alpha, safe)
        paired = pool.stride is None
        assert net.pooled == ({1} if paired else frozenset())
        rng = np.random.default_rng(41)
        batch = rng.normal(size=(3, 1, side + 2, side + 2))
        out, trace = pau.forward(net, batch, training=True, seed=42)
        _, dout = nll_loss(out, rng.integers(0, 3, 3))
        # the dense reference reruns the layers unfused from the seed: a noisy
        # pooled unit's trace keeps its winners' rows only
        ref_out, ref_trace = unfused_forward(net, batch, 42)
        assert np.array_equal(out, ref_out)
        compact, units = backward_each_layer(net, trace, dout, dense=False)
        dense, dense_units = backward_each_layer(net, ref_trace, dout, dense=True)
        for i in range(len(net.specs)):
            a, b = compact[i], dense[i]
            assert np.array_equal(a, b), f"layer {i}"
            # every bit of every non-zero value; a paired unit's input gradient
            # holds +0.0 where the dense kernel gave 0 times a negative slope
            assert np.array_equal(a[a != 0].view(np.uint64), b[b != 0].view(np.uint64))
            if i != 1 or not paired:
                assert np.array_equal(np.signbit(a), np.signbit(b)), f"layer {i}"
        d_act = compact[1]
        if paired:
            assert not np.signbit(d_act[d_act == 0]).any()
        covered = (pool.out_shape((2, side, side))[1] - 1) * (pool.stride or pool.window) \
            + pool.window
        assert not d_act[:, :, covered:, :].any() and not d_act[:, :, :, covered:].any()
        for got, want in zip(units[0], dense_units[0]):
            if paired:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(got, want)
        grads = pau.backward(net, trace, dout)
        assert np.array_equal(grads[("unit", 0, "num")], units[0][0])
        assert np.array_equal(grads[("unit", 0, "den")], units[0][1])

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("above", [MaxPool(2), Flatten()], ids=["pool", "flatten"])
    def test_kernel_call_gets_the_winners_rows(self, monkeypatch, above, alpha):
        # kernel and stage blocks of 7 elements: the unit's one backward_pau
        # call gets the winners' x and noise rows (every element's under a
        # Flatten) in the order of ``at``, across the blocks' edges
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", 7)
        net = build_network([Conv2d(1, 2, 3), Activation(), above],
                            input_shape=(1, 6, 6), seed=45, noise_alpha=alpha)
        rng = np.random.default_rng(45)
        batch = rng.normal(size=(3, 1, 6, 6))
        out, trace = pau.forward(net, batch, training=True, seed=46)
        g, _ = net.specs[2].backward(net, 2, rng.normal(size=out.shape), trace.caches[2], True)
        cache = trace.caches[1]
        # every element's x and noise rows, rebuilt from the seed
        ref = unfused_forward(net, batch, 46)[1].caches[1]
        x, stacks = ref["x"].reshape(-1), ref["stacks"]
        at, up = g if isinstance(g, tuple) else (np.arange(x.size), g.reshape(-1))
        assert isinstance(g, tuple) == isinstance(above, MaxPool) and up.size > 7 * 3
        unit = net.pau_units[0]
        _, sums = backward_pau(x[at], up, unit.coefficients,
                               coefficient_stacks=stacks and tuple(s[at] for s in stacks))
        _, grads = net.specs[1].backward(net, 1, g, cache, True)
        assert grads[("unit", 0, "num")].tobytes() == sums[0].tobytes()
        assert grads[("unit", 0, "den")].tobytes() == sums[1].tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_one_kernel_call_per_activation(self, monkeypatch, alpha):
        # however many kernel blocks a layer spans: a pooled unit, an
        # unpooled conv unit and a dense unit each make one backward_pau call
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", 7)
        calls = []

        def counted(xs, upstream, *args, **kwargs):
            calls.append(np.size(xs))
            return backward_pau(xs, upstream, *args, **kwargs)

        monkeypatch.setattr(network, "backward_pau", counted)
        net = build_network([Conv2d(1, 2, 3), Activation(), MaxPool(2), Activation(),
                             Flatten(), Dense(18, 4), Activation(), Dense(4, 2), Softmax()],
                            input_shape=(1, 8, 8), seed=48, noise_alpha=alpha)
        assert net.pooled == {1}
        rng = np.random.default_rng(48)
        out, trace = pau.forward(net, rng.normal(size=(3, 1, 8, 8)), training=True, seed=49)
        pau.backward(net, trace, nll_loss(out, rng.integers(0, 2, 3))[1])
        # layers 6, 3 and 1, in backward order; layer 1 on the pool's winners
        assert calls == [3 * 4, 3 * 18, 3 * 18]

    @pytest.mark.parametrize("below,dense", [
        ([], True), ([Conv2d(2, 2, 1)], True), ([Baseline("lrelu(0.01)")], True),
        ([Activation()], False)], ids=["pool-alone", "conv", "baseline", "activation"])
    def test_only_an_activation_takes_the_winners(self, below, dense):
        net = build_network(below + [MaxPool(2), Flatten(), Dense(8, 2), Softmax()],
                            input_shape=(2, 4, 4), seed=43)
        rng = np.random.default_rng(43)
        out, trace = pau.forward(net, rng.normal(size=(2, 2, 4, 4)))
        i = len(below)
        g = rng.normal(size=(2,) + net.shapes[i])
        dx, _ = net.specs[i].backward(net, i, g, trace.caches[i], True)
        assert isinstance(dx, np.ndarray) == dense
        want = network._scatter(trace.caches[i]["at"].reshape(-1), g.reshape(-1),
                                trace.caches[i]["in_shape"])
        got = dx if dense else network._scatter(*dx, trace.caches[i]["in_shape"])
        assert np.array_equal(got, want)

    def test_pole_in_front_of_a_pool_raises_in_forward(self):
        # Q = 1 - x/2 vanishes at x = 2.  The forward computes the Q that the
        # backward would, from the same x and coefficients, so it raises
        # first, naming the layer, the unit and the element's C-order index
        net = build_network([Baseline("lrelu(0.01)"), Activation(), MaxPool(2), Flatten(),
                             Dense(8, 2), Softmax()], input_shape=(2, 4, 4), seed=44,
                            init=pau.RationalCoefficients([0.0, 1.0], [-0.5]))
        net.pau_units[0].safe = False
        batch = np.zeros((2, 2, 4, 4))
        batch[1, 0, 2, 3] = 2.0
        with pytest.raises(pau.PoleError, match=r"layer 1 \(Activation\) unit 0") as exc:
            pau.forward(net, batch, training=True)
        assert exc.value.index == 16 * 2 + 2 * 4 + 3 and exc.value.x == 2.0


class TestNoisyPoolStage:
    """``Activation.forward_pooled``, a noisy unit and the MaxPool above it
    run per block of whole images, checked against a reference built from
    ``sample_noisy_coeffs``, ``eval_pau_stacked`` and the MaxPool's own
    forward on a generator in the same state."""

    @staticmethod
    def pool_net(pool=MaxPool(2), alpha=0.05, safe=True, **kw):
        _, oh, ow = pool.out_shape((2, 6, 6))
        net = build_network([Conv2d(1, 2, 1), Activation(), pool, Flatten(),
                             Dense(2 * oh * ow, 2), Softmax()],
                            input_shape=(1, 6, 6), seed=60, noise_alpha=alpha, **kw)
        net.pau_units[0].safe = safe
        return net

    @staticmethod
    def reference(net, x, rng):
        unit = net.pau_units[0]
        stacks = sample_noisy_coeffs(unit.coefficients, unit.noise_alpha, rng, x.size)
        y = eval_pau_stacked(x.reshape(-1), *stacks, safe=unit.safe).reshape(x.shape)
        pooled, cache = net.specs[2].forward(net, 2, y, None)
        return y, stacks, pooled, cache["at"]

    @staticmethod
    def generators(seed, bit_generator=np.random.PCG64):
        # both a few draws in, so that the stage starts from a used state
        rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
        for rng in rngs:
            rng.random(3)
        return rngs

    # (BLOCK_ELEMENTS, images): an image of 2·6·6 = 72 elements, so
    # blocks of 2, 1 and 1 image, the last one a part block, and 1 image
    # larger than a block
    @pytest.mark.parametrize("block,images", [(150, 5), (72, 3), (50, 3)],
                             ids=["2-image-blocks", "1-image-blocks", "image-past-a-block"])
    @pytest.mark.parametrize("pool", [MaxPool(2), MaxPool(3)], ids=["pool2", "pool3"])
    @pytest.mark.parametrize("safe", [True, False], ids=["safe", "unsafe"])
    def test_matches_the_unfused_layers(self, monkeypatch, block, images, pool, safe):
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", block)
        net = self.pool_net(pool, safe=safe)
        assert net.pooled == {1}
        x = np.random.default_rng(61).uniform(-1, 1, (images, 2, 6, 6))
        self.check_stage(net, x, *self.generators(62))

    @pytest.mark.parametrize("bit_generator", [np.random.SFC64, np.random.MT19937])
    def test_runs_on_a_generator_that_cannot_advance(self, monkeypatch, bit_generator):
        # every noise row comes in order from the one generator, so no
        # bit generator needs to skip ahead
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 72)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", 72)
        assert not hasattr(bit_generator(0), "advance")
        x = np.random.default_rng(61).uniform(-1, 1, (3, 2, 6, 6))
        self.check_stage(self.pool_net(), x, *self.generators(62, bit_generator))

    def check_stage(self, net, x, stage_rng, ref_rng):
        (y, cache), (pooled, pool_cache) = net.specs[1].forward_pooled(net, 1, x, stage_rng)
        ref_y, stacks, ref_pooled, at = self.reference(net, x, ref_rng)
        assert np.array_equal(y, ref_y) and np.array_equal(pooled, ref_pooled)
        assert np.array_equal(pool_cache["at"], at) and pool_cache["in_shape"] == x.shape
        at = at.reshape(-1)
        assert np.array_equal(cache["x"], x.reshape(-1)[at])
        for kept, full in zip(cache["stacks"], stacks):
            assert np.array_equal(kept, full[at])
        # a nested dict, with an array in MT19937's
        np.testing.assert_equal(stage_rng.bit_generator.state, ref_rng.bit_generator.state)
        # the next layer's noise continues from the same state
        assert np.array_equal(stage_rng.random(4), ref_rng.random(4))

    def test_forward_runs_the_stage_and_keeps_later_noise(self):
        # two noisy pooled units, then a noisy unit the stage does not take
        net = build_network([Conv2d(1, 2, 1), Activation(), MaxPool(2), Activation(),
                             MaxPool(2), Activation(), Flatten(), Dense(2, 2), Softmax()],
                            input_shape=(1, 4, 4), seed=63, noise_alpha=0.05)
        assert net.pooled == {1, 3}
        batch = np.random.default_rng(63).normal(size=(3, 1, 4, 4))
        out, trace = pau.forward(net, batch, training=True, seed=64)
        ref_out, ref_trace = unfused_forward(net, batch, 64)
        assert np.array_equal(out, ref_out)
        for i in (1, 3):
            assert "in_shape" in trace.caches[i] and "in_shape" not in ref_trace.caches[i]
            assert np.array_equal(trace.caches[i + 1]["at"], ref_trace.caches[i + 1]["at"])
        for a, b in zip(trace.caches[5]["stacks"], ref_trace.caches[5]["stacks"]):
            assert np.array_equal(a, b)

    def test_pole_in_a_later_block_names_the_element(self, monkeypatch):
        # Q = 1 + b x with b drawn near -1/2: an input of exactly -1/b puts
        # an element on its sampled pole.  Two are planted, in blocks 2 and 3
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 72)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", 72)
        net = self.pool_net(safe=False, init=pau.RationalCoefficients([0.0, 1.0], [-0.5]))
        x = np.random.default_rng(65).uniform(-1, 1, (4, 2, 6, 6))
        _, den = sample_noisy_coeffs(net.pau_units[0].coefficients, 0.05,
                                     self.generators(66)[0], x.size)
        for k in (72 + 40, 2 * 72 + 5):
            x.reshape(-1)[k] = -1.0 / den[k, 0]
        errors = []
        for run in (lambda rng: net.specs[1].forward_pooled(net, 1, x, rng),
                    lambda rng: net.specs[1].forward(net, 1, x, rng)):
            with pytest.raises(pau.PoleError) as exc:
                run(self.generators(66)[0])
            errors.append(exc.value)
        assert errors[0].index == errors[1].index == 72 + 40
        assert str(errors[0]) == str(errors[1])
        assert str(errors[0]).startswith("layer 1 (Activation) unit 0: ")

    def test_non_finite_noise_range_gives_nan(self):
        # coefficients that blew up in training: the span of the denominator's
        # noise range overflows before anything is drawn, and the output is
        # NaN, as unfused
        net = self.pool_net(alpha=1.0)
        net.pau_units[0].coefficients = pau.RationalCoefficients([0.0, 1.0], [1e308])
        batch = np.random.default_rng(67).normal(size=(2, 1, 6, 6))
        ys = [y for y, _ in network._run_layers(net, batch, True, 68)]
        assert np.isnan(ys[1]).all() and np.isnan(ys[2]).all()
        assert network.first_non_finite(net, batch, training=True, seed=68) \
            == "the output of layer 1 (Activation)"
        x = np.random.default_rng(69).normal(size=(2, 2, 6, 6))
        stage_rng, ref_rng = self.generators(70)
        (y, _), (pooled, _) = net.specs[1].forward_pooled(net, 1, x, stage_rng)
        ref_y, _ = net.specs[1].forward(net, 1, x, ref_rng)
        assert np.isnan(y).all() and np.isnan(pooled).all() and np.isnan(ref_y).all()
        assert stage_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_noisy_lenet_memory_stays_near_the_clean_one(self):
        # the stage keeps the winners' rows only: the noise of a pooled unit
        # no longer outweighs its activations several times over
        batch = np.random.default_rng(71).uniform(0, 1, (64, 1, 32, 32))
        peaks = []
        for alpha in (0.0, 0.05):
            net = build_network(lenet_spec(), input_shape=(1, 32, 32), seed=71,
                                noise_alpha=alpha)
            tracemalloc.start()
            try:
                out, trace = pau.forward(net, batch, training=True, seed=72)
                pau.backward(net, trace, nll_loss(out, np.zeros(64, dtype=int))[1])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class TestShardNoise:
    """A training forward on rows ``start:`` of a batch draws those rows of
    the whole batch's noise, so that the shards of a step see the noise that
    one forward of the step would."""

    @pytest.mark.parametrize("rows", [SHARD_SAMPLES, 100])
    def test_shards_keep_the_whole_batch_noise(self, monkeypatch, rows):
        # a pooled noisy unit (in blocks of 2 images), then two unpooled
        # ones; 300 samples are not a multiple of either shard size
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 150)
        monkeypatch.setattr(pau.rational, "BLOCK_ELEMENTS", 150)
        net = build_network([Conv2d(1, 2, 1), Activation(), MaxPool(2), Activation(),
                             Activation(), Flatten(), Dense(18, 3), Softmax()],
                            input_shape=(1, 6, 6), seed=73, noise_alpha=0.05)
        assert net.pooled == {1}
        batch = np.random.default_rng(73).normal(size=(300, 1, 6, 6))
        _, whole = pau.forward(net, batch, training=True, seed=74)
        shards = [pau.forward(net, batch[s:s + rows], training=True, seed=74, start=s,
                              total=len(batch))[1] for s in range(0, len(batch), rows)]
        for i in (1, 3, 4):
            caches = [trace.caches[i] for trace in shards]
            assert ("in_shape" in whole.caches[i]) == (i == 1)
            assert np.array_equal(np.concatenate([c["x"] for c in caches]),
                                  whole.caches[i]["x"])
            for j, stack in enumerate(whole.caches[i]["stacks"]):
                assert np.array_equal(np.concatenate([c["stacks"][j] for c in caches]), stack)


class TestPooled:
    """``Network.pooled``: the Activations whose output goes straight into
    a MaxPool with disjoint windows, decided when the network is built."""

    @pytest.mark.parametrize("specs,input_shape,pooled", [
        (lenet_spec(), (1, 32, 32), {1, 4}),
        (vgg8_spec(), (1, 32, 32), {1, 4, 8, 12, 16}),
        (mlp_spec(), None, set()),
        ([MaxPool(2)], (2, 4, 4), set()),
        ([Activation()], (3,), set()),
        ([Conv2d(1, 2, 3), Activation(), MaxPool(3, stride=2)], (1, 9, 9), set()),
    ], ids=["lenet", "vgg8", "mlp", "pool-alone", "activation-alone", "overlapping-pool"])
    def test_pairs(self, tmp_path, specs, input_shape, pooled):
        net = build_network(specs, input_shape=input_shape)
        assert net.pooled == pooled
        assert net.copy().pooled == pooled
        save_checkpoint(tmp_path / "net.ckpt", net)
        assert load_checkpoint(tmp_path / "net.ckpt").pooled == pooled

    def test_first_layer_is_not_paired_with_the_last(self):
        net = build_network([MaxPool(2), Flatten(), Dense(8, 4), Activation()],
                            input_shape=(2, 4, 4), seed=47)
        assert net.pooled == set()
        rng = np.random.default_rng(47)
        _, trace = pau.forward(net, rng.normal(size=(2, 2, 4, 4)))
        g = rng.normal(size=(2, 2, 2, 2))
        dx, _ = net.specs[0].backward(net, 0, g, trace.caches[0], True)
        assert isinstance(dx, np.ndarray) and dx.shape == (2, 2, 4, 4)
        assert np.array_equal(dx, network._scatter(trace.caches[0]["at"].reshape(-1),
                                                   g.reshape(-1), (2, 2, 4, 4)))


class TestParams:
    def test_keys_in_fixed_order_over_live_arrays(self):
        net = toy_net(30)
        params = list(net.params())
        assert [key for key, _ in params] == [
            ("layer", 0, "W"), ("layer", 0, "b"), ("layer", 2, "W"), ("layer", 2, "b"),
            ("unit", 0, "num"), ("unit", 0, "den")]
        assert params[0][1] is net.weights[0]["W"]
        assert params[4][1] is net.pau_units[0].coefficients.numerator

    def test_shared_unit_gradient_is_sum_of_its_layers(self):
        # the same network with the two activation layers on separate but
        # equal units: each unit's gradient is one layer's contribution
        def net_with(u, v):
            return build_network([Dense(4, 3), Activation(u), Dense(3, 3), Activation(v),
                                  Dense(3, 2), Softmax()], seed=31)
        shared, split = net_with(0, 0), net_with(0, 1)
        rng = np.random.default_rng(31)
        x, labels = rng.normal(size=(6, 4)), rng.integers(0, 2, 6)
        grads = []
        for net in (shared, split):
            out, trace = pau.forward(net, x)
            grads.append(pau.backward(net, trace, nll_loss(out, labels)[1]))
        g_shared, g_split = grads
        assert {k for k in g_shared if k[0] == "unit"} == {("unit", 0, "num"),
                                                           ("unit", 0, "den")}
        for name in ("num", "den"):
            # summed last layer first, as backward reaches them
            assert np.array_equal(g_shared[("unit", 0, name)],
                                  g_split[("unit", 1, name)] + g_split[("unit", 0, name)])

    @pytest.mark.parametrize("make", [lambda: pau.Adam(pau.TrainConfig(lr=0.1)),
                                      lambda: pau.SGD(pau.TrainConfig(lr=0.1, momentum=0.5))],
                             ids=["adam", "sgd"])
    def test_frozen_and_unreferenced_units_get_no_key(self, make):
        # units 0 and 2 are referenced by no layer; unit 3 is frozen
        net = build_network([Dense(4, 3), Activation(1), Dense(3, 3), Activation(3),
                             Dense(3, 2), Softmax()], seed=32)
        net.pau_units[3].trainable = False
        before = [u.coefficients.copy() for u in net.pau_units]
        rng = np.random.default_rng(32)
        out, trace = pau.forward(net, rng.normal(size=(6, 4)))
        grads = pau.backward(net, trace, nll_loss(out, rng.integers(0, 2, 6))[1])
        assert {k for k in grads if k[0] == "unit"} == {("unit", 1, "num"),
                                                        ("unit", 1, "den")}
        assert {k for k, _ in net.params() if k[0] == "unit"} == {
            ("unit", u, name) for u in (0, 1, 2) for name in ("num", "den")}
        make().step(net, grads)
        for u in (0, 2, 3):
            c = net.pau_units[u].coefficients
            assert c.numerator.tobytes() == before[u].numerator.tobytes()
            assert c.denominator.tobytes() == before[u].denominator.tobytes()
        assert net.pau_units[1].coefficients != before[1]

    def test_adam_state_keyed_like_gradients(self):
        net = toy_net(33)
        rng = np.random.default_rng(33)
        out, trace = pau.forward(net, rng.normal(size=(6, 4)))
        grads = pau.backward(net, trace, nll_loss(out, rng.integers(0, 2, 6))[1])
        opt = pau.Adam(pau.TrainConfig())
        opt.step(net, grads)
        assert set(opt.m) == set(opt.v) == set(grads) == {k for k, _ in net.params()}


def _assert_same_network(loaded, net, seed):
    """Equal specs, arrays, units and masks, and equal forward outputs,
    with and without noise."""
    assert loaded.specs == net.specs
    assert loaded.input_shape == net.input_shape
    for i in net.parametric_indices():
        assert np.array_equal(loaded.weights[i]["W"], net.weights[i]["W"])
        assert np.array_equal(loaded.weights[i]["b"], net.weights[i]["b"])
    for a, b in zip(loaded.pau_units, net.pau_units, strict=True):
        assert a.coefficients == b.coefficients
        assert (a.safe, a.noise_alpha, a.trainable) == \
               (b.safe, b.noise_alpha, b.trainable)
    assert set(loaded.masks) == set(net.masks)
    for i in net.masks:
        assert np.array_equal(loaded.masks[i], net.masks[i])
    x = np.random.default_rng(seed).normal(size=(5,) + net.input_shape)
    for training in (False, True):
        a, _ = pau.forward(loaded, x, training=training, seed=seed)
        b, _ = pau.forward(net, x, training=training, seed=seed)
        assert np.array_equal(a, b)


class TestCheckpoint:
    @pytest.mark.parametrize("specs,input_shape", [
        (mlp_spec((20, 8, 4)), (20,)),
        ([Baseline("tanh"), Conv2d(1, 4, 3, stride=2, padding=1), Activation(),
          MaxPool(2, stride=1), Conv2d(4, 6, 3), Activation(), Flatten(),
          Dense(6 * 2 * 2, 3), Softmax()], (1, 9, 9)),
    ], ids=["mlp", "conv"])
    def test_round_trip_bit_exact(self, tmp_path, specs, input_shape):
        net = build_network(specs, seed=17, noise_alpha=0.03, input_shape=input_shape)
        net.pau_units[0].trainable = False
        pau.apply_prune(net, 0.25)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        _assert_same_network(load_checkpoint(path), net, 17)

    @pytest.mark.parametrize("specs,input_shape", [
        (mlp_spec((20, 8, 4)), (20,)), (lenet_spec(), (1, 32, 32)),
    ], ids=["mlp", "lenet"])
    def test_loads_the_offset_table_of_older_files(self, tmp_path, specs, input_shape):
        net = build_network(specs, seed=19, noise_alpha=0.05, input_shape=input_shape)
        net.pau_units[-1].trainable = False
        pau.apply_prune(net, 0.25)
        save_checkpoint(tmp_path / "new.ckpt", net)
        raw = (tmp_path / "new.ckpt").read_bytes()
        (length,) = struct.unpack_from("<Q", raw, 8)
        manifest, blob = json.loads(raw[16:16 + length]), raw[16 + length:]
        # the arrays back to back in layer order, W then b, and no table
        assert list(manifest) == ["specs", "input_shape", "seed", "masks", "pau_units"]
        arrays = [net.weights[i][name] for i in net.parametric_indices() for name in "Wb"]
        assert blob == b"".join(a.astype("<f8").tobytes() for a in arrays)
        # older writers put each array's layer, name, blob offset and shape last
        manifest["offsets"], at = [], 0
        for i in net.parametric_indices():
            for name in "Wb":
                shape = net.weights[i][name].shape
                manifest["offsets"].append(
                    {"layer": i, "name": name, "offset": at, "shape": list(shape)})
                at += 8 * int(np.prod(shape))
        payload = json.dumps(manifest).encode("utf-8")
        (tmp_path / "old.ckpt").write_bytes(
            b"PAUNET01" + struct.pack("<Q", len(payload)) + payload + blob)
        _assert_same_network(load_checkpoint(tmp_path / "old.ckpt"), net, 19)

    def test_refuses_a_short_blob_before_allocating(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, build_network([Dense(4, 2), Softmax()]))
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<Q", raw, 8)
        manifest = json.loads(raw[16:16 + length])
        manifest["specs"][0].update(in_dim=3000, out_dim=3000)   # 72 MB of weights
        payload = json.dumps(manifest).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(payload)) + payload
                         + raw[16 + length:])
        tracemalloc.start()
        try:
            with pytest.raises(network.CheckpointFormatError,
                               match="the blob holds 80 bytes, the specs' arrays need "
                                     f"{8 * (3000 * 3000 + 3000)}"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOTANET0" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)
