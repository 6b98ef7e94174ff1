import numpy as np
import pytest

import pau
from pau.network import (Activation, Baseline, Conv2d, Dense, Flatten, MaxPool, Softmax,
                         build_network, mlp_spec)
from pau.train import (Adam, SGD, NonFiniteLossError, TrainConfig, evaluate,
                       fit_regression, make_optimizer, nll_loss, train_model,
                       write_metrics_csv)
from conftest import desk_protocol


def tiny_net(seed=0):
    return build_network(mlp_spec((6, 4, 3)), seed=seed)


def tiny_data(n=64, seed=0, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, dim, 1))
    labels = rng.integers(0, classes, n)
    return pau.DatasetHandle(images, labels)


class TestOptimizers:
    def test_zero_gradients_leave_parameters(self):
        for make in (lambda: SGD(lr=0.1, momentum=0.5), lambda: Adam(lr=0.1)):
            net = tiny_net(1)
            before = [net.weights[i]["W"].copy() for i in net.parametric_indices()]
            out, trace = pau.forward(net, np.zeros((2, 6)))
            gs = pau.backward(net, trace, np.zeros_like(out))
            make().step(net, gs)
            after = [net.weights[i]["W"] for i in net.parametric_indices()]
            for b, a in zip(before, after):
                assert np.array_equal(b, a)

    def test_sgd_hand_value(self):
        net = build_network([Dense(1, 1)], input_shape=(1,), seed=0)
        net.weights[0]["W"][...] = 1.0
        gs = {("layer", 0, "W"): np.array([[0.5]]), ("layer", 0, "b"): np.zeros(1)}
        SGD(lr=0.1, momentum=0.0).step(net, gs)
        assert net.weights[0]["W"][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_adam_first_step_magnitude(self):
        net = build_network([Dense(1, 1)], input_shape=(1,), seed=0)
        net.weights[0]["W"][...] = 1.0
        gs = {("layer", 0, "W"): np.array([[1.0]]), ("layer", 0, "b"): np.zeros(1)}
        Adam(lr=0.002).step(net, gs)
        update = 1.0 - net.weights[0]["W"][0, 0]
        assert update == pytest.approx(0.002, rel=1e-6)

    def test_shape_mismatch(self):
        net = tiny_net(2)
        gs = {("layer", 0, "W"): np.zeros((2, 2)), ("layer", 0, "b"): np.zeros(4)}
        with pytest.raises(ValueError, match="shape"):
            Adam().step(net, gs)

    def test_weight_decay_skips_units(self):
        net = tiny_net(3)
        coeff_before = net.pau_units[0].coefficients.copy()
        out, trace = pau.forward(net, np.zeros((2, 6)))
        gs = pau.backward(net, trace, np.zeros_like(out))
        SGD(lr=0.5, momentum=0.0, weight_decay=0.1).step(net, gs)
        # weights decayed, unit coefficients untouched by decay
        assert net.pau_units[0].coefficients == coeff_before
        assert not np.array_equal(net.weights[0]["W"],
                                  build_network(mlp_spec((6, 4, 3)), seed=3).weights[0]["W"])

    def test_separate_pau_lr(self):
        net = tiny_net(4)
        x = np.random.default_rng(4).normal(size=(8, 6))
        out, trace = pau.forward(net, x)
        _, dout = nll_loss(out, np.zeros(8, dtype=int))
        gs = pau.backward(net, trace, dout)
        frozen_lr = net.pau_units[0].coefficients.copy()
        SGD(lr=0.1, momentum=0.0, pau_lr=0.0 + 1e-300).step(net, gs)
        moved = np.max(np.abs(net.pau_units[0].coefficients.numerator
                              - frozen_lr.numerator))
        assert moved < 1e-250  # effectively zero: the split rate was honored

    def test_make_optimizer(self):
        assert isinstance(make_optimizer(TrainConfig(optimizer="sgd", lr=0.01)), SGD)
        assert isinstance(make_optimizer(TrainConfig()), Adam)


class TestEvaluate:
    def test_uniform_outputs_tie_break_to_class_zero(self):
        net = build_network(mlp_spec((6, 4, 3)), seed=5)
        for i in net.parametric_indices():
            net.weights[i]["W"][...] = 0.0
            net.weights[i]["b"][...] = 0.0
        data = tiny_data(n=90, seed=5)
        acc = evaluate(net, data)
        assert acc == np.mean(data.labels == 0)

    def test_perfect_predictions(self):
        # one-hot inputs through an identity map: every argmax is right
        data = tiny_data(n=30, seed=6)
        onehot = np.zeros((30, 3, 1))
        onehot[np.arange(30), data.labels, 0] = 5.0
        ideal = pau.DatasetHandle(onehot, data.labels)
        ident = build_network([Dense(3, 3), Softmax()], seed=0)
        ident.weights[0]["W"][...] = np.eye(3)
        ident.weights[0]["b"][...] = 0.0
        assert evaluate(ident, ideal) == 1.0

    def test_random_net_near_chance(self):
        data = pau.synth_digits(10000, seed=99)
        net = build_network(mlp_spec((784, 128, 10)), seed=42)
        acc = evaluate(net, data)
        assert 0.07 <= acc <= 0.13


class TestTrainModel:
    def test_zero_epochs(self):
        net = tiny_net(7)
        before = net.weights[0]["W"].copy()
        data = tiny_data(seed=7)
        _, history = train_model(net, data, data, TrainConfig(epochs=0))
        assert history == []
        assert np.array_equal(net.weights[0]["W"], before)

    def test_determinism_bit_for_bit(self):
        data = tiny_data(n=128, seed=8)
        runs = []
        for _ in range(2):
            net = tiny_net(8)
            _, hist = train_model(net, data, data,
                                  TrainConfig(epochs=3, batch_size=32, seed=8))
            runs.append((hist, net))
        h1, n1 = runs[0]
        h2, n2 = runs[1]
        assert [m.train_loss for m in h1] == [m.train_loss for m in h2]
        assert [m.test_acc for m in h1] == [m.test_acc for m in h2]
        for i in n1.parametric_indices():
            assert np.array_equal(n1.weights[i]["W"], n2.weights[i]["W"])

    def test_loss_looked_up_every_step(self, monkeypatch):
        # a wrapper set on train.nll_loss after import sees every step
        calls = []

        def counting(logp, labels):
            calls.append(labels.size)
            return nll_loss(logp, labels)

        monkeypatch.setattr(pau.train, "nll_loss", counting)
        data = tiny_data(n=40, seed=9)
        train_model(tiny_net(9), data, data, TrainConfig(epochs=2, batch_size=16))
        assert calls == [16, 16, 8] * 2

    def test_loss_finite_every_epoch(self, synth_sets):
        train, test = synth_sets
        net = build_network(mlp_spec((784, 128, 10)), seed=0)
        cfg = TrainConfig(epochs=2, seed=0, train_subset=2000, test_subset=500)
        _, hist = train_model(net, train, test, cfg)
        assert all(np.isfinite(m.train_loss) for m in hist)
        assert all(0.0 <= m.test_acc <= 1.0 for m in hist)

    def test_subset_sizes_respected(self, synth_sets):
        train, test = synth_sets
        net = build_network(mlp_spec((784, 128, 10)), seed=1)
        cfg = TrainConfig(epochs=1, seed=1, train_subset=512, test_subset=256)
        _, hist = train_model(net, train, test, cfg)
        assert len(hist) == 1

    def test_frozen_units_tracks_baseline_reference(self, synth_sets):
        # frozen lrelu(0.01)-coefficient units vs a true LeakyReLU net
        train, test = synth_sets
        _, hist_frozen = desk_protocol(train, test, seed=7, trainable=False)
        spec = [Dense(784, 128), Baseline("lrelu(0.01)"), Dense(128, 10), Softmax()]
        net = build_network(spec, seed=7)
        cfg = TrainConfig(epochs=5, batch_size=256, optimizer="adam", lr=0.002,
                          seed=7, train_subset=10000, test_subset=2000)
        _, hist_ref = train_model(net, train, test, cfg)
        gap = abs(hist_frozen[-1].test_acc - hist_ref[-1].test_acc)
        assert gap <= 0.015

    def test_lenet_trains_on_padded_synthetic(self, synth_sets):
        # conv path end to end: two short epochs move the loss down
        train, test = synth_sets
        train = pau.data.pad_images(train.subset(512), 32)
        test = pau.data.pad_images(test.subset(128), 32)
        net = build_network(pau.lenet_spec(), input_shape=(1, 32, 32), seed=0)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=0)
        _, hist = train_model(net, train, test, cfg)
        assert hist[-1].train_loss < hist[0].train_loss
        assert all(np.isfinite(m.train_loss) for m in hist)

    def test_metrics_csv(self, tmp_path):
        data = tiny_data(n=64, seed=9)
        net = tiny_net(9)
        _, hist = train_model(net, data, data, TrainConfig(epochs=2, batch_size=32))
        path = tmp_path / "m.csv"
        write_metrics_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,test_acc,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,")


class TestRegression:
    def test_single_unit_learns_tanh(self):
        xs, ys = pau.synth_regression(pau.parse_target("tanh"), 1000, -3, 3, seed=0)
        net = build_network([Activation()], init="lrelu(0.01)",
                            input_shape=(1,), seed=0)
        _, mse = fit_regression(net, xs, ys, steps=2000, lr=0.01)
        assert mse < 1e-3

    def test_regression_deterministic(self):
        xs, ys = pau.synth_regression(pau.parse_target("sigmoid"), 200, -2, 2, seed=1)
        finals = []
        for _ in range(2):
            net = build_network([Activation()], input_shape=(1,), seed=1)
            _, mse = fit_regression(net, xs, ys, steps=50, lr=0.01)
            finals.append(mse)
        assert finals[0] == finals[1]


class TestNonFiniteLoss:
    @pytest.mark.parametrize("poison,where", [
        ("unit", "unit 0's coefficients"),
        ("weights", "layer 2 (Dense) weights b"),
        ("batch", "the input batch"),
    ])
    def test_train_names_first_non_finite(self, poison, where):
        data = tiny_data(n=32, seed=3)
        net = tiny_net(3)
        if poison == "unit":
            net.pau_units[0].coefficients.denominator[0] = np.nan
        elif poison == "weights":
            net.weights[2]["b"][1] = np.inf
        else:
            data.images[20, 2] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteLossError, match=r"^step \d+: loss is nan") as err:
            train_model(net, data, data, cfg)
        assert str(err.value).endswith(f"first non-finite value: {where}")

    @staticmethod
    def _overflowing_conv_net():
        # the conv outputs stay finite; the unit overflows on them, and the
        # MaxPool and Flatten after it cache no input of their own
        net = build_network([Conv2d(1, 2, 3), Activation(), MaxPool(2), Flatten(),
                             Dense(2 * 3 * 3, 3), Softmax()], input_shape=(1, 8, 8), seed=4)
        net.weights[0]["W"][...] = 1e70
        return net

    def test_train_names_the_unit_before_a_pool(self):
        data = pau.DatasetHandle(np.random.default_rng(4).uniform(0, 1, (16, 1, 8, 8)),
                                 np.arange(16) % 3)
        with pytest.raises(NonFiniteLossError, match=r"^step 0: loss is nan; first "
                           r"non-finite value: the output of layer 1 \(Activation\)$"):
            train_model(self._overflowing_conv_net(), data, data,
                        TrainConfig(epochs=1, batch_size=16))

    def test_evaluate_names_the_unit_before_a_pool(self):
        data = pau.DatasetHandle(np.random.default_rng(4).uniform(0, 1, (5, 1, 8, 8)),
                                 np.arange(5) % 3)
        with pytest.raises(NonFiniteLossError, match=r"^samples 0-4: output is not finite; "
                           r"first non-finite value: the output of layer 1 \(Activation\)$"):
            evaluate(self._overflowing_conv_net(), data)

    def test_regression_names_layer_output(self):
        xs, ys = pau.synth_regression(pau.parse_target("tanh"), 200, -3, 3, seed=0)
        net = build_network([Dense(1, 4), Activation(), Dense(4, 1)],
                            input_shape=(1,), seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteLossError, match=r"^step 3: loss is nan; first non-finite "
                                          r"value: the output of layer 1 \(Activation\)$"):
            fit_regression(net, xs, ys, steps=50, lr=1e12, optimizer="sgd")


class TestLrDecay:
    def test_layer_rate_decays_unit_rate_constant(self):
        data = tiny_data(n=64, seed=10)
        net = tiny_net(10)
        cfg = TrainConfig(epochs=3, batch_size=32, optimizer="sgd", lr=0.1,
                          lr_decay=0.5, seed=10)
        opt = make_optimizer(cfg)
        # replicate the loop's decay bookkeeping through train_model
        _, hist = train_model(net, data, data, cfg)
        assert len(hist) == 3
        # an optimizer built the same way and decayed 3 times lands at 0.0125
        for _ in range(3):
            opt.lr *= cfg.lr_decay
        assert opt.lr == pytest.approx(0.1 * 0.5 ** 3)
        assert opt.pau_lr == 0.1  # unit rate never decays

    def test_decay_changes_trajectory(self):
        data = tiny_data(n=64, seed=11)
        finals = []
        for decay in (1.0, 0.5):
            net = tiny_net(11)
            cfg = TrainConfig(epochs=3, batch_size=32, lr_decay=decay, seed=11)
            _, hist = train_model(net, data, data, cfg)
            finals.append(hist[-1].train_loss)
        assert finals[0] != finals[1]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)
        for bad in (dict(epochs=-1), dict(lr=float("nan")), dict(pau_lr=0.0),
                    dict(seed=-1), dict(train_subset=0), dict(test_subset=0)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
