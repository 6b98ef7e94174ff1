import operator
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import pau
from pau import train
from pau.network import (Activation, Baseline, Conv2d, Dense, Flatten, MaxPool, Softmax,
                         build_network, mlp_spec)
from pau.train import (Adam, SGD, NonFiniteLossError, TrainConfig, evaluate,
                       make_optimizer, nll_loss, train_model, write_metrics_csv)
from conftest import child_env, desk_protocol


def tiny_net(seed=0):
    return build_network(mlp_spec((6, 4, 3)), seed=seed)


def tiny_data(n=64, seed=0, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, dim, 1))
    labels = rng.integers(0, classes, n)
    return pau.DatasetHandle(images, labels)


class TestOptimizers:
    def test_zero_gradients_leave_parameters(self):
        for make in (lambda: SGD(TrainConfig(lr=0.1, momentum=0.5)),
                     lambda: Adam(TrainConfig(lr=0.1))):
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
        SGD(TrainConfig(lr=0.1, momentum=0.0)).step(net, gs)
        assert net.weights[0]["W"][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_adam_first_step_magnitude(self):
        net = build_network([Dense(1, 1)], input_shape=(1,), seed=0)
        net.weights[0]["W"][...] = 1.0
        gs = {("layer", 0, "W"): np.array([[1.0]]), ("layer", 0, "b"): np.zeros(1)}
        Adam(TrainConfig(lr=0.002)).step(net, gs)
        update = 1.0 - net.weights[0]["W"][0, 0]
        assert update == pytest.approx(0.002, rel=1e-6)

    def test_shape_mismatch(self):
        net = tiny_net(2)
        gs = {("layer", 0, "W"): np.zeros((2, 2)), ("layer", 0, "b"): np.zeros(4)}
        with pytest.raises(ValueError, match="shape"):
            Adam(TrainConfig()).step(net, gs)

    def test_separate_pau_lr(self):
        net = tiny_net(4)
        x = np.random.default_rng(4).normal(size=(8, 6))
        out, trace = pau.forward(net, x)
        _, dout = nll_loss(out, np.zeros(8, dtype=int))
        gs = pau.backward(net, trace, dout)
        frozen_lr = net.pau_units[0].coefficients.copy()
        SGD(TrainConfig(lr=0.1, momentum=0.0, pau_lr=0.0 + 1e-300)).step(net, gs)
        moved = np.max(np.abs(net.pau_units[0].coefficients.numerator
                              - frozen_lr.numerator))
        assert moved < 1e-250  # effectively zero: the split rate was honored

    def test_adam_matches_its_formula_bit_for_bit(self):
        # the in-place moments against Adam written out, 20 steps
        rng = np.random.default_rng(12)
        net = tiny_net(12)
        opt = Adam(TrainConfig(lr=0.01))
        params = {k: v.copy() for k, v in net.params()}
        m = {k: 0.0 for k in params}
        v = {k: 0.0 for k in params}
        b1, b2, eps = pau.train.ADAM_BETA1, pau.train.ADAM_BETA2, pau.train.ADAM_EPS
        for t in range(1, 21):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            opt.step(net, grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                params[k] -= 0.01 * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t))
                                                              + eps)
        for k, p in net.params():
            assert np.array_equal(p, params[k]), k

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

    def test_empty_set_raises(self):
        empty = pau.DatasetHandle(np.zeros((0, 6, 1)), np.zeros(0, int), "test")
        with pytest.raises(ValueError, match=r"^cannot evaluate on an empty 'test' set$"):
            evaluate(tiny_net(), empty)


class TestTrainModel:
    def test_zero_epochs(self):
        net = tiny_net(7)
        before = net.weights[0]["W"].copy()
        data = tiny_data(seed=7)
        _, history = train_model(net, data, data, TrainConfig(epochs=0))
        assert history == []
        assert np.array_equal(net.weights[0]["W"], before)

    @pytest.mark.parametrize("role", ["training", "test"])
    def test_empty_set_raises_before_any_step(self, role):
        data, empty = tiny_data(seed=10), tiny_data(n=0, seed=10)
        net = tiny_net(10)
        before = net.weights[0]["W"].copy()
        sets = (empty, data) if role == "training" else (data, empty)
        with pytest.raises(ValueError, match=rf"^the {role} set is empty$"):
            train_model(net, *sets, TrainConfig(epochs=1))
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
        cfg = TrainConfig(epochs=2, seed=0)
        _, hist = train_model(net, train.subset(2000), test.subset(500), cfg)
        assert all(np.isfinite(m.train_loss) for m in hist)
        assert all(0.0 <= m.test_acc <= 1.0 for m in hist)

    def test_subset_sizes_respected(self, synth_sets, monkeypatch):
        # train_model steps over, and evaluates, exactly the data it is given
        train, test = synth_sets
        net = build_network(mlp_spec((784, 128, 10)), seed=1)
        seen = []
        monkeypatch.setattr(pau.train, "evaluate", lambda net, d: seen.append(len(d)) or 0.5)
        cfg = TrainConfig(epochs=1, seed=1)
        _, hist = train_model(net, train.subset(512), test.subset(256), cfg)
        assert len(hist) == 1 and seen == [256]

    def test_frozen_units_tracks_baseline_reference(self, synth_sets):
        # frozen lrelu(0.01)-coefficient units vs a true LeakyReLU net
        train, test = synth_sets
        _, hist_frozen = desk_protocol(train, test, seed=7, trainable=False)
        spec = [Dense(784, 128), Baseline("lrelu(0.01)"), Dense(128, 10), Softmax()]
        net = build_network(spec, seed=7)
        cfg = TrainConfig(epochs=5, batch_size=256, optimizer="adam", lr=0.002, seed=7)
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


def regress(net, target, n, lo, hi, seed, steps, lr):
    """Full-batch training of a one-input network against the mean squared
    error to ``target`` on n inputs drawn uniform on [lo, hi]; returns the
    final MSE."""
    x = np.random.default_rng(seed).uniform(lo, hi, (n, 1))
    y = pau.parse_target(target)(x)
    opt = make_optimizer(TrainConfig(lr=lr))
    for _ in range(steps):
        out, trace = pau.forward(net, x, training=True)
        diff = out - y
        opt.step(net, pau.backward(net, trace, 2.0 * diff / diff.size))
    diff = pau.forward(net, x)[0] - y
    return float(np.mean(diff * diff))


class TestRegression:
    def test_single_unit_learns_tanh(self):
        net = build_network([Activation()], init="lrelu(0.01)",
                            input_shape=(1,), seed=0)
        assert regress(net, "tanh", 1000, -3, 3, seed=0, steps=2000, lr=0.01) < 1e-3

    def test_regression_deterministic(self):
        finals = [regress(build_network([Activation()], input_shape=(1,), seed=1),
                          "sigmoid", 200, -2, 2, seed=1, steps=50, lr=0.01)
                  for _ in range(2)]
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

    @pytest.mark.parametrize("poison,where", [
        ("unit", "unit 0's coefficients"),
        ("weights", "layer 2 (Dense) weights b"),
        ("batch", "the input batch"),
    ])
    def test_noisy_train_names_first_non_finite(self, poison, where):
        # a NaN coefficient has no finite noise range: the unit's output is
        # NaN, and the run ends as it does without noise
        data = tiny_data(n=32, seed=3)
        net = build_network(mlp_spec((6, 4, 3)), seed=3, noise_alpha=0.05)
        if poison == "unit":
            net.pau_units[0].coefficients.denominator[0] = np.nan
        elif poison == "weights":
            net.weights[2]["b"][1] = np.inf
        else:
            data.images[20, 2] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
        with pytest.raises(NonFiniteLossError, match=r"^step \d+: loss is nan") as err:
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


# A seeded LeNet and MLP run at the worker count in argv; prints the SHA-256
# of every parameter array and the history.  A step of 300 samples runs as
# 4 LeNet shards of 64 and one of 44, or as MLP shards of 128, 128 and 44;
# an evaluation of 400 samples as 7 LeNet shards or 4 MLP shards, the last
# one a part shard.
WORKER_DIGEST_SCRIPT = """
import hashlib
import sys
import numpy as np
import pau
pau.train.worker_count = lambda: int(sys.argv[1])
rng = np.random.default_rng(40)
for arch, spec, shape in (("lenet", pau.lenet_spec(), (1, 32, 32)),
                          ("mlp", pau.mlp_spec((784, 128, 10)), (784,))):
    data = pau.DatasetHandle(rng.uniform(0, 1, (400,) + shape), rng.integers(0, 10, 400))
    for alpha in (0.0, 0.05):
        net = pau.build_network(spec, input_shape=shape, seed=41, noise_alpha=alpha)
        _, hist = pau.train_model(net, data, data,
                                  pau.TrainConfig(epochs=2, batch_size=300, seed=42))
        print(arch, alpha, [(repr(h.train_loss), repr(h.test_acc)) for h in hist])
        for key, value in net.params():
            print(key, hashlib.sha256(value.tobytes()).hexdigest())
"""


def _workers(monkeypatch, workers):
    monkeypatch.setattr(train, "worker_count", lambda: workers)


class TestShards:
    """A step and an evaluated batch run as shard_samples() shards on up to
    worker_count() threads; results depend on the shards, not the threads."""

    def test_parameters_do_not_depend_on_the_worker_count(self):
        runs = []
        for workers in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", WORKER_DIGEST_SCRIPT, workers],
                                  env=child_env(("PAU_THREADS",), OPENBLAS_NUM_THREADS="1",
                                                OMP_NUM_THREADS="1"),
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0 and not proc.stderr, proc.stderr
            runs.append(proc.stdout)
        assert runs[0].count("\n") == 2 * (1 + 18) + 2 * (1 + 6)   # histories, arrays
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("openblas,omp,workers", [
        (None, None, 1), ("1", None, 4), ("2", "1", 2), ("3", None, 1), ("8", None, 1),
        (None, "2", 2), ("x", "1", 4), ("0", None, 1),
    ])
    def test_worker_count_leaves_the_blas_threads_their_cores(self, monkeypatch, openblas,
                                                              omp, workers):
        monkeypatch.setattr(train.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert train.worker_count() == workers

    def test_worker_count_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: every core counts
        monkeypatch.delattr(train.os, "sched_getaffinity")
        monkeypatch.setattr(train.os, "cpu_count", lambda: 6)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert train.worker_count() == 3
        monkeypatch.setattr(train.os, "cpu_count", lambda: None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert train.worker_count() == 1

    def test_shard_samples_follow_the_network(self):
        assert train.shard_samples(pau.build_network(mlp_spec((784, 128, 10)))) == 128
        assert train.shard_samples(pau.build_network(pau.lenet_spec(),
                                                     input_shape=(1, 32, 32))) == 64
        assert train.shard_samples(pau.build_network(pau.vgg8_spec(),
                                                     input_shape=(1, 32, 32))) == 2

    def test_two_shards_start_at_most_two_threads(self, monkeypatch):
        # a pool of 8 starts its threads as shards are submitted
        _workers(monkeypatch, 8)
        monkeypatch.setattr(train, "_executor", None)
        threads = train._reduce_shards(lambda start: {threading.get_ident()}, [0, 1],
                                       operator.or_)
        pool = train._executor[2]
        pool.shutdown()
        assert len(threads) <= 2 and len(pool._threads) <= 2

    def test_a_failing_shard_ends_the_call(self, monkeypatch):
        # shard 0 fails while shard 1 runs; no later shard starts, and the
        # error reaches the caller once shard 1 is done
        _workers(monkeypatch, 2)
        started, finished = [], []

        def run(start):
            started.append(start)
            time.sleep(0.05 if start else 0.01)
            finished.append(start)
            if start == 0:
                raise LookupError(start)
            return [start]

        with pytest.raises(LookupError):
            train._reduce_shards(run, range(50), operator.add)
        assert len(started) <= train.worker_count()
        assert sorted(finished) == sorted(started)

    def test_lowest_failing_shard_raises(self, monkeypatch):
        # shards 2 and 3 fail before shard 1 does; shard 1's error is raised
        _workers(monkeypatch, 3)

        def run(start):
            if start == 1:
                time.sleep(0.05)
            if start:
                raise LookupError(start)
            return [start]

        with pytest.raises(LookupError) as err:
            train._reduce_shards(run, [0, 1, 2, 3], operator.add)
        assert err.value.args == (1,)
        assert train._reduce_shards(lambda start: [-start], range(5), operator.add) \
            == [0, -1, -2, -3, -4]

    def test_every_shard_runs_once(self, monkeypatch):
        # more workers than cores, and thread switches as often as possible
        _workers(monkeypatch, 4)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                assert train._reduce_shards(lambda s: ran.append(s) or [-s], range(50),
                                            operator.add) == [-s for s in range(50)]
                assert sorted(ran) == list(range(50))
        finally:
            sys.setswitchinterval(interval)

    def test_a_step_holds_few_gradient_dicts(self, monkeypatch):
        # 16 shards a step; shard 0 is slow, so the helpers would run all
        # the others and hold their gradients if nothing held them back
        workers, lock, live, peak = 3, threading.Lock(), [0], [0]
        _workers(monkeypatch, workers)

        def count(change):
            with lock:
                live[0] += change
                peak[0] = max(peak[0], live[0])

        monkeypatch.setattr(train, "SHARD_SAMPLES", 4)

        class Grads(dict):   # a dict that weakref.finalize can watch
            pass

        def slow_forward(*args, start=0, **kwargs):
            if start == 0:
                time.sleep(0.02)
            return pau.forward(*args, start=start, **kwargs)

        def counted_backward(*args):
            grads = Grads(pau.backward(*args))
            count(1)
            weakref.finalize(grads, count, -1)
            return grads

        monkeypatch.setattr(train, "forward", slow_forward)
        monkeypatch.setattr(train, "backward", counted_backward)
        data = tiny_data(n=64, seed=45)
        train_model(tiny_net(45), data, data, TrainConfig(epochs=1, batch_size=64, seed=45))
        # the running sum, and at most one gradient per worker waiting or in work
        assert live[0] == 0 and 2 <= peak[0] <= workers + 1

    @staticmethod
    def _pole_net():
        # x = 2 is the pole of 1 - x/2 in both unsafe units, and
        # 1 -> 1 / (1 - 1/2) = 2 through unit 0 and the identity Dense
        net = build_network([Activation(), Dense(3, 3), Activation(), Dense(3, 2), Softmax()],
                            input_shape=(3,), init=pau.RationalCoefficients([0.0, 1.0], [-0.5]),
                            seed=43)
        for unit in net.pau_units:
            unit.safe = False
        net.weights[1]["W"][...] = np.eye(3)
        return net

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_pole_of_the_lowest_failing_shard_is_raised(self, monkeypatch, run):
        # the run's sample 10 (shard 0) meets a pole in layer 2, its samples
        # 200 (shard 1) and 290 (shard 2) in layer 0; the error is shard 0's,
        # as its own forward names it, at any worker count
        net = self._pole_net()
        x = np.random.default_rng(43).uniform(-0.5, 0.5, (300, 3))
        # the samples in the order the run takes them: train_epochs shuffles
        order = np.random.default_rng(0).permutation(300) if run == "train" else np.arange(300)
        x[order[10], 2] = 1.0
        x[order[200], 1] = x[order[290], 0] = 2.0
        data = pau.DatasetHandle(x, np.arange(300) % 2)
        messages = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            with pytest.raises(pau.PoleError) as err:
                if run == "train":
                    train_model(net.copy(), data, data, TrainConfig(epochs=1, batch_size=300))
                else:
                    evaluate(net, data)
            assert err.value.index == 10 * 3 + 2
            messages.append(str(err.value))
        with pytest.raises(pau.PoleError) as shard:   # shard 0 alone
            pau.forward(net, x[order][:128])
        assert shard.value.index == 10 * 3 + 2
        assert messages == [str(shard.value)] * 2
        assert messages[0].startswith("layer 2 (Activation) unit 1: ")

    def test_pole_is_named_by_its_index_in_the_evaluated_set(self, monkeypatch):
        # one pole, at sample 1500 of 2000: the error names the element as
        # one forward of the whole set does
        net = self._pole_net()
        x = np.random.default_rng(46).uniform(-0.5, 0.5, (2000, 3))
        x[1500, 1] = 2.0
        data = pau.DatasetHandle(x, np.arange(2000) % 2)
        with pytest.raises(pau.PoleError) as whole:
            pau.forward(net, x)
        assert whole.value.index == 1500 * 3 + 1
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            with pytest.raises(pau.PoleError) as err:
                evaluate(net, data)
            assert err.value.index == 1500 * 3 + 1
            assert str(err.value) == str(whole.value)

    def test_diverging_run_raises_the_same_error_at_any_worker_count(self, monkeypatch):
        # the unit overflows in every shard; no shard warns, since each
        # silences numpy itself, and the error is the whole batch's
        data = pau.DatasetHandle(np.random.default_rng(44).uniform(0, 1, (300, 1, 8, 8)),
                                 np.arange(300) % 3)
        messages = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            with pytest.raises(NonFiniteLossError) as err:
                train_model(TestNonFiniteLoss._overflowing_conv_net(), data, data,
                            TrainConfig(epochs=1, batch_size=300))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == ("step 0: loss is nan; first non-finite value: "
                                              "the output of layer 1 (Activation)")


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
                    dict(seed=-1)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
