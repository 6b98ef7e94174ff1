import numpy as np
import pytest

import pau
from pau.network import (Activation, Conv2d, Dense, Flatten, MaxPool, Softmax,
                         build_network, lenet_spec, mlp_spec, param_count)
from pau.prune import (PruneSchedule, apply_prune, lottery_run,
                       prunable_layer_indices, rewind, score_units)
from pau.train import TrainConfig, nll_loss


def small_mlp(seed=0):
    return build_network(mlp_spec((20, 8, 4)), seed=seed)


class TestSchedule:
    def test_default(self):
        s = PruneSchedule()
        assert s.fractions == (0.10, 0.20, 0.30, 0.40, 0.50, 0.60)

    def test_zero_fraction_allowed(self):
        assert PruneSchedule((0.0,)).fractions == (0.0,)

    def test_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            PruneSchedule((0.3, 0.3))

    def test_range(self):
        with pytest.raises(ValueError):
            PruneSchedule((1.0,))


class TestScores:
    def test_signed_sum_literal(self):
        net = build_network([Conv2d(1, 2, 1), Flatten(), Dense(2, 2), Softmax()],
                            input_shape=(1, 1, 1), seed=0)
        net.weights[0]["W"][0, 0, 0, 0] = 0.5
        net.weights[0]["W"][1, 0, 0, 0] = -0.5
        s = score_units(net)
        assert s[0][0] == 0.5 and s[0][1] == -0.5

    def test_signed_sum_cancels(self):
        net = build_network([Conv2d(2, 1, 1), Flatten(), Dense(1, 2), Softmax()],
                            input_shape=(2, 1, 1), seed=0)
        net.weights[0]["W"][0, 0] = 0.5
        net.weights[0]["W"][0, 1] = -0.5
        assert score_units(net)[0][0] == 0.0

    def test_l1_variant(self):
        net = build_network([Conv2d(2, 1, 1), Flatten(), Dense(1, 2), Softmax()],
                            input_shape=(2, 1, 1), seed=0)
        net.weights[0]["W"][0, 0] = 0.5
        net.weights[0]["W"][0, 1] = -0.5
        assert score_units(net, "l1")[0][0] == 1.0

    def test_dense_when_no_convs(self):
        net = small_mlp()
        s = score_units(net)
        assert list(s) == [0]  # hidden dense layer only, output excluded
        assert s[0].shape == (8,)

    def test_conv_only_when_convs_present(self):
        net = build_network(lenet_spec(), input_shape=(1, 32, 32), seed=1)
        assert all(isinstance(net.specs[i], Conv2d)
                   for i in prunable_layer_indices(net))


class TestApply:
    def test_tiny_p_changes_nothing(self):
        net = small_mlp(1)
        before, _ = param_count(net)
        w_before = net.weights[0]["W"].copy()
        mask = apply_prune(net, 0.05)  # floor(0.05*8) = 0
        assert mask == {}
        assert param_count(net)[0] == before
        assert np.array_equal(net.weights[0]["W"], w_before)

    def test_lowest_two_of_four(self):
        net = build_network(mlp_spec((4, 4, 2)), seed=2)
        net.weights[0]["W"][...] = 0.0
        net.weights[0]["W"][0, :] = [0.1, 0.9, 0.5, 0.2]
        mask = apply_prune(net, 0.5)
        assert np.array_equal(mask[0], [False, True, True, False])

    def test_tie_breaks_to_lower_index(self):
        net = build_network(mlp_spec((4, 4, 2)), seed=3)
        net.weights[0]["W"][...] = 0.0  # every unit scores 0.0
        mask = apply_prune(net, 0.5)
        assert np.array_equal(mask[0], [False, False, True, True])

    def test_lenet_conv1_half(self):
        net = build_network(lenet_spec(), input_shape=(1, 32, 32), seed=4)
        mask = apply_prune(net, 0.5)
        assert int((~mask[0]).sum()) == 3  # floor(0.5 * 6)

    def test_masked_forward_equals_structural_removal(self):
        net = build_network(mlp_spec((20, 8, 4)), seed=5)
        apply_prune(net, 0.5)
        keep = net.masks[0]
        small = build_network(mlp_spec((20, int(keep.sum()), 4)), seed=5)
        small.weights[0]["W"][...] = net.weights[0]["W"][:, keep]
        small.weights[0]["b"][...] = net.weights[0]["b"][keep]
        small.weights[2]["W"][...] = net.weights[2]["W"][keep, :]
        small.weights[2]["b"][...] = net.weights[2]["b"]
        x = np.random.default_rng(5).normal(size=(16, 20))
        a, _ = pau.forward(net, x)
        b, _ = pau.forward(small, x)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_masked_conv_forward_equals_structural_removal(self):
        spec = [Conv2d(1, 4, 3), Activation(), MaxPool(2), Flatten(),
                Dense(4 * 3 * 3, 3), Softmax()]
        net = build_network(spec, input_shape=(1, 8, 8), seed=6)
        apply_prune(net, 0.5)
        keep = net.masks[0]
        small_spec = [Conv2d(1, 2, 3), Activation(), MaxPool(2), Flatten(),
                      Dense(2 * 3 * 3, 3), Softmax()]
        small = build_network(small_spec, input_shape=(1, 8, 8), seed=6)
        small.weights[0]["W"][...] = net.weights[0]["W"][keep]
        small.weights[0]["b"][...] = net.weights[0]["b"][keep]
        col_keep = np.repeat(keep, 9)
        small.weights[4]["W"][...] = net.weights[4]["W"][col_keep, :]
        small.weights[4]["b"][...] = net.weights[4]["b"]
        x = np.random.default_rng(6).normal(size=(4, 1, 8, 8))
        a, _ = pau.forward(net, x)
        b, _ = pau.forward(small, x)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_masked_gradients_exactly_zero(self):
        net = small_mlp(7)
        apply_prune(net, 0.5)
        keep = net.masks[0]
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 20))
        out, trace = pau.forward(net, x)
        _, dout = nll_loss(out, rng.integers(0, 4, 8))
        gs = pau.backward(net, trace, dout)
        assert not gs[("layer", 0, "W")][:, ~keep].any()
        assert not gs[("layer", 0, "b")][~keep].any()
        assert not gs[("layer", 2, "W")][~keep, :].any()
        assert gs[("layer", 0, "W")][:, keep].any()

    def test_idempotent_at_same_p(self):
        net = small_mlp(8)
        # make scores adversarial: negatives rank below zeroed weights
        net.weights[0]["W"][:] = np.random.default_rng(8).normal(size=(20, 8))
        m1 = apply_prune(net, 0.4)
        m2 = apply_prune(net, 0.4)
        assert np.array_equal(m1[0], m2[0])

    def test_param_count_reflects_mask(self):
        net = small_mlp(9)
        full, _ = param_count(net)
        apply_prune(net, 0.5)
        masked, _ = param_count(net)
        # 4 hidden units gone: their 20 in-weights + bias + 4 out-weights
        assert full - masked == 4 * (20 + 1 + 4)

    @pytest.mark.parametrize("specs,input_shape,masks,want", [
        # conv -> conv: conv0 keeps 3 units of 1*3*3 + 1; conv2 keeps 4 units of
        # 3 channels * 3*3 + 1; the dense layer sees 4 kept channels of 4x4
        ([Conv2d(1, 4, 3), Activation(), Conv2d(4, 6, 3), Activation(), Flatten(),
          Dense(6 * 4 * 4, 3), Softmax()], (1, 8, 8),
         {0: [1, 0, 1, 1], 2: [1, 1, 0, 1, 0, 1]},
         3 * 10 + 4 * (3 * 9 + 1) + (4 * 16 * 3 + 3) + 20),
        # conv -> Flatten -> dense: 3 kept channels of 2x2 feed 4 kept units
        ([Conv2d(2, 5, 3), Activation(), Flatten(), Dense(5 * 2 * 2, 6), Activation(),
          Dense(6, 3), Softmax()], (2, 4, 4),
         {0: [0, 1, 1, 0, 1], 3: [1, 0, 1, 1, 0, 1]},
         3 * (2 * 9 + 1) + (3 * 4 * 4 + 4) + (4 * 3 + 3) + 20),
    ], ids=["conv-conv", "conv-flatten-dense"])
    def test_param_count_masked_conv(self, specs, input_shape, masks, want):
        net = build_network(specs, input_shape=input_shape)
        net.masks = {i: np.array(m, dtype=bool) for i, m in masks.items()}
        assert param_count(net) == (want, 20)
        # the count is what survives masking once every weight is nonzero
        for key, arr in net.params():
            arr[...] = 1.0
        net.params_changed()
        assert sum(np.count_nonzero(a) for _, a in net.params()) == want

    def test_p_bounds(self):
        net = small_mlp(10)
        with pytest.raises(ValueError):
            apply_prune(net, 1.0)
        with pytest.raises(ValueError):
            apply_prune(net, -0.1)

    @pytest.mark.parametrize("call,message", [
        (lambda: score_units(small_mlp(10), "bad"), "unknown scoring method 'bad'"),
        (lambda: apply_prune(build_network([Dense(4, 2), Softmax()], input_shape=(4,)), 0.5),
         "network has no prunable layer"),
    ], ids=["unknown-method", "no-prunable-layer"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestMidTrainingPrune:
    def test_masked_units_resist_live_optimizer_moments(self):
        # prune AFTER the optimizer has accumulated moments: masked weights
        # must stay exactly zero through further steps
        net = small_mlp(20)
        rng = np.random.default_rng(20)
        opt = pau.train.Adam(TrainConfig(lr=0.05))
        for _ in range(5):
            x = rng.normal(size=(16, 20))
            y = rng.integers(0, 4, 16)
            out, trace = pau.forward(net, x)
            _, dout = nll_loss(out, y)
            opt.step(net, pau.backward(net, trace, dout))
        apply_prune(net, 0.5)
        keep = net.masks[0]
        for _ in range(5):
            x = rng.normal(size=(16, 20))
            y = rng.integers(0, 4, 16)
            out, trace = pau.forward(net, x)
            _, dout = nll_loss(out, y)
            opt.step(net, pau.backward(net, trace, dout))
        assert not net.weights[0]["W"][:, ~keep].any()
        assert not net.weights[0]["b"][~keep].any()
        assert not net.weights[2]["W"][~keep, :].any()
        assert net.weights[0]["W"][:, keep].any()


class TestRewind:
    def test_survivors_bit_identical(self):
        net0 = small_mlp(11)
        net = net0.copy()
        data_rng = np.random.default_rng(11)
        x = data_rng.normal(size=(32, 20))
        y = data_rng.integers(0, 4, 32)
        out, trace = pau.forward(net, x)
        _, dout = nll_loss(out, y)
        pau.train.Adam(TrainConfig(lr=0.01)).step(net, pau.backward(net, trace, dout))
        apply_prune(net, 0.5)
        rewind(net, net0)
        keep = net.masks[0]
        assert np.array_equal(net.weights[0]["W"][:, keep],
                              net0.weights[0]["W"][:, keep])
        assert np.array_equal(net.weights[2]["W"][keep, :],
                              net0.weights[2]["W"][keep, :])
        assert not net.weights[0]["W"][:, ~keep].any()
        assert net.pau_units[0].coefficients == net0.pau_units[0].coefficients


class TestLottery:
    def test_p_zero_schedule_equals_unpruned_run(self, synth_sets):
        train, test = synth_sets
        train, test = train.subset(1000), test.subset(400)
        cfg = TrainConfig(epochs=1, seed=3)
        build = lambda: build_network(mlp_spec((784, 32, 10)), seed=3)
        report = lottery_run(build, train, test, PruneSchedule((0.0,), cfg))
        net = build()
        pau.train_model(net, train, test, TrainConfig(epochs=1, seed=3))
        acc = pau.evaluate(net, test)
        assert report.rows[0].params_remaining == param_count(net)[0]
        assert report.rows[0].test_acc == acc

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_equals_training_a_fresh_copy_per_fraction(self, synth_sets, alpha):
        train, test = synth_sets
        train, test = train.subset(500), test.subset(200)
        cfg = TrainConfig(epochs=1, seed=6)
        build = lambda: build_network(mlp_spec((784, 16, 10)), seed=6, noise_alpha=alpha)
        schedule = PruneSchedule((0.0, 0.2, 0.5), cfg)
        report = lottery_run(build, train, test, schedule)
        net0 = build()
        want = []
        for p in schedule.fractions:
            net = net0.copy()
            pau.train_model(net, train, test, cfg)
            apply_prune(net, p)
            rewind(net, net0)
            pau.train_model(net, train, test, cfg)
            want.append((p, param_count(net)[0], repr(pau.evaluate(net, test))))
        assert [(r.p, r.params_remaining, repr(r.test_acc)) for r in report.rows] == want

    def test_no_epochs_scores_the_pruned_initialization(self, synth_sets):
        # with no epochs there is no last epoch's score: the row evaluates
        train, test = synth_sets
        train, test = train.subset(200), test.subset(100)
        build = lambda: build_network(mlp_spec((784, 16, 10)), seed=8)
        report = lottery_run(build, train, test,
                             PruneSchedule((0.0, 0.5), TrainConfig(epochs=0, seed=8)))
        for row in report.rows:
            net = build()
            apply_prune(net, row.p)
            assert row.test_acc == pau.evaluate(net, test)

    def test_params_strictly_decrease(self, synth_sets):
        train, test = synth_sets
        cfg = TrainConfig(epochs=1, seed=4)
        build = lambda: build_network(mlp_spec((784, 32, 10)), seed=4)
        report = lottery_run(build, train.subset(1000), test.subset(400),
                             PruneSchedule((0.1, 0.3, 0.5), cfg))
        params = [r.params_remaining for r in report.rows]
        assert params == sorted(params, reverse=True)
        assert len(set(params)) == len(params)

    def test_report_csv(self, tmp_path, synth_sets):
        train, test = synth_sets
        cfg = TrainConfig(epochs=1, seed=5)
        build = lambda: build_network(mlp_spec((784, 16, 10)), seed=5)
        report = lottery_run(build, train.subset(500), test.subset(200),
                             PruneSchedule((0.2, 0.4), cfg))
        path = tmp_path / "prune.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,params_remaining,test_acc"
        assert len(lines) == 3
