"""The benchmark's tracing hooks resolve against the library's names.

perfbench/child.py wraps library functions by module attribute, for
example gradcheck.compare_single and network.eval_pau_stacked.  A renamed
or deleted attribute would otherwise only show up as a failed
``perfbench/run.py --trace 1`` run.
"""

from pathlib import Path

import numpy as np
import pytest

from pau import approx, cli, data, gradcheck, network, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (approx, cli, gradcheck, network, train)


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    return child


@pytest.mark.parametrize("workload", ["init-tools", "mlp-desk"])
def test_hooks_resolve_and_restore(child, workload):
    before = [dict(vars(m)) for m in MODULES]
    rec = child.tracing.Recorder()
    child.instrument_boundaries(rec, child.State(0, child.TRAINING.get(workload)))
    child.instrument_layers(rec)
    assert gradcheck.compare_single is not before[2]["compare_single"]
    rec.restore()
    assert [dict(vars(m)) for m in MODULES] == before


def test_traced_noisy_step_reaches_kernels(child):
    # the spans exist only if the library still calls the kernels through
    # the module names the benchmark wraps
    rec = child.tracing.Recorder()
    child.instrument_layers(rec)
    try:
        net = network.build_network(network.mlp_spec((6, 5, 3)), noise_alpha=0.05)
        rng = np.random.default_rng(0)
        batch = data.DatasetHandle(rng.uniform(0, 1, (8, 6)), rng.integers(0, 3, 8))
        train.train_model(net, batch, batch, train.TrainConfig(epochs=1, batch_size=8))
    finally:
        rec.restore()
    names = {s.name for s in rec.spans}
    assert {"rational.backward_pau", "rational.eval_pau_stacked",
            "rational.sample_noisy_coeffs", "network.forward",
            "network.backward"} <= names


@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_sampled_backward_rows_line_up(child, alpha):
    # the benchmark samples the same rows of xs, upstream and the noise
    # stacks of every backward_pau call and checks each sampled element's
    # d_input against central differences; rows that do not line up fail
    # it, here and on every sample of a benchmark run
    rec = child.tracing.Recorder()
    rec.sample_backward(network, "backward_pau", 0, child.GRAD_SAMPLES)
    try:
        net = network.build_network(network.lenet_spec(), input_shape=(1, 32, 32),
                                    seed=1, noise_alpha=alpha)
        rng = np.random.default_rng(1)
        batch = data.DatasetHandle(rng.uniform(0, 1, (16, 32, 32)), rng.integers(0, 10, 16))
        train.train_model(net, batch, batch, train.TrainConfig(epochs=1, batch_size=16))
    finally:
        rec.restore()
    assert len(rec.backward_samples) >= 4   # the LeNet's four activation layers
    checked, wrong = child.backward_mismatches(rec.backward_samples)
    assert checked > 0 and wrong == 0
