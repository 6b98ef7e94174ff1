"""One benchmark workload in one fresh process.

run.py starts this script once for each set-up sample and once for the
measured run.  The BLAS thread variables and PYTHONPATH are already in
its environment, so they apply before numpy is imported below.  The last
line of standard output is one JSON object: the set-up time, the
closed-loop results and, for a traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from pau import approx, cli, data, gradcheck, network, rational, train
from pau.targets import parse_target

import tracing

BATCH = 256
LR = 0.002
INIT = "lrelu(0.01)"
FIT_TARGETS = ("relu", "lrelu(0.01)", "lrelu(0.2)")
PADE_TARGETS = ("tanh", "sigmoid", "swish")
FIT_ORDERS = (5, 4)
FIT_GATE = ("lrelu(0.01)", 0.06)   # acceptance criterion 03
GRADCHECK_TRIALS = "1000"
REPLAY_REPS = 3
GRAD_SAMPLES = 1024       # elements kept per backward_pau call
GRAD_STEP = 1e-5          # central-difference step, relative to max(1, |x|)
GRAD_TOL = 1e-5           # relative error allowed on a sampled d_input
LAYER_KINDS = ("conv2d", "maxpool", "activation", "dense", "softmax")


@dataclass(frozen=True)
class TrainingWorkload:
    """One train_model call per closed-loop round, each from the same
    seeded initial network, so every round must repeat bit for bit."""

    arch: str                 # "mlp" or "lenet"
    n_train: int
    n_test: int
    epochs: int
    warmup_samples: int
    noise_alpha: float = 0.0
    acc_gate: float | None = None


# mlp-desk is the synth-desk protocol (10k/2k split, 5 epochs) and carries
# criterion 05's accuracy gate.  The LeNet rounds are one 2-step epoch so
# that whole rounds fit the measured window at ~1-2 s per step.
TRAINING = {
    "mlp-desk": TrainingWorkload("mlp", 10_000, 2_000, 5, 2_560, acc_gate=0.90),
    "lenet-train": TrainingWorkload("lenet", 512, 256, 1, 256),
    "lenet-noise": TrainingWorkload("lenet", 512, 256, 1, 256, noise_alpha=0.05),
}


@dataclass
class Ledger:
    """Operations attempted and failed: training steps, evaluate calls,
    gradient checks, fits, Padé derivations and gradcheck calls."""

    attempted: int = 0
    failed: int = 0

    def fail(self, what):
        self.failed += 1
        print(f"failed operation: {what}", file=sys.stderr)


@dataclass
class State:
    seed: int
    training: TrainingWorkload | None = None    # None on init-tools
    trainset: object = None
    testset: object = None
    net0: object = None
    cfg: object = None
    fit_cfg: object = None
    targets: dict = field(default_factory=dict)
    reference: object = None          # first round's result, for the repeat check
    # (span index, completed) per training round, (span index, residuals)
    # per init-tools round
    rounds: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    last_net: object = None


def _ms(t0):
    return 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_training(state: State, work_dir, timings):
    w = state.training
    t0 = time.perf_counter()
    full = data.synth_digits(w.n_train + w.n_test, seed=state.seed)
    timings["data.synth_digits.ms"] = _ms(t0)
    # the generated set goes through IDX files, the way the MNIST presets load
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        data.write_dataset(data.DatasetHandle(full.images[:w.n_train],
                                              full.labels[:w.n_train], "train"), tmp)
        data.write_dataset(data.DatasetHandle(full.images[w.n_train:],
                                              full.labels[w.n_train:], "test"), tmp)
        t0 = time.perf_counter()
        trainset = data.load_idx(tmp, "train")
        testset = data.load_idx(tmp, "test")
        timings["data.load_idx.ms"] = _ms(t0)
    if w.arch == "lenet":
        t0 = time.perf_counter()
        trainset = data.pad_images(trainset, 32)
        testset = data.pad_images(testset, 32)
        timings["data.pad_images.ms"] = _ms(t0)
        spec, shape = network.lenet_spec(), (1, 32, 32)
    else:
        spec, shape = network.mlp_spec((784, 128, 10)), None
    state.trainset, state.testset = trainset, testset
    state.net0 = network.build_network(spec, init=INIT, seed=state.seed,
                                       input_shape=shape, noise_alpha=w.noise_alpha)
    state.cfg = train.TrainConfig(epochs=w.epochs, batch_size=BATCH,
                                  optimizer="adam", lr=LR, seed=state.seed)
    # warm-up steps are set-up, not timed steps
    train.train_model(state.net0.copy(), trainset.subset(w.warmup_samples),
                      testset.subset(min(w.n_test, 512)),
                      replace(state.cfg, epochs=1))


def setup_init_tools(state: State):
    state.fit_cfg = approx.FitConfig(lo=-3.0, hi=3.0, grid_step=1e-4)
    state.targets = {n: parse_target(n) for n in FIT_TARGETS + PADE_TARGETS}
    # warm-up: one coarse fit, one derivation and a short gradcheck
    approx.least_squares_fit(state.targets["relu"], *FIT_ORDERS,
                             approx.FitConfig(grid_step=1e-2))
    approx.pade_from_taylor(approx.taylor_of(state.targets["tanh"], 9), *FIT_ORDERS)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["gradcheck", "--trials", "10", "--seed", str(state.seed)])


# ---------------------------------------------------------------------------
# Closed-loop rounds
# ---------------------------------------------------------------------------

def _attempt(ledger, what, fn, *args, **kwargs):
    """Run one operation; an exception counts it as failed, not fatal."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a broken kernel must show as a failed operation
        traceback.print_exc(file=sys.stderr)
        ledger.fail(what)
        return None


def backward_mismatches(samples):
    """(checked, wrong) sampled elements whose backward_pau d_input differs
    from upstream × a central difference of eval_pau_stacked at the same
    element's coefficients.  Elements with zero upstream gradient, and
    those where x ± h straddles a sign change of A (the kink of the safe
    unit's |A|), are not checked."""
    checked = wrong = 0
    for s in samples:
        keep = s.upstream != 0
        x, up, d_in = s.x[keep], s.upstream[keep], s.d_input[keep]
        num, den = s.numerator[keep], s.denominator[keep]
        h = GRAD_STEP * np.maximum(1.0, np.abs(x))

        def f(z):
            return rational.eval_pau_stacked(z, num, den, safe=s.safe)

        if s.safe and den.shape[-1]:
            smooth = (np.sign((x + h) * rational.eval_polynomial(den, x + h))
                      == np.sign((x - h) * rational.eval_polynomial(den, x - h)))
        else:
            smooth = np.ones(x.shape, dtype=bool)
        want = up * (f(x + h) - f(x - h)) / (2 * h)
        scale = np.abs(up) * np.maximum(1.0, np.abs(f(x)))
        denom = np.maximum(np.maximum(np.abs(d_in), np.abs(want)), 1e-4 * scale)
        bad = ~(np.abs(d_in - want) <= GRAD_TOL * denom)
        checked += int(np.count_nonzero(smooth))
        wrong += int(np.count_nonzero(bad & smooth))
    return checked, wrong


def training_round(state: State, rec: tracing.Recorder, ledger: Ledger):
    w = state.training
    index = len(rec.spans)
    bad_losses = rec.nonfinite_losses
    out = _attempt(ledger, "train_model", rec.call, "train.train_model",
                   train.train_model, state.net0.copy(), state.trainset,
                   state.testset, state.cfg)
    kids = [rec.spans[c].name for c in rec.children(index)]
    ledger.attempted += (kids.count("train.optimizer_step")
                         + kids.count("train.evaluate") + (out is None))
    for _ in range(rec.nonfinite_losses - bad_losses):
        ledger.fail("training step with a non-finite loss")
    ledger.attempted += 1
    checked, wrong = backward_mismatches(rec.backward_samples)
    rec.backward_samples.clear()
    if wrong or not checked:
        ledger.fail(f"backward_pau: {wrong} of {checked} sampled d_inputs differ "
                    "from central differences")
    state.rounds.append((index, out is not None))
    if out is None:
        return
    net, history = out
    state.last_net = net
    result = [(repr(m.train_loss), repr(m.test_acc)) for m in history]
    if state.reference is None:
        state.reference = result
        state.fingerprint = {"train_loss_end": repr(history[-1].train_loss),
                             "test_acc": repr(history[-1].test_acc)}
    elif result != state.reference:
        ledger.fail("seeded training run did not repeat bit for bit")
    if w.acc_gate is not None and not history[-1].test_acc >= w.acc_gate:
        ledger.fail(f"test_acc {history[-1].test_acc!r} below {w.acc_gate}")


def _init_round(state: State, ledger: Ledger):
    residuals = {}
    for name in FIT_TARGETS:
        target = state.targets[name]
        ledger.attempted += 1
        coeffs = _attempt(ledger, f"fit {name}", approx.least_squares_fit,
                          target, *FIT_ORDERS, state.fit_cfg, safe=True)
        if coeffs is None:
            continue
        res = _attempt(ledger, f"fit_residual {name}", approx.fit_residual,
                       coeffs, target, state.fit_cfg, safe=True)
        if res is None:
            continue
        mx = res[0]
        residuals[name] = mx
        key = coeffs.numerator.tobytes() + coeffs.denominator.tobytes()
        first = state.fingerprint.setdefault(f"fit {name}", key.hex())
        if not math.isfinite(mx) or (name == FIT_GATE[0] and mx > FIT_GATE[1]):
            ledger.fail(f"fit {name}: max-abs residual {mx!r}")
        elif first != key.hex():
            ledger.fail(f"fit {name} did not repeat bit for bit")
    for name in PADE_TARGETS:
        ledger.attempted += 1
        got = _attempt(ledger, f"pade {name}", approx.pade_from_taylor,
                       approx.taylor_of(state.targets[name], sum(FIT_ORDERS)),
                       *FIT_ORDERS)
        want = approx.builtin_coefficients(name)
        if got is not None and (got.numerator.tobytes() != want.numerator.tobytes()
                                or got.denominator.tobytes() != want.denominator.tobytes()):
            ledger.fail(f"pade {name} differs from the builtin table")
    ledger.attempted += 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = _attempt(ledger, "gradcheck", cli.main,
                        ["gradcheck", "--trials", GRADCHECK_TRIALS,
                         "--seed", str(state.seed)])
    if code not in (None, 0):
        ledger.fail(f"gradcheck exited {code}")
    state.fingerprint.setdefault("gradcheck", printed.getvalue().strip())
    return residuals


def init_round(state: State, rec: tracing.Recorder, ledger: Ledger):
    index = len(rec.spans)
    residuals = rec.call("init.round", _init_round, state, ledger)
    state.rounds.append((index, residuals))
    state.fingerprint.setdefault("fit_max_residual",
                                 repr(max(residuals.values(), default=math.nan)))


def closed_loop(state, rec, ledger, seconds):
    """Rounds back to back, one client, until another round would end past
    `seconds`; at least one round."""
    run = init_round if state.training is None else training_round
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        run(state, rec, ledger)
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest order statistic with at least
    ten values beyond it; the median when there are fewer than 21."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


def summarize(state: State, rec: tracing.Recorder, first_round: int) -> dict:
    """Closed-loop figures of the rounds from `first_round` on."""
    step_ms, out = [], {}
    rounds = state.rounds[first_round:]
    if state.training is None:
        fit_s, grad_s = [], []
        for index, residuals in rounds:
            step_ms.append(1e3 * rec.spans[index].seconds)
            kids = [rec.spans[c] for c in rec.children(index)]
            fit_s.append(sum(s.seconds for s in kids if s.name in
                             ("approx.least_squares_fit", "approx.fit_residual")))
            grad_s.append(sum(s.seconds for s in kids if s.name == "cli.main"))
        out["fit_s"] = statistics.median(fit_s)
        out["gradcheck_s"] = statistics.median(grad_s)
        out["fit_max_residual"] = max((r for _, res in rounds for r in res.values()),
                                      default=math.nan)
    else:
        w = state.training
        train_s = eval_s = other_s = 0.0
        train_n = eval_n = 0
        for index, completed in rounds:
            span = rec.spans[index]
            mark, evals, inside = span.start, 0.0, 0.0
            for c in rec.children(index):
                s = rec.spans[c]
                if s.name in ("network.forward", "network.backward"):
                    inside += s.seconds
                elif s.name == "train.optimizer_step":
                    step_ms.append(1e3 * (s.end - mark))
                    other_s += (s.end - mark) - (inside + s.seconds)
                    mark, inside = s.end, 0.0
                elif s.name == "train.evaluate":
                    evals += s.seconds
                    eval_n += w.n_test
                    mark, inside = s.end, 0.0
            eval_s += evals
            if completed:
                train_s += span.seconds - evals
                train_n += w.n_train * w.epochs
        out["train_samples_per_s"] = train_n / train_s if train_s else 0.0
        out["eval_samples_per_s"] = eval_n / eval_s if eval_s else 0.0
        # the step minus forward, backward and optimizer; meaningful only
        # when forward and backward are traced
        out["step_other_ms"] = 1e3 * other_s / max(len(step_ms), 1)
        if state.reference is not None:
            out["train_loss_end"] = float(state.reference[-1][0])
            out["test_acc"] = float(state.reference[-1][1])
    if not step_ms:
        raise RuntimeError("no step completed")
    out["step_ms_samples"] = step_ms
    out["steps"] = len(step_ms)
    out["step_ms_p50"] = statistics.median(step_ms)
    out["step_ms_tail"], out["step_tail_pct"] = tail(step_ms)
    return out


def replay_layers(state: State) -> dict:
    """Forward/backward ms of each layer run alone at batch 256.

    Each layer becomes a one-layer Network with the trained net's spec,
    weights and units; its input is the previous replayed layer's output.
    `backward` returns only parameter gradients, so the upstream gradient
    of each layer is a seeded random array of its output shape.
    """
    net = state.last_net or state.net0
    rng = np.random.default_rng(state.seed)
    x = state.trainset.images[:BATCH].reshape((BATCH,) + net.input_shape)
    shape = net.input_shape
    out = {f"network.layer.{k}.{d}": 0.0 for k in LAYER_KINDS for d in ("fwd_ms", "bwd_ms")}
    for i, spec in enumerate(net.specs):
        single = network.Network([spec], shape, [net.weights[i]], net.pau_units, net.seed)
        shape = net.shapes[i]
        fwd, bwd = [], []
        for r in range(REPLAY_REPS):
            t0 = time.perf_counter()
            y, trace = network.forward(single, x, training=True, seed=state.seed + r)
            fwd.append(_ms(t0))
            g = 1e-3 * rng.standard_normal(y.shape)
            t0 = time.perf_counter()
            network.backward(single, trace, g)
            bwd.append(_ms(t0))
        x = y
        kind = type(spec).__name__.lower()
        if kind in LAYER_KINDS:
            out[f"network.layer.{kind}.fwd_ms"] += statistics.median(fwd)
            out[f"network.layer.{kind}.bwd_ms"] += statistics.median(bwd)
    return out


def per_layer_metrics(plain, traced, breakdown, replay, timings):
    m = {k: plain.get(k, 0.0) for k in (
        "steps", "step_ms_tail", "step_tail_pct", "train_samples_per_s", "eval_samples_per_s",
        "train_loss_end", "test_acc", "fit_s", "fit_max_residual", "gradcheck_s")}
    m["trace.overhead_ms"] = traced["step_ms_p50"] - plain["step_ms_p50"]
    m["trace.overhead_share"] = m["trace.overhead_ms"] / plain["step_ms_p50"]
    m.update({f"network.layer.{k}.{d}": replay.get(f"network.layer.{k}.{d}", 0.0)
              for k in LAYER_KINDS for d in ("fwd_ms", "bwd_ms")})
    m["network.layer_coverage"] = sum(replay.values()) / plain["step_ms_p50"]

    def get(name, stat):
        return breakdown.get(name, {}).get(stat, 0.0)

    for stat in ("ms", "calls", "elements", "ns_per_element", "peak_mb"):
        m[f"rational.backward_pau.{stat}"] = get("rational.backward_pau", stat)
    for name, stats in (("rational.eval_pau_batch", ("ms", "elements")),
                        ("rational.eval_pau_stacked", ("ms",)),
                        ("rational.sample_noisy_coeffs", ("ms",)),
                        ("rational.eval_pau", ("calls", "ms")),
                        ("rational.grad_pau", ("calls", "ms")),
                        ("network.forward", ("ms", "self_ms")),
                        ("network.backward", ("ms", "self_ms")),
                        ("train.optimizer_step", ("ms",)),
                        ("train.evaluate", ("ms",)),
                        ("approx.least_squares_fit", ("ms",)),
                        ("approx.fit_residual", ("ms",)),
                        ("approx.pade_from_taylor", ("ms",)),
                        ("gradcheck.compare_single", ("calls", "ms")),
                        ("gradcheck.toy_network_check", ("ms",)),
                        ("cli.main", ("ms",))):
        for stat in stats:
            m[f"{name}.{stat}"] = get(name, stat)
    m["train.step_other.ms"] = traced.get("step_other_ms", 0.0)
    for name in ("data.synth_digits.ms", "data.pad_images.ms", "data.load_idx.ms"):
        m[name] = timings.get(name, 0.0)
    return m


# ---------------------------------------------------------------------------

def instrument_boundaries(rec: tracing.Recorder, state: State):
    """What the untraced run records: step, evaluate and tool-call
    boundaries, plus the per-step loss check and the sampled elements of
    each backward_pau call."""
    if state.training is None:
        rec.wrap(approx, "least_squares_fit", "approx.least_squares_fit")
        rec.wrap(approx, "fit_residual", "approx.fit_residual")
        rec.wrap(approx, "pade_from_taylor", "approx.pade_from_taylor")
        rec.wrap(cli, "main", "cli.main")
    else:
        rec.wrap(train, "evaluate", "train.evaluate")
        rec.wrap_optimizer(train)
        rec.check_losses(train, "nll_loss")
        rec.sample_backward(network, "backward_pau", state.seed, GRAD_SAMPLES)


def instrument_layers(rec: tracing.Recorder):
    """The traced run's extra spans, on the names consumer modules imported."""
    rec.wrap(train, "forward", "network.forward")
    rec.wrap(train, "backward", "network.backward")
    rec.wrap(network, "backward_pau", "rational.backward_pau",
             count_elements=True, peak=True)
    rec.wrap(network, "eval_pau_batch", "rational.eval_pau_batch",
             count_elements=True)
    rec.wrap(network, "eval_pau_stacked", "rational.eval_pau_stacked")
    rec.wrap(network, "sample_noisy_coeffs", "rational.sample_noisy_coeffs")
    rec.wrap(gradcheck, "eval_pau", "rational.eval_pau")
    rec.wrap(gradcheck, "grad_pau", "rational.grad_pau")
    rec.wrap(gradcheck, "compare_single", "gradcheck.compare_single")
    rec.wrap(gradcheck, "toy_network_check", "gradcheck.toy_network_check")


def run_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=(*TRAINING, "init-tools"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)

    state = State(args.seed, training=TRAINING.get(args.workload))
    timings = {}
    if state.training is None:
        setup_init_tools(state)
    else:
        setup_training(state, args.work_dir, timings)
    rec = tracing.Recorder()
    instrument_boundaries(rec, state)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "record": run_record()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ledger = Ledger()
    if args.trace:
        closed_loop(state, rec, ledger, args.seconds / 2)
        plain = summarize(state, rec, 0)
        first_span, first_round = len(rec.spans), len(state.rounds)
        instrument_layers(rec)
        closed_loop(state, rec, ledger, args.seconds / 2)
        rec.restore()
        traced = summarize(state, rec, first_round)
        breakdown = tracing.layer_breakdown(rec, first_span, traced["steps"])
        replay = replay_layers(state) if state.training else {}
        result["metrics"] = per_layer_metrics(plain, traced, breakdown, replay, timings)
        result["metrics"]["ops_failed_share"] = ledger.failed / max(ledger.attempted, 1)
    else:
        closed_loop(state, rec, ledger, args.seconds)
        rec.restore()
        summary = summarize(state, rec, 0)
        result["metrics"] = {
            "setup_s": setup_s,
            "step_ms_p50": summary["step_ms_p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["samples_ms"] = summary.pop("step_ms_samples")
        summary.pop("step_other_ms", None)
        result["summary"] = summary
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  fingerprint=state.fingerprint)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
