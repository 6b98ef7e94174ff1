"""Optimizers, the NLL loss, evaluation and the training loop.

The optimizers take their rates from a TrainConfig: coefficient
parameters of activation units get their own learning rate (``pau_lr``,
following ``lr`` when unset), which ``lr_decay`` leaves constant.
``train_model`` trains and evaluates on all of the data it is given;
cutting a data set to a subset is the caller's job.

A training step and an evaluated set run as shards of
``shard_samples(net)`` samples on a pool of worker_count() threads (numpy
releases the GIL in nearly all of a shard's work), while the calling
thread adds their results in shard order.  So results depend on the shard
size, never on the worker count, and at most worker_count() + 1 gradient
dicts are held at once.  A failing call raises its lowest failing shard's
error, the same at any worker count; a pole is named by its element's
index in the whole batch or set.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .data import DatasetHandle
from .network import Network, backward, first_non_finite, forward

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, epsilon
SHARD_SAMPLES = 128        # most samples in a shard of a step or an evaluated set
SHARD_ELEMENTS = 2 ** 20   # most layer-output values a shard holds, summed over layers


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 256
    optimizer: str = "adam"          # "adam" or "sgd"
    lr: float = 0.002
    momentum: float = 0.5            # sgd only
    pau_lr: float | None = None      # None: follow lr; stays constant
    lr_decay: float = 1.0            # per-epoch factor on the layer lr
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        if self.pau_lr is not None and not 0 < self.pau_lr < math.inf:
            raise ValueError("pau_lr must be > 0 and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Metrics:
    epoch: int
    train_loss: float
    test_acc: float
    seconds: float


class NonFiniteLossError(ArithmeticError):
    """A training step's loss, or an evaluated shard's output, is NaN or
    infinite.  The message names the step or the shard's samples, and the
    first unit or layer holding a non-finite value."""


class _Optimizer:
    """The step loop shared by SGD and Adam, with the shape check; subclasses
    define ``_update(key, param, g, lr)``.  Layer weights and biases step at
    ``lr``, unit coefficients at ``pau_lr``."""

    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr
        self.pau_lr = cfg.lr if cfg.pau_lr is None else cfg.pau_lr

    def step(self, net: Network, grads: dict):
        """``grads`` and the optimizer state are keyed like ``net.params()``."""
        params = dict(net.params())
        for key, g in grads.items():
            param = params[key]
            if param.shape != np.shape(g):
                raise ValueError(f"gradient shape {np.shape(g)} != parameter shape "
                                 f"{param.shape} for {key}")
            self._update(key, param, g, self.pau_lr if key[0] == "unit" else self.lr)
        net.params_changed()


class SGD(_Optimizer):
    """Momentum SGD."""

    def __init__(self, cfg: TrainConfig):
        super().__init__(cfg)
        self.momentum = cfg.momentum
        self.velocity = {}

    def _update(self, key, param, g, lr):
        if self.momentum:
            buf = self.velocity.get(key)
            buf = g if buf is None else self.momentum * buf + g
            self.velocity[key] = buf
            g = buf
        param -= lr * g


class Adam(_Optimizer):
    """Adam with bias-corrected moments."""

    def __init__(self, cfg: TrainConfig):
        super().__init__(cfg)
        self.m = {}
        self.v = {}
        self.t = 0

    def _update(self, key, param, g, lr):
        # the moments in place, with the operations and their order of
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # param -= lr m_hat / (sqrt(v_hat) + eps)
        if key not in self.m:
            self.m[key], self.v[key] = np.zeros_like(param), np.zeros_like(param)
        m, v = self.m[key], self.v[key]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        term = (1 - ADAM_BETA2) * g
        term *= g
        v += term
        np.divide(v, 1 - ADAM_BETA2 ** self.t, out=term)
        np.sqrt(term, out=term)
        term += ADAM_EPS
        update = m / (1 - ADAM_BETA1 ** self.t)
        update *= lr
        update /= term
        param -= update

    def step(self, net: Network, grads: dict):
        self.t += 1
        super().step(net, grads)


def make_optimizer(cfg: TrainConfig):
    return {"adam": Adam, "sgd": SGD}[cfg.optimizer](cfg)


def nll_loss(logp, labels):
    """Mean negative log-likelihood over log-probability rows; also returns
    the gradient with respect to logp."""
    n = logp.shape[0]
    rows = np.arange(n)
    loss = -float(np.mean(logp[rows, labels]))
    grad = np.zeros_like(logp)
    grad[rows, labels] = -1.0 / n
    return loss, grad


def _model_inputs(net: Network, images: np.ndarray) -> np.ndarray:
    if len(net.input_shape) == 1:
        return images.reshape(images.shape[0], -1)
    return images.reshape((images.shape[0],) + net.input_shape)


def shard_samples(net: Network) -> int:
    """Samples per shard of a step or an evaluated set of ``net``: the
    largest power of two up to SHARD_SAMPLES whose layer outputs, summed
    over the layers, hold at most SHARD_ELEMENTS values (1 at least).  It
    depends on the network alone: results depend on it, and it bounds what
    the shards running at once hold."""
    per_sample = sum(math.prod(shape) for shape in net.shapes)
    rows = max(1, min(SHARD_SAMPLES, SHARD_ELEMENTS // max(per_sample, 1)))
    return 1 << (rows.bit_length() - 1)


def worker_count() -> int:
    """The pool threads that run a batch's shards: the cores this process
    may run on (every core where the platform cannot tell), divided by the
    threads each worker's BLAS calls start (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, else every core, as OpenBLAS counts them), and 1 at
    least.  With BLAS left at every core, the shards run in turn on one
    pool thread."""
    affinity = getattr(os, "sched_getaffinity", None)   # None on macOS and Windows
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads >= 1:
            blas = threads
            break
    return max(1, cores // blas)


_executor = None   # (pid, workers, ThreadPoolExecutor of that many threads)


def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads, built on first use and rebuilt for
    another worker count, or in a forked child, which inherits none of its
    parent's threads."""
    global _executor
    if _executor is None or _executor[:2] != (os.getpid(), workers):
        if _executor is not None and _executor[0] == os.getpid():
            _executor[2].shutdown(wait=False)
        _executor = (os.getpid(), workers, ThreadPoolExecutor(workers))
    return _executor[2]


def _reduce_shards(run, starts, add):
    """``functools.reduce(add, map(run, starts))``, one shard per start, run
    on the pool of worker_count() threads.  At most worker_count() shards are
    submitted and not yet added: the lowest one's result is added, and only
    then is the next shard submitted, so that few results are held at once,
    however many shards there are.  Each shard runs under
    ``np.errstate(all="ignore")``, since numpy's error state is per thread.
    The lowest failing shard's error is raised once the shards already
    started have finished; no later shard starts."""
    def shard(start):
        with np.errstate(all="ignore"):
            return run(start)

    workers = worker_count()
    pool = _pool(workers)
    window = [pool.submit(shard, start) for start in starts[:workers]]
    total = None
    try:
        for k in range(len(starts)):
            result = window.pop(0).result()
            total = result if k == 0 else add(total, result)
            del result
            if k + workers < len(starts):
                window.append(pool.submit(shard, starts[k + workers]))
    finally:
        for future in window:
            future.cancel()
        wait(window)
    return total


def evaluate(net: Network, data: DatasetHandle) -> float:
    """Accuracy of argmax predictions, ties resolved to the lowest class.
    The set runs as :func:`shard_samples` shards (:func:`_reduce_shards`)
    that count their own hits, so the lowest failing shard's error is raised:
    a PoleError names its element's index in the whole set, and an output
    that is not finite raises NonFiniteLossError naming the shard's samples;
    warnings are silenced.  An empty set raises ValueError: no accuracy."""
    if not len(data):
        raise ValueError(f"cannot evaluate on an empty {data.split!r} set")
    size = shard_samples(net)

    def shard(start):
        rows = _model_inputs(net, data.images[start:start + size])
        out = forward(net, rows, training=False, start=start, total=len(data))[0]
        if not np.isfinite(out).all():
            raise NonFiniteLossError(
                f"samples {start}-{start + len(rows) - 1}: output is not finite; first "
                f"non-finite value: {first_non_finite(net, rows)}")
        return int(np.sum(np.argmax(out, axis=1) == data.labels[start:start + size]))

    return _reduce_shards(shard, range(0, len(data), size), operator.add) / len(data)


def _step(net: Network, opt, xb, labels, seed: int, step: int) -> float:
    """One training step against :func:`nll_loss`, noise seeded by ``seed``
    and ``step``; returns the loss.  The batch runs as :func:`shard_samples`
    shards (:func:`_reduce_shards`), each through forward, nll_loss and
    backward, its loss and loss gradient scaled by its share of the batch;
    the step's loss and each gradient are the shards' added in shard order,
    so they do not depend on the worker count.  The lowest failing shard's
    error is raised; a PoleError names its element's index in the whole
    batch."""
    noise_seed = seed * 1_000_003 + step
    size = shard_samples(net)

    def shard(start):
        rows = slice(start, start + size)
        out, trace = forward(net, xb[rows], training=True, seed=noise_seed,
                             start=start, total=len(xb))
        loss, dout = nll_loss(out, labels[rows])
        share = len(out) / len(xb)
        return loss * share, backward(net, trace, dout * share)

    def add(sums, shard_sums):
        (loss, grads), (shard_loss, shard_grads) = sums, shard_sums
        for key, g in shard_grads.items():
            grads[key] += g
        return loss + shard_loss, grads

    loss, grads = _reduce_shards(shard, range(0, len(xb), size), add)
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"step {step}: loss is {loss!r}; first non-finite value: "
                                 f"{first_non_finite(net, xb, True, noise_seed)}")
    opt.step(net, grads)
    return loss


def train_epochs(net: Network, train: DatasetHandle, test: DatasetHandle,
                 cfg: TrainConfig):
    """The library's one epoch loop, run by :func:`train_model` and by
    pruning's retraining: yields each epoch's number, mean training loss
    and start time once its steps are done, without evaluating.  The
    checks and errors are train_model's; ``test`` is only checked."""
    for role, data in (("training", train), ("test", test)):
        if not len(data):
            raise ValueError(f"the {role} set is empty")
    opt = make_optimizer(cfg)
    shuffle_rng = np.random.default_rng(cfg.seed)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        perm = shuffle_rng.permutation(len(train))
        total_loss = 0.0
        with np.errstate(all="ignore"):
            for lo in range(0, len(train), cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                loss = _step(net, opt, _model_inputs(net, train.images[sel]),
                             train.labels[sel], cfg.seed, step)
                total_loss += loss * sel.size
                step += 1
        # per-epoch step decay on the layer rate; the unit rate stays constant
        opt.lr *= cfg.lr_decay
        yield epoch, total_loss / len(train), t0


def train_model(net: Network, train: DatasetHandle, test: DatasetHandle,
                cfg: TrainConfig):
    """Epoch loop: seeded shuffle, minibatch forward/backward/step, then a
    test evaluation per epoch.  Returns (net, history); an empty training
    or test set raises ValueError before any step, and a step with a
    non-finite loss raises NonFiniteLossError.  The step loop silences
    numpy's floating-point warnings: a diverging step overflows before its
    loss is checked, and the error names the first non-finite value."""
    history = []
    for epoch, loss, t0 in train_epochs(net, train, test, cfg):
        acc = evaluate(net, test)
        history.append(Metrics(epoch, loss, acc, time.monotonic() - t0))
    return net, history


def write_metrics_csv(path, history) -> None:
    """epoch,train_loss,test_acc,seconds with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,test_acc,seconds\n")
        for m in history:
            fh.write(f"{m.epoch},{m.train_loss!r},{m.test_acc!r},{m.seconds:.3f}\n")
