"""Optimizers, the NLL loss, evaluation and the training loop.

The optimizers take their rates from a TrainConfig: coefficient
parameters of activation units get their own learning rate (``pau_lr``,
following ``lr`` when unset), which ``lr_decay`` leaves constant.
``train_model`` trains and evaluates on all of the data it is given;
cutting a data set to a subset is the caller's job.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetHandle
from .network import Network, backward, first_non_finite, forward

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, epsilon
EVAL_BATCH = 1024  # samples per forward pass in evaluate


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
    """A training step's loss, or an evaluated batch's output, is NaN or
    infinite.  The message names the step or the batch, and the first
    unit or layer holding a non-finite value."""


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
        m = self.m.get(key, 0.0)
        v = self.v.get(key, 0.0)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        self.m[key] = m
        self.v[key] = v
        m_hat = m / (1 - ADAM_BETA1 ** self.t)
        v_hat = v / (1 - ADAM_BETA2 ** self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

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


def evaluate(net: Network, data: DatasetHandle) -> float:
    """Accuracy of argmax predictions, over EVAL_BATCH samples at a time;
    ties resolve to the lowest class.  A non-finite output raises
    NonFiniteLossError; warnings are silenced.  An empty set raises
    ValueError: it has no accuracy."""
    if not len(data):
        raise ValueError(f"cannot evaluate on an empty {data.split!r} set")
    hits = 0
    with np.errstate(all="ignore"):
        for lo in range(0, len(data), EVAL_BATCH):
            xb = _model_inputs(net, data.images[lo:lo + EVAL_BATCH])
            out, _ = forward(net, xb, training=False)
            if not np.isfinite(out).all():
                raise NonFiniteLossError(
                    f"samples {lo}-{lo + len(xb) - 1}: output is not finite; first "
                    f"non-finite value: {first_non_finite(net, xb)}")
            hits += int(np.sum(np.argmax(out, axis=1) == data.labels[lo:lo + EVAL_BATCH]))
    return hits / len(data)


def _step(net: Network, opt, xb, labels, seed: int, step: int) -> float:
    """One training step against :func:`nll_loss`, noise seeded by ``seed``
    and ``step``; returns the loss."""
    noise_seed = seed * 1_000_003 + step
    out, trace = forward(net, xb, training=True, seed=noise_seed)
    loss, dout = nll_loss(out, labels)
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"step {step}: loss is {loss!r}; first non-finite value: "
                                 f"{first_non_finite(net, xb, True, noise_seed)}")
    opt.step(net, backward(net, trace, dout))
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
