"""Optimizers, losses, evaluation and the training loop.

Coefficient parameters of activation units get their own learning rate
(defaulting to the global one) and never receive weight decay.
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
    weight_decay: float = 0.0        # never applied to unit coefficients
    pau_lr: float | None = None      # None: follow lr; stays constant
    lr_decay: float = 1.0            # per-epoch factor on the layer lr
    seed: int = 0
    train_subset: int | None = None
    test_subset: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.pau_lr is not None and not self.pau_lr > 0:
            raise ValueError("pau_lr must be > 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("train_subset", "test_subset"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    """The step loop shared by SGD and Adam, with the shape check and the
    layer weight decay; subclasses define ``_update(key, param, g, lr)``."""

    def step(self, net: Network, grads: dict):
        """``grads`` and the optimizer state are keyed like ``net.params()``."""
        params = dict(net.params())
        for key, g in grads.items():
            param = params[key]
            if param.shape != np.shape(g):
                raise ValueError(f"gradient shape {np.shape(g)} != parameter shape "
                                 f"{param.shape} for {key}")
            if key[0] == "unit":
                self._update(key, param, g, self.pau_lr)
            else:
                decay = self.weight_decay
                self._update(key, param, g + decay * param if decay else g, self.lr)
        net.enforce_masks()
        net.bump_version()


class SGD(_Optimizer):
    """Momentum SGD; weight decay only on layer weights and biases."""

    def __init__(self, lr=0.01, momentum=0.5, weight_decay=0.0, pau_lr=None):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.pau_lr = lr if pau_lr is None else pau_lr
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

    def __init__(self, lr=0.002, weight_decay=0.0, pau_lr=None):
        self.lr = lr
        self.weight_decay = weight_decay
        self.pau_lr = lr if pau_lr is None else pau_lr
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
    if cfg.optimizer == "sgd":
        return SGD(cfg.lr, cfg.momentum, cfg.weight_decay, cfg.pau_lr)
    return Adam(cfg.lr, weight_decay=cfg.weight_decay, pau_lr=cfg.pau_lr)


def nll_loss(logp, labels):
    """Mean negative log-likelihood over log-probability rows; also returns
    the gradient with respect to logp."""
    n = logp.shape[0]
    rows = np.arange(n)
    loss = -float(np.mean(logp[rows, labels]))
    grad = np.zeros_like(logp)
    grad[rows, labels] = -1.0 / n
    return loss, grad


def mse_loss(pred, target):
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def _model_inputs(net: Network, images: np.ndarray) -> np.ndarray:
    if len(net.input_shape) == 1:
        return images.reshape(images.shape[0], -1)
    return images.reshape((images.shape[0],) + net.input_shape)


def evaluate(net: Network, data: DatasetHandle) -> float:
    """Accuracy of argmax predictions, over EVAL_BATCH samples at a time;
    ties resolve to the lowest class.  A non-finite output raises
    NonFiniteLossError; warnings are silenced."""
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
    return hits / len(data) if len(data) else 0.0


def _step(net: Network, opt, xb, target, loss_fn, seed: int, step: int) -> float:
    """One training step, noise seeded by ``seed`` and ``step``; returns the loss."""
    noise_seed = seed * 1_000_003 + step
    out, trace = forward(net, xb, training=True, seed=noise_seed)
    loss, dout = loss_fn(out, target)
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"step {step}: loss is {loss!r}; first non-finite value: "
                                 f"{first_non_finite(net, xb, True, noise_seed)}")
    opt.step(net, backward(net, trace, dout))
    return loss


def train_model(net: Network, train: DatasetHandle, test: DatasetHandle,
                cfg: TrainConfig):
    """Epoch loop: seeded shuffle, minibatch forward/backward/step, then a
    test evaluation per epoch.  Returns (net, history); a step with a
    non-finite loss raises NonFiniteLossError.  The step loop silences
    numpy's floating-point warnings: a diverging step overflows before its
    loss is checked, and the error names the first non-finite value."""
    if cfg.train_subset is not None:
        train = train.subset(cfg.train_subset)
    if cfg.test_subset is not None:
        test = test.subset(cfg.test_subset)
    opt = make_optimizer(cfg)
    shuffle_rng = np.random.default_rng(cfg.seed)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        perm = shuffle_rng.permutation(len(train))
        total_loss = 0.0
        with np.errstate(all="ignore"):
            for lo in range(0, len(train), cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                loss = _step(net, opt, _model_inputs(net, train.images[sel]),
                             train.labels[sel], nll_loss, cfg.seed, step)
                total_loss += loss * sel.size
                step += 1
        # per-epoch step decay on the layer rate; the unit rate stays constant
        opt.lr *= cfg.lr_decay
        history.append(Metrics(
            epoch=epoch + 1,
            train_loss=total_loss / len(train),
            test_acc=evaluate(net, test),
            seconds=time.monotonic() - t0,
        ))
    return net, history


def fit_regression(net: Network, xs: np.ndarray, ys: np.ndarray, steps: int,
                   lr: float = 0.002, optimizer: str = "adam", seed: int = 0):
    """Full-batch regression training against mean squared error.

    Inputs are column vectors; the network's output shape must match.
    Returns (net, final_mse); a step with a non-finite loss raises
    NonFiniteLossError, with warnings silenced as in train_model.
    """
    cfg = TrainConfig(optimizer=optimizer, lr=lr, seed=seed)
    opt = make_optimizer(cfg)
    xb = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    yb = np.asarray(ys, dtype=np.float64).reshape(-1, 1)
    with np.errstate(all="ignore"):
        for step in range(steps):
            _step(net, opt, xb, yb, mse_loss, seed, step)
    out, _ = forward(net, xb, training=False)
    return net, mse_loss(out, yb)[0]


def write_metrics_csv(path, history) -> None:
    """epoch,train_loss,test_acc,seconds with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,test_acc,seconds\n")
        for m in history:
            fh.write(f"{m.epoch},{m.train_loss!r},{m.test_acc!r},{m.seconds:.3f}\n")
