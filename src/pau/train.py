"""Optimizers, losses, evaluation and the training loop.

Coefficient parameters of activation units get their own learning rate
(defaulting to the global one) and never receive weight decay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetHandle
from .network import GradientSet, Network, backward, forward


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class Metrics:
    epoch: int
    train_loss: float
    test_acc: float
    seconds: float


def _check_shape(buf, grad, key):
    if buf.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape "
                         f"{buf.shape} for {key}")


class _Optimizer:
    """The step loop shared by SGD and Adam; subclasses define ``_update``."""

    def step(self, net: Network, grads: GradientSet):
        for i, d in grads.layers.items():
            for name, g in d.items():
                self._update(("layer", i, name), net.weights[i][name], g,
                             self.lr, self.weight_decay)
        for u, (d_num, d_den) in grads.pau.items():
            c = net.pau_units[u].coefficients
            self._update(("unit", u, "num"), c.numerator, d_num, self.pau_lr, 0.0)
            self._update(("unit", u, "den"), c.denominator, d_den, self.pau_lr, 0.0)
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

    def _update(self, key, param, grad, lr, decay):
        _check_shape(param, np.asarray(grad), key)
        g = grad + decay * param if decay else grad
        if self.momentum:
            buf = self.velocity.get(key)
            buf = g if buf is None else self.momentum * buf + g
            self.velocity[key] = buf
            g = buf
        param -= lr * g


class Adam(_Optimizer):
    """Adam with bias-corrected moments."""

    def __init__(self, lr=0.002, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0, pau_lr=None):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.pau_lr = lr if pau_lr is None else pau_lr
        self.m = {}
        self.v = {}
        self.t = 0

    def _update(self, key, param, grad, lr, decay):
        _check_shape(param, np.asarray(grad), key)
        g = grad + decay * param if decay else grad
        m = self.m.get(key, 0.0)
        v = self.v.get(key, 0.0)
        m = self.beta1 * m + (1 - self.beta1) * g
        v = self.beta2 * v + (1 - self.beta2) * g * g
        self.m[key] = m
        self.v[key] = v
        m_hat = m / (1 - self.beta1 ** self.t)
        v_hat = v / (1 - self.beta2 ** self.t)
        param -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self, net: Network, grads: GradientSet):
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


def evaluate(net: Network, data: DatasetHandle, batch_size: int = 1024) -> float:
    """Accuracy of argmax predictions; ties resolve to the lowest class."""
    hits = 0
    for lo in range(0, len(data), batch_size):
        xb = _model_inputs(net, data.images[lo:lo + batch_size])
        out, _ = forward(net, xb, training=False)
        hits += int(np.sum(np.argmax(out, axis=1) == data.labels[lo:lo + batch_size]))
    return hits / len(data) if len(data) else 0.0


def train_model(net: Network, train: DatasetHandle, test: DatasetHandle,
                cfg: TrainConfig):
    """Epoch loop: seeded shuffle, minibatch forward/backward/step, then a
    test evaluation per epoch.  Returns (net, history)."""
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
        for lo in range(0, len(train), cfg.batch_size):
            sel = perm[lo:lo + cfg.batch_size]
            xb = _model_inputs(net, train.images[sel])
            yb = train.labels[sel]
            out, trace = forward(net, xb, training=True,
                                 seed=cfg.seed * 1_000_003 + step)
            loss, dout = nll_loss(out, yb)
            grads = backward(net, trace, dout)
            opt.step(net, grads)
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
    Returns (net, final_mse).
    """
    cfg = TrainConfig(optimizer=optimizer, lr=lr, seed=seed)
    opt = make_optimizer(cfg)
    xb = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    yb = np.asarray(ys, dtype=np.float64).reshape(-1, 1)
    loss = float("nan")
    for step in range(steps):
        out, trace = forward(net, xb, training=True, seed=seed * 1_000_003 + step)
        loss, dout = mse_loss(out, yb)
        grads = backward(net, trace, dout)
        opt.step(net, grads)
    out, _ = forward(net, xb, training=False)
    return net, mse_loss(out, yb)[0]


def write_metrics_csv(path, history) -> None:
    """epoch,train_loss,test_acc,seconds with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,test_acc,seconds\n")
        for m in history:
            fh.write(f"{m.epoch},{m.train_loss!r},{m.test_acc!r},{m.seconds:.3f}\n")
