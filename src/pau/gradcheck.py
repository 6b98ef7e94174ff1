"""Finite-difference verification of the analytic gradients.

One vectorized checker, :func:`compare_trials`, compares every gradient
component of many (coefficients, x) trials at once against central
differences; :func:`compare_single` and :func:`compare_batch` are a
one-trial call and a random sweep over it.

Central differences with step h are meaningless where the perturbation
crosses the kink of |A(x)|: for the input gradient that is a sign change
of A between x-h and x+h, and for a denominator coefficient b_k a sign
change of A under b_k -> b_k +- h.  Those straddling comparisons are
excluded; everything else must agree.

Relative error uses max(|analytic|, |fd|, 1e-4 * max(1, |F(x)|)) as the
denominator.  The floor absorbs central-difference roundoff (about
eps * |F| / h, i.e. ~1e-11 per unit of function scale) on components
that are genuinely ~0, while still flagging any formula or sign error:
those produce disagreements on the scale of the affected term, many
orders of magnitude above the floor.
"""

from __future__ import annotations

import numpy as np

from .rational import (RationalCoefficients, eval_pau_stacked, _expand_gradients,
                       _grad_parts, _poly_A)
# unused here, kept as module attributes: perfbench/child.py wraps them by name
from .rational import eval_pau, grad_pau  # noqa: F401

FD_STEP = 1e-5


def _rel(analytic, fd, scale):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)),
                       1e-4 * np.maximum(1.0, scale))
    return np.abs(analytic - fd) / denom


def compare_trials(xs, nums, dens, safe=True):
    """Worst relative error of each trial, its component label, and the
    number of comparisons made.

    Trial i is the unit with coefficients ``nums[i]`` (m+1) and
    ``dens[i]`` (n) at ``xs[i]``.  Components are taken in the order
    d_input, d_numerator[0..m], d_denominator[1..n]; the label is the
    first one reaching the trial's worst, or "none" when that is 0.
    Central differences take the step FD_STEP.
    """
    xs = np.asarray(xs, dtype=np.float64)
    nums = np.asarray(nums, dtype=np.float64)
    dens = np.asarray(dens, dtype=np.float64)
    m, n = nums.shape[1] - 1, dens.shape[1]
    h = FD_STEP
    theta = np.concatenate([nums, dens], axis=1)

    def f(t=theta, x=xs):
        return eval_pau_stacked(x, t[:, :m + 1], t[:, m + 1:], safe)

    d_input, w, v = _grad_parts(xs, nums, dens, safe)
    analytic = np.column_stack([d_input, _expand_gradients(xs, w, v, m, n)])

    fd = np.empty_like(analytic)
    fd[:, 0] = (f(x=xs + h) - f(x=xs - h)) / (2 * h)
    for c in range(m + 1 + n):
        up, down = theta.copy(), theta.copy()
        up[:, c] += h
        down[:, c] -= h
        fd[:, 1 + c] = (f(up) - f(down)) / (2 * h)

    # kink straddles: A changes sign between x -+ h, or under b_k -+ h,
    # which moves A by -+ h x^k
    ok = np.ones(analytic.shape, dtype=bool)
    ok[:, 0] = np.sign(_poly_A(dens, xs + h)) == np.sign(_poly_A(dens, xs - h))
    a0 = _poly_A(dens, xs)
    for k in range(1, n + 1):
        delta = h * xs ** k
        ok[:, m + 1 + k] = np.sign(a0 + delta) == np.sign(a0 - delta)

    scale = np.maximum(1.0, np.abs(f()))
    rels = np.where(ok, _rel(analytic, fd, scale[:, None]), 0.0)
    worst = rels.max(axis=1)
    names = (["d_input"] + [f"d_numerator[{j}]" for j in range(m + 1)]
             + [f"d_denominator[{k}]" for k in range(1, n + 1)])
    labels = ["none" if r == 0 else names[c]
              for r, c in zip(worst, rels.argmax(axis=1))]
    return worst, labels, int(np.count_nonzero(ok))


def compare_single(x, coeffs: RationalCoefficients, safe=True):
    """(worst relative error, component label) at one point."""
    worst, labels, _ = compare_trials([x], coeffs.numerator[None],
                                      coeffs.denominator[None], safe)
    return float(worst[0]), labels[0]


def compare_batch(trials, rng, safe=True):
    """Vectorized sweep over random [5/4] trials, coefficients on [-1, 1]
    and x on [-3, 3]; returns (worst relative error, checked comparison count)."""
    rng = np.random.default_rng(rng)
    xs = rng.uniform(-3.0, 3.0, trials)
    nums = rng.uniform(-1.0, 1.0, (trials, 6))
    dens = rng.uniform(-1.0, 1.0, (trials, 4))
    worst, _, checked = compare_trials(xs, nums, dens, safe)
    return float(worst.max(initial=0.0)), checked


def network_fd_gradients(net, batch, labels):
    """Worst relative disagreement between analytic and finite-difference
    gradients (step FD_STEP) of the mean NLL over every parameter of ``net``."""
    from .network import backward, forward
    from .train import nll_loss

    def loss_of():
        out, _ = forward(net, batch, training=False)
        return nll_loss(out, labels)[0]

    out, trace = forward(net, batch, training=False)
    loss, dout = nll_loss(out, labels)
    grads = backward(net, trace, dout)
    scale = max(1.0, abs(loss))

    worst = 0.0
    for key, arr in net.params():
        flat = arr.reshape(-1)
        # an unreferenced unit has no entry: zero
        ga = np.asarray(grads.get(key, np.zeros_like(arr))).reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + FD_STEP
            up = loss_of()
            flat[idx] = old - FD_STEP
            down = loss_of()
            flat[idx] = old
            fd = (up - down) / (2 * FD_STEP)
            worst = max(worst, float(_rel(ga[idx], fd, scale)))
    return worst


def toy_network_check(seed=0):
    """Worst FD disagreement on a small dense net (4 -> 3 -> 2)."""
    from .network import Activation, Dense, Softmax, build_network

    rng = np.random.default_rng(seed)
    net = build_network([Dense(4, 3), Activation(), Dense(3, 2), Softmax()],
                        seed=seed)
    batch = rng.normal(size=(8, 4))
    labels = rng.integers(0, 2, size=8)
    return network_fd_gradients(net, batch, labels)
