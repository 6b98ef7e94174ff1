"""Finite-difference verification of the analytic gradients.

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

from .rational import (RationalCoefficients, eval_pau, eval_pau_stacked,
                       grad_pau, _expand_gradients, _grad_parts, _poly_A)

FD_STEP = 1e-5


def _rel(analytic, fd, scale):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)),
                       1e-4 * np.maximum(1.0, scale))
    return np.abs(analytic - fd) / denom


def compare_single(x, coeffs: RationalCoefficients, safe=True, h=FD_STEP,
                   flip_denominator=False):
    """(worst relative error, component label) at one point.

    ``flip_denominator`` negates the analytic denominator gradients, a
    deliberate fault used to prove the harness can fail.
    """
    g = grad_pau(x, coeffs, safe=safe)
    f0 = eval_pau(x, coeffs, safe=safe)
    scale = max(1.0, abs(f0))
    num = coeffs.numerator
    den = coeffs.denominator
    worst, label = 0.0, "none"

    def consider(analytic, fd, name):
        nonlocal worst, label
        r = float(_rel(analytic, fd, scale))
        if r > worst:
            worst, label = r, name

    if np.sign(_poly_A(den, x + h)) == np.sign(_poly_A(den, x - h)):
        fd = (eval_pau(x + h, coeffs, safe) - eval_pau(x - h, coeffs, safe)) / (2 * h)
        consider(g.d_input, fd, "d_input")

    for j in range(num.size):
        old = num[j]
        num[j] = old + h
        up = eval_pau(x, coeffs, safe)
        num[j] = old - h
        down = eval_pau(x, coeffs, safe)
        num[j] = old
        consider(g.d_numerator[j], (up - down) / (2 * h), f"d_numerator[{j}]")

    a_val = float(_poly_A(den, x))
    for k in range(1, den.size + 1):
        delta = h * x ** k
        if np.sign(a_val + delta) != np.sign(a_val - delta):
            continue
        old = den[k - 1]
        den[k - 1] = old + h
        up = eval_pau(x, coeffs, safe)
        den[k - 1] = old - h
        down = eval_pau(x, coeffs, safe)
        den[k - 1] = old
        analytic = g.d_denominator[k - 1]
        if flip_denominator:
            analytic = -analytic
        consider(analytic, (up - down) / (2 * h), f"d_denominator[{k}]")

    return worst, label


def compare_batch(trials, rng, m=5, n=4, coeff_range=1.0, x_range=3.0,
                  safe=True, h=FD_STEP):
    """Vectorized sweep over random (coefficients, x) trials.

    Returns (worst relative error, checked comparison count).
    """
    rng = np.random.default_rng(rng)
    xs = rng.uniform(-x_range, x_range, trials)
    nums = rng.uniform(-coeff_range, coeff_range, (trials, m + 1))
    dens = rng.uniform(-coeff_range, coeff_range, (trials, n))

    d_input, w, v = _grad_parts(xs, nums, dens, safe)
    d_num, d_den = _expand_gradients(xs, w, v, m, n)
    f0 = eval_pau_stacked(xs, nums, dens, safe)
    scale = np.maximum(1.0, np.abs(f0))

    worst = 0.0
    checked = 0

    a_plus = _poly_A(dens, xs + h)
    a_minus = _poly_A(dens, xs - h)
    ok = np.sign(a_plus) == np.sign(a_minus)
    fd = (eval_pau_stacked(xs + h, nums, dens, safe)
          - eval_pau_stacked(xs - h, nums, dens, safe)) / (2 * h)
    rels = _rel(d_input, fd, scale)[ok]
    if rels.size:
        worst = max(worst, float(rels.max()))
    checked += int(np.sum(ok))

    for j in range(m + 1):
        up = nums.copy()
        up[:, j] += h
        down = nums.copy()
        down[:, j] -= h
        fd = (eval_pau_stacked(xs, up, dens, safe)
              - eval_pau_stacked(xs, down, dens, safe)) / (2 * h)
        worst = max(worst, float(_rel(d_num[:, j], fd, scale).max()))
        checked += trials

    a0 = _poly_A(dens, xs)
    for k in range(1, n + 1):
        delta = h * xs ** k
        ok = np.sign(a0 + delta) == np.sign(a0 - delta)
        up = dens.copy()
        up[:, k - 1] += h
        down = dens.copy()
        down[:, k - 1] -= h
        fd = (eval_pau_stacked(xs, nums, up, safe)
              - eval_pau_stacked(xs, nums, down, safe)) / (2 * h)
        rels = _rel(d_den[:, k - 1], fd, scale)[ok]
        if rels.size:
            worst = max(worst, float(rels.max()))
        checked += int(np.sum(ok))

    return worst, checked


def network_fd_gradients(net, batch, labels, h=FD_STEP):
    """Worst relative disagreement between analytic and finite-difference
    gradients of the mean NLL over every parameter of ``net``."""
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

    def fd_for(arr, analytic):
        nonlocal worst
        flat = arr.reshape(-1)
        ga = np.asarray(analytic).reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            up = loss_of()
            flat[idx] = old - h
            down = loss_of()
            flat[idx] = old
            fd = (up - down) / (2 * h)
            worst = max(worst, float(_rel(ga[idx], fd, scale)))

    for i, d in grads.layers.items():
        fd_for(net.weights[i]["W"], d["W"])
        fd_for(net.weights[i]["b"], d["b"])
    for u, (d_num, d_den) in grads.pau.items():
        c = net.pau_units[u].coefficients
        fd_for(c.numerator, d_num)
        fd_for(c.denominator, d_den)
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
