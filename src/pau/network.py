"""Minimal feedforward networks with one shared rational unit per
activation layer.

Layers are declared as a flat spec list and compiled into a Network
holding plain float64 arrays.  Each layer kind (Dense, Conv2d, MaxPool,
Activation, Baseline, Flatten, Softmax) is one frozen dataclass that
holds everything the network knows of that kind, through the methods of
the ``_Layer`` protocol:

* ``out_shape(shape)``: the per-sample output shape, or ValueError;
* ``check(net, i)``: ValueError when the network's arrays for layer i
  contradict the spec;
* ``forward(net, i, x, noise_rng) -> (y, cache)``: backward reads
  ``cache`` back from ``trace.caches[i]``.  A noisy Activation in
  ``Network.pooled`` runs ``forward_pooled`` for itself and its MaxPool;
* ``backward(net, i, g, cache, need_dx) -> (g, grads)``: the input
  gradient and a dict of the layer's gradients under their
  ``Network.params()`` keys, or None.  A MaxPool above an Activation in
  ``Network.pooled`` gives the pair ``(at, g)`` instead; all else is dense;
* ``has_params(net)``: whether backward has gradients to report.

Kinds with weights (Dense, Conv2d) also give ``weight_shape`` and the
axes of ``W`` that hold output units (``out_axis``) and inputs
(``in_axis``).  Weight init, ``check`` and checkpoints (through
``array_shapes``), masks and pruning scores read only those, and
parameter counts count what the mask applier leaves, so a new layer
kind is added in its class alone.

Each Activation layer references a PauUnit whose coefficient gradients
are summed over the layer's elements, or, when in ``Network.pooled``,
over the winners of the MaxPool above only (its other inputs get no
gradient), by one ``backward_pau`` call per layer, whose blocks fix the
order of the sums whatever the thread count.  A unit with
``noise_alpha > 0`` draws, in training only, its own perturbed
coefficients for every element of the layer, one row each, in order,
from PCG64(seed) advanced to the layer's place in the batch's draw.
``forward`` may run rows ``start:`` of a batch of ``total`` samples (a
shard, as training and evaluation run them on worker threads); it
then draws those rows of the whole batch's noise, and a pole names its
element's index in the whole batch.
Under a pool in ``Network.pooled`` it draws the same rows per block of
whole images, through the layers' own steps, and the trace keeps only
the rows of the pool's winners.
``backward`` returns a dict of gradients under the keys of
``Network.params()``, which the optimizers also keep their state under.
It returns parameter gradients only, so it stops at the first layer with
parameters (a Dense, a Conv2d or an Activation with a trainable unit),
and that layer skips its own input gradient; a loss gradient whose shape
is not the output's raises ValueError.  ``first_non_finite``
reruns the layers through the loop of ``forward``, with its noise.
Whole-network results repeat bit for bit at a fixed BLAS thread count,
whatever the worker count (see ``train.worker_count``): the Dense and
Conv2d matrix products may round differently when the BLAS thread count
changes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .approx import builtin_coefficients
from .rational import (BLOCK_ELEMENTS, PoleError, RationalCoefficients, backward_pau,
                       eval_pau_batch, eval_pau_stacked, noise_range, sample_noisy_coeffs)
from .targets import parse_target

CONV_BLOCK_ELEMENTS = 2 ** 18  # window elements per Conv2d image block, to stay in L2
DEFAULT_INIT = "lrelu(0.01)"   # the coefficients build_network starts each unit from


@dataclass
class PauUnit:
    coefficients: RationalCoefficients
    safe: bool = True
    noise_alpha: float = 0.0
    trainable: bool = True

    def __post_init__(self):
        for name in ("safe", "trainable"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        a = self.noise_alpha
        if isinstance(a, bool):
            raise ValueError(f"noise_alpha must be a number, got {a!r}")
        if not a >= 0:
            raise ValueError(f"noise_alpha must be >= 0, got {a!r}")
        try:   # the range that sample_noisy_coeffs draws from
            noise_range(self.coefficients, a)
        except OverflowError as exc:
            raise ValueError(f"noise_alpha {a!r}: the unit's {exc}") from None


# the settings of a unit besides its coefficients, as checkpoints store them
_UNIT_SETTINGS = tuple(f.name for f in fields(PauUnit) if f.name != "coefficients")


class StaleTraceError(RuntimeError):
    """The trace was produced by a different parameter version."""


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------

class _Layer:
    """The layer protocol; see the module docstring."""

    weight_shape = None  # kinds with weights: the shape of W

    def out_shape(self, shape):
        return shape

    def array_shapes(self):
        """The shapes of W and b, in checkpoint order; None without weights."""
        w = self.weight_shape
        return None if w is None else {"W": w, "b": (w[self.out_axis],)}

    def check(self, net, i):
        w = net.weights[i]
        got = None if w is None else {k: np.shape(v) for k, v in w.items()}
        want = self.array_shapes()
        if got != want:
            raise ValueError(f"layer {i} ({type(self).__name__}) has weights {got}, "
                             f"its spec needs {want}")

    def has_params(self, net) -> bool:
        return self.weight_shape is not None


def _int_at_least(value, low):
    """Whether ``value`` is an integer >= ``low``; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def _check_sizes(spec, low, *names):
    """ValueError unless each named field of ``spec`` is an integer >= ``low``."""
    for name in names:
        value = getattr(spec, name)
        if not _int_at_least(value, low):
            raise ValueError(f"{type(spec).__name__} {name} must be an integer "
                             f">= {low}, got {value!r}")


@dataclass(frozen=True)
class Dense(_Layer):
    in_dim: int
    out_dim: int

    out_axis, in_axis = 1, 0

    def __post_init__(self):
        _check_sizes(self, 1, "in_dim", "out_dim")

    @property
    def weight_shape(self):
        return (self.in_dim, self.out_dim)

    def out_shape(self, shape):
        if shape != (self.in_dim,):
            raise ValueError(f"Dense expects ({self.in_dim},), got {shape}")
        return (self.out_dim,)

    def forward(self, net, i, x, noise_rng):
        return x @ net.weights[i]["W"] + net.weights[i]["b"], {"x": x}

    def backward(self, net, i, g, cache, need_dx):
        grads = {("layer", i, "W"): cache["x"].T @ g, ("layer", i, "b"): np.sum(g, axis=0)}
        return (g @ net.weights[i]["W"].T if need_dx else None), grads


@dataclass(frozen=True)
class Conv2d(_Layer):
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    out_axis, in_axis = 0, 1

    def __post_init__(self):
        _check_sizes(self, 1, "in_channels", "out_channels", "kernel", "stride")
        _check_sizes(self, 0, "padding")

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    def out_shape(self, shape):
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ValueError(f"Conv2d expects (C={self.in_channels},H,W), got {shape}")
        _, h, w = shape
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"Conv2d kernel {self.kernel} too large for {shape}")
        return (self.out_channels, oh, ow)

    def forward(self, net, i, x, noise_rng):
        p = self.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        win = _conv_windows(xp, self.kernel, self.stride)
        y = np.empty((win.shape[0], self.out_channels) + win.shape[2:4])
        for s in _image_blocks(win):
            t = np.tensordot(win[s], net.weights[i]["W"], axes=([1, 4, 5], [1, 2, 3]))
            np.add(np.moveaxis(t, 3, 1), net.weights[i]["b"][:, None, None], out=y[s])
        return y, {"xp": xp}

    def backward(self, net, i, g, cache, need_dx):
        """For dL/dx, the output gradient ``g`` (B, O, oh, ow) is moved to
        channels-last rows once; each kernel offset is then one
        (B·oh·ow, O) @ (O, C) product added, strided, into a channels-last
        gradient of the padded input."""
        xp = cache["xp"]
        win = _conv_windows(xp, self.kernel, self.stride)
        dW = np.zeros(self.weight_shape)
        for s in _image_blocks(win):
            dW += np.tensordot(g[s], win[s], axes=([0, 2, 3], [0, 2, 3]))
        grads = {("layer", i, "W"): dW, ("layer", i, "b"): np.sum(g, axis=(0, 2, 3))}
        if not need_dx:
            return None, grads
        W = net.weights[i]["W"]
        b_, o_, oh, ow = g.shape
        s, p = self.stride, self.padding
        g2 = np.moveaxis(g, 1, 3).reshape(-1, o_)
        dxp = np.zeros((b_, xp.shape[2], xp.shape[3], xp.shape[1]))
        for kh in range(self.kernel):
            for kw in range(self.kernel):
                t = (g2 @ W[:, :, kh, kw]).reshape(b_, oh, ow, self.in_channels)
                dxp[:, kh:kh + s * oh:s, kw:kw + s * ow:s] += t
        dx = np.moveaxis(dxp, 3, 1)
        return (dx[:, :, p:-p, p:-p] if p else dx), grads


@dataclass(frozen=True)
class MaxPool(_Layer):
    """Max over each window.  The forward caches ``at``, the flat index into
    its input of each window's first maximum (``forward_pooled`` pools each
    block of images with it).  The backward scatters the
    output gradient to those indices, summing the gradients of every window
    that an input wins, in window order.  Above an Activation in ``net.pooled``
    (disjoint windows: each input wins at most one) it returns the pair
    ``(at, g)``, so that the Activation's backward runs on the winners only."""

    window: int
    stride: int | None = None  # None means stride = window

    def __post_init__(self):
        _check_sizes(self, 1, "window", *(() if self.stride is None else ("stride",)))

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ValueError(f"MaxPool expects (C,H,W), got {shape}")
        s = self.stride or self.window
        c, h, w = shape
        oh = (h - self.window) // s + 1
        ow = (w - self.window) // s + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"MaxPool window {self.window} too large for {shape}")
        return (c, oh, ow)

    def forward(self, net, i, x, noise_rng):
        w, s = self.window, self.stride or self.window
        b_, c_, h, w_ = x.shape
        win = _conv_windows(x, w, s)
        oh, ow = win.shape[2:4]
        at = np.argmax(win.reshape(b_, c_, oh, ow, w * w), axis=-1)
        # in place: the winner's offset within its window (mode "clip" takes
        # no buffered copy; every index is in range), then the window's corner
        np.take((np.arange(w)[:, None] * w_ + np.arange(w)).ravel(), at, out=at, mode="clip")
        at += np.arange(b_ * c_).reshape(b_, c_, 1, 1) * (h * w_)
        at += np.arange(oh)[:, None] * (s * w_) + np.arange(ow) * s
        return x.reshape(-1)[at], {"in_shape": x.shape, "at": at}

    def backward(self, net, i, g, cache, need_dx):
        at, g = cache["at"].reshape(-1), g.reshape(-1)
        return ((at, g) if i - 1 in net.pooled else _scatter(at, g, cache["in_shape"])), None


def _scatter(at, values, shape):
    """The array of ``shape`` whose flat index ``at[k]`` holds the sum of
    the ``values`` sent to it, added in order, and +0.0 elsewhere."""
    return np.bincount(at, values, minlength=int(np.prod(shape))).reshape(shape)


@dataclass(frozen=True)
class Activation(_Layer):
    unit: int | None = None  # None: assigned a fresh unit index at build

    def check(self, net, i):
        super().check(net, i)
        if type(self.unit) is not int or not 0 <= self.unit < len(net.pau_units):
            raise ValueError(f"activation layer {i} references unit {self.unit!r} "
                             f"of {len(net.pau_units)}")

    def has_params(self, net) -> bool:
        return net.pau_units[self.unit].trainable

    def forward(self, net, i, x, noise_rng):
        """Noisy coefficients, one set per element, are cached so that
        backward differentiates at the sampled values (a noisy unit under a
        pool in ``net.pooled`` runs :meth:`forward_pooled` instead).  A pole
        raises PoleError naming the layer, the unit and the element's
        C-order index in the layer's input.  Coefficients whose noise range
        is not finite (they blew up in training) give a NaN output, so that
        the loss check stops the run and names the unit."""
        unit = net.pau_units[self.unit]
        stacks = None
        try:
            if noise_rng is not None and unit.noise_alpha > 0:
                stacks = sample_noisy_coeffs(unit.coefficients, unit.noise_alpha,
                                             noise_rng, size=x.size)
                y = eval_pau_stacked(x.reshape(-1), *stacks,
                                     safe=unit.safe).reshape(x.shape)
            else:
                y = eval_pau_batch(x, unit.coefficients, safe=unit.safe)
        except PoleError as exc:
            raise self._named(i, exc) from None
        except OverflowError:   # sample_noisy_coeffs: the noise range is not finite
            y = np.full(x.shape, np.nan)
        return y, {"x": x, "stacks": stacks}

    def _named(self, i, exc, offset=0):
        """``exc`` naming this layer and unit, its index moved by ``offset``."""
        return PoleError(exc.x, exc.q, offset + exc.index,
                         where=f"layer {i} (Activation) unit {self.unit}")

    def forward_pooled(self, net, i, x, noise_rng):
        """This noisy layer and the MaxPool above it (``i`` in ``net.pooled``)
        as one stage, per block of whole images whose activation fits
        BLOCK_ELEMENTS (one image at least); returns both layers'
        ``(output, cache)``.  Each block runs the layers' own steps:
        ``sample_noisy_coeffs`` draws the block's noise rows, those that
        :meth:`forward` draws for its elements, into one reused buffer,
        ``eval_pau_stacked`` evaluates F there, and ``MaxPool.forward`` pools
        the block.  Only the winners' x and noise rows are kept, in the order
        of ``at``.  Poles raise as in :meth:`forward`; a noise range that is
        not finite raises in the first block, before any draw, and runs both
        layers' own forwards instead, which give NaN."""
        unit, pool = net.pau_units[self.unit], net.specs[i + 1]
        c = unit.coefficients
        per_image = math.prod(x.shape[1:])
        images = max(1, BLOCK_ELEMENTS // per_image)
        buffer = np.empty((c.m + 1 + c.n, min(x.size, images * per_image)))
        pooled = np.empty((len(x),) + pool.out_shape(x.shape[1:]))
        at = np.empty(pooled.shape, dtype=np.intp)
        per_out = math.prod(pooled.shape[1:])
        kept = np.empty((1 + len(buffer), pooled.size))   # x, then the noise rows
        y, flat = np.empty(x.shape), x.reshape(-1)
        for b in range(0, len(x), images):
            rows = slice(b * per_image, (b + images) * per_image)
            xb, yb = flat[rows], y[b:b + images]
            draw = buffer[:, :xb.size]
            try:
                stacks = sample_noisy_coeffs(c, unit.noise_alpha, noise_rng, xb.size, out=draw)
            except OverflowError:
                y, cache = self.forward(net, i, x, noise_rng)
                return [(y, cache), pool.forward(net, i + 1, y, noise_rng)]
            try:
                yb[...] = eval_pau_stacked(xb, *stacks, safe=unit.safe).reshape(yb.shape)
            except PoleError as exc:
                raise self._named(i, exc, rows.start) from None
            pooled[b:b + images], cache = pool.forward(net, i + 1, yb, None)
            # one gather per kept row, straight into its slice (mode "clip" takes no buffer)
            out = slice(b * per_out, (b + images) * per_out)
            for source, target in zip([xb, *draw], kept):
                np.take(source, cache["at"].reshape(-1), out=target[out], mode="clip")
            np.add(cache["at"], rows.start, out=at[b:b + images])
        m1 = c.m + 1
        stacks = (kept[1:1 + m1].T, kept[1 + m1:].T)
        return [(y, {"x": kept[0], "stacks": stacks, "in_shape": x.shape}),
                (pooled, {"in_shape": x.shape, "at": at})]

    def backward(self, net, i, g, cache, need_dx):
        """``g`` is dense, or the MaxPool's pair ``(at, g)`` when this layer is
        in ``net.pooled``; the pool's losers get +0.0.
        One backward_pau call runs on the elements that have a gradient:
        every element, the winners' rows that :meth:`forward_pooled` kept
        (in the order of ``at``), or a clean pooled unit's winners' x,
        gathered once.  Its unsafe pole check cannot fire: forward computed
        the same Q from the same x and coefficients, and raised first."""
        unit = net.pau_units[self.unit]
        x = cache["x"].reshape(-1)
        at, up = g if i in net.pooled else (None, g.reshape(-1))
        kept = "in_shape" in cache   # forward_pooled kept the winners' rows only
        d_in, sums = backward_pau(x if at is None or kept else x[at], up, unit.coefficients,
                                  safe=unit.safe, coefficient_stacks=cache["stacks"])
        shape = cache["in_shape"] if kept else cache["x"].shape
        d_in = d_in.reshape(shape) if at is None else _scatter(at, d_in, shape)
        keys = (("unit", self.unit, "num"), ("unit", self.unit, "den"))
        return d_in, dict(zip(keys, sums)) if unit.trainable else None


@dataclass(frozen=True)
class Baseline(_Layer):
    """A fixed reference activation (e.g. 'lrelu(0.01)'), no parameters."""
    name: str

    def __post_init__(self):
        object.__setattr__(self, "target", parse_target(self.name))

    def forward(self, net, i, x, noise_rng):
        return self.target(x), {"x": x}

    def backward(self, net, i, g, cache, need_dx):
        return g * self.target.derivative(cache["x"]), None


@dataclass(frozen=True)
class Flatten(_Layer):
    def out_shape(self, shape):
        return (math.prod(shape),)

    def forward(self, net, i, x, noise_rng):
        return x.reshape(len(x), math.prod(x.shape[1:])), {"shape": x.shape}

    def backward(self, net, i, g, cache, need_dx):
        return g.reshape(cache["shape"]), None


@dataclass(frozen=True)
class Softmax(_Layer):
    """Terminal layer; outputs log-probabilities."""

    def check(self, net, i):
        super().check(net, i)
        if i != len(net.specs) - 1:
            raise ValueError(f"layer {i} (Softmax) must be the terminal layer")

    def forward(self, net, i, x, noise_rng):
        z = x - np.max(x, axis=1, keepdims=True)
        logp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        return logp, {"p": np.exp(logp)}

    def backward(self, net, i, g, cache, need_dx):
        p = cache["p"]
        return g - p * np.sum(g, axis=1, keepdims=True), None


def _conv_windows(xp, kernel, stride):
    w = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return w[:, :, ::stride, ::stride]


def _image_blocks(win):
    """Slices of consecutive images, one or as many as keep their window copy
    (``tensordot``'s im2col matrix) within CONV_BLOCK_ELEMENTS values."""
    step = max(1, CONV_BLOCK_ELEMENTS // int(np.prod(win.shape[1:])))
    return [slice(start, start + step) for start in range(0, win.shape[0], step)]


class Network:
    """Compiled network: specs plus parameter arrays and shared units."""

    def __init__(self, specs, input_shape, weights, pau_units, seed):
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        self.weights = weights          # list aligned with specs; None or dict
        self.pau_units = pau_units
        self.seed = seed
        self.version = 0
        self.masks = {}                 # layer index -> bool keep-vector
        if len(weights) != len(self.specs):
            raise ValueError(f"{len(weights)} weight entries for {len(self.specs)} layers")
        self.shapes = []
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            shape = spec.out_shape(shape)
            spec.check(self, i)
            self.shapes.append(shape)
        # Activations feeding a MaxPool with disjoint windows: see MaxPool.backward
        self.pooled = frozenset(i for i, (a, b) in enumerate(zip(self.specs, self.specs[1:]))
                                if isinstance(a, Activation) and isinstance(b, MaxPool)
                                and (b.stride or b.window) >= b.window)

    def copy(self) -> "Network":
        weights = [None if w is None else {k: v.copy() for k, v in w.items()}
                   for w in self.weights]
        units = [replace(u, coefficients=u.coefficients.copy()) for u in self.pau_units]
        net = Network(self.specs, self.input_shape, weights, units, self.seed)
        net.masks = {i: m.copy() for i, m in self.masks.items()}
        return net

    def params(self):
        """(key, live array) of every trained array: ("layer", i, "W"/"b")
        of each layer with weights, then ("unit", u, "num"/"den") of each
        trainable unit."""
        for i in self.parametric_indices():
            for name in ("W", "b"):
                yield ("layer", i, name), self.weights[i][name]
        for u, unit in enumerate(self.pau_units):
            if unit.trainable:
                yield ("unit", u, "num"), unit.coefficients.numerator
                yield ("unit", u, "den"), unit.coefficients.denominator

    def params_changed(self):
        """Call after changing parameters in place (an optimizer step,
        pruning, a rewind): re-zero the masked rows, biases and the
        consumer columns they feed, so that masked units never drift from
        zero, and make every earlier trace stale."""
        _apply_masks(self, dict(self.params()))
        self.version += 1

    def parametric_indices(self):
        return [i for i, s in enumerate(self.specs) if s.weight_shape is not None]


def resolve_units(specs):
    """Assign unit indices to Activation layers; None gets a fresh index.

    Returns the resolved specs and the unit count, the highest index + 1.
    """
    n = max((s.unit + 1 for s in specs if isinstance(s, Activation) and s.unit is not None),
            default=0)
    out = []
    for s in specs:
        if isinstance(s, Activation) and s.unit is None:
            s, n = Activation(n), n + 1
        out.append(s)
    return out, n


def build_network(specs, init=DEFAULT_INIT, seed=0, input_shape=None,
                  noise_alpha=0.0, trainable_units=True) -> Network:
    """Compile a spec list into a Network.

    ``init`` is a builtin coefficient name or a RationalCoefficients used
    for every unit, in safe mode.  Weights are uniform on [-s, s] with
    s = sqrt(1/fan_in), biases start at zero; everything is deterministic
    given ``seed``.
    """
    specs, n_units = resolve_units(list(specs))
    if input_shape is None:
        first = next((s for s in specs if s.weight_shape is not None), None)
        if isinstance(first, Dense):
            input_shape = (first.in_dim,)
        else:
            raise ValueError("input_shape is required for convolutional specs")

    rng = np.random.default_rng(seed)
    weights = []
    for spec in specs:
        shapes = spec.array_shapes()
        if shapes is None:
            weights.append(None)
            continue
        fan_in = math.prod(shapes["W"]) // shapes["b"][0]   # weights feeding one output
        s = np.sqrt(1.0 / fan_in)
        weights.append({"W": rng.uniform(-s, s, shapes["W"]), "b": np.zeros(shapes["b"])})

    base = init if isinstance(init, RationalCoefficients) else builtin_coefficients(init)
    units = [PauUnit(base.copy(), noise_alpha=noise_alpha, trainable=trainable_units)
             for _ in range(n_units)]
    return Network(specs, input_shape, weights, units, seed)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    version: int
    caches: list = field(default_factory=list)
    out_shape: tuple = ()   # the network output's; backward's loss gradient must match it


def _run_layers(net: Network, batch, training, seed, start=0, total=None):
    """Yield (output, cache) of each layer in turn.  ``batch`` is rows
    ``start:`` of a batch of ``total`` samples (all of it by default).  When
    training, each unit with noise_alpha > 0 draws its rows of that whole
    batch's noise: its generator is PCG64(``seed``) advanced past the doubles
    that the earlier noisy layers draw for the whole batch, then past its own
    rows before ``start``, so that any split of a batch draws what one
    forward of it draws.  A pole names its element's index in the whole
    batch.  Inference uses clean coefficients."""
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ValueError(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    total = len(x) if total is None else total
    noisy = training and any(u.noise_alpha > 0 for u in net.pau_units)
    drawn = 0   # doubles that the noisy layers so far draw for the whole batch
    layers = iter(enumerate(net.specs))
    for i, spec in layers:
        per_sample, noise_rng = math.prod(x.shape[1:]), None
        unit = net.pau_units[spec.unit] if isinstance(spec, Activation) else None
        if noisy and unit is not None and unit.noise_alpha > 0:
            k = per_sample * (unit.coefficients.m + 1 + unit.coefficients.n)
            noise_rng = np.random.Generator(np.random.PCG64(seed).advance(drawn + start * k))
            drawn += total * k
        try:
            if noise_rng is not None and i in net.pooled:
                steps = spec.forward_pooled(net, i, x, noise_rng)
                next(layers)   # the MaxPool ran in the stage
            else:
                steps = [spec.forward(net, i, x, noise_rng)]
        except PoleError as exc:
            raise spec._named(i, exc, start * per_sample) from None
        for x, cache in steps:
            yield x, cache


def forward(net: Network, batch, training=False, seed=0, start=0, total=None):
    """Run the network; returns (outputs, trace).  Noise is drawn, and poles
    are named, as in :func:`_run_layers`: ``batch`` may be rows ``start:``
    of a batch of ``total`` samples."""
    out = np.asarray(batch, dtype=np.float64)
    trace = ForwardTrace(version=net.version)
    for out, cache in _run_layers(net, out, training, seed, start, total):
        trace.caches.append(cache)
    trace.out_shape = out.shape
    return out, trace


def first_non_finite(net: Network, batch, training=False, seed=0) -> str:
    """Where a non-finite value first shows when ``forward`` runs ``batch``
    with these arguments: a unit's coefficients, a layer's weights, the
    input batch, or else the first layer output.  The layers run again,
    with the same noise, so call this only once a result is found bad."""
    for u, unit in enumerate(net.pau_units):
        c = unit.coefficients
        if not (np.isfinite(c.numerator).all() and np.isfinite(c.denominator).all()):
            return f"unit {u}'s coefficients"
    for i in net.parametric_indices():
        for k, v in net.weights[i].items():
            if not np.isfinite(v).all():
                return f"layer {i} ({type(net.specs[i]).__name__}) weights {k}"
    if not np.isfinite(batch).all():
        return "the input batch"
    for i, (y, _) in enumerate(_run_layers(net, batch, training, seed)):
        if not np.isfinite(y).all():
            return f"the output of layer {i} ({type(net.specs[i]).__name__})"
    return "none of the units, weights or layer outputs"


def backward(net: Network, trace: ForwardTrace, loss_grad) -> dict:
    """Gradients of every weight, bias and referenced trainable unit under
    their ``Network.params()`` keys; a shared unit's sum last layer first.

    Layers below the first one with parameters (a Dense, a Conv2d or an
    Activation with a trainable unit) have nothing to report, so the pass
    stops there, and that layer skips its own input gradient.
    """
    if trace.version != net.version:
        raise StaleTraceError("trace predates the current parameters")
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != trace.out_shape:
        raise ValueError(f"loss gradient of shape {g.shape}, "
                         f"the network output has shape {trace.out_shape}")
    grads = {}
    first = next((i for i, s in enumerate(net.specs) if s.has_params(net)),
                 len(net.specs))
    for i in range(len(net.specs) - 1, first - 1, -1):
        g, part = net.specs[i].backward(net, i, g, trace.caches[i], i > first)
        for key, value in (part or {}).items():
            grads[key] = grads[key] + value if key in grads else value
    _apply_masks(net, grads)
    return grads


def _apply_masks(net: Network, params):
    """Zero, in W and b of every parametric layer, the masked output units
    and the inputs fed by the masked units of the closest parametric layer
    upstream, the producer (each of its units feeds one input, or one per
    spatial position when a Flatten sits in between).  ``params`` maps
    ``Network.params()`` keys to weights or to their gradients."""
    if not net.masks:
        return
    producer = None
    for i in net.parametric_indices():
        spec = net.specs[i]
        W, b = params[("layer", i, "W")], params[("layer", i, "b")]
        keep = net.masks.get(i)
        if keep is not None:
            np.moveaxis(W, spec.out_axis, 0)[~keep] = 0.0
            b[~keep] = 0.0
        in_keep = net.masks.get(producer)
        if in_keep is not None:
            n_in = spec.weight_shape[spec.in_axis]
            np.moveaxis(W, spec.in_axis, 0)[~np.repeat(in_keep, n_in // in_keep.size)] = 0.0
        producer = i


def param_count(net: Network):
    """(total, pau) parameter counts; masked units are excluded, exactly as
    if they had been removed from the architecture: the entries that
    :func:`_apply_masks` would zero are not counted."""
    kept = {key: np.ones(arr.shape, dtype=bool) for key, arr in net.params()}
    _apply_masks(net, kept)
    pau = sum(int(m.sum()) for key, m in kept.items() if key[0] == "unit")
    return sum(int(m.sum()) for m in kept.values()), pau


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + little-endian float64 arrays in spec order
# ---------------------------------------------------------------------------

_MAGIC = b"PAUNET01"


def _spec_to_dict(spec):
    d = {"type": type(spec).__name__.lower()}
    d.update({k: getattr(spec, k) for k in spec.__dataclass_fields__})
    return d


_SPEC_TYPES = {cls.__name__.lower(): cls for cls in _Layer.__subclasses__()}


class CheckpointFormatError(ValueError):
    """A truncated checkpoint or one whose manifest does not describe a
    network."""


def _spec_from_dict(i, d):
    cls = _SPEC_TYPES.get(d["type"])
    if cls is None:
        raise ValueError(f"layer {i}: unknown layer type {d['type']!r}")
    try:
        return cls(**{k: v for k, v in d.items() if k != "type"})
    except ValueError as exc:
        raise ValueError(f"layer {i}: {exc}") from None


def save_checkpoint(path, net: Network) -> None:
    """Write ``net`` to ``path``: the magic, the manifest's byte length (u64,
    little-endian), the UTF-8 JSON manifest (``specs``, ``input_shape``,
    ``seed``, ``masks``, ``pau_units``), then the little-endian float64
    arrays of the layers with weights, in layer order, W then b."""
    manifest = {
        "specs": [_spec_to_dict(s) for s in net.specs],
        "input_shape": list(net.input_shape),
        "seed": net.seed,
        "masks": {str(i): m.astype(int).tolist() for i, m in net.masks.items()},
        "pau_units": [{
            "numerator": [repr(float(v)) for v in u.coefficients.numerator],
            "denominator": [repr(float(v)) for v in u.coefficients.denominator],
            **{k: getattr(u, k) for k in _UNIT_SETTINGS},
        } for u in net.pau_units],
    }
    payload = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for i in net.parametric_indices():
            for name in net.specs[i].array_shapes():
                fh.write(np.ascontiguousarray(net.weights[i][name], dtype="<f8").tobytes())


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by save_checkpoint; the specs give each
    array's shape, and an older file's ``offsets`` key is ignored.  Every
    malformed file raises CheckpointFormatError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = len(_MAGIC) + 8
    try:
        if raw[:len(_MAGIC)] != _MAGIC:
            raise ValueError(f"not a network checkpoint: magic {raw[:len(_MAGIC)]!r}")
        if len(raw) < header:
            raise ValueError(f"header ends at byte {len(raw)}, needs {header} bytes")
        (length,) = struct.unpack_from("<Q", raw, len(_MAGIC))
        if len(raw) < header + length:
            raise ValueError(f"manifest of {length} bytes at byte {header} "
                             f"ends past the file's {len(raw)} bytes")
        try:
            manifest = json.loads(raw[header:header + length].decode("utf-8"))
        except RecursionError:
            raise ValueError("the manifest nests too deeply to parse") from None
        return _network_from_manifest(manifest, raw[header + length:])
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: manifest lacks key {exc.args[0]!r}") from exc
    except (ValueError, TypeError, IndexError, AttributeError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc


def _unit_from_dict(u, d):
    for key in ("numerator", "denominator"):
        if not isinstance(d[key], list) or not all(isinstance(v, str) for v in d[key]):
            raise ValueError(f"unit {u}: {key} must be a list of strings, got {d[key]!r}")
    return PauUnit(RationalCoefficients([float(v) for v in d["numerator"]],
                                        [float(v) for v in d["denominator"]]),
                   **{k: d[k] for k in _UNIT_SETTINGS})


def _network_from_manifest(manifest, blob) -> Network:
    specs = [_spec_from_dict(i, d) for i, d in enumerate(manifest["specs"])]
    units = [_unit_from_dict(u, d) for u, d in enumerate(manifest["pau_units"])]
    input_shape, seed = manifest["input_shape"], manifest["seed"]
    if not isinstance(input_shape, list) or not all(_int_at_least(v, 1) for v in input_shape):
        raise ValueError(f"input_shape must be a list of integers >= 1, got {input_shape!r}")
    if not _int_at_least(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    layout = [(i, name, shape) for i, spec in enumerate(specs)
              for name, shape in (spec.array_shapes() or {}).items()]
    need = 8 * sum(math.prod(shape) for _, _, shape in layout)
    if len(blob) != need:
        raise ValueError(f"the blob holds {len(blob)} bytes, the specs' arrays need {need}")
    weights = [None if spec.weight_shape is None else {} for spec in specs]
    values, start = np.frombuffer(blob, dtype="<f8"), 0
    for i, name, shape in layout:
        arr = values[start:start + math.prod(shape)].reshape(shape).copy()
        start += arr.size
        if not np.isfinite(arr).all():
            bad = np.unravel_index(np.argmin(np.isfinite(arr)), shape)
            raise ValueError(f"{name} of layer {i} holds {float(arr[bad])!r} "
                             f"at index {tuple(map(int, bad))}")
        weights[i][name] = arr
    net = Network(specs, input_shape, weights, units, seed)
    units = {str(i): net.weights[i]["b"].size for i in net.parametric_indices()}
    for k, keep in manifest["masks"].items():
        if k not in units:
            raise ValueError(f"mask key {k!r} names no layer with weights")
        if not isinstance(keep, list) or not all(type(v) is int and v in (0, 1) for v in keep):
            raise ValueError(f"mask of layer {k} must be a list of 0 and 1, got {keep!r}")
        if len(keep) != units[k]:
            raise ValueError(f"mask of layer {k} has shape ({len(keep)},), "
                             f"the layer has {units[k]} units")
        net.masks[int(k)] = np.array(keep, dtype=bool)
    return net


# ---------------------------------------------------------------------------
# Stock architectures
# ---------------------------------------------------------------------------

def mlp_spec(dims=(784, 128, 10)):
    """Dense stack with one shared unit after each hidden layer."""
    specs = []
    for i in range(len(dims) - 1):
        specs.append(Dense(dims[i], dims[i + 1]))
        if i < len(dims) - 2:
            specs.append(Activation())
    specs.append(Softmax())
    return specs


def lenet_spec():
    """Five-layer convolutional stack for 32x32 single-channel input."""
    return [
        Conv2d(1, 6, 5), Activation(), MaxPool(2),
        Conv2d(6, 16, 5), Activation(), MaxPool(2),
        Conv2d(16, 120, 5), Activation(),
        Flatten(), Dense(120, 84), Activation(), Dense(84, 10), Softmax(),
    ]


def vgg8_spec():
    """Eight-layer convolutional stack for 32x32 single-channel input."""
    return [
        Conv2d(1, 64, 3, padding=1), Activation(), MaxPool(2),
        Conv2d(64, 128, 3, padding=1), Activation(), MaxPool(2),
        Conv2d(128, 256, 3, padding=1), Conv2d(256, 256, 3, padding=1),
        Activation(), MaxPool(2),
        Conv2d(256, 512, 3, padding=1), Conv2d(512, 512, 3, padding=1),
        Activation(), MaxPool(2),
        Conv2d(512, 512, 3, padding=1), Conv2d(512, 512, 3, padding=1),
        Activation(), MaxPool(2),
        Flatten(), Dense(512, 10), Softmax(),
    ]
