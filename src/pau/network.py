"""Minimal feedforward networks with one shared rational unit per
activation layer.

Layers are declared as a flat spec list (Dense / Conv2d / MaxPool /
Activation / Baseline / Flatten / Softmax) and compiled into a Network
holding plain float64 arrays.  Forward and backward are hand-written;
each Activation layer references a PauUnit whose coefficient gradients
are summed over every element the layer touches in a fixed pairwise
order, independent of thread count.  Backward returns parameter
gradients only, so it stops at the first layer with parameters (a Dense,
a Conv2d or an Activation with a trainable unit), and that layer skips
its own input gradient.  Whole-network results repeat bit for bit at a
fixed BLAS thread count: the Dense and Conv2d matrix products may round
differently when the thread count changes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .approx import builtin_coefficients
from .rational import (RationalCoefficients, backward_pau, eval_pau_batch,
                       eval_pau_stacked, sample_noisy_coeffs)
from .targets import TargetActivation, parse_target


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class MaxPool:
    window: int
    stride: int | None = None  # None means stride = window


@dataclass(frozen=True)
class Activation:
    unit: int | None = None  # None: assigned a fresh unit index at build


@dataclass(frozen=True)
class Baseline:
    """A fixed reference activation (e.g. 'lrelu(0.01)'), no parameters."""
    name: str


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Softmax:
    """Terminal layer; outputs log-probabilities."""


@dataclass
class PauUnit:
    coefficients: RationalCoefficients
    safe: bool = True
    noise_alpha: float = 0.0
    noise_granularity: str = "element"  # or "batch"
    trainable: bool = True

    def parameter_count(self) -> int:
        return self.coefficients.m + 1 + self.coefficients.n


class StaleTraceError(RuntimeError):
    """The trace was produced by a different parameter version."""


def _out_shape(spec, shape):
    if isinstance(spec, Dense):
        if shape != (spec.in_dim,):
            raise ValueError(f"Dense expects ({spec.in_dim},), got {shape}")
        return (spec.out_dim,)
    if isinstance(spec, Conv2d):
        if len(shape) != 3 or shape[0] != spec.in_channels:
            raise ValueError(f"Conv2d expects (C={spec.in_channels},H,W), got {shape}")
        _, h, w = shape
        oh = (h + 2 * spec.padding - spec.kernel) // spec.stride + 1
        ow = (w + 2 * spec.padding - spec.kernel) // spec.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"Conv2d kernel {spec.kernel} too large for {shape}")
        return (spec.out_channels, oh, ow)
    if isinstance(spec, MaxPool):
        if len(shape) != 3:
            raise ValueError(f"MaxPool expects (C,H,W), got {shape}")
        s = spec.stride or spec.window
        c, h, w = shape
        oh = (h - spec.window) // s + 1
        ow = (w - spec.window) // s + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"MaxPool window {spec.window} too large for {shape}")
        return (c, oh, ow)
    if isinstance(spec, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(spec, (Activation, Baseline, Softmax)):
        return shape
    raise TypeError(f"unknown layer spec {spec!r}")


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
        self._baselines = {i: parse_target(s.name)
                           for i, s in enumerate(self.specs)
                           if isinstance(s, Baseline)}
        self.shapes = []
        shape = self.input_shape
        for spec in self.specs:
            shape = _out_shape(spec, shape)
            self.shapes.append(shape)

    def copy(self) -> "Network":
        weights = [None if w is None else {k: v.copy() for k, v in w.items()}
                   for w in self.weights]
        units = [PauUnit(u.coefficients.copy(), u.safe, u.noise_alpha,
                         u.noise_granularity, u.trainable) for u in self.pau_units]
        net = Network(self.specs, self.input_shape, weights, units, self.seed)
        net.masks = {i: m.copy() for i, m in self.masks.items()}
        return net

    def bump_version(self):
        self.version += 1

    def enforce_masks(self):
        """Zero masked rows/biases and the consumer columns they feed.
        Called after pruning and after every optimizer step so masked
        units can never drift away from zero."""
        _apply_masks(self, self.weights)

    # -- mask plumbing ------------------------------------------------------

    def parametric_indices(self):
        return [i for i, s in enumerate(self.specs) if isinstance(s, (Dense, Conv2d))]

    def consumer_in_mask(self, layer_index):
        """Keep-mask over a parametric layer's inputs, induced by the mask of
        the closest parametric layer upstream (expanded across spatial
        positions when a Flatten sits in between).  None when unmasked."""
        producer = None
        for j in range(layer_index - 1, -1, -1):
            if isinstance(self.specs[j], (Dense, Conv2d)):
                producer = j
                break
        if producer is None or producer not in self.masks:
            return None
        keep = self.masks[producer]
        spec = self.specs[layer_index]
        if isinstance(spec, Conv2d):
            return keep
        # Dense consumer: expand over the flattened spatial block per channel
        in_dim = spec.in_dim
        if keep.size == in_dim:
            return keep
        mult = in_dim // keep.size
        return np.repeat(keep, mult)


def resolve_units(specs):
    """Assign unit indices to Activation layers; None gets a fresh index.

    Returns the resolved specs and the unit count, the highest index + 1.
    """
    explicit = [s.unit for s in specs if isinstance(s, Activation) and s.unit is not None]
    next_idx = (max(explicit) + 1) if explicit else 0
    out = []
    for s in specs:
        if isinstance(s, Activation) and s.unit is None:
            out.append(Activation(next_idx))
            next_idx += 1
        else:
            out.append(s)
    return out, next_idx


def build_network(specs, init="lrelu(0.01)", seed=0, input_shape=None,
                  safe=True, noise_alpha=0.0, noise_granularity="element",
                  trainable_units=True) -> Network:
    """Compile a spec list into a Network.

    ``init`` is a builtin coefficient name or a RationalCoefficients used
    for every unit.  Weights are uniform on [-s, s] with s = sqrt(1/fan_in),
    biases start at zero; everything is deterministic given ``seed``.
    """
    specs, n_units = resolve_units(list(specs))
    if input_shape is None:
        first = next((s for s in specs if isinstance(s, (Dense, Conv2d))), None)
        if isinstance(first, Dense):
            input_shape = (first.in_dim,)
        else:
            raise ValueError("input_shape is required for convolutional specs")
    for i, s in enumerate(specs):
        if isinstance(s, Softmax) and i != len(specs) - 1:
            raise ValueError("softmax must be the terminal layer")

    rng = np.random.default_rng(seed)
    weights = []
    for spec in specs:
        if isinstance(spec, Dense):
            s = np.sqrt(1.0 / spec.in_dim)
            weights.append({"W": rng.uniform(-s, s, (spec.in_dim, spec.out_dim)),
                            "b": np.zeros(spec.out_dim)})
        elif isinstance(spec, Conv2d):
            fan_in = spec.in_channels * spec.kernel * spec.kernel
            s = np.sqrt(1.0 / fan_in)
            shape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
            weights.append({"W": rng.uniform(-s, s, shape),
                            "b": np.zeros(spec.out_channels)})
        else:
            weights.append(None)

    if isinstance(init, RationalCoefficients):
        base = init
    else:
        base = builtin_coefficients(init)
    units = [PauUnit(base.copy(), safe=safe, noise_alpha=noise_alpha,
                     noise_granularity=noise_granularity, trainable=trainable_units)
             for _ in range(n_units)]
    for s in specs:
        if isinstance(s, Activation) and not 0 <= s.unit < len(units):
            raise ValueError(f"activation references unit {s.unit} of {len(units)}")
    return Network(specs, input_shape, weights, units, seed)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    version: int
    training: bool
    caches: list = field(default_factory=list)


@dataclass
class GradientSet:
    layers: dict         # layer index -> {"W": dW, "b": db}
    pau: dict            # unit index -> (d_numerator, d_denominator)

    def is_zero(self) -> bool:
        return (all(not np.any(g) for d in self.layers.values() for g in d.values())
                and all(not (np.any(dn) or np.any(dd)) for dn, dd in self.pau.values()))


def _conv_windows(xp, kernel, stride):
    w = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return w[:, :, ::stride, ::stride]


def forward(net: Network, batch, training=False, seed=0):
    """Run the network; returns (outputs, trace).

    Inference always uses the clean coefficients.  When training and a
    unit has noise_alpha > 0, every element (or batch, per granularity)
    sees coefficients perturbed by the unit's noise, cached in the trace
    so backward differentiates at the sampled values.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ValueError(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    trace = ForwardTrace(version=net.version, training=training)
    noise_rng = None
    for i, spec in enumerate(net.specs):
        if isinstance(spec, Dense):
            trace.caches.append({"x": x})
            x = x @ net.weights[i]["W"] + net.weights[i]["b"]
        elif isinstance(spec, Conv2d):
            xp = np.pad(x, ((0, 0), (0, 0), (spec.padding,) * 2, (spec.padding,) * 2)) \
                if spec.padding else x
            win = _conv_windows(xp, spec.kernel, spec.stride)
            y = np.tensordot(win, net.weights[i]["W"], axes=([1, 4, 5], [1, 2, 3]))
            x2 = np.moveaxis(y, 3, 1) + net.weights[i]["b"][None, :, None, None]
            trace.caches.append({"xp": xp})
            x = x2
        elif isinstance(spec, MaxPool):
            s = spec.stride or spec.window
            win = _conv_windows(x, spec.window, s)
            b_, c_, oh, ow = win.shape[:4]
            flat = win.reshape(b_, c_, oh, ow, -1)
            idx = np.argmax(flat, axis=-1)
            trace.caches.append({"in_shape": x.shape, "idx": idx,
                                 "window": spec.window, "stride": s})
            x = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        elif isinstance(spec, Activation):
            unit = net.pau_units[spec.unit]
            stacks = None
            if training and unit.noise_alpha > 0:
                if noise_rng is None:
                    noise_rng = np.random.default_rng(seed)
                if unit.noise_granularity == "batch":
                    noisy = sample_noisy_coeffs(unit.coefficients,
                                                unit.noise_alpha, noise_rng)
                    stacks = (np.broadcast_to(noisy.numerator, (x.size, noisy.m + 1)),
                              np.broadcast_to(noisy.denominator, (x.size, noisy.n)))
                else:
                    stacks = sample_noisy_coeffs(unit.coefficients, unit.noise_alpha,
                                                 noise_rng, size=x.size)
            trace.caches.append({"x": x, "stacks": stacks})
            if stacks is None:
                x = eval_pau_batch(x, unit.coefficients, safe=unit.safe)
            else:
                x = eval_pau_stacked(x.reshape(-1), *stacks,
                                     safe=unit.safe).reshape(x.shape)
        elif isinstance(spec, Baseline):
            trace.caches.append({"x": x})
            x = net._baselines[i](x)
        elif isinstance(spec, Flatten):
            trace.caches.append({"shape": x.shape})
            x = x.reshape(x.shape[0], -1)
        elif isinstance(spec, Softmax):
            z = x - np.max(x, axis=1, keepdims=True)
            logp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
            trace.caches.append({"p": np.exp(logp)})
            x = logp
    return x, trace


def backward(net: Network, trace: ForwardTrace, loss_grad) -> GradientSet:
    """Gradients of every weight, bias and trainable unit's coefficients.

    Layers below the first one with parameters (a Dense, a Conv2d or an
    Activation with a trainable unit) have nothing to report, so the pass
    stops there, and that layer skips its own input gradient.
    """
    if trace.version != net.version:
        raise StaleTraceError("trace predates the current parameters")
    g = np.asarray(loss_grad, dtype=np.float64)
    layers = {}
    pau = {u: None for u, unit in enumerate(net.pau_units) if unit.trainable}
    first = next((i for i, s in enumerate(net.specs)
                  if isinstance(s, (Dense, Conv2d))
                  or (isinstance(s, Activation) and net.pau_units[s.unit].trainable)),
                 len(net.specs))
    for i in range(len(net.specs) - 1, first - 1, -1):
        spec = net.specs[i]
        cache = trace.caches[i]
        if isinstance(spec, Dense):
            x = cache["x"]
            layers[i] = {"W": x.T @ g, "b": np.sum(g, axis=0)}
            if i > first:
                g = g @ net.weights[i]["W"].T
        elif isinstance(spec, Conv2d):
            xp = cache["xp"]
            win = _conv_windows(xp, spec.kernel, spec.stride)
            dW = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
            db = np.sum(g, axis=(0, 2, 3))
            layers[i] = {"W": dW, "b": db}
            if i > first:
                g = _conv_input_gradient(g, net.weights[i]["W"], xp.shape, spec)
        elif isinstance(spec, MaxPool):
            idx = cache["idx"]
            w, s = cache["window"], cache["stride"]
            oh, ow = idx.shape[2:]
            # one strided add per window offset; where windows overlap an
            # element sums the values of every window whose max it holds
            dx = np.zeros(cache["in_shape"])
            for a in range(w):
                for c in range(w):
                    dx[:, :, a:a + s * oh:s, c:c + s * ow:s] += \
                        np.where(idx == a * w + c, g, 0.0)
            g = dx
        elif isinstance(spec, Activation):
            unit = net.pau_units[spec.unit]
            x = cache["x"]
            d_in, (d_num, d_den) = backward_pau(
                x.reshape(-1), g.reshape(-1), unit.coefficients,
                safe=unit.safe, coefficient_stacks=cache["stacks"])
            if unit.trainable:
                if pau[spec.unit] is None:
                    pau[spec.unit] = (d_num, d_den)
                else:
                    old_n, old_d = pau[spec.unit]
                    pau[spec.unit] = (old_n + d_num, old_d + d_den)
            g = d_in.reshape(x.shape)
        elif isinstance(spec, Baseline):
            g = g * net._baselines[i].derivative(cache["x"])
        elif isinstance(spec, Flatten):
            g = g.reshape(cache["shape"])
        elif isinstance(spec, Softmax):
            p = cache["p"]
            g = g - p * np.sum(g, axis=1, keepdims=True)
    for u in list(pau):
        if pau[u] is None:
            unit = net.pau_units[u]
            pau[u] = (np.zeros(unit.coefficients.m + 1), np.zeros(unit.coefficients.n))
    gs = GradientSet(layers, pau)
    _apply_masks(net, gs.layers)
    return gs


def _conv_input_gradient(g, W, xp_shape, spec: Conv2d):
    """dL/dx of a Conv2d from its output gradient ``g`` (B, O, oh, ow).

    ``g`` is moved to channels-last rows once; each kernel offset is then
    one (B·oh·ow, O) @ (O, C) product added, strided, into a channels-last
    gradient of the padded input.
    """
    b_, o_, oh, ow = g.shape
    s, p = spec.stride, spec.padding
    g2 = np.moveaxis(g, 1, 3).reshape(-1, o_)
    dxp = np.zeros((b_, xp_shape[2], xp_shape[3], xp_shape[1]))
    for kh in range(spec.kernel):
        for kw in range(spec.kernel):
            t = (g2 @ W[:, :, kh, kw]).reshape(b_, oh, ow, -1)
            dxp[:, kh:kh + s * oh:s, kw:kw + s * ow:s] += t
    dx = np.moveaxis(dxp, 3, 1)
    return dx[:, :, p:-p, p:-p] if p else dx


def _apply_masks(net: Network, params):
    """Zero, in ``params[i]["W"]`` and ``params[i]["b"]`` of every
    parametric layer i, the masked output units and the input columns fed
    by the producer's masked units.  ``params`` holds weights or their
    gradients."""
    if not net.masks:
        return
    for i in net.parametric_indices():
        dense = isinstance(net.specs[i], Dense)
        W, b = params[i]["W"], params[i]["b"]
        keep = net.masks.get(i)
        if keep is not None:
            if dense:
                W[:, ~keep] = 0.0
            else:
                W[~keep] = 0.0
            b[~keep] = 0.0
        in_keep = net.consumer_in_mask(i)
        if in_keep is not None:
            if dense:
                W[~in_keep, :] = 0.0
            else:
                W[:, ~in_keep] = 0.0


def param_count(net: Network):
    """(total, pau) parameter counts; masked units are excluded, exactly as
    if they had been removed from the architecture."""
    total = 0
    for i in net.parametric_indices():
        spec = net.specs[i]
        keep = net.masks.get(i)
        in_keep = net.consumer_in_mask(i)
        if isinstance(spec, Dense):
            n_in = spec.in_dim if in_keep is None else int(np.sum(in_keep))
            n_out = spec.out_dim if keep is None else int(np.sum(keep))
        else:
            n_in = spec.in_channels if in_keep is None else int(np.sum(in_keep))
            n_in *= spec.kernel * spec.kernel
            n_out = spec.out_channels if keep is None else int(np.sum(keep))
        total += n_in * n_out + n_out
    pau = sum(u.parameter_count() for u in net.pau_units if u.trainable)
    return total + pau, pau


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + little-endian float64 blob with offset table
# ---------------------------------------------------------------------------

_MAGIC = b"PAUNET01"


def _spec_to_dict(spec):
    d = {"type": type(spec).__name__.lower()}
    d.update({k: getattr(spec, k) for k in spec.__dataclass_fields__})
    return d


_SPEC_TYPES = {"dense": Dense, "conv2d": Conv2d, "maxpool": MaxPool,
               "activation": Activation, "baseline": Baseline,
               "flatten": Flatten, "softmax": Softmax}


class CheckpointFormatError(ValueError):
    """A truncated checkpoint or one whose manifest does not describe a
    network."""


def _spec_from_dict(d):
    cls = _SPEC_TYPES.get(d["type"])
    if cls is None:
        raise ValueError(f"unknown layer type {d['type']!r}")
    kwargs = {k: v for k, v in d.items() if k != "type"}
    return cls(**kwargs)


def save_checkpoint(path, net: Network) -> None:
    offsets = []
    blob = bytearray()
    for i in net.parametric_indices():
        for name in ("W", "b"):
            arr = np.ascontiguousarray(net.weights[i][name], dtype="<f8")
            offsets.append({"layer": i, "name": name,
                            "offset": len(blob), "shape": list(arr.shape)})
            blob += arr.tobytes()
    manifest = {
        "specs": [_spec_to_dict(s) for s in net.specs],
        "input_shape": list(net.input_shape),
        "seed": net.seed,
        "masks": {str(i): m.astype(int).tolist() for i, m in net.masks.items()},
        "pau_units": [{
            "numerator": [repr(float(v)) for v in u.coefficients.numerator],
            "denominator": [repr(float(v)) for v in u.coefficients.denominator],
            "safe": u.safe,
            "noise_alpha": u.noise_alpha,
            "noise_granularity": u.noise_granularity,
            "trainable": u.trainable,
        } for u in net.pau_units],
        "offsets": offsets,
    }
    payload = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(bytes(blob))


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by save_checkpoint.  Every malformed file
    raises CheckpointFormatError naming ``path``."""
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
        manifest = json.loads(raw[header:header + length].decode("utf-8"))
        return _network_from_manifest(manifest, raw[header + length:])
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: manifest lacks key {exc.args[0]!r}") from exc
    except (ValueError, TypeError, IndexError, AttributeError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc


def _network_from_manifest(manifest, blob) -> Network:
    specs = [_spec_from_dict(d) for d in manifest["specs"]]
    units = [PauUnit(RationalCoefficients([float(v) for v in u["numerator"]],
                                          [float(v) for v in u["denominator"]]),
                     safe=u["safe"], noise_alpha=u["noise_alpha"],
                     noise_granularity=u["noise_granularity"],
                     trainable=u["trainable"])
             for u in manifest["pau_units"]]
    weights = [None] * len(specs)
    for entry in manifest["offsets"]:
        i, name = entry["layer"], entry["name"]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start, stop = entry["offset"], entry["offset"] + 8 * count
        if start < 0 or stop > len(blob):
            raise ValueError(f"{name} of layer {i} needs blob bytes {start}-{stop}, "
                             f"the blob holds {len(blob)}")
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=start).reshape(shape).copy()
        if weights[i] is None:
            weights[i] = {}
        weights[i][name] = arr
    net = Network(specs, tuple(manifest["input_shape"]), weights, units,
                  manifest["seed"])
    net.masks = {int(k): np.array(v, dtype=bool)
                 for k, v in manifest["masks"].items()}
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
