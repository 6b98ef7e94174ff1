"""Spans recorded around calls into the pau modules, from outside them.

`Recorder.wrap` replaces a module attribute with a wrapper that records
one span per call: name, start, end, parent span, element count and (on
request) the tracemalloc peak.  `sample_backward` keeps a few random
elements of every `backward_pau` call for a finite-difference check.  Consumer modules look imported names up
in their own globals at call time, so wrapping `pau.network.backward_pau`
catches every call `network.backward` makes.  Spans stay in memory until
the run ends; `restore` puts the original attributes back.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np


@dataclass
class BackwardSample:
    """Sampled elements of one backward_pau call: input, upstream
    gradient, the d_inputs it returned and the coefficients each element
    was evaluated with (one row per element)."""

    x: np.ndarray
    upstream: np.ndarray
    d_input: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    safe: bool


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index into Recorder.spans, -1 at top level
    elements: int = 0
    peak_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Closed-loop span log for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.nonfinite_losses = 0
        self.backward_samples: list[BackwardSample] = []
        self._stack: list[int] = []
        self._patched = []

    def call(self, name, fn, *args, elements=0, peak=False, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    elements)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if peak:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if peak:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, module, attr, name, *, count_elements=False, peak=False):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            size = int(np.size(args[0])) if count_elements else 0
            return self.call(name, original, *args, elements=size, peak=peak,
                             **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def check_losses(self, module, attr):
        """Count calls of a loss function whose loss value is not finite."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            loss, grad = original(*args, **kwargs)
            if not math.isfinite(loss):
                self.nonfinite_losses += 1
            return loss, grad

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def sample_backward(self, module, attr, seed, size):
        """Keep `size` random elements of every call of `module.attr`, a
        function with backward_pau's signature, in `backward_samples`."""
        original = getattr(module, attr)
        rng = np.random.default_rng(seed)

        def wrapper(xs, upstream, coeffs, safe=True, **kwargs):
            out = original(xs, upstream, coeffs, safe=safe, **kwargs)
            x = np.reshape(xs, -1)
            if x.size:
                idx = rng.integers(0, x.size, size)
                stacks = kwargs.get("coefficient_stacks")
                if stacks is None:   # read-only views of a copy of the shared vectors
                    num = np.broadcast_to(coeffs.numerator.copy(), (size, coeffs.m + 1))
                    den = np.broadcast_to(coeffs.denominator.copy(), (size, coeffs.n))
                else:
                    num, den = stacks[0][idx], stacks[1][idx]
                self.backward_samples.append(BackwardSample(
                    x[idx], np.reshape(upstream, -1)[idx], out[0][idx], num, den, safe))
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def wrap_optimizer(self, module):
        """Wrap the `step` of every optimizer `module.make_optimizer` returns."""
        original = module.make_optimizer

        def make_optimizer(cfg):
            opt = original(cfg)
            step = opt.step
            opt.step = lambda net, grads: self.call(
                "train.optimizer_step", step, net, grads)
            return opt

        module.make_optimizer = make_optimizer
        self._patched.append((module, "make_optimizer", original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def children(self, index):
        return [i for i in range(index + 1, len(self.spans))
                if self.spans[i].parent == index]


def layer_breakdown(rec: Recorder, first: int, steps: int) -> dict:
    """Per-step busy time and counts for every span name from `first` on.

    Spans under `train.evaluate` are left out of every name but
    `train.evaluate` itself, so forward/backward/rational figures describe
    training steps only.  Self time of a span is its duration minus its
    direct children's.
    """
    spans = rec.spans
    in_eval = {}
    child_s = {}
    totals = {}
    for i in range(first, len(spans)):
        s = spans[i]
        in_eval[i] = s.name == "train.evaluate" or in_eval.get(s.parent, False)
        if s.parent >= first:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
    for i in range(first, len(spans)):
        s = spans[i]
        if in_eval[i] and s.name != "train.evaluate":
            continue
        t = totals.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                       "elements": 0, "peak_bytes": 0})
        t["s"] += s.seconds
        t["self_s"] += s.seconds - child_s.get(i, 0.0)
        t["calls"] += 1
        t["elements"] += s.elements
        t["peak_bytes"] = max(t["peak_bytes"], s.peak_bytes)
    n = max(steps, 1)
    out = {}
    for name, t in totals.items():
        out[name] = {
            "ms": 1e3 * t["s"] / n,
            "self_ms": 1e3 * t["self_s"] / n,
            "calls": t["calls"] / n,
            "elements": t["elements"] / n,
            "ns_per_element": 1e9 * t["s"] / t["elements"] if t["elements"] else 0.0,
            "peak_mb": t["peak_bytes"] / 2 ** 20,
        }
    return out

