"""Reference scalar activation functions.

These serve two roles: fit targets for coefficient initialization, and
fixed baseline activations for comparison networks.  Each provides a
vectorized closed form, a pointwise derivative, and (for the functions
analytic at 0) an exact-rational Maclaurin series.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

KINDS = ("relu", "relu6", "lrelu", "sigmoid", "tanh", "swish", "elu")
_DEFAULT_PARAM = {"lrelu": 0.01, "swish": 1.0, "elu": 1.0}


class TaylorUnsupportedError(ValueError):
    """The target has no Maclaurin series (not smooth at the origin)."""


def _sigmoid(x):
    # branch on sign so neither exponential can overflow
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    ex_pos = np.exp(np.where(pos, -x, 0.0))
    ex_neg = np.exp(np.where(pos, 0.0, x))
    return np.where(pos, 1.0 / (1.0 + ex_pos), ex_neg / (1.0 + ex_neg))


def _series_divide(u, v, degree):
    # power series u/v through x^degree; v[0] != 0; q_k subtracts v_1 q_(k-1) first
    q = []
    for k in range(degree + 1):
        s = u[k] if k < len(u) else 0
        for j in range(1, min(k, len(v) - 1) + 1):
            s -= v[j] * q[k - j]
        q.append(s / v[0])
    return q


def _sigmoid_series(degree):
    e = [Fraction(1, math.factorial(k)) for k in range(degree + 1)]
    return _series_divide(e, [e[0] + 1] + e[1:], degree)


def _tanh_series(degree):
    sinh = [Fraction(1, math.factorial(k)) if k % 2 else Fraction(0)
            for k in range(degree + 1)]
    cosh = [Fraction(0) if k % 2 else Fraction(1, math.factorial(k))
            for k in range(degree + 1)]
    return _series_divide(sinh, cosh, degree)


@dataclass(frozen=True)
class TargetActivation:
    """A named closed-form activation, e.g. TargetActivation('lrelu', 0.01)."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind in _DEFAULT_PARAM and self.param is None:
            object.__setattr__(self, "param", _DEFAULT_PARAM[self.kind])
        if self.kind not in _DEFAULT_PARAM and self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    @property
    def name(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param:g})"

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        a = self.param
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "relu6":
            return np.minimum(np.maximum(x, 0.0), 6.0)
        if self.kind == "lrelu":
            return np.maximum(0.0, x) + a * np.minimum(0.0, x)
        if self.kind == "sigmoid":
            return _sigmoid(x)
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "swish":
            return x * _sigmoid(a * x)
        # elu
        return np.where(x > 0, x, a * np.expm1(np.minimum(x, 0.0)))

    def derivative(self, x):
        """Pointwise derivative; kinks take the x<=0 branch value."""
        x = np.asarray(x, dtype=np.float64)
        a = self.param
        if self.kind == "relu":
            return np.where(x > 0, 1.0, 0.0)
        if self.kind == "relu6":
            return np.where((x > 0) & (x < 6), 1.0, 0.0)
        if self.kind == "lrelu":
            return np.where(x > 0, 1.0, a)
        if self.kind == "sigmoid":
            s = _sigmoid(x)
            return s * (1.0 - s)
        if self.kind == "tanh":
            t = np.tanh(x)
            return 1.0 - t * t
        if self.kind == "swish":
            s = _sigmoid(a * x)
            return s + a * x * s * (1.0 - s)
        return np.where(x > 0, 1.0, a * np.exp(np.minimum(x, 0.0)))

    def taylor(self, degree: int) -> list[Fraction]:
        """Exact Maclaurin coefficients c_0..c_degree."""
        if self.kind not in ("sigmoid", "tanh", "swish"):
            raise TaylorUnsupportedError(
                f"{self.name} has no Taylor series at 0")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if self.kind == "sigmoid":
            return _sigmoid_series(degree)
        if self.kind == "tanh":
            return _tanh_series(degree)
        # swish(beta) = x * sigmoid(beta x)
        beta = Fraction(self.param)
        sig = _sigmoid_series(degree)
        scaled = [sig[k] * beta ** k for k in range(degree + 1)]
        return [Fraction(0)] + scaled[:degree]


_NAME_RE = re.compile(r"^([a-z6]+)(?:\(([-+0-9.eE]+)\))?$")


def parse_target(name: str) -> TargetActivation:
    """Parse names like 'tanh', 'lrelu(0.01)' or 'swish(1.5)'."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise ValueError(f"cannot parse activation name {name!r}")
    kind, param = m.group(1), m.group(2)
    if kind not in KINDS:
        raise ValueError(f"unknown activation {kind!r}; choose from {KINDS}")
    return TargetActivation(kind, float(param) if param is not None else None)
