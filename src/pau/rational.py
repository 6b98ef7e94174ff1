"""Rational activation units: safe/unsafe evaluation and exact gradients.

A unit of order [m/n] computes

    F(x) = P(x) / Q(x)
    P(x) = a_0 + a_1 x + ... + a_m x^m
    A(x) = b_1 x + ... + b_n x^n
    Q(x) = 1 + A(x)      (unsafe; may have real poles)
    Q(x) = 1 + |A(x)|    (safe; Q >= 1 for every real x)

The denominator's constant term is pinned at 1 and never stored, so the
learnable state of one unit is m+1 numerator plus n denominator
coefficients.  Gradients are computed analytically:

    dF/dx   = P'(x)/Q(x) - Q'(x) * P(x)/Q(x)^2
    dF/da_j = x^j / Q(x)
    dF/db_k = -x^k * s * P(x)/Q(x)^2

with s = sign(A(x)) in safe mode (and Q'(x) = s * A'(x)), s = 1 in unsafe
mode.  sign(0) is defined as 0, which keeps the gradients finite at the
kink of |A|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_POLE_FLOOR = 1e-12

# rows of noise drawn per generator call; bounds the draw's temporary
NOISE_BLOCK_ROWS = 8192


class PoleError(ArithmeticError):
    """Unsafe-mode denominator magnitude fell below the pole floor."""

    def __init__(self, x, q, index=None):
        self.x = x
        self.q = q
        self.index = index
        at = f" at index {index}" if index is not None else ""
        super().__init__(f"denominator {q!r} below pole floor{at} (x={x!r})")


@dataclass
class RationalCoefficients:
    """Coefficient state of one rational unit: a_0..a_m and b_1..b_n."""

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        self.numerator = np.atleast_1d(np.asarray(self.numerator, dtype=np.float64))
        self.denominator = np.asarray(self.denominator, dtype=np.float64).reshape(-1)
        if self.numerator.ndim != 1 or self.numerator.size == 0:
            raise ValueError("numerator must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.numerator)) or not np.all(np.isfinite(self.denominator)):
            raise ValueError("coefficients must be finite")

    @property
    def m(self) -> int:
        return self.numerator.size - 1

    @property
    def n(self) -> int:
        return self.denominator.size

    def copy(self) -> "RationalCoefficients":
        return RationalCoefficients(self.numerator.copy(), self.denominator.copy())

    def __eq__(self, other):
        if not isinstance(other, RationalCoefficients):
            return NotImplemented
        return (np.array_equal(self.numerator, other.numerator)
                and np.array_equal(self.denominator, other.denominator))


def eval_polynomial(coeffs, x):
    """Horner evaluation of sum_i coeffs[i] * x**i.

    ``coeffs`` is a 1-D vector shared across all of ``x``, or a stack of
    shape ``x.shape + (d+1,)`` holding one coefficient vector per element.
    A single fused pass, no explicit powers.  Each step reads one column
    ``coeffs[..., i]``, so a stack is read fastest when its columns are
    contiguous, as :func:`sample_noisy_coeffs` lays them out.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape[-1] == 0:
        raise ValueError("empty coefficient vector")
    scalar = np.ndim(x) == 0 and c.ndim == 1
    xa = np.asarray(x, dtype=np.float64)
    acc = c[..., -1] + np.zeros_like(xa)
    for i in range(c.shape[-1] - 2, -1, -1):
        acc *= xa
        acc += c[..., i]
    return float(acc) if scalar else acc


def _eval_derivative(coeffs, x):
    """Horner evaluation of sum_i (i+1) * coeffs[i] * x**i, the derivative
    of sum_i coeffs[i] * x**(i+1); zeros when ``coeffs`` is empty.

    Each coefficient is scaled as it is read, so no stack of derivative
    coefficients is built.  Stacks are read as in :func:`eval_polynomial`.
    """
    k = coeffs.shape[-1]
    if k == 0:
        return np.zeros_like(x)
    acc = coeffs[..., -1] * float(k) + np.zeros_like(x)
    for i in range(k - 2, -1, -1):
        acc *= x
        acc += coeffs[..., i] * float(i + 1)
    return acc


def _poly_A(den, x):
    """A(x) = b_1 x + ... + b_n x^n; exact zero when n = 0."""
    xa = np.asarray(x, dtype=np.float64)
    if np.shape(den)[-1] == 0:
        return np.zeros_like(xa)
    return eval_polynomial(den, xa) * xa


def _pau_parts(x, numerator, denominator, safe):
    P = eval_polynomial(numerator, np.asarray(x, dtype=np.float64))
    A = _poly_A(denominator, x)
    Q = 1.0 + np.abs(A) if safe else 1.0 + A
    return P, A, Q


def _check_poles(x, Q, pole_floor):
    bad = np.abs(Q) < pole_floor
    if not np.any(bad):
        return
    if np.ndim(Q) == 0:
        raise PoleError(float(np.asarray(x)), float(Q))
    idx = int(np.argmax(bad))
    raise PoleError(float(np.asarray(x).reshape(-1)[idx]), float(Q.reshape(-1)[idx]), index=idx)


def _eval(x, numerator, denominator, safe, pole_floor):
    """P/Q at every element of ``x``, the one body of the three entry
    points below.  Unsafe mode raises PoleError, with the index of the
    first offending element, when |Q| drops below ``pole_floor``."""
    P, _, Q = _pau_parts(x, numerator, denominator, safe)
    if not safe:
        _check_poles(x, Q, pole_floor)
    return P / Q


def eval_pau(x, coeffs: RationalCoefficients, safe: bool = True,
             pole_floor: float = DEFAULT_POLE_FLOOR):
    """Evaluate the unit at a scalar x.  Unsafe mode raises PoleError when
    the denominator magnitude drops below ``pole_floor``."""
    out = _eval(x, coeffs.numerator, coeffs.denominator, safe, pole_floor)
    return float(out) if np.ndim(x) == 0 else out


def eval_pau_batch(xs, coeffs: RationalCoefficients, safe: bool = True,
                   pole_floor: float = DEFAULT_POLE_FLOOR) -> np.ndarray:
    """Elementwise evaluation; bit-identical to looping :func:`eval_pau`.

    A pole raises with the index of the first offending element.
    """
    return _eval(np.asarray(xs, dtype=np.float64), coeffs.numerator,
                 coeffs.denominator, safe, pole_floor)


def eval_pau_stacked(xs, num_stack, den_stack, safe: bool = True) -> np.ndarray:
    """Evaluate with one coefficient vector per element (noise-perturbed
    units); stacks have shape (len(xs), m+1) and (len(xs), n).  Poles
    raise as in :func:`eval_pau_batch`."""
    return _eval(np.asarray(xs, dtype=np.float64), num_stack, den_stack, safe,
                 DEFAULT_POLE_FLOOR)


@dataclass
class PauGradientBundle:
    """Gradients of a single evaluation: dF/dx, dF/da_j (m+1), dF/db_k (n)."""

    d_input: float
    d_numerator: np.ndarray
    d_denominator: np.ndarray


def _grad_parts(x, numerator, denominator, safe, pole_floor=None, upstream=1.0):
    """Vectorized gradient pieces sharing one (P, A, Q) evaluation.

    Returns (d_input, w, v): d_input is dF/dx, and the factors
    w = upstream / Q and v = -upstream * s * P / Q^2 give the coefficient
    gradients upstream * dF/da_j = w x^j and upstream * dF/db_k = v x^k
    (see :func:`_power_terms`).  Coefficient arrays may carry a leading
    per-element stack exactly as in :func:`eval_polynomial`.
    ``pole_floor`` triggers the unsafe-mode pole check before anything is
    divided by Q.
    """
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    xa = np.asarray(x, dtype=np.float64)

    P, A, Q = _pau_parts(xa, num, den, safe)
    if not safe and pole_floor is not None:
        _check_poles(xa, Q, pole_floor)
    s = np.sign(A) if safe else np.ones_like(A)

    PQ2 = P / Q ** 2
    d_input = _eval_derivative(num[..., 1:], xa) / Q \
        - s * _eval_derivative(den, xa) * PQ2
    return d_input, upstream / Q, -upstream * s * PQ2


def _power_terms(factor, x, count):
    """Yield factor * x**j for j = 0, ..., count - 1.

    Each term is one running-product step from the previous one, so no
    table of powers is ever built.
    """
    for j in range(count):
        if j:
            factor = factor * x
        yield factor


def _expand_gradients(x, w, v, m, n):
    """Per-element coefficient gradients from the factors of
    :func:`_grad_parts`, as one array of shape x.shape + (m+1+n,): the
    columns w x^j for j = 0..m, then v x^k for k = 1..n.

    The same expansion with w = 1 and v = -y gives the rows of the
    linearized least-squares design matrix.
    """
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(w), np.shape(v))
                   + (m + 1 + n,))
    out[..., 0] = w
    # each column is the one before times x, written in place to keep
    # temporaries off the fitting grid; the first denominator column is v x
    for j in range(1, m + 1 + n):
        np.multiply(v if j == m + 1 else out[..., j - 1], x, out=out[..., j])
    return out


def grad_pau(x, coeffs: RationalCoefficients, safe: bool = True,
             pole_floor: float = DEFAULT_POLE_FLOOR) -> PauGradientBundle:
    """Exact analytic gradients of the unit at a scalar x."""
    d_input, w, v = _grad_parts(
        x, coeffs.numerator, coeffs.denominator, safe, pole_floor=pole_floor)
    d = _expand_gradients(x, w, v, coeffs.m, coeffs.n)
    return PauGradientBundle(float(d_input), d[:coeffs.m + 1], d[coeffs.m + 1:])


def backward_pau(xs, upstream, coeffs: RationalCoefficients, safe: bool = True,
                 pole_floor: float = DEFAULT_POLE_FLOOR,
                 coefficient_stacks=None):
    """Backward pass for one shared unit applied elementwise.

    Returns ``(d_inputs, (d_numerator, d_denominator))`` where d_inputs[i]
    is upstream[i] * dF/dx at xs[i] and the coefficient gradients are the
    sums of upstream[i] * dF/dc over all elements.  Each sum is one
    ``np.sum`` over a contiguous vector of power-sum terms: a fixed
    pairwise order set by the length alone, independent of thread count.

    ``coefficient_stacks``, when given as ``(num_stack, den_stack)`` with
    one coefficient vector per element, evaluates the gradients at those
    (e.g. noise-perturbed) coefficients instead of the shared ones.  Any
    layout works; the column-major stacks of :func:`sample_noisy_coeffs`
    (drawn in ``gen.uniform``'s row order) are read fastest, one
    contiguous column per Horner step, and no derivative stack is built.
    """
    xa = np.asarray(xs, dtype=np.float64).reshape(-1)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    if xa.size != up.size:
        raise ValueError(f"length mismatch: {xa.size} inputs vs {up.size} upstream")
    if coefficient_stacks is None:
        num, den = coeffs.numerator, coeffs.denominator
    else:
        num, den = coefficient_stacks
    d_input, w, v = _grad_parts(xa, num, den, safe, pole_floor=pole_floor,
                                upstream=up)
    d_inputs = up * d_input
    d_num = np.array([np.sum(t) for t in _power_terms(w, xa, coeffs.m + 1)])
    d_den = np.array([np.sum(t) for t in _power_terms(v * xa, xa, coeffs.n)])
    return d_inputs, (d_num, d_den)


def sample_noisy_coeffs(coeffs: RationalCoefficients, alpha: float, rng,
                        size=None):
    """Perturb each coefficient by a uniform draw on [c - a|c|, c + a|c|].

    ``rng`` is a seed or a numpy Generator.  With ``size=None`` one
    perturbed RationalCoefficients is returned; an integer size returns
    stacked arrays ``(num_stack, den_stack)`` of shapes (size, m+1) and
    (size, n), one sample per element.  Each stack is column-major: column
    j, the j-th coefficient of every element, is contiguous.  The values
    are drawn in the order of ``gen.uniform(lo, hi, (size, k))`` (every
    numerator row, then every denominator row), so a seed gives the same
    stacks whatever their layout.  alpha = 0 returns the coefficients
    unchanged and draws nothing from the generator.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    num, den = coeffs.numerator, coeffs.denominator
    if alpha == 0.0:
        if size is None:
            return coeffs.copy()
        return (np.repeat(num[:, None], size, axis=1).T,
                np.repeat(den[:, None], size, axis=1).T)
    gen = np.random.default_rng(rng)
    lo_n, hi_n = num - alpha * np.abs(num), num + alpha * np.abs(num)
    lo_d, hi_d = den - alpha * np.abs(den), den + alpha * np.abs(den)
    if size is None:
        return RationalCoefficients(gen.uniform(lo_n, hi_n, num.size),
                                    gen.uniform(lo_d, hi_d, den.size))
    return _uniform_stack(gen, lo_n, hi_n, size), _uniform_stack(gen, lo_d, hi_d, size)


def _uniform_stack(gen, lo, hi, size):
    """``gen.uniform(lo, hi, (size, lo.size))`` value for value, laid out
    column-major and drawn NOISE_BLOCK_ROWS rows at a time.

    numpy's uniform computes ``lo + (hi - lo) * next_double``, so the same
    arithmetic on ``gen.random`` blocks gives the same bits.
    """
    span = hi - lo
    if not np.all(np.isfinite(span)):
        raise OverflowError("noise range exceeds valid bounds")
    out = np.empty((lo.size, size))
    for start in range(0, size, NOISE_BLOCK_ROWS):
        u = gen.random((min(NOISE_BLOCK_ROWS, size - start), lo.size))
        block = out[:, start:start + u.shape[0]]
        np.multiply(u.T, span[:, None], out=block)
        block += lo[:, None]
    return out.T


# ---------------------------------------------------------------------------
# Coefficient document format (UTF-8 text, key/value, value-exact round trip)
# ---------------------------------------------------------------------------

class DocumentFormatError(ValueError):
    """Malformed coefficient document."""


@dataclass
class CoefficientDocument:
    coefficients: RationalCoefficients
    safe: bool = True
    provenance: str = ""


def _fmt(values) -> str:
    # repr() of a Python float is the shortest decimal that round-trips
    return " ".join(repr(float(v)) for v in values)


def write_coefficient_document(path, coeffs: RationalCoefficients,
                               safe: bool = True, provenance: str = "") -> None:
    lines = [
        "version 1",
        f"orders {coeffs.m} {coeffs.n}",
        f"safe {'true' if safe else 'false'}",
        f"numerator {_fmt(coeffs.numerator)}".rstrip(),
        f"denominator {_fmt(coeffs.denominator)}".rstrip(),
        f"provenance {provenance}".rstrip(),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficient_document(path) -> CoefficientDocument:
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            fields[key] = rest
    for required in ("version", "orders", "safe", "numerator"):
        if required not in fields:
            raise DocumentFormatError(f"missing field {required!r}")
    if fields["version"].strip() != "1":
        raise DocumentFormatError(f"unsupported version {fields['version']!r}")
    try:
        m, n = (int(t) for t in fields["orders"].split())
    except ValueError as exc:
        raise DocumentFormatError(f"bad orders line: {fields['orders']!r}") from exc
    safe_text = fields["safe"].strip().lower()
    if safe_text not in ("true", "false"):
        raise DocumentFormatError(f"bad safe flag {fields['safe']!r}")
    try:
        numerator = [float(t) for t in fields["numerator"].split()]
        denominator = [float(t) for t in fields.get("denominator", "").split()]
    except ValueError as exc:
        raise DocumentFormatError("bad coefficient literal") from exc
    if not np.all(np.isfinite(numerator + denominator)):
        raise DocumentFormatError("non-finite coefficient")
    if len(numerator) != m + 1 or len(denominator) != n:
        raise DocumentFormatError(
            f"coefficient counts ({len(numerator)}, {len(denominator)}) "
            f"do not match orders ({m}, {n})")
    coeffs = RationalCoefficients(np.array(numerator), np.array(denominator))
    return CoefficientDocument(coeffs, safe=safe_text == "true",
                               provenance=fields.get("provenance", ""))
