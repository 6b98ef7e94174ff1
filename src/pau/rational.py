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

Coefficient noise is drawn per element: :func:`sample_noisy_coeffs`
gives every element its own perturbed coefficients, as stacks that
:func:`eval_pau_stacked` and :func:`backward_pau` read, drawn into a
buffer that a caller drawing block by block may pass and reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_POLE_FLOOR = 1e-12

# rows of noise drawn per generator call; bounds the draw's temporary
NOISE_BLOCK_ROWS = 8192
BLOCK_ELEMENTS = 32768  # elements per kernel slice, so a slice's temporaries stay in L2


class PoleError(ArithmeticError):
    """Unsafe-mode denominator magnitude fell below the pole floor.
    ``where``, when given, names the network layer and unit."""

    def __init__(self, x, q, index=None, where=None):
        self.x = x
        self.q = q
        self.index = index
        at = f" at index {index}" if index is not None else ""
        of = f"{where}: " if where else ""
        super().__init__(f"{of}denominator {q!r} below pole floor{at} (x={x!r})")


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
            raise ValueError("non-finite coefficient")

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


def _check_poles(x, Q, offset):
    """PoleError at the first |Q| below the floor, its index counted from ``offset``."""
    bad = np.abs(Q) < DEFAULT_POLE_FLOOR
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleError(float(np.ravel(x)[idx]), float(np.ravel(Q)[idx]), index=offset + idx)


def _blocks(size, *coeffs):
    """(start, stop, rows...) of each fixed BLOCK_ELEMENTS slice of range(size) (one
    empty slice if size is 0), with each stack's rows for it; shared vectors as is."""
    for start in range(0, max(size, 1), BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, size)
        yield (start, stop, *(c if np.ndim(c) == 1 else c[start:stop] for c in coeffs))


def _eval(x, numerator, denominator, safe):
    """P/Q at every element of ``x``, the one body of the three entry
    points below, over the flattened ``x`` in :func:`_blocks`.  Unsafe mode
    raises PoleError, with the C-order index of the first offending
    element, when |Q| drops below DEFAULT_POLE_FLOOR."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.empty(flat.size)
    for start, stop, num, den in _blocks(flat.size, numerator, denominator):
        xb = flat[start:stop]
        P, _, Q = _pau_parts(xb, num, den, safe)
        if not safe:
            _check_poles(xb, Q, start)
        np.divide(P, Q, out=out[start:stop])
    return out.reshape(np.shape(x))


def eval_pau(x, coeffs: RationalCoefficients, safe: bool = True):
    """Evaluate the unit at a scalar x.  Unsafe mode raises PoleError when
    the denominator magnitude drops below DEFAULT_POLE_FLOOR."""
    out = _eval(x, coeffs.numerator, coeffs.denominator, safe)
    return float(out) if np.ndim(x) == 0 else out


def eval_pau_batch(xs, coeffs: RationalCoefficients, safe: bool = True) -> np.ndarray:
    """Elementwise evaluation; bit-identical to looping :func:`eval_pau`.

    A pole raises with the index of the first offending element.
    """
    return _eval(xs, coeffs.numerator, coeffs.denominator, safe)


def eval_pau_stacked(xs, num_stack, den_stack, safe: bool = True) -> np.ndarray:
    """Evaluate with one coefficient vector per element (noise-perturbed
    units); stacks have shape (len(xs), m+1) and (len(xs), n).  Poles
    raise as in :func:`eval_pau_batch`."""
    return _eval(xs, num_stack, den_stack, safe)


@dataclass
class PauGradientBundle:
    """Gradients of a single evaluation: dF/dx, dF/da_j (m+1), dF/db_k (n)."""

    d_input: float
    d_numerator: np.ndarray
    d_denominator: np.ndarray


def _factors(P, A, Q, safe, upstream=1.0):
    """(w, v, sPQ2) of one (P, A, Q) evaluation: the factors w = upstream / Q
    and v = -upstream * s * P / Q^2 of the coefficient gradients
    upstream * dF/da_j = w x^j and upstream * dF/db_k = v x^k (see
    :func:`_expand_gradients`), and sPQ2 = s * P / Q^2, which dF/dx needs too.
    """
    sPQ2 = P / Q ** 2
    if safe:
        sPQ2 *= np.sign(A)
    return upstream / Q, -upstream * sPQ2, sPQ2


def _grad_parts(x, numerator, denominator, safe, pole_offset=None, upstream=1.0):
    """Vectorized gradient pieces sharing one (P, A, Q) evaluation.

    Returns (d_input, w, v): d_input is dF/dx, and w and v are the
    factors of :func:`_factors`.  Coefficient arrays may carry a leading
    per-element stack exactly as in :func:`eval_polynomial`.  A
    ``pole_offset`` runs the unsafe-mode pole check of :func:`_eval`
    before anything is divided by Q, counting indices from it.
    """
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    xa = np.asarray(x, dtype=np.float64)

    P, A, Q = _pau_parts(xa, num, den, safe)
    if not safe and pole_offset is not None:
        _check_poles(xa, Q, pole_offset)
    w, v, sPQ2 = _factors(P, A, Q, safe, upstream)
    d_input = _eval_derivative(num[..., 1:], xa) / Q - _eval_derivative(den, xa) * sPQ2
    return d_input, w, v


def _expand_gradients(x, w, v, m, n):
    """Per-element coefficient gradients from the factors of
    :func:`_factors`, as one array of shape x.shape + (m+1+n,): the
    columns w x^j for j = 0..m, then v x^k for k = 1..n, the terms that
    :func:`backward_pau` sums.

    The same expansion with w = 1 and v = -y gives the rows of the
    linearized least-squares design matrix.

    Each term is one running-product step from the one before, computed
    into a contiguous row of an (m+1+n,) + x.shape array, so no table of
    powers and no temporary is made.  The array is returned as its view
    with that axis last, so each column ``out[..., j]`` that a caller
    reads is contiguous.
    """
    rows = np.empty((m + 1 + n,) + np.broadcast_shapes(np.shape(x), np.shape(w),
                                                       np.shape(v)))
    rows[0, ...] = w
    for j in range(1, m + 1 + n):
        np.multiply(v if j == m + 1 else rows[j - 1], x, out=rows[j, ...])
    return np.moveaxis(rows, 0, -1)


def grad_pau(x, coeffs: RationalCoefficients, safe: bool = True) -> PauGradientBundle:
    """Exact analytic gradients of the unit at a scalar x."""
    d_input, w, v = _grad_parts(
        x, coeffs.numerator, coeffs.denominator, safe, pole_offset=0)
    d = _expand_gradients(x, w, v, coeffs.m, coeffs.n)
    return PauGradientBundle(float(d_input), d[:coeffs.m + 1], d[coeffs.m + 1:])


def backward_pau(xs, upstream, coeffs: RationalCoefficients, safe: bool = True,
                 coefficient_stacks=None):
    """Backward pass for one shared unit applied elementwise.

    Returns ``(d_inputs, (d_numerator, d_denominator))`` where d_inputs[i]
    is upstream[i] * dF/dx at xs[i] and the coefficient gradients are the
    sums of upstream[i] * dF/dc over all elements: each fixed
    BLOCK_ELEMENTS block of :func:`_blocks` gives one row of power sums,
    and the rows are summed once, in block order, independent of thread
    count.  Poles raise as in :func:`eval_pau_batch`.

    ``coefficient_stacks``, when given as ``(num_stack, den_stack)`` with
    one coefficient vector per element, evaluates the gradients at those
    (e.g. noise-perturbed) coefficients instead of the shared ones.  Row i
    of each stack belongs to xs[i] and upstream[i].  Any layout works; the
    column-major stacks of :func:`sample_noisy_coeffs`, and the winners'
    rows that a noisy Activation under a MaxPool keeps, are read fastest,
    one contiguous column per Horner step.  No derivative stack is built.
    """
    xa = np.asarray(xs, dtype=np.float64).reshape(-1)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    if xa.size != up.size:
        raise ValueError(f"length mismatch: {xa.size} inputs vs {up.size} upstream")
    stacks = coefficient_stacks or (coeffs.numerator, coeffs.denominator)
    d_inputs = np.empty(xa.size)
    block_sums = []
    for start, stop, num, den in _blocks(xa.size, *stacks):
        x, u = xa[start:stop], up[start:stop]
        d_input, w, v = _grad_parts(x, num, den, safe, pole_offset=start, upstream=u)
        np.multiply(u, d_input, out=d_inputs[start:stop])
        sums, t = [], w   # the running product w x^j, then v x^k
        for j in range(coeffs.m + 1 + coeffs.n):
            t = v * x if j == coeffs.m + 1 else (t * x if j else t)
            sums.append(np.sum(t))
        block_sums.append(sums)
    total = np.sum(block_sums, axis=0)
    return d_inputs, (total[:coeffs.m + 1], total[coeffs.m + 1:])


def sample_noisy_coeffs(coeffs: RationalCoefficients, alpha: float, rng, size: int,
                        out=None):
    """Perturb each coefficient by a uniform draw on [c - a|c|, c + a|c|],
    once for each of ``size`` elements.

    ``rng`` is a seed or a numpy Generator.  Returns the stacks
    ``(num_stack, den_stack)`` of shapes (size, m+1) and (size, n), one
    sample per element, as views of ``out`` (shape (m+1+n, size); a fresh
    array when None), so column j of a stack is the contiguous row j of
    ``out``.  Element i's m+1+n values are row i of
    ``gen.uniform(lo, hi, (size, m+1+n))`` over the numerator and
    denominator joined end to end: numpy's uniform computes
    ``lo + (hi - lo) * next_double``, and the same arithmetic on
    NOISE_BLOCK_ROWS-row ``gen.random`` blocks gives the same bits.  So
    rows drawn by consecutive calls on one generator follow on as in one
    call, as the network's noisy Activation → MaxPool stage draws them,
    block by block into one reused ``out``.  alpha = 0 fills ``out`` with
    the coefficients and draws nothing; a noise range that is not finite
    raises OverflowError before anything is drawn.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    m1 = coeffs.m + 1
    out = np.empty((m1 + coeffs.n, size)) if out is None else out
    if alpha == 0.0:
        out[:m1], out[m1:] = coeffs.numerator[:, None], coeffs.denominator[:, None]
    else:
        lo, hi = noise_range(coeffs, alpha)
        gen, span = np.random.default_rng(rng), hi - lo
        for start in range(0, size, NOISE_BLOCK_ROWS):
            u = gen.random((min(NOISE_BLOCK_ROWS, size - start), lo.size))
            block = out[:, start:start + u.shape[0]]
            np.multiply(u.T, span[:, None], out=block)
            block += lo[:, None]
    return out.T[:, :m1], out.T[:, m1:]


def noise_range(coeffs: RationalCoefficients, alpha):
    """The bounds (c - alpha|c|, c + alpha|c|) that noise draws each of the
    unit's coefficients c from, numerator then denominator joined;
    OverflowError when the span between them is not finite."""
    c = np.concatenate([coeffs.numerator, coeffs.denominator])
    with np.errstate(all="ignore"):   # inf * 0 is nan, refused below
        lo, hi = c - alpha * np.abs(c), c + alpha * np.abs(c)
        if not np.isfinite(hi - lo).all():
            raise OverflowError("noise range exceeds valid bounds")
    return lo, hi


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
    """Read a document written by :func:`write_coefficient_document`; any
    malformed one, UTF-8 decoding included, raises DocumentFormatError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_document(fh)
    except ValueError as exc:  # UnicodeDecodeError and DocumentFormatError among them
        raise DocumentFormatError(f"{path}: {exc}") from exc


def _parse_document(lines) -> CoefficientDocument:
    fields = {}
    for raw in lines:
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
    if len(numerator) != m + 1 or len(denominator) != n:
        raise DocumentFormatError(
            f"coefficient counts ({len(numerator)}, {len(denominator)}) "
            f"do not match orders ({m}, {n})")
    coeffs = RationalCoefficients(np.array(numerator), np.array(denominator))
    return CoefficientDocument(coeffs, safe=safe_text == "true",
                               provenance=fields.get("provenance", ""))
