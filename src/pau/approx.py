"""Coefficient initialization for rational units.

Two routes produce starting coefficients:

* classical [m/n] approximants of the exact Maclaurin series (a tuple
  of fractions) of sigmoid, tanh or swish, solved in rational arithmetic
  and rounded once to float64;
* iteratively reweighted linear least squares on a grid (the
  Sanathanan-Koerner linearization, to SK_TOLERANCE) followed by at
  most GN_MAX_ITERATIONS damped Gauss-Newton steps on the true quotient
  residual, for kinked targets such as the ReLU family.

The module also embeds the standard initialization table for order
[5/4]: exact fractions for the smooth targets and fitted constants for
the ReLU family.  Note the sigmoid entry b_4 = 1/1008, which is what the
symbolic derivation yields (it reproduces sigmoid(1) to 2e-11).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational import (RationalCoefficients, _expand_gradients, _grad_parts,
                       _pau_parts, eval_pau_batch)
from .targets import TargetActivation, _series_divide, parse_target

DEFAULT_ORDERS = (5, 4)
SK_TOLERANCE = 1e-10    # largest coefficient change, relative, that ends the SK stage
GN_MAX_ITERATIONS = 80  # Gauss-Newton steps of the polish stage


class DegenerateOrdersError(np.linalg.LinAlgError):
    """The approximant linear system is singular for the requested orders."""


class FitNonConvergenceError(RuntimeError):
    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


def taylor_of(target: TargetActivation, degree: int) -> tuple:
    """Exact-rational Maclaurin coefficients c_0..c_degree of a smooth target."""
    return tuple(target.taylor(degree))


def _solve_fraction_system(A, rhs):
    n = len(rhs)
    M = [list(A[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise DegenerateOrdersError("singular approximant system")
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [M[r][j] - f * M[col][j] for j in range(n + 1)]
    return [M[i][n] / M[i][i] for i in range(n)]


def pade_exact(series, m: int, n: int):
    """[m/n] approximant of an exact Maclaurin series, in rational arithmetic.

    Matches the first m+n+1 series coefficients: solves the n x n system
    sum_j b_j c_{k-j} = -c_k for k = m+1..m+n, then back-substitutes the
    numerator.  Returns (a_fractions, b_fractions).
    """
    c = [Fraction(v) for v in series]
    if len(c) < m + n + 1:
        raise ValueError(f"series degree {len(c) - 1} < m+n = {m + n}")
    A = [[(c[k - j] if k - j >= 0 else Fraction(0)) for j in range(1, n + 1)]
         for k in range(m + 1, m + n + 1)]
    rhs = [-c[k] for k in range(m + 1, m + n + 1)]
    b = _solve_fraction_system(A, rhs)
    a = []
    for j in range(m + 1):
        s = c[j]
        for i in range(1, min(j, n) + 1):
            s += b[i - 1] * c[j - i]
        a.append(s)
    return tuple(a), tuple(b)


def _rounded(a, b) -> RationalCoefficients:
    """Exact coefficients rounded once to float64."""
    return RationalCoefficients([float(v) for v in a], [float(v) for v in b])


def pade_from_taylor(series, m: int = DEFAULT_ORDERS[0],
                     n: int = DEFAULT_ORDERS[1]) -> RationalCoefficients:
    """[m/n] approximant from Maclaurin coefficients c_0..c_d, fractions or
    floats (taken at their exact values), solved by :func:`pade_exact` and
    rounded once to float64."""
    return _rounded(*pade_exact(series, m, n))


def rational_taylor(coeffs: RationalCoefficients, degree: int) -> np.ndarray:
    """Maclaurin expansion of P/Q by power-series division (Q_0 = 1)."""
    return np.array(_series_divide(coeffs.numerator, [1.0, *coeffs.denominator], degree))


# ---------------------------------------------------------------------------
# Grid least-squares fitting
# ---------------------------------------------------------------------------

@dataclass
class FitConfig:
    lo: float = -3.0
    hi: float = 3.0
    grid_step: float = 1e-4
    max_sk_iterations: int = 25

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("fit range must satisfy lo < hi")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be > 0")
        if self.max_sk_iterations < 1:
            raise ValueError("max_sk_iterations must be >= 1")

    def grid(self) -> np.ndarray:
        count = int(round((self.hi - self.lo) / self.grid_step)) + 1
        return np.linspace(self.lo, self.hi, count)


def _residual(theta, xs, y, m, safe):
    """P/Q - y on the grid and its sum of squares."""
    P, _, Q = _pau_parts(xs, theta[:m + 1], theta[m + 1:], safe)
    r = P / Q - y
    return r, float(r @ r)


def _gauss_newton_polish(theta, xs, y, m, n, safe):
    """Damped Gauss-Newton on the true residual P/Q - y.

    The Jacobian is the coefficient gradient of the unit, from the
    factors of :func:`_grad_parts` (in safe mode its b-columns carry
    sign(A)).  Improves the linearized solution to a stationary point of
    the actual grid sum of squares.
    """
    lam = 1e-10
    r, sse = _residual(theta, xs, y, m, safe)
    for _ in range(GN_MAX_ITERATIONS):
        _, w, v = _grad_parts(xs, theta[:m + 1], theta[m + 1:], safe)
        J = _expand_gradients(xs, w, v, m, n)
        g = J.T @ r
        H = J.T @ J
        del J   # else the next Jacobian is built while this one is still held
        for _ in range(15):
            try:
                step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = theta + step
            r2, sse2 = _residual(cand, xs, y, m, safe)
            if np.isfinite(sse2) and sse2 < sse:
                break
            lam *= 10
        else:
            break   # no damping gave a descent step
        improvement = sse - sse2
        theta, r, sse = cand, r2, sse2
        lam = max(lam / 3.0, 1e-14)
        if improvement <= 1e-15 * sse:
            break
    return theta


def least_squares_fit(target, m: int = DEFAULT_ORDERS[0],
                      n: int = DEFAULT_ORDERS[1],
                      config: FitConfig | None = None,
                      safe: bool = True) -> RationalCoefficients:
    """Fit a rational unit to ``target`` (a callable on arrays) over a grid.

    Minimizes the grid sum of squares of P(x)/Q(x) - f(x).  The
    Sanathanan-Koerner stage multiplies through by Q, weights each pass
    by 1/Q_previous, and iterates to a fixed point; the polish stage then
    descends the true objective (with the |A| kink handled via sign(A)
    when ``safe``).  Raises FitNonConvergenceError when no SK pass within
    ``max_sk_iterations`` changes every coefficient by at most
    SK_TOLERANCE relative to the largest, and OverflowError when the
    target is not finite on the grid.
    """
    cfg = config or FitConfig()
    xs = cfg.grid()
    if xs.size < m + n + 1:
        raise ValueError(f"grid has {xs.size} points, need >= {m + n + 1}")
    with np.errstate(all="ignore"):   # an overflow is reported just below
        y = np.asarray(target(xs), dtype=np.float64)
    if not np.all(np.isfinite(y)):
        i = int(np.argmin(np.isfinite(y)))
        raise OverflowError(f"value {float(y[i])!r} at x={float(xs[i])!r} is not finite")

    # Sanathanan-Koerner rows: x^j for the numerator, -y x^k for the denominator
    D = _expand_gradients(xs, 1.0, -y, m, n)

    Q = np.ones_like(xs)
    theta_prev = None
    n_params = m + 1 + n
    for _ in range(cfg.max_sk_iterations):
        w = 1.0 / np.maximum(np.abs(Q), 1e-6)
        # column equilibration keeps the solve conditioned; ridge on the
        # normal equations only as the rank-deficient fallback
        Dn = D * w[:, None]
        scale = np.linalg.norm(Dn, axis=0)
        scale[scale == 0.0] = 1.0
        Dn /= scale
        theta_n, _, rank, _ = np.linalg.lstsq(Dn, y * w, rcond=None)
        if rank < n_params:
            G = Dn.T @ Dn + 1e-12 * np.eye(n_params)
            theta_n = np.linalg.solve(G, Dn.T @ (y * w))
        theta = theta_n / scale
        _, _, Q = _pau_parts(xs, theta[:m + 1], theta[m + 1:], safe=False)
        if theta_prev is not None and np.max(np.abs(theta - theta_prev)) \
                <= SK_TOLERANCE * max(1.0, np.max(np.abs(theta))):
            break
        theta_prev = theta
    else:
        r, _ = _residual(theta, xs, y, m, safe)
        raise FitNonConvergenceError(
            f"no convergence within {cfg.max_sk_iterations} iterations",
            last_residual=float(np.max(np.abs(r))))

    theta = _gauss_newton_polish(theta, xs, y, m, n, safe)
    return RationalCoefficients(theta[:m + 1], theta[m + 1:])


def fit_residual(coeffs: RationalCoefficients, target, config: FitConfig | None = None,
                 safe: bool = True):
    """(max-abs, rms) residual of a coefficient set against a target grid."""
    cfg = config or FitConfig()
    xs = cfg.grid()
    r = eval_pau_batch(xs, coeffs, safe=safe) - np.asarray(target(xs))
    return float(np.max(np.abs(r))), float(np.sqrt(np.mean(r * r)))


# ---------------------------------------------------------------------------
# Embedded [5/4] initialization table
# ---------------------------------------------------------------------------

F = Fraction

_EXACT_COLUMNS = {
    "sigmoid": ((F(1, 2), F(1, 4), F(1, 18), F(1, 144), F(1, 2016), F(1, 60480)),
                (F(0), F(1, 9), F(0), F(1, 1008))),
    "tanh": ((F(0), F(1), F(0), F(1, 9), F(0), F(1, 945)),
             (F(0), F(4, 9), F(0), F(1, 63))),
}

_FITTED_COLUMNS = {
    "relu": ((0.02996348, 0.61690165, 2.37539147, 3.06608078, 1.52474449, 0.25281987),
             (1.19160814, 4.40811795, 0.91111034, 0.34885983)),
    "lrelu(0.01)": ((0.02979246, 0.61837738, 2.32335207, 3.05202660, 1.48548002, 0.25103717),
                    (1.14201226, 4.39322834, 0.87154450, 0.34720652)),
    "lrelu(0.2)": ((0.02557776, 0.66182815, 1.58182975, 2.94478759, 0.95287794, 0.23319681),
                   (0.50962605, 4.18376890, 0.37832090, 0.32407314)),
    "lrelu(0.25)": ((0.02423485, 0.67709718, 1.43858363, 2.95497990, 0.85679722, 0.23229612),
                    (0.41014746, 4.14691964, 0.30292546, 0.32002850)),
    "lrelu(0.3)": ((0.02282366, 0.69358438, 1.30847432, 2.97681599, 0.77165297, 0.23252265),
                   (0.32849543, 4.11557902, 0.24155603, 0.31659365)),
    "lrelu(-0.5)": ((0.02650441, 0.80772912, 13.56611639, 7.00217900, 11.61477781, 0.68720375),
                    (13.70648993, 6.07781733, 12.32535229, 0.54006880)),
}

BUILTIN_NAMES = ("sigmoid", "tanh", "swish", "relu", "lrelu(0.01)",
                 "lrelu(0.2)", "lrelu(0.25)", "lrelu(0.3)", "lrelu(-0.5)")


def _swish_column(beta: float):
    b = Fraction(beta)
    a = (F(0), F(1, 2), b / 4, 3 * b ** 2 / 56, b ** 3 / 168, b ** 4 / 3360)
    d = (F(0), 3 * b ** 2 / 28, F(0), b ** 4 / 1680)
    return a, d


def builtin_coefficients(name: str) -> RationalCoefficients:
    """Default [5/4] initialization for a named activation.

    sigmoid/tanh are the exact approximant fractions, swish(beta) the
    beta-parameterized closed forms, and the ReLU family the fitted
    constants.  Raises ValueError for names outside the table.
    """
    try:
        t = parse_target(name)
    except ValueError:
        raise ValueError(f"unknown builtin {name!r}; available: {BUILTIN_NAMES}") from None
    if t.kind == "swish":
        try:
            return _rounded(*_swish_column(t.param))
        except OverflowError:
            raise ValueError(f"swish beta {t.param!r} is out of range") from None
    if t.name in _EXACT_COLUMNS:
        return _rounded(*_EXACT_COLUMNS[t.name])
    if t.name in _FITTED_COLUMNS:
        return RationalCoefficients(*_FITTED_COLUMNS[t.name])
    raise ValueError(f"unknown builtin {name!r}; available: {BUILTIN_NAMES}")
