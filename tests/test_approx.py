import re
from fractions import Fraction as F

import numpy as np
import pytest

import pau.rational
from pau.approx import (DegenerateOrdersError, FitConfig, builtin_coefficients,
                        fit_residual, least_squares_fit, pade_exact,
                        pade_from_taylor, rational_taylor, taylor_of)
from pau.rational import RationalCoefficients, eval_pau_batch
from pau.targets import TargetActivation, TaylorUnsupportedError, parse_target

LS_TABLE_COLUMNS = ("relu", "lrelu(0.01)", "lrelu(0.2)", "lrelu(0.25)",
                    "lrelu(0.3)", "lrelu(-0.5)")


class TestTaylor:
    def test_tanh_series(self):
        s = taylor_of(parse_target("tanh"), 5)
        assert s == (F(0), F(1), F(0), F(-1, 3), F(0), F(2, 15))

    def test_sigmoid_low_order(self):
        s = taylor_of(parse_target("sigmoid"), 1)
        assert s == (F(1, 2), F(1, 4))

    def test_relu_unsupported(self):
        with pytest.raises(TaylorUnsupportedError):
            taylor_of(parse_target("relu"), 5)

    def test_relu6_values_derivative_and_no_series(self):
        relu6 = parse_target("relu6")
        x = np.array([-1.0, 0.0, 3.0, 6.0, 7.0])
        assert np.array_equal(relu6(x), [0.0, 0.0, 3.0, 6.0, 6.0])
        assert np.array_equal(relu6.derivative(x), [0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(TaylorUnsupportedError):
            relu6.taylor(5)

    def test_swish_is_shifted_scaled_sigmoid(self):
        s = taylor_of(parse_target("swish"), 4)
        assert s == (F(0), F(1, 2), F(1, 4), F(0), F(-1, 48))


class TestTargets:
    @pytest.mark.parametrize("name", ["relu", "relu6", "lrelu(0.2)", "sigmoid", "tanh",
                                      "swish(1.5)", "elu(0.5)"])
    def test_derivative(self, name):
        target, h = parse_target(name), 1e-6
        # central differences, away from the kinks at 0 and 6
        x = np.linspace(-8.0, 8.0, 1601)
        x = x[(np.abs(x) > 1e-3) & (np.abs(x - 6.0) > 1e-3)]
        fd = (target(x + h) - target(x - h)) / (2 * h)
        np.testing.assert_allclose(target.derivative(x), fd, rtol=0, atol=1e-7)
        # at 0, the x <= 0 branch: the slope from the left
        left = (target(0.0) - target(-h)) / h
        assert abs(float(target.derivative(0.0)) - left) < 1e-5

    @pytest.mark.parametrize("make,message", [
        (lambda: TargetActivation("bad"), "unknown activation kind 'bad'; choose from "
                                          "('relu', 'relu6', 'lrelu', 'sigmoid', 'tanh', "
                                          "'swish', 'elu')"),
        (lambda: TargetActivation("relu", 1.0), "relu takes no parameter"),
        (lambda: parse_target("tanh").taylor(-1), "degree must be >= 0"),
    ], ids=["unknown-kind", "relu-with-parameter", "negative-degree"])
    def test_bad_target_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.5])
    def test_swish_is_x_times_sigmoid(self, beta):
        x = np.linspace(-30.0, 30.0, 241)
        np.testing.assert_allclose(TargetActivation("swish", beta)(x),
                                   x / (1.0 + np.exp(-beta * x)), rtol=1e-14, atol=1e-300)


class TestPade:
    def test_tanh_column_exact(self):
        a, b = pade_exact(parse_target("tanh").taylor(9), 5, 4)
        assert a == (F(0), F(1), F(0), F(1, 9), F(0), F(1, 945))
        assert b == (F(0), F(4, 9), F(0), F(1, 63))

    def test_sigmoid_column_exact_with_derived_b4(self):
        a, b = pade_exact(parse_target("sigmoid").taylor(9), 5, 4)
        assert a == (F(1, 2), F(1, 4), F(1, 18), F(1, 144), F(1, 2016), F(1, 60480))
        assert b == (F(0), F(1, 9), F(0), F(1, 1008))

    def test_exp_one_one_by_hand(self):
        c = pade_from_taylor((F(1), F(1), F(1, 2)), 1, 1)
        assert np.array_equal(c.numerator, [1.0, 0.5])
        assert np.array_equal(c.denominator, [-0.5])

    def test_float_deviation_below_1e12(self):
        c = pade_from_taylor(taylor_of(parse_target("tanh"), 9), 5, 4)
        assert np.max(np.abs(c.numerator - [0, 1, 0, 1 / 9, 0, 1 / 945])) < 1e-12
        assert np.max(np.abs(c.denominator - [0, 4 / 9, 0, 1 / 63])) < 1e-12

    def test_degree_too_low(self):
        with pytest.raises(ValueError, match="degree"):
            pade_from_taylor(taylor_of(parse_target("tanh"), 5), 5, 4)

    def test_float_path_matches_exact(self):
        exact = pade_from_taylor(taylor_of(parse_target("sigmoid"), 9), 5, 4)
        floats = [float(c) for c in taylor_of(parse_target("sigmoid"), 9)]
        approx = pade_from_taylor(floats, 5, 4)
        assert np.max(np.abs(exact.numerator - approx.numerator)) < 1e-9
        assert np.max(np.abs(exact.denominator - approx.denominator)) < 1e-9

    def test_singular_system(self):
        # c_0 = 0 makes the [0/1] matching system b_1 * c_0 = -c_1 unsolvable
        with pytest.raises(DegenerateOrdersError):
            pade_exact((F(0), F(1)), 0, 1)

    def test_maclaurin_agreement_property(self):
        for name in ("tanh", "sigmoid", "swish(1)", "swish(0.5)"):
            target = parse_target(name)
            series = taylor_of(target, 9)
            c = pade_from_taylor(series, 5, 4)
            back = rational_taylor(c, 9)
            assert np.max(np.abs(back - [float(c) for c in series])) < 1e-9, name


class TestBuiltins:
    def test_tanh_column(self):
        c = builtin_coefficients("tanh")
        assert np.array_equal(c.numerator, [0, 1, 0, 1 / 9, 0, 1 / 945])
        assert np.array_equal(c.denominator, [0, 4 / 9, 0, 1 / 63])

    def test_lrelu_001_column(self):
        c = builtin_coefficients("lrelu(0.01)")
        assert c.numerator[0] == 0.02979246
        assert c.numerator[1] == 0.61837738
        assert c.denominator[3] == 0.34720652

    def test_relu_column(self):
        c = builtin_coefficients("relu")
        assert np.array_equal(
            c.numerator,
            [0.02996348, 0.61690165, 2.37539147, 3.06608078, 1.52474449, 0.25281987])
        assert np.array_equal(
            c.denominator, [1.19160814, 4.40811795, 0.91111034, 0.34885983])

    def test_swish_beta_column(self):
        c = builtin_coefficients("swish")
        assert np.allclose(c.numerator, [0, 0.5, 0.25, 3 / 56, 1 / 168, 1 / 3360],
                           rtol=0, atol=0)
        c2 = builtin_coefficients("swish(2)")
        assert c2.numerator[2] == 0.5  # beta/4

    def test_swish_matches_symbolic_derivation(self):
        for beta in (1.0, 0.5, 2.0):
            derived = pade_from_taylor(
                taylor_of(TargetActivation("swish", beta), 9), 5, 4)
            column = builtin_coefficients(f"swish({beta:g})")
            assert np.max(np.abs(derived.numerator - column.numerator)) < 1e-15
            assert np.max(np.abs(derived.denominator - column.denominator)) < 1e-15

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_coefficients("gelu")
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_coefficients("lrelu(0.77)")

    def test_all_names_resolve(self):
        for name in ("sigmoid", "tanh", "swish", "relu", "lrelu(0.01)",
                     "lrelu(0.20)", "lrelu(0.25)", "lrelu(0.30)", "lrelu(-0.5)"):
            c = builtin_coefficients(name)
            assert c.m == 5 and c.n == 4

    def test_smooth_columns_track_targets_near_origin(self):
        xs = np.linspace(-1, 1, 401)
        for name in ("tanh", "sigmoid"):
            c = builtin_coefficients(name)
            err = np.max(np.abs(eval_pau_batch(xs, c, True) - parse_target(name)(xs)))
            assert err < 5e-4, name


class TestFit:
    def test_exact_rational_target_is_fixed_point(self):
        truth = builtin_coefficients("tanh")
        target = lambda xs: eval_pau_batch(xs, truth, True)
        fitted = least_squares_fit(target, 5, 4, FitConfig(grid_step=1e-3))
        mx, _ = fit_residual(fitted, target, FitConfig(grid_step=1e-3))
        assert mx < 1e-8

    def test_lrelu_001_residual_bound(self):
        target = parse_target("lrelu(0.01)")
        fitted = least_squares_fit(target, 5, 4, safe=True)
        mx, _ = fit_residual(fitted, target, safe=True)
        assert mx <= 0.06

    def test_relu_a0_near_table(self):
        fitted = least_squares_fit(parse_target("relu"), 5, 4)
        assert abs(fitted.numerator[0] - 0.02996348) < 0.02

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid"):
            least_squares_fit(parse_target("relu"), 5, 4,
                              FitConfig(lo=-1, hi=1, grid_step=0.5))

    def test_non_finite_target(self):
        big = RationalCoefficients([0.0, 1e308], [])
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match=r"value -inf at x=-3.0 is not finite"):
            least_squares_fit(lambda xs: eval_pau_batch(xs, big, True), 1, 0)

    def test_overflowing_linearized_row(self):
        # y = 3e306 x is finite on [-3, 3], but y x^3 is not
        wide = RationalCoefficients([0.0, 3e306], [])
        with pytest.raises(OverflowError,
                           match=r"value -9e\+306 at x=-3.0 times x\^3 is not finite"):
            least_squares_fit(lambda xs: eval_pau_batch(xs, wide, True), 1, 3)

    def test_overflowing_grid_power(self):
        with pytest.raises(ValueError, match=r"x=-1e\+100 to the power 4 overflows"):
            least_squares_fit(parse_target("relu"), 5, 4,
                              FitConfig(lo=-1e100, hi=1e100, grid_step=1e97))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FitConfig(lo=3, hi=-3)
        with pytest.raises(ValueError):
            FitConfig(grid_step=0.0)

    def test_grid_with_a_non_finite_point_count(self):
        with pytest.raises(ValueError, match="point count inf is not finite"):
            FitConfig(lo=-1e300, hi=1e300, grid_step=1e-300).grid()

    def test_polish_evaluates_no_input_derivative(self, monkeypatch):
        # each Jacobian comes from the accepted candidate's own (P, A, Q),
        # and dF/dx, which needs the derivative polynomials, is never built
        target, cfg = parse_target("relu"), FitConfig(grid_step=1e-3)
        clean = least_squares_fit(target, config=cfg)

        def refuse(coeffs, x):
            raise AssertionError("the fit evaluated a derivative polynomial")

        monkeypatch.setattr(pau.rational, "_eval_derivative", refuse)
        assert least_squares_fit(target, config=cfg) == clean

    def test_stationary_point_probe(self):
        target = parse_target("lrelu(0.01)")
        cfg = FitConfig(grid_step=1e-3)
        fitted = least_squares_fit(target, 5, 4, cfg, safe=True)
        xs = cfg.grid()
        y = target(xs)

        def sse(c):
            r = eval_pau_batch(xs, c, True) - y
            return float(r @ r)

        base = sse(fitted)
        rng = np.random.default_rng(0)
        theta = np.concatenate([fitted.numerator, fitted.denominator])
        for _ in range(20):
            idx = int(rng.integers(0, theta.size))
            bump = float(rng.choice([-1e-4, 1e-4]))
            t = theta.copy()
            t[idx] += bump
            perturbed = RationalCoefficients(t[:6], t[6:])
            assert sse(perturbed) >= base

    def test_v_shaped_target_fits_through_safe_kink(self):
        target = parse_target("lrelu(-0.5)")
        fitted = least_squares_fit(target, 5, 4, FitConfig(grid_step=1e-3),
                                   safe=True)
        mx, _ = fit_residual(fitted, target, FitConfig(grid_step=1e-3), safe=True)
        assert mx < 0.1

    def test_elu_converges_with_larger_budget(self):
        cfg = FitConfig(grid_step=1e-3)
        fitted = least_squares_fit(parse_target("elu"), 5, 4, cfg)
        mx, _ = fit_residual(fitted, parse_target("elu"), cfg)
        assert mx < 0.01

    # max residuals of the safe [5/4] fits on the default grid, recorded
    # when the start was still iterated Sanathanan-Koerner reweighting: the
    # one-pass start must reach the same optimum
    DEFAULT_FIT_MAX_RESIDUALS = {
        "relu": 0.03389769191835338, "lrelu(0.01)": 0.033558714934246656,
        "lrelu(0.2)": 0.027118153494756367, "lrelu(0.25)": 0.02542326893909839,
        "lrelu(0.3)": 0.02372838430756368, "lrelu(-0.5)": 0.050846538128658414,
        "tanh": 3.533762362062376e-06, "sigmoid": 4.857158578119858e-09,
        "swish": 1.2042644583765139e-06,
    }

    @pytest.mark.parametrize("name", DEFAULT_FIT_MAX_RESIDUALS)
    def test_default_fit_keeps_its_residual(self, name):
        target = parse_target(name)
        mx, _ = fit_residual(least_squares_fit(target), target)
        assert mx == pytest.approx(self.DEFAULT_FIT_MAX_RESIDUALS[name], rel=1e-6)

    def test_elu_fits_on_the_default_grid(self):
        target = parse_target("elu")
        mx, _ = fit_residual(least_squares_fit(target), target)
        assert mx < 0.01

    def test_residual_whose_squares_overflow(self):
        # the max-abs residual is finite, its square is not: rms is inf,
        # with no warning
        residual = fit_residual(RationalCoefficients([0.0], []), lambda xs: 1e160 * xs)
        assert residual == (3e160, np.inf)

    def test_residual_parity_with_embedded_columns(self):
        # our converged fits must not be worse than the embedded columns
        # by more than 10%; in practice they are several times better, so
        # the parity check is one-sided (recorded in the build notes)
        cfg = FitConfig(grid_step=1e-3)
        for name in LS_TABLE_COLUMNS:
            target = parse_target(name)
            mine = least_squares_fit(target, 5, 4, cfg, safe=True)
            _, rms_mine = fit_residual(mine, target, cfg, safe=True)
            _, rms_table = fit_residual(builtin_coefficients(name), target,
                                        cfg, safe=True)
            assert rms_mine <= 1.1 * rms_table, name
