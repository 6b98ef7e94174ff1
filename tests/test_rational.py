import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env
from hypothesis import given, settings, strategies as st

import pau
from pau.rational import (BLOCK_ELEMENTS, DocumentFormatError, PoleError,
                          RationalCoefficients, _expand_gradients, _grad_parts,
                          _pau_parts, backward_pau, eval_pau,
                          eval_pau_batch, eval_pau_stacked, eval_polynomial, grad_pau,
                          read_coefficient_document, sample_noisy_coeffs,
                          write_coefficient_document)
from pau.approx import builtin_coefficients
from pau.gradcheck import compare_single

TANH_NUM = [0.0, 1.0, 0.0, 1 / 9, 0.0, 1 / 945]
TANH_DEN = [0.0, 4 / 9, 0.0, 1 / 63]


def random_coeffs(rng, m=5, n=4, scale=1.0):
    return RationalCoefficients(rng.uniform(-scale, scale, m + 1),
                                rng.uniform(-scale, scale, n))


class TestPolynomial:
    def test_constant(self):
        assert eval_polynomial([1.0], 7.0) == 1.0

    def test_zero_constant_term(self):
        assert eval_polynomial([0, 1, 0, 1 / 9, 0, 1 / 945], 0.0) == 0.0

    def test_direct_expansion(self):
        # 1 + 2*2 + 3*4 = 17
        assert eval_polynomial([1, 2, 3], 2.0) == 17.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eval_polynomial([], 1.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=9),
           st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_horner_matches_power_sum(self, coeffs, x):
        h = eval_polynomial(coeffs, x)
        naive = sum(c * x ** i for i, c in enumerate(coeffs))
        magnitude = sum(abs(c) * abs(x) ** i for i, c in enumerate(coeffs))
        assert abs(h - naive) <= 1e-12 * (1.0 + magnitude)


class TestEval:
    def test_at_zero_returns_a0(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = random_coeffs(rng)
            for safe in (True, False):
                assert eval_pau(0.0, c, safe) == c.numerator[0]

    def test_sigmoid_pade_at_one(self):
        c = builtin_coefficients("sigmoid")
        assert eval_pau(1.0, c, safe=True) == pytest.approx(0.73107, abs=1e-4)
        assert eval_pau(1.0, c, safe=True) == pytest.approx(
            1 / (1 + np.exp(-1)), abs=1e-4)

    def test_direct_substitution_safe(self):
        # P(2)=2, A(2)=-1, Q=1+|-1|=2
        c = RationalCoefficients([0.0, 1.0], [-0.5])
        assert eval_pau(2.0, c, safe=True) == 1.0

    def test_unsafe_pole_error_scalar(self):
        c = RationalCoefficients([1.0], [-0.5])  # Q(2) = 0
        with pytest.raises(PoleError):
            eval_pau(2.0, c, safe=False)

    def test_safe_mode_never_errors_at_pole(self):
        c = RationalCoefficients([1.0], [-0.5])
        assert np.isfinite(eval_pau(2.0, c, safe=True))

    def test_modes_agree_when_A_positive(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(200):
            c = random_coeffs(rng)
            x = float(rng.uniform(-3, 3))
            a_val = eval_polynomial(np.concatenate([[0.0], c.denominator]), x)
            if a_val > 0:
                assert eval_pau(x, c, True) == eval_pau(x, c, False)
                hits += 1
        assert hits > 50


class TestBatch:
    def test_zeros_give_a0(self):
        c = random_coeffs(np.random.default_rng(2))
        out = eval_pau_batch(np.zeros(3), c)
        assert np.array_equal(out, np.full(3, c.numerator[0]))

    def test_empty_input(self):
        c = random_coeffs(np.random.default_rng(3))
        assert eval_pau_batch(np.zeros(0), c).shape == (0,)

    def test_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(4)
        c = random_coeffs(rng)
        xs = rng.uniform(-5, 5, 64)
        batch = eval_pau_batch(xs, c, True)
        loop = np.array([eval_pau(float(x), c, True) for x in xs])
        assert np.array_equal(batch, loop)

    def test_table_lrelu_column_residual(self):
        # bound derived by evaluating the embedded lrelu(0.01) column
        # against its target on this exact grid before the build: 0.0659
        c = builtin_coefficients("lrelu(0.01)")
        xs = np.linspace(-3, 3, 101)
        target = np.maximum(0, xs) + 0.01 * np.minimum(0, xs)
        err = np.max(np.abs(eval_pau_batch(xs, c, True) - target))
        assert err <= 0.066

    def test_pole_error_carries_first_index(self):
        c = RationalCoefficients([1.0], [-0.5])
        with pytest.raises(PoleError) as exc:
            eval_pau_batch(np.array([0.0, 2.0, 2.0]), c, safe=False)
        assert exc.value.index == 1
        with pytest.raises(PoleError) as exc:
            eval_pau_stacked(np.array([0.0, 2.0, 2.0]), np.ones((3, 1)),
                             np.full((3, 1), -0.5), safe=False)
        assert exc.value.index == 1


class TestGradients:
    def test_at_zero(self):
        rng = np.random.default_rng(5)
        c = random_coeffs(rng)
        g = grad_pau(0.0, c, safe=True)
        expected_num = np.zeros(c.m + 1)
        expected_num[0] = 1.0
        assert np.array_equal(g.d_numerator, expected_num)
        assert np.array_equal(g.d_denominator, np.zeros(c.n))
        assert g.d_input == c.numerator[1]

    def test_hand_evaluated_denominator_gradient(self):
        # dF/db_1 = -x * sign(A) * P / Q^2 = -2 * (-1) * 2/4 = +1
        c = RationalCoefficients([0.0, 1.0], [-0.5])
        g = grad_pau(2.0, c, safe=True)
        assert g.d_denominator[0] == 1.0

    def test_kink_convention_away_from_origin(self):
        # b = (1, -0.5) puts A(2) = 0 at x=2: sign(0)=0 zeroes the
        # denominator gradients and the Q' term of the input gradient
        c = RationalCoefficients([1.0, 1.0], [1.0, -0.5])
        g = grad_pau(2.0, c, safe=True)
        assert np.array_equal(g.d_denominator, np.zeros(2))
        # with Q(2)=1 and P'(2)=1, dF/dx collapses to P'(2)/Q(2)
        assert g.d_input == 1.0

    def test_tiny_positive_A_keeps_its_sign(self):
        # A(1) = 1e-300 rounds Q to 1 but still has sign +1, so
        # dF/db_1 = -x * P / Q^2 = -1 rather than the kink's 0
        c = RationalCoefficients([1.0], [1e-300])
        assert grad_pau(1.0, c, safe=True).d_denominator[0] == -1.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for x in (-2.7, -0.3, 0.9, 3.1):
            for _ in range(50):
                c = random_coeffs(rng)
                worst, label = compare_single(x, c, safe=True)
                assert worst < 1e-5, (x, label)

    def test_unsafe_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = random_coeffs(rng, scale=0.3)  # keep Q away from 0
            x = float(rng.uniform(-1.5, 1.5))
            worst, label = compare_single(x, c, safe=False)
            assert worst < 1e-5, label

    @pytest.mark.parametrize("m,n", [(5, 4), (0, 3), (4, 0), (0, 0)])
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    @pytest.mark.parametrize("safe", [True, False], ids=["safe", "unsafe"])
    def test_d_input_matches_derivative_coefficients(self, m, n, stacked, safe):
        # reference: Horner on explicitly built derivative coefficients
        rng = np.random.default_rng(30)
        c = random_coeffs(rng, m=m, n=n, scale=0.5)
        xs = rng.uniform(-2, 2, 1000)
        num, den = (sample_noisy_coeffs(c, 0.05, rng=31, size=xs.size) if stacked
                    else (c.numerator, c.denominator))
        d_input, _, _ = _grad_parts(xs, num, den, safe)
        dP = (eval_polynomial(num[..., 1:] * np.arange(1.0, m + 1), xs) if m
              else np.zeros_like(xs))
        dA = (eval_polynomial(den * np.arange(1.0, n + 1), xs) if n
              else np.zeros_like(xs))
        P, A, Q = _pau_parts(xs, num, den, safe)
        s = np.sign(A) if safe else 1.0
        assert np.array_equal(d_input, dP / Q - s * dA * (P / Q ** 2), equal_nan=True)

    def test_pole_error_in_unsafe_grad(self):
        c = RationalCoefficients([1.0], [-0.5])
        with pytest.raises(PoleError):
            grad_pau(2.0, c, safe=False)


class TestExpandGradients:
    @pytest.mark.parametrize("m,n", [(5, 4), (2, 0)])
    @pytest.mark.parametrize("shape", [(), (37,), (5, 11)])
    def test_terms_keep_their_shape_and_values(self, shape, m, n):
        rng = np.random.default_rng(40)
        x, w, v = (rng.uniform(-3, 3, shape)[()] for _ in range(3))
        out = _expand_gradients(x, w, v, m, n)
        # the running products w x^j, then v x^k, stacked as columns
        num, den = [w], [v * x][:n]
        for _ in range(m):
            num.append(num[-1] * x)
        for _ in range(n - 1):
            den.append(den[-1] * x)
        columns = num + den
        assert out.shape == np.shape(x) + (m + 1 + n,)
        assert out.tobytes() == np.stack(columns, axis=-1).tobytes()
        if len(shape) == 1:   # the design-matrix and Jacobian columns that a fit reads
            assert all(out[..., j].flags.c_contiguous for j in range(m + 1 + n))


    @pytest.mark.parametrize("m,n", [(5, 4), (2, 0), (0, 3)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_backward_sums_its_columns(self, m, n, stacked):
        # one block: backward_pau's coefficient sums are the sums of the
        # columns that the fits and gradcheck read, bit for bit
        rng = np.random.default_rng(41)
        c = random_coeffs(rng, m, n)
        x, u = rng.uniform(-3, 3, (2, 1000))
        stacks = sample_noisy_coeffs(c, 0.1, rng, x.size) if stacked else None
        num, den = stacks or (c.numerator, c.denominator)
        _, w, v = _grad_parts(x, num, den, True, upstream=u)
        columns = _expand_gradients(x, w, v, m, n)
        _, (d_num, d_den) = backward_pau(x, u, c, coefficient_stacks=stacks)
        sums = np.array([np.sum(columns[:, j]) for j in range(m + 1 + n)])
        assert np.concatenate([d_num, d_den]).tobytes() == sums.tobytes()


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(8)
        c = random_coeffs(rng)
        xs = rng.uniform(-3, 3, 10)
        d_in, (d_num, d_den) = backward_pau(xs, np.zeros(10), c)
        assert not d_in.any() and not d_num.any() and not d_den.any()

    def test_single_element_at_zero(self):
        c = random_coeffs(np.random.default_rng(9))
        _, (d_num, d_den) = backward_pau(np.zeros(1), np.ones(1), c)
        expected = np.zeros(c.m + 1)
        expected[0] = 1.0
        assert np.array_equal(d_num, expected)
        assert np.array_equal(d_den, np.zeros(c.n))

    def test_two_elements_equal_sum_of_singles(self):
        rng = np.random.default_rng(10)
        c = random_coeffs(rng)
        xs = rng.uniform(-3, 3, 2)
        up = rng.uniform(-1, 1, 2)
        _, (num2, den2) = backward_pau(xs, up, c)
        _, (na, da) = backward_pau(xs[:1], up[:1], c)
        _, (nb, db) = backward_pau(xs[1:], up[1:], c)
        assert np.array_equal(num2, na + nb)
        assert np.array_equal(den2, da + db)

    def test_split_merge_reproducible(self):
        # a fixed split merged in index order gives the same bits every time
        rng = np.random.default_rng(22)
        c = random_coeffs(rng)
        xs = rng.uniform(-3, 3, 40)
        up = rng.uniform(-1, 1, 40)

        def split_merge():
            _, (na, da) = backward_pau(xs[:17], up[:17], c)
            _, (nb, db) = backward_pau(xs[17:], up[17:], c)
            return na + nb, da + db

        first = split_merge()
        second = split_merge()
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_length_mismatch(self):
        c = random_coeffs(np.random.default_rng(11))
        with pytest.raises(ValueError, match="length mismatch"):
            backward_pau(np.zeros(3), np.zeros(2), c)

    def test_empty_batch(self):
        c = random_coeffs(np.random.default_rng(12))
        d_in, (d_num, d_den) = backward_pau(np.zeros(0), np.zeros(0), c)
        assert d_in.shape == (0,)
        assert d_num.shape == (c.m + 1,) and not d_num.any()

    def test_matches_sum_of_grad_pau(self):
        rng = np.random.default_rng(13)
        c = random_coeffs(rng)
        xs = rng.uniform(-3, 3, 7)
        up = rng.uniform(-1, 1, 7)
        d_in, (d_num, d_den) = backward_pau(xs, up, c)
        grads = [grad_pau(float(x), c) for x in xs]
        for i, g in enumerate(grads):
            assert d_in[i] == pytest.approx(up[i] * g.d_input, rel=1e-12)
        for j in range(c.m + 1):
            ref = math.fsum(up[i] * g.d_numerator[j] for i, g in enumerate(grads))
            assert d_num[j] == pytest.approx(ref, rel=1e-12)
        for k in range(c.n):
            ref = math.fsum(up[i] * g.d_denominator[k] for i, g in enumerate(grads))
            assert d_den[k] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_large_batch_matches_exact_sums(self, stacked):
        # long enough for numpy's blocked pairwise summation to engage
        rng = np.random.default_rng(23)
        c = random_coeffs(rng)
        size = 131_077
        xs = rng.uniform(-3, 3, size)
        up = rng.uniform(-1, 1, size)
        stacks = sample_noisy_coeffs(c, 0.05, rng=24, size=size) if stacked else None
        nums, dens = stacks if stacked else (np.broadcast_to(c.numerator, (size, c.m + 1)),
                                             np.broadcast_to(c.denominator, (size, c.n)))
        # reference products from the closed forms with explicit powers
        P = eval_polynomial(nums, xs)
        A = xs * eval_polynomial(dens, xs)
        Q = 1.0 + np.abs(A)
        powers = xs[:, None] ** np.arange(c.m + 1)
        ref_num = up[:, None] * powers / Q[:, None]
        ref_den = -up[:, None] * powers[:, 1:c.n + 1] * (np.sign(A) * P / Q ** 2)[:, None]
        for i in range(20):
            g = grad_pau(float(xs[i]), RationalCoefficients(nums[i], dens[i]))
            assert ref_num[i] == pytest.approx(up[i] * g.d_numerator, rel=1e-12)
            assert ref_den[i] == pytest.approx(up[i] * g.d_denominator, rel=1e-12)

        _, (d_num, d_den) = backward_pau(xs, up, c, coefficient_stacks=stacks)
        assert d_num == pytest.approx([math.fsum(col) for col in ref_num.T], rel=1e-12)
        assert d_den == pytest.approx([math.fsum(col) for col in ref_den.T], rel=1e-12)

    def test_unsafe_pole_reports_first_index(self):
        c = RationalCoefficients([1.0], [-0.5])  # Q(2) = 0
        with pytest.raises(PoleError) as exc:
            backward_pau(np.array([0.0, 1.0, 2.0, 3.0, 2.0]), np.ones(5), c,
                         safe=False)
        assert exc.value.index == 2

    def test_empty_batch_with_stacks(self):
        c = random_coeffs(np.random.default_rng(25))
        stacks = sample_noisy_coeffs(c, 0.05, rng=0, size=0)
        d_in, (d_num, d_den) = backward_pau(np.zeros(0), np.zeros(0), c,
                                            coefficient_stacks=stacks)
        assert d_in.shape == (0,)
        assert d_num.shape == (c.m + 1,) and not d_num.any()
        assert d_den.shape == (c.n,) and not d_den.any()

    def test_bit_identical_across_blas_thread_counts(self):
        digests = [run_script(KERNEL_DIGEST_SCRIPT, OPENBLAS_NUM_THREADS=t,
                              OMP_NUM_THREADS=t) for t in ("1", "2")]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_bit_identical_across_pau_threads(self):
        digests = [run_script(KERNEL_DIGEST_SCRIPT, PAU_THREADS=t)
                   for t in ("1", "2")]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


def coefficient_kinds(c, size):
    """The three coefficient layouts a unit is run with: shared, the
    column-major stacks of sample_noisy_coeffs, and a per-batch draw
    broadcast to every element."""
    return {"shared": (c.numerator, c.denominator),
            "column-major": sample_noisy_coeffs(c, 0.05, rng=31, size=size),
            "broadcast": (np.broadcast_to(c.numerator, (size, c.m + 1)),
                          np.broadcast_to(c.denominator, (size, c.n)))}


class TestBlocks:
    """The kernels walk the flattened input in BLOCK_ELEMENTS slices."""

    B = BLOCK_ELEMENTS

    @pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 17])
    @pytest.mark.parametrize("kind", ["shared", "column-major", "broadcast"])
    def test_block_boundaries(self, size, kind):
        rng = np.random.default_rng(30)
        c = random_coeffs(rng)
        xs = rng.uniform(-3, 3, size)
        up = rng.uniform(-1, 1, size)
        num, den = coefficient_kinds(c, size)[kind]
        # the per-block body applied to the whole array at once
        P, _, Q = _pau_parts(xs, num, den, True)
        d_input, w, v = _grad_parts(xs, num, den, True, upstream=up)
        terms = _expand_gradients(xs, w, v, c.m, c.n)

        y = eval_pau_batch(xs, c) if kind == "shared" else eval_pau_stacked(xs, num, den)
        assert np.array_equal(y, P / Q)
        stacks = None if kind == "shared" else (num, den)
        d_in, (d_num, d_den) = backward_pau(xs, up, c, coefficient_stacks=stacks)
        assert np.array_equal(d_in, up * d_input)
        exact = [math.fsum(col) for col in terms.T]
        assert list(d_num) == pytest.approx(exact[:c.m + 1], rel=1e-12)
        assert list(d_den) == pytest.approx(exact[c.m + 1:], rel=1e-12)

    def test_non_contiguous_input_matches_contiguous_copy(self):
        rng = np.random.default_rng(32)
        c = random_coeffs(rng)
        xs = np.moveaxis(rng.uniform(-3, 3, (7, 3, 4099)), 0, -1)
        up = np.moveaxis(rng.uniform(-1, 1, (7, 3, 4099)), 0, -1)
        assert not xs.flags.c_contiguous and xs.size > 2 * self.B
        xc, uc = np.ascontiguousarray(xs), np.ascontiguousarray(up)
        assert np.array_equal(eval_pau_batch(xs, c), eval_pau_batch(xc, c))
        view, copy = backward_pau(xs, up, c), backward_pau(xc, uc, c)
        assert np.array_equal(view[0], copy[0])
        assert all(np.array_equal(a, b) for a, b in zip(view[1], copy[1]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pole_reports_index_in_whole_input(self, order):
        c = RationalCoefficients([1.0], [-0.5])  # Q(2) = 0
        pole = 2 * self.B + 5
        flat = np.zeros(4 * self.B)
        flat[[pole, pole + 9, 3 * self.B]] = 2.0
        xs = np.asarray(flat.reshape(-1, 4), order=order)
        calls = [lambda: eval_pau_batch(xs, c, safe=False),
                 lambda: eval_pau_stacked(flat, np.ones((flat.size, 1)),
                                          np.full((flat.size, 1), -0.5), safe=False),
                 lambda: backward_pau(xs, np.ones(xs.shape), c, safe=False)]
        for call in calls:
            with pytest.raises(PoleError) as exc:
                call()
            assert exc.value.index == pole and exc.value.x == 2.0


THREAD_VARIABLES = ("PAU_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

KERNEL_DIGEST_SCRIPT = (
    "import hashlib\n"
    "import pau\n"
    "import numpy as np\n"
    "from pau.rational import (RationalCoefficients, backward_pau, eval_pau_batch,\n"
    "                          eval_pau_stacked, sample_noisy_coeffs)\n"
    "rng = np.random.default_rng(26)\n"
    "c = RationalCoefficients(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 4))\n"
    "xs = rng.uniform(-3, 3, 200_003)\n"
    "up = rng.uniform(-1, 1, xs.size)\n"
    "stacks = sample_noisy_coeffs(c, 0.05, rng=27, size=xs.size)\n"
    "h = hashlib.sha256()\n"
    "for st in (None, stacks):\n"
    "    d_in, (d_num, d_den) = backward_pau(xs, up, c, coefficient_stacks=st)\n"
    "    for a in (d_in, d_num, d_den):\n"
    "        h.update(a.tobytes())\n"
    "h.update(eval_pau_batch(xs, c).tobytes())\n"
    "h.update(eval_pau_stacked(xs, *stacks).tobytes())\n"
    "print(h.hexdigest())\n")


def run_script(script, **thread_env):
    """stdout of ``script`` in a fresh interpreter whose thread variables
    are exactly ``thread_env``: a thread cap has to be in the environment
    before numpy loads."""
    proc = subprocess.run([sys.executable, "-c", script],
                          env=child_env(THREAD_VARIABLES, **thread_env),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestThreadCap:
    def test_pau_threads_caps_blas(self):
        # a Dense-sized product rounds differently at 1 and 2 BLAS threads
        # on a multi-core host, so its digest shows which cap took effect
        script = ("import hashlib\n"
                  "import pau\n"
                  "import numpy as np\n"
                  "rng = np.random.default_rng(0)\n"
                  "a = rng.standard_normal((256, 784))\n"
                  "b = rng.standard_normal((784, 128))\n"
                  "print(hashlib.sha256((a @ b).tobytes()).hexdigest())\n")
        for t in ("1", "2"):
            assert run_script(script, PAU_THREADS=t) == \
                run_script(script, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t)

    def test_explicit_variable_wins(self):
        script = "import os, pau\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert run_script(script, PAU_THREADS="1", OPENBLAS_NUM_THREADS="2") == "2"
        assert run_script(script, PAU_THREADS="1") == "1"

    @pytest.mark.parametrize("value,copied", [("3", "3"), ("abc", None), ("0", None),
                                              ("-1", None), ("2.5", None), ("", None)])
    def test_only_an_integer_of_at_least_1_is_copied(self, value, copied):
        script = ("import os, pau\n"
                  "print({os.environ.get(v) for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',"
                  " 'MKL_NUM_THREADS', 'NUMEXPR_NUM_THREADS')})\n")
        assert run_script(script, PAU_THREADS=value) == str({copied})


class TestNoise:
    def test_zero_coefficient_stays_zero(self):
        c = RationalCoefficients([0.0, 1.0, 0.0], [0.0, 0.5])
        num, den = sample_noisy_coeffs(c, 0.5, rng=0, size=1000)
        assert not num[:, 0].any() and not num[:, 2].any()
        assert not den[:, 0].any()

    def test_interval_bound_ten_thousand_draws(self):
        c = RationalCoefficients([2.0], [])
        for seed in (0, 1, 12345):
            num, _ = sample_noisy_coeffs(c, 0.01, rng=seed, size=10000)
            assert num.min() >= 1.98 and num.max() <= 2.02

    def test_negative_coefficient_interval(self):
        c = RationalCoefficients([-2.0], [])
        num, _ = sample_noisy_coeffs(c, 0.1, rng=3, size=10000)
        assert num.min() >= -2.2 and num.max() <= -1.8

    def test_deterministic_given_seed(self):
        c = random_coeffs(np.random.default_rng(15))
        a = sample_noisy_coeffs(c, 0.05, rng=42, size=7)
        b = sample_noisy_coeffs(c, 0.05, rng=42, size=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_mean_converges_to_clean(self):
        c = builtin_coefficients("tanh")
        x = 1.0
        clean = eval_pau(x, c, True)
        num, den = sample_noisy_coeffs(c, 0.01, rng=42, size=100_000)
        vals = eval_pau_stacked(np.full(100_000, x), num, den, True)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - clean) < 3 * se

    @pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193, 20000])
    @pytest.mark.parametrize("n", [4, 0])
    def test_stacks_match_uniform_draw(self, size, n):
        # same values and the same stream as one gen.uniform call over the
        # numerator and denominator joined, split by columns
        c = random_coeffs(np.random.default_rng(28), n=n)
        alpha = 0.05
        ref_gen = np.random.default_rng(29)
        v = np.concatenate([c.numerator, c.denominator])
        draw = ref_gen.uniform(v - alpha * np.abs(v), v + alpha * np.abs(v), (size, v.size))
        want = [draw[:, :c.m + 1], draw[:, c.m + 1:]]
        gen = np.random.default_rng(29)
        got = sample_noisy_coeffs(c, alpha, gen, size=size)
        assert gen.random() == ref_gen.random()
        rows = [0, size // 2, size - 1] if size else []
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
            assert all(g[:, j].flags.c_contiguous for j in range(g.shape[1]))
            assert np.array_equal(g[rows], w[rows])

    def test_stacks_fill_a_given_buffer(self):
        c = random_coeffs(np.random.default_rng(34))
        width = c.m + 1 + c.n
        whole = sample_noisy_coeffs(c, 0.05, np.random.default_rng(35), size=20000)
        # a draw into out gives views of it, bit-equal to a fresh draw
        out = np.empty((width, 20000))
        got = sample_noisy_coeffs(c, 0.05, np.random.default_rng(35), size=20000, out=out)
        for g, w in zip(got, whole):
            assert np.shares_memory(g, out) and g.tobytes() == w.tobytes()
        # row blocks drawn in turn into one reused buffer from one generator
        # are the rows of the whole draw (9000 spans two NOISE_BLOCK_ROWS)
        gen, buffer = np.random.default_rng(35), np.empty((width, 9000))
        for start in range(0, 20000, 9000):
            size = min(9000, 20000 - start)
            got = sample_noisy_coeffs(c, 0.05, gen, size=size, out=buffer[:, :size])
            for g, w in zip(got, whole):
                assert np.shares_memory(g, buffer)
                assert g.tobytes() == w[start:start + size].tobytes()
        # alpha = 0 fills the buffer with the coefficients and draws nothing
        gen, buffer = np.random.default_rng(36), np.full((width, 5), np.nan)
        num, den = sample_noisy_coeffs(c, 0.0, gen, size=5, out=buffer)
        assert gen.random() == np.random.default_rng(36).random()
        assert (num == c.numerator).all() and (den == c.denominator).all()
        assert np.array_equal(buffer.T, np.broadcast_to(
            np.concatenate([c.numerator, c.denominator]), (5, width)))

    def test_alpha_zero_stacks(self):
        c = random_coeffs(np.random.default_rng(32))
        gen = np.random.default_rng(33)
        num, den = sample_noisy_coeffs(c, 0.0, gen, size=5)
        assert gen.random() == np.random.default_rng(33).random()
        for stack, vec in ((num, c.numerator), (den, c.denominator)):
            assert stack.shape == (5, vec.size) and (stack == vec).all()
            assert all(stack[:, j].flags.c_contiguous for j in range(vec.size))

    @pytest.mark.parametrize("size", [0, 10])   # checked before anything is drawn
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_range_rejected(self, size):
        c = RationalCoefficients([1e308], [])
        with pytest.raises(OverflowError):
            sample_noisy_coeffs(c, 1.0, rng=0, size=size)

    def test_negative_alpha_rejected(self):
        c = random_coeffs(np.random.default_rng(16))
        with pytest.raises(ValueError):
            sample_noisy_coeffs(c, -0.1, rng=0, size=10)


class TestProperties:
    def test_safe_denominator_at_least_one(self):
        # desk-scale version; the full million-point sweep runs in acceptance
        rng = np.random.default_rng(17)
        xs = rng.uniform(-100, 100, 100_000)
        nums = rng.uniform(-10, 10, (100_000, 6))
        dens = rng.uniform(-10, 10, (100_000, 4))
        from pau.rational import _pau_parts
        _, _, Q = _pau_parts(xs, nums, dens, True)
        assert np.all(Q >= 1.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonpolynomiality(self, seed):
        rng = np.random.default_rng(seed)
        num = rng.uniform(-1, 1, 6)
        den = rng.uniform(-1, 1, 4)
        if np.max(np.abs(num)) < 0.1 or np.max(np.abs(den)) < 0.1:
            num[0] = 0.5
            den[0] = 0.5
        c = RationalCoefficients(num, den)
        pts = np.linspace(-2, 2, 7)  # m+2 points
        f = eval_pau_batch(pts, c, True)
        interp = np.polynomial.polynomial.polyfit(pts[:6], f[:6], 5)
        at_extra = np.polynomial.polynomial.polyval(pts[6], interp)
        assert abs(at_extra - f[6]) > 1e-6 * (1.0 + np.max(np.abs(f)))


class TestThreadSafety:
    def test_concurrent_batch_evaluation_identical(self):
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(21)
        c = random_coeffs(rng)
        xs = rng.uniform(-5, 5, 4096)
        expected = eval_pau_batch(xs, c, True)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: eval_pau_batch(xs, c, True),
                                    range(32)))
        for out in results:
            assert np.array_equal(out, expected)


class TestCoefficientDocument:
    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        c = random_coeffs(rng, scale=3.0)
        path = tmp_path / "c.txt"
        write_coefficient_document(path, c, safe=False, provenance="lsq:lrelu(0.01)")
        doc = read_coefficient_document(path)
        assert doc.coefficients == c
        assert doc.safe is False
        assert doc.provenance == "lsq:lrelu(0.01)"

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("version 1\norders 1 0\nnumerator 1.0 2.0\n")
        with pytest.raises(DocumentFormatError, match="safe"):
            read_coefficient_document(p)

    def test_length_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("version 1\norders 5 4\nsafe true\nnumerator 1.0\ndenominator\n")
        with pytest.raises(DocumentFormatError, match="counts"):
            read_coefficient_document(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("version 2\norders 0 0\nsafe true\nnumerator 1.0\n")
        with pytest.raises(DocumentFormatError, match="version"):
            read_coefficient_document(p)

    def test_non_finite_coefficient(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("version 1\norders 1 1\nsafe true\nnumerator 1.0 nan\ndenominator inf\n")
        with pytest.raises(DocumentFormatError, match="non-finite"):
            read_coefficient_document(p)

    @pytest.mark.parametrize("text,message", [
        (b"version 1\norders 0 0\nsafe true\nnumerator 1.0\nprovenance caf\xe9\n",
         "can't decode byte 0xe9"),
        (b"version 1\norders -1 0\nsafe true\nnumerator\n", "numerator must be a non-empty"),
        (b"version 1\norders 5\nsafe true\nnumerator 1.0\n", "bad orders line: '5'"),
    ], ids=["not-utf8", "negative-order", "bad-orders"])
    def test_error_names_path(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_bytes(text)
        with pytest.raises(DocumentFormatError, match=message) as err:
            read_coefficient_document(p)
        assert str(err.value).startswith(f"{p}: ")

    def test_zero_order_denominator(self, tmp_path):
        c = RationalCoefficients([1.5, -0.25], [])
        path = tmp_path / "poly.txt"
        write_coefficient_document(path, c)
        assert read_coefficient_document(path).coefficients == c
