import math

import numpy as np
import pytest

from modkernel.polycore import (
    Chebyshev1,
    DensePolynomial,
    Jacobi,
    LaguerreNeg,
    coefficient_table,
    derivative_tables,
    orthonormal_coeffs,
    orthonormal_values,
    recurrence_coefficients,
)
from modkernel import polycore
from modkernel.polycore import _bessel_zeros
from modkernel.quadrature import gauss_rule

from oracles import (
    chebyshev_orthonormal_value,
    derivative_tables_per_order,
    fd1,
    fd2,
    jacobi_moments_lowdeg,
    jacobi_orthonormal_value,
    jacobi_recurrence_scalar,
    laguerre_neg_moments,
    laguerre_orthonormal_reflected,
    orthonormal_coeffs_loop,
    recurrence_from_moments,
)

FAMILIES = [Jacobi(0.5, -0.3), LaguerreNeg(0.0), Chebyshev1()]


def eval2(rc, n, x):
    """(g_n(x), g_n'(x), g_n''(x)) at a scalar x, read off the derivative tables."""
    return tuple(float(v) for v in derivative_tables(rc, n, x, 2)[:, n])


class TestDensePolynomial:
    def test_eval_constant(self):
        assert DensePolynomial([1.0])(5.0) == 1.0

    def test_eval_quadratic(self):
        # 2x^2 - 1 at 1
        assert DensePolynomial([-1.0, 0.0, 2.0])(1.0) == pytest.approx(1.0)

    def test_eval_zero_poly(self):
        assert DensePolynomial([0.0])(3.0) == 0.0

    def test_degree_and_trim(self):
        p = DensePolynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert DensePolynomial([0.0]).degree == -1
        assert DensePolynomial([0.0]).is_zero

    def test_derivative_constant(self):
        assert DensePolynomial([7.0]).derivative().is_zero

    def test_derivative_power_rule(self):
        d = DensePolynomial([0.0, 0.0, 1.0]).derivative()
        np.testing.assert_allclose(d.coeffs, [0.0, 2.0])

    def test_derivative_matches_finite_difference(self):
        p = DensePolynomial([-1.0, 0.0, 2.0])
        d = p.derivative()
        assert d(1.0) == pytest.approx(4.0)
        assert d(1.0) == pytest.approx(fd1(p, 1.0), rel=1e-8)

    def test_arithmetic_closure(self):
        p = DensePolynomial([1.0, 2.0])
        q = DensePolynomial([0.0, -2.0, 3.0])
        assert (p + q).degree == 2
        assert (p * q).degree == 3
        assert (p - p).is_zero
        assert (2.0 * p).coeffs[1] == 4.0

    def test_cancellation_is_degree_correct(self):
        p = DensePolynomial([0.0, 1.0, 1.0])
        q = DensePolynomial([0.0, 0.0, 1.0])
        assert (p - q).degree == 1

    def test_vector_eval(self):
        p = DensePolynomial([-1.0, 0.0, 2.0])
        xs = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(p(xs), 2 * xs**2 - 1, atol=1e-14)


class TestFamilyValidation:
    def test_jacobi_range(self):
        with pytest.raises(ValueError):
            Jacobi(-1.0, 0.0)
        with pytest.raises(ValueError):
            Jacobi(0.0, -1.5)

    def test_laguerre_range(self):
        with pytest.raises(ValueError):
            LaguerreNeg(-1.0)

    def test_supports(self):
        assert Jacobi(0.0, 0.0).edge == 1.0
        assert LaguerreNeg(0.5).edge == 0.0
        assert Chebyshev1().edge == 1.0


class TestRecurrenceCoefficients:
    def test_chebyshev_closed_form(self):
        rc = recurrence_coefficients(Chebyshev1(), 10)
        assert rc.a_hat[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        np.testing.assert_allclose(rc.a_hat[1:], 0.5, rtol=1e-15)
        np.testing.assert_allclose(rc.b_hat, 0.0, atol=1e-15)
        assert rc.mu0 == pytest.approx(math.pi, rel=1e-13)
        assert rc.g0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_chebyshev_first_entry_is_the_jacobi_one(self):
        # sqrt(1/2) correctly rounded, the value Jacobi(-1/2, -1/2) forms, not 1/sqrt(2)
        a0 = recurrence_coefficients(Chebyshev1(), 2).a_hat[0]
        assert a0 == recurrence_coefficients(Jacobi(-0.5, -0.5), 2).a_hat[0] == math.sqrt(0.5)

    def test_laguerre_closed_form(self):
        alpha = 0.7
        rc = recurrence_coefficients(LaguerreNeg(alpha), 8)
        n = np.arange(9.0)
        np.testing.assert_allclose(rc.a_hat, np.sqrt((n + 1) * (n + alpha + 1)), rtol=1e-14)
        np.testing.assert_allclose(rc.b_hat, -(2 * n + alpha + 1), rtol=1e-14)
        assert rc.mu0 == pytest.approx(math.gamma(alpha + 1), rel=1e-13)

    def test_jacobi_first_diagonal_entry(self):
        alpha, beta = 0.5, -0.3
        rc = recurrence_coefficients(Jacobi(alpha, beta), 4)
        assert rc.b_hat[0] == pytest.approx((beta - alpha) / (alpha + beta + 2.0), rel=1e-14)

    def test_jacobi_against_moment_gram_schmidt(self):
        alpha, beta = 0.5, -0.3
        rc = recurrence_coefficients(Jacobi(alpha, beta), 6)
        a_ref, b_ref = recurrence_from_moments(jacobi_moments_lowdeg(alpha, beta, 16), 6)
        # the Hankel factorization loses digits with n; tight at 0, loose at 6
        assert rc.b_hat[0] == pytest.approx((beta - alpha) / (alpha + beta + 2.0), abs=1e-14)
        assert rc.a_hat[0] == pytest.approx(a_ref[0], rel=1e-13)
        np.testing.assert_allclose(rc.a_hat[:7], a_ref, rtol=1e-5)
        np.testing.assert_allclose(rc.b_hat[:7], b_ref, rtol=0, atol=1e-5)

    def test_laguerre_against_moment_gram_schmidt(self):
        rc = recurrence_coefficients(LaguerreNeg(0.0), 6)
        a_ref, b_ref = recurrence_from_moments(laguerre_neg_moments(0.0, 16), 6)
        np.testing.assert_allclose(rc.a_hat[:7], a_ref, rtol=1e-7)
        np.testing.assert_allclose(rc.b_hat[:7], b_ref, rtol=1e-7)

    def test_chebyshev_against_moment_gram_schmidt(self):
        rc = recurrence_coefficients(Chebyshev1(), 5)
        a_ref, b_ref = recurrence_from_moments(jacobi_moments_lowdeg(-0.5, -0.5, 14), 5)
        np.testing.assert_allclose(rc.a_hat[:6], a_ref, rtol=1e-7)
        np.testing.assert_allclose(rc.b_hat[:6], b_ref, rtol=0, atol=1e-7)

    def test_chebyshev_matches_jacobi_half(self):
        rc_c = recurrence_coefficients(Chebyshev1(), 20)
        rc_j = recurrence_coefficients(Jacobi(-0.5, -0.5), 20)
        np.testing.assert_allclose(rc_c.a_hat, rc_j.a_hat, rtol=1e-13)
        np.testing.assert_allclose(rc_c.b_hat, rc_j.b_hat, atol=1e-13)
        assert rc_c.mu0 == pytest.approx(rc_j.mu0, rel=1e-13)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            recurrence_coefficients(Chebyshev1(), -1)


class TestEvaluation:
    def test_chebyshev_constant(self):
        rc = recurrence_coefficients(Chebyshev1(), 5)
        v, d1, d2 = eval2(rc, 0, 0.3)
        assert v == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert d1 == 0.0 and d2 == 0.0

    def test_chebyshev_value_at_one(self):
        rc = recurrence_coefficients(Chebyshev1(), 5)
        v, _, _ = eval2(rc, 3, 1.0)
        assert v == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivatives_match_finite_differences(self, family):
        rc = recurrence_coefficients(family, 9)
        rng = np.random.default_rng(42)
        lo, hi = (-10.0, 0.0) if isinstance(family, LaguerreNeg) else (-1.0, 1.0)
        for x in lo + (hi - lo) * rng.random(20):
            for n in (2, 5, 8):
                v, d1, d2 = eval2(rc, n, float(x))

                def f(t, n=n):
                    return eval2(rc, n, t)[0]

                assert d1 == pytest.approx(fd1(f, float(x)), rel=1e-5, abs=1e-5 * max(1, abs(d1)))
                assert d2 == pytest.approx(fd2(f, float(x)), rel=1e-5, abs=1e-4 * max(1, abs(d2)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_derivative_point_example(self, family):
        rc = recurrence_coefficients(family, 6)
        x = 0.3 if not isinstance(family, LaguerreNeg) else -0.3
        _, d1, _ = eval2(rc, 5, x)

        def f(t):
            return eval2(rc, 5, t)[0]

        assert d1 == pytest.approx(fd1(f, x), rel=1e-6)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_recurrence_residual(self, family):
        rc = recurrence_coefficients(family, 31)
        lo, hi = (-20.0, 0.0) if isinstance(family, LaguerreNeg) else (-1.0, 1.0)
        xs = np.linspace(lo, hi, 50)
        g = orthonormal_values(rc, 31, xs)
        for n in range(1, 30):
            lhs = rc.a_hat[n - 1] * g[n - 1] + rc.b_hat[n] * g[n] + rc.a_hat[n] * g[n + 1]
            resid = np.abs(lhs - xs * g[n])
            assert np.all(resid <= 1e-10 * (1.0 + np.abs(xs * g[n])))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_positive_leading_coefficients(self, family):
        rc = recurrence_coefficients(family, 30)
        for n in range(31):
            p = orthonormal_coeffs(family, rc, n)
            assert p.degree == n
            assert p.coeffs[-1] > 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_orthonormality_by_quadrature(self, family):
        rc = recurrence_coefficients(family, 22)
        rule = gauss_rule(family, rc, 22)
        vals = orthonormal_values(rc, 20, rule.nodes)
        gram = (vals * rule.weights) @ vals.T
        assert np.abs(gram - np.eye(21)).max() < 1e-9

    def test_eval_out_of_range(self):
        rc = recurrence_coefficients(Chebyshev1(), 3)
        with pytest.raises(ValueError):
            eval2(rc, 6, 0.0)

    def test_table_shape_and_values_row(self):
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 8)
        xs = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        tables = derivative_tables(rc, 7, xs, 3)
        assert tables.shape == (4, 8, 2, 3)
        assert np.array_equal(tables[0], orthonormal_values(rc, 7, xs))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivative_tables_match_coefficient_derivatives(self, family):
        # oracle: monomial coefficients differentiated term by term, up to
        # order 4 and degree 20; the target is 1e-8 relative plus the
        # coefficient-representation floor eps * sum |c_k| |x|^k of each
        # differentiated polynomial, as in test_coeffs_agree_with_recurrence_eval
        eps = np.finfo(float).eps
        rc = recurrence_coefficients(family, 21)
        if isinstance(family, LaguerreNeg):
            xs = np.linspace(-20.0, 0.0, 15)
        else:
            xs = np.linspace(-1.0, 1.0, 15)
        tables = derivative_tables(rc, 20, xs, 4)
        for n in range(21):
            p = orthonormal_coeffs(family, rc, n)
            for j in range(5):
                got = tables[j, n]
                ref = p(xs)
                floor = eps * np.polyval(np.abs(p.coeffs[::-1]), np.abs(xs))
                assert np.all(np.abs(got - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)) + floor)
                p = p.derivative()


class TestAgainstClassicalValues:
    def test_jacobi_values(self):
        # the terminating-sum oracle alternates and loses ~n digits of
        # headroom; it is the limiting side of this comparison
        alpha, beta = 0.5, -0.3
        fam = Jacobi(alpha, beta)
        rc = recurrence_coefficients(fam, 12)
        for n in (0, 1, 2, 5, 9, 12):
            for x in (-0.9, -0.2, 0.0, 0.4, 1.0):
                ref = jacobi_orthonormal_value(alpha, beta, n, x)
                got = eval2(rc, n, x)[0]
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_laguerre_values(self):
        alpha = 1.0
        fam = LaguerreNeg(alpha)
        rc = recurrence_coefficients(fam, 10)
        for n in (0, 1, 3, 7, 10):
            for x in (-15.0, -4.0, -0.5, 0.0):
                ref = laguerre_orthonormal_reflected(alpha, n, x)
                got = eval2(rc, n, x)[0]
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_chebyshev_values(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 15)
        for n in (0, 1, 4, 15):
            for x in (-1.0, -0.3, 0.6, 1.0):
                ref = chebyshev_orthonormal_value(n, x)
                got = eval2(rc, n, x)[0]
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestCoefficients:
    def test_chebyshev_degree_one(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 3)
        p = orthonormal_coeffs(fam, rc, 1)
        np.testing.assert_allclose(p.coeffs, [0.0, math.sqrt(2.0 / math.pi)], atol=1e-15)

    def test_chebyshev_degree_two(self):
        # recurrence unrolled by hand: g2 = sqrt(2/pi) (2x^2 - 1)
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 3)
        p = orthonormal_coeffs(fam, rc, 2)
        s = math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(p.coeffs, [-s, 0.0, 2.0 * s], atol=1e-15)

    def test_laguerre_constant(self):
        alpha = 0.4
        fam = LaguerreNeg(alpha)
        rc = recurrence_coefficients(fam, 2)
        p = orthonormal_coeffs(fam, rc, 0)
        assert p.coeffs[0] == pytest.approx(1.0 / math.sqrt(math.gamma(alpha + 1.0)), rel=1e-13)

    def test_degree_cap(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 45)
        with pytest.raises(ValueError, match="degree 41 exceeds the coefficient cap 40"):
            orthonormal_coeffs(fam, rc, 41)
        assert orthonormal_coeffs(fam, rc, 40).degree == 40

    @pytest.mark.parametrize("family", FAMILIES)
    def test_coeffs_agree_with_recurrence_eval(self, family):
        # agreement target 1e-8 relative, plus the floor eps * sum |c_k| |x|^k
        # covering coefficient representation and construction round-off,
        # which no evaluation scheme can beat once the coefficients are
        # stored in doubles (it only bites at the far Laguerre corner)
        eps = np.finfo(float).eps
        rc = recurrence_coefficients(family, 21)
        if isinstance(family, LaguerreNeg):
            xs = np.linspace(-20.0, 0.0, 15)
        else:
            xs = np.linspace(-1.0, 1.0, 15)
        for n in range(21):
            p = orthonormal_coeffs(family, rc, n)
            got = p(xs)
            ref = orthonormal_values(rc, n, xs)[n]
            floor = eps * np.polyval(np.abs(p.coeffs[::-1]), np.abs(xs))
            tol = 1e-8 * np.maximum(1.0, np.abs(ref)) + floor
            assert np.all(np.abs(got - ref) <= tol)


# seeded draws over the documented parameter domains, for the bit-identity oracles
_draw = np.random.default_rng(20261018)
ORACLE_FAMILIES = (
    [Jacobi(float(a), float(b)) for a, b in _draw.uniform(-0.99, 5.0, (3, 2))]
    + [LaguerreNeg(float(a)) for a in _draw.uniform(-0.99, 5.0, 3)]
    + [Chebyshev1(), Jacobi(0, 0)]
)


class TestCoefficientTable:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_rows_equal_the_per_degree_loop(self, family):
        rc = recurrence_coefficients(family, 41)
        table = coefficient_table(rc, 40)
        assert table.shape == (41, 41)
        for k, g in enumerate(orthonormal_coeffs_loop(rc, 40)):
            assert np.array_equal(table[k, : k + 1], g)
            assert not table[k, k + 1 :].any()
            assert np.array_equal(orthonormal_coeffs(family, rc, k).coeffs, DensePolynomial(g).coeffs)

    def test_range_checks(self):
        rc = recurrence_coefficients(Chebyshev1(), 5)
        with pytest.raises(ValueError, match="nonnegative"):
            coefficient_table(rc, -1)
        with pytest.raises(ValueError, match="outside the computed range"):
            coefficient_table(rc, 7)
        # no cap of its own: the callers that hand out coefficients hold it
        assert coefficient_table(recurrence_coefficients(Chebyshev1(), 45), 45)[45, 45] > 0.0


class TestDerivativeTablesOracle:
    """One k-loop for every order reproduces the per-order loop bit for bit."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_every_order_and_shape_of_x(self, family):
        rc = recurrence_coefficients(family, 31)
        lo = -30.0 if isinstance(family, LaguerreNeg) else -1.2
        grid = np.linspace(lo, 1.2, 12)
        for x in (0.37, -0.0, lo, np.array(0.81), grid, grid.reshape(3, 4), np.array([-0.0, np.inf, -np.inf])):
            for n in (0, 1, 2, 30):
                for order in range(4):
                    with np.errstate(invalid="ignore", over="ignore"):
                        got = derivative_tables(rc, n, x, order)
                        ref = derivative_tables_per_order(rc, n, x, order)
                    # the bytes, so that signed zeros and non-finite entries count too
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestJacobiRecurrence:
    def test_equals_the_scalar_formulas(self):
        rng = np.random.default_rng(3)
        cases = [(0, 0, 0), (0, 0, 1), (-0.5, -0.5, 40), (0.5, -0.3, 250), (2, 3, 17)]
        cases += [(float(a), float(b), int(n)) for a, b, n in zip(
            rng.uniform(-0.999, 40.0, 120), rng.uniform(-0.999, 40.0, 120), rng.integers(0, 700, 120)
        )]
        for alpha, beta, n_max in cases:
            rc = Jacobi(alpha, beta).recurrence(n_max)
            a_hat, b_hat = jacobi_recurrence_scalar(alpha, beta, n_max)
            assert np.array_equal(rc.a_hat, a_hat) and np.array_equal(rc.b_hat, b_hat)


class TestBesselZeros:
    """The zeros behind the boundary seeds of the Jacobi Gauss nodes."""

    ORDERS = [-0.9, -0.5, 0.0, 0.7, 2.0, 10.0, 40.0]

    @pytest.mark.parametrize("nu", [nu for nu in ORDERS if nu >= 0.0])
    def test_against_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        zeros = _bessel_zeros(nu, 10)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.besseljzero(mpmath.mpf(nu), k)) for k in range(1, 11)])
        assert np.abs(zeros / exact - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("nu", [nu for nu in ORDERS if nu < 0.0])
    def test_negative_orders_are_roots(self, nu):
        # besseljzero refuses -1 < nu < 0: Newton's correction J / J' at each
        # zero must be at round-off, and the first ten zeros all present
        mpmath = pytest.importorskip("mpmath")
        zeros = _bessel_zeros(nu, 10)
        with mpmath.workdps(30):
            for z in zeros:
                z = mpmath.mpf(float(z))
                correction = mpmath.besselj(nu, z) / mpmath.besselj(nu, z, derivative=1)
                assert abs(correction) <= 1e-13 * z
        # McMahon: j_k = (k + nu/2 - 1/4) pi + O(1/k), so the first is below
        # pi and later ones are about pi apart
        assert 0.0 < zeros[0] < math.pi
        assert np.all(np.abs(np.diff(zeros) - math.pi) < 0.25)

    def test_half_order_closed_form(self):
        # J_(-1/2)(z) = sqrt(2 / (pi z)) cos z
        exact = (np.arange(1, 11) - 0.5) * math.pi
        assert np.abs(_bessel_zeros(-0.5, 10) / exact - 1.0).max() <= 1e-13

    def test_fewer_zeros_are_the_first_ones(self):
        ten = _bessel_zeros(0.7, 10)
        for m in (1, 3, 5):
            assert np.abs(_bessel_zeros(0.7, m) / ten[:m] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("n", [9, 40, 255])
    @pytest.mark.parametrize("family, solves", [
        (Chebyshev1(), 1), (Jacobi(0.7, 0.7), 1), (Jacobi(2.0, 2.0), 1), (Jacobi(0.5, -0.3), 2),
    ])
    def test_symmetric_seeds_solve_once(self, family, solves, n, monkeypatch):
        # a symmetric weight mirrors the seeds near +1 to -1 instead of
        # solving for the same zeros again; the mirror is bit-identical
        orders = []

        def counted(nu, m):
            orders.append(nu)
            return _bessel_zeros(nu, m)

        monkeypatch.setattr(polycore, "_bessel_zeros", counted)
        x = family.gauss_seeds(n)
        assert len(orders) == solves
        a, b = family.alpha, family.beta
        m = min(10, n // 2)
        assert np.array_equal(x[:m], -np.cos(polycore._boundary_angles(b, a, n + 0.5 * (a + b + 1.0), m)))
