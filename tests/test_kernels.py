import math

import numpy as np
import pytest

from modkernel import kernels
from modkernel.kernels import (
    EigScaledKernel,
    PlainKernel,
    SecondKind,
    chebyshev_bounds_check,
    generate_weights,
    jacobi_sobolev_poly,
    laguerre_sobolev_poly,
    quadratic_discriminant,
    second_kind_values,
    sobolev_poly,
    sobolev_tables,
    weighted_tables,
)
from modkernel.polycore import (
    Chebyshev1,
    Jacobi,
    LaguerreNeg,
    orthonormal_values,
    recurrence_coefficients,
)
from modkernel.quadrature import gauss_rule, integrate

from oracles import kernel_poly, laguerre_poly_value, modified_kernel_accumulation


class TestKernelPoly:
    def test_order_zero_is_inverse_mass(self):
        for fam in (Chebyshev1(), Jacobi(0.5, -0.3), LaguerreNeg(0.0)):
            rc = recurrence_coefficients(fam, 1)
            assert kernel_poly(fam, 0.7 if not isinstance(fam, LaguerreNeg) else -0.7, 0, 0.1 if not isinstance(fam, LaguerreNeg) else -0.1) == pytest.approx(1.0 / rc.mu0, rel=1e-13)

    def test_chebyshev_value_at_ones(self):
        # 1/pi + 2/pi + 2/pi
        assert kernel_poly(Chebyshev1(), 1.0, 2, 1.0) == pytest.approx(5.0 / math.pi, rel=1e-13)

    def test_reproducing_property(self):
        fam = Jacobi(0.5, -0.3)
        rc = recurrence_coefficients(fam, 12)
        rule = gauss_rule(fam, rc, 12)
        t0 = 1.3
        for n in (4, 7):
            for j in range(n + 1):
                val = integrate(
                    rule, lambda x: kernel_poly(fam, t0, n, x) * orthonormal_values(rc, j, x)[j]
                )
                ref = orthonormal_values(rc, j, t0)[j]
                assert val == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_annihilates_higher_degrees(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 10)
        rule = gauss_rule(fam, rc, 10)
        val = integrate(rule, lambda x: kernel_poly(fam, 1.0, 3, x) * orthonormal_values(rc, 5, x)[5])
        assert abs(val) < 1e-10


class TestPlainKernelOrthogonality:
    @pytest.mark.parametrize("family,t0", [(Jacobi(0.5, -0.3), 1.5), (Chebyshev1(), 1.0), (LaguerreNeg(0.0), 0.0)])
    def test_orthogonal_under_tilted_measure(self, family, t0):
        rc = recurrence_coefficients(family, 14)
        rule = gauss_rule(family, rc, 14)
        g = orthonormal_values(rc, 10, rule.nodes)
        gt = orthonormal_values(rc, 10, t0)
        kern = np.cumsum(gt[:, None] * g, axis=0)
        tilt = rule.weights * (t0 - rule.nodes)
        gram = (kern * tilt) @ kern.T
        diag = np.diag(gram)
        assert np.all(diag > 0)
        # past the edge the diagonal grades geometrically and only the
        # pairwise-normalized figure stays meaningful in doubles
        corr = (np.abs(gram - np.diag(diag)) / np.sqrt(np.outer(diag, diag))).max()
        assert corr <= 1e-9
        if t0 == family.edge:
            assert np.abs(gram - np.diag(diag)).max() <= 1e-9 * diag.min()

    def test_diagonal_closed_form(self):
        # verified numerically before use: the diagonal equals
        # a_hat[n] g_n(t0) g_{n+1}(t0)
        family, t0 = Jacobi(0.5, -0.3), 1.5
        rc = recurrence_coefficients(family, 14)
        rule = gauss_rule(family, rc, 14)
        gt = orthonormal_values(rc, 11, t0)
        for n in (0, 3, 9):
            val = integrate(rule, lambda x: kernel_poly(family, t0, n, x) ** 2 * (t0 - x))
            ref = rc.a_hat[n] * gt[n] * gt[n + 1]
            assert val == pytest.approx(ref, rel=1e-9)


class TestModifiedKernel:
    """The modified kernel u_n = sum c_k g_k for any weights, from ``weighted_tables``."""

    def test_constant_term(self):
        rc = recurrence_coefficients(Chebyshev1(), 2)
        w = generate_weights(Chebyshev1(), rc, PlainKernel(1.0), 0)
        # c_0 g_0 with c_0 = g_0(1)
        assert weighted_tables(rc, w.c, 0.3, 0)[0, 0] == pytest.approx(rc.g0 * rc.g0, rel=1e-13)

    def test_plain_kernel_weights_reproduce_kernel(self):
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 9)
        xs = np.linspace(-1, 1, 9)
        u = weighted_tables(rc, generate_weights(Jacobi(0.5, -0.3), rc, PlainKernel(1.2), 9).c, xs, 0)[0]
        for n in (2, 6, 9):
            ref = kernel_poly(Jacobi(0.5, -0.3), 1.2, n, xs)
            np.testing.assert_allclose(u[n], ref, rtol=1e-10, atol=1e-12)

    def test_eig_scaled_weights_match_sobolev_family(self):
        rc = recurrence_coefficients(LaguerreNeg(0.5), 8)
        xs = np.linspace(-6, 0, 9)
        u = weighted_tables(rc, generate_weights(LaguerreNeg(0.5), rc, EigScaledKernel(2.0, 0.3), 8).c, xs, 0)[0]
        for n in (1, 5, 8):
            ref = laguerre_sobolev_poly(0.5, 2.0, 0.3, n)
            np.testing.assert_allclose(u[n], ref(xs), rtol=1e-10, atol=1e-12)

    def test_values_route_matches_polynomials(self):
        rc = recurrence_coefficients(Chebyshev1(), 10)
        w = generate_weights(Chebyshev1(), rc, PlainKernel(1.0), 10)
        xs = np.linspace(-1, 1, 7)
        tables = weighted_tables(rc, w.c, xs, 2)
        for n in (0, 4, 10):
            p = modified_kernel_accumulation(rc, w.c, n)
            np.testing.assert_allclose(tables[0, n], p(xs), rtol=1e-11, atol=1e-12)
            for j in (1, 2):
                p = p.derivative()
                # derivative rows: atol scaled by the derivative's magnitude
                np.testing.assert_allclose(tables[j, n], p(xs), rtol=1e-11, atol=1e-12 * max(1.0, np.abs(p(xs)).max()))

    def test_explicit_weight_sequence(self):
        rc = recurrence_coefficients(Chebyshev1(), 4)
        xs = np.linspace(-1, 1, 5)
        ref = orthonormal_values(rc, 2, xs).sum(axis=0)
        np.testing.assert_allclose(weighted_tables(rc, np.ones(3), xs, 0)[0, 2], ref, rtol=1e-12)

    def test_range_check(self):
        rc = recurrence_coefficients(Chebyshev1(), 4)
        # seven weights need the recurrence data to index 5, one past what rc holds
        with pytest.raises(ValueError, match="outside the computed range"):
            weighted_tables(rc, np.ones(7), 0.5, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            sobolev_tables(Chebyshev1(), 1.0, 1.0, -1, 0.5, 0)


class TestWeightRules:
    def test_plain_kernel_below_edge_rejected(self):
        rc = recurrence_coefficients(Jacobi(0.0, 0.0), 6)
        with pytest.raises(ValueError, match="edge"):
            generate_weights(Jacobi(0.0, 0.0), rc, PlainKernel(0.5), 6)
        rc = recurrence_coefficients(LaguerreNeg(0.0), 6)
        with pytest.raises(ValueError, match="edge"):
            generate_weights(LaguerreNeg(0.0), rc, PlainKernel(-0.1), 6)

    def test_eig_scaled_requires_positive_shift(self):
        with pytest.raises(ValueError):
            EigScaledKernel(0.0, 1.0)

    def test_second_kind_positive_for_edge_plus(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 12)
        w = generate_weights(fam, rc, SecondKind(1.5), 10)
        assert len(w) == 11 and w[0] == 1.0
        assert all(w[k] > 0 for k in range(11))

    def test_second_kind_failure_names_index(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 12)
        # inside the support the second-kind solution oscillates
        with pytest.raises(ValueError, match="index"):
            generate_weights(fam, rc, SecondKind(0.0), 10)


class TestSecondKind:
    def test_q1_constant(self):
        fam = Chebyshev1()
        rc = recurrence_coefficients(fam, 4)
        for t in (-0.5, 0.0, 2.0):
            assert second_kind_values(rc, 1, t)[1] == pytest.approx(1.0 / (rc.a_hat[0] * rc.g0), rel=1e-14)

    @pytest.mark.parametrize("family", [Chebyshev1(), Jacobi(0.5, -0.3), LaguerreNeg(0.0)])
    def test_wronskian_constant(self, family):
        rc = recurrence_coefficients(family, 22)
        t = 0.37 if not isinstance(family, LaguerreNeg) else -0.37
        g = orthonormal_values(rc, 21, t)
        q = second_kind_values(rc, 21, t)
        w = rc.a_hat[:21] * (g[1:22] * q[:21] - g[:21] * q[1:22])
        np.testing.assert_allclose(w, w[0], rtol=1e-10)
        assert w[0] == pytest.approx(-1.0, rel=1e-12)

    def test_second_kind_recurrence_residual(self):
        fam = Jacobi(0.5, -0.3)
        rc = recurrence_coefficients(fam, 20)
        ts = np.linspace(-0.9, 0.9, 7)
        q = second_kind_values(rc, 19, ts)
        for n in range(1, 18):
            lhs = rc.a_hat[n - 1] * q[n - 1] + rc.b_hat[n] * q[n] + rc.a_hat[n] * q[n + 1]
            assert np.abs(lhs - ts * q[n]).max() <= 1e-10 * (1.0 + np.abs(ts * q[n]).max())


class TestSobolevFamilies:
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_chebyshev_degree_one_fixture(self, c):
        p1 = math.pi * jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, 1)
        np.testing.assert_allclose(p1.coeffs, [1.0 / c, 2.0 / (c + 1.0)], rtol=1e-12)

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_chebyshev_degree_two_fixture(self, c):
        p2 = math.pi * jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, 2)
        ref = [1.0 / c - 2.0 / (c + 4.0), 2.0 / (c + 1.0), 4.0 / (c + 4.0)]
        np.testing.assert_allclose(p2.coeffs, ref, rtol=1e-12)

    def test_jacobi_constant_term(self):
        alpha, beta, c, t0 = 0.7, -0.2, 3.0, 2.0
        p0 = jacobi_sobolev_poly(alpha, beta, c, t0, 0)
        rc = recurrence_coefficients(Jacobi(alpha, beta), 1)
        assert p0.coeffs[0] == pytest.approx(rc.g0 * rc.g0 / c, rel=1e-13)

    def test_laguerre_constant_term(self):
        alpha, c = 1.3, 2.5
        p0 = laguerre_sobolev_poly(alpha, c, 0.7, 0)
        assert p0.coeffs[0] == pytest.approx(1.0 / (c * math.gamma(alpha + 1.0)), rel=1e-13)

    def test_laguerre_edge_matches_plain_sum(self):
        # at the edge the sum telescopes to (1/Gamma(a+1)) sum L_k(-x)/(k+c)
        alpha, c = 0.0, 1.0
        xs = np.linspace(-8, 0, 9)
        for n in (1, 3, 6):
            p = laguerre_sobolev_poly(alpha, c, 0.0, n)
            ref = [
                sum(laguerre_poly_value(alpha, k, float(-x)) / (k + c) for k in range(n + 1))
                / math.gamma(alpha + 1.0)
                for x in xs
            ]
            np.testing.assert_allclose(p(xs), ref, rtol=1e-10, atol=1e-12)

    def test_laguerre_point_fixture(self):
        # alpha=0, c=1, n=1, x=-1: 1 + L_1(1)/2 = 1 + 0 = 1
        val = laguerre_sobolev_poly(0.0, 1.0, 0.0, 1)(-1.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            jacobi_sobolev_poly(-0.5, -0.5, 1.0, 0.9, 2)
        with pytest.raises(ValueError):
            jacobi_sobolev_poly(-0.5, -0.5, -1.0, 1.0, 2)
        with pytest.raises(ValueError):
            laguerre_sobolev_poly(0.0, 1.0, -0.5, 2)
        with pytest.raises(ValueError):
            laguerre_sobolev_poly(-1.2, 1.0, 0.0, 2)


def _t(c: float, n: int, x, order: int = 1) -> np.ndarray:
    """t_n(c; x) and its derivatives: column n of the Chebyshev1 tables at t0 = 1."""
    return sobolev_tables(Chebyshev1(), c, 1.0, n, x, order)[:, n]


class TestChebyshevSpecialization:
    def test_order_zero(self):
        assert _t(2.0, 0, 0.3, 0)[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_degree_one_root(self):
        for c in (0.1, 1.0, 10.0):
            root = -(c + 1.0) / (2.0 * c)
            assert _t(c, 1, root, 0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_jacobi_sobolev(self):
        xs = np.linspace(-1, 1, 11)
        for c in (0.25, 4.0):
            for n in (0, 1, 5, 9):
                p = jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, n)
                np.testing.assert_allclose(_t(c, n, xs, 0)[0], p(xs), rtol=1e-10, atol=1e-12)

    def test_derivative_consistency(self):
        xs = np.linspace(-0.99, 0.99, 11)
        der = _t(1.0, 6, xs)[1]
        h = 1e-6
        fd = (_t(1.0, 6, xs + h, 0)[0] - _t(1.0, 6, xs - h, 0)[0]) / (2 * h)
        np.testing.assert_allclose(der, fd, rtol=1e-6, atol=1e-8)

    def test_bounds_order_zero_exact(self):
        max_val, max_der, ok = chebyshev_bounds_check(3.0, 0, 101)
        assert max_val[0] == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-15)
        assert max_der[0] == 0.0 and ok

    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n", [1, 5, 10, 20])
    def test_bounds_hold(self, c, n):
        max_val, max_der, ok = chebyshev_bounds_check(c, n, 2001)
        assert ok and max_val.shape == max_der.shape == (n + 1,)
        orders = np.arange(n + 1)
        assert np.all(max_val <= 1.0 / (math.pi * c) + 2.0 * orders / math.pi)
        assert np.all(max_der <= 2.0 * orders / math.pi)

    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    def test_order_range_entries_match_single_order_tables(self, c):
        # entry n of the order range reads what a table built to order n alone reads
        max_val, max_der, _ = chebyshev_bounds_check(c, 20, 10001)
        for n in (0, 1, 5, 20):
            val_n, der_n, _ = chebyshev_bounds_check(c, n, 10001)
            assert max_val[n] == val_n[n] and max_der[n] == der_n[n]

    def test_violation_at_one_order_fails_the_range(self, monkeypatch):
        real = kernels.sobolev_tables

        def tenfold_order_3(*args):
            u = real(*args)
            u[:, 3] *= 10.0
            return u

        monkeypatch.setattr(kernels, "sobolev_tables", tenfold_order_3)
        assert not chebyshev_bounds_check(1.0, 5, 101)[2]


class TestDiscriminant:
    def test_simple_quadratic(self):
        assert quadratic_discriminant(1.0, 0.0, -1.0) == pytest.approx(4.0)

    def test_degree_check(self):
        with pytest.raises(ValueError, match="nonzero leading coefficient"):
            quadratic_discriminant(0.0, 2.0, 1.0)

    def test_chebyshev_small_shift_negative(self):
        # direct arithmetic on the explicit degree-2 coefficients at c = 0.1
        c = 0.1
        a = 4.0 / (c + 4.0)
        b = 2.0 / (c + 1.0)
        const = 1.0 / c - 2.0 / (c + 4.0)
        ref = b * b - 4.0 * a * const
        cc, bb, aa = math.pi * jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, 2).coeffs
        got = quadratic_discriminant(aa, bb, cc)
        assert got == pytest.approx(ref, rel=1e-12)
        assert got < 0.0
        assert got == pytest.approx(-33.815, abs=5e-3)

    def test_laguerre_small_shift_negative_somewhere(self):
        found = None
        for c in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
            d = quadratic_discriminant(*laguerre_sobolev_poly(0.0, c, 0.0, 2).coeffs[::-1])
            if d < 0.0:
                found = (c, d)
                break
        assert found is not None


def _oracle_cases(seed: int = 20261019) -> list:
    """Seeded (family, c, t0): parameters in (-1, 5), c in [0.1, 10], t0 at or beyond the edge."""
    rng = np.random.default_rng(seed)
    families = [Jacobi(*map(float, rng.uniform(-0.99, 5.0, 2))) for _ in range(2)]
    families += [LaguerreNeg(float(rng.uniform(-0.99, 5.0))) for _ in range(2)] + [Chebyshev1(), Chebyshev1()]
    cases = []
    for i, fam in enumerate(families):
        c = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        # one of each kind at the edge, the other beyond it
        t0 = fam.edge + (0.0 if i % 2 else float(rng.uniform(0.0, 2.0)))
        cases.append((fam, c, t0))
    return cases


ORACLE_CASES = _oracle_cases()


class TestMonomialRouteOracle:
    @pytest.mark.parametrize("family,c,t0", ORACLE_CASES)
    def test_sobolev_poly_equals_the_running_sum(self, family, c, t0):
        for n in range(41):
            rc = recurrence_coefficients(family, n + 2)
            w = generate_weights(family, rc, EigScaledKernel(c, t0), n + 2)
            ref = modified_kernel_accumulation(rc, w.c, n)
            assert np.array_equal(sobolev_poly(family, c, t0, n).coeffs, ref.coeffs)


class TestCoefficientCap:
    CALLS = {
        "sobolev_poly": lambda n: sobolev_poly(Jacobi(1.5, 0.5), 2.0, 1.2, n),
        "jacobi_sobolev_poly": lambda n: jacobi_sobolev_poly(0.5, -0.3, 1.0, 1.5, n),
        "laguerre_sobolev_poly": lambda n: laguerre_sobolev_poly(0.5, 1.0, 0.0, n),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_degree_41_refused(self, name):
        with pytest.raises(ValueError, match="degree 41 exceeds the coefficient cap 40"):
            self.CALLS[name](41)

    @pytest.mark.parametrize("name", CALLS)
    def test_degree_40_built(self, name):
        p = self.CALLS[name](40)
        assert p.degree == 40 and p.coeffs[-1] > 0.0
