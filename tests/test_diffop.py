import math

import numpy as np
import pytest

from modkernel.diffop import (
    apply,
    eigenvalue_jacobi,
    eigenvalue_laguerre,
    jacobi_operator,
    laguerre_operator,
    verify_composed_equation,
    verify_eigen_relation,
    verify_kernel_image,
)
from modkernel.kernels import jacobi_sobolev_poly, laguerre_sobolev_poly
from modkernel.polycore import (
    Chebyshev1,
    DensePolynomial,
    Jacobi,
    LaguerreNeg,
    orthonormal_coeffs,
    recurrence_coefficients,
)


class TestApply:
    def test_constant_is_scaled(self):
        op = jacobi_operator(0.3, 0.7, 2.5)
        out = apply(op, DensePolynomial([4.0]))
        np.testing.assert_allclose(out.coeffs, [10.0])

    def test_explicit_quadratic(self):
        # x f'' + (a+1+x) f' + c f on f = x^2
        op = laguerre_operator(1.0, 3.0)
        out = apply(op, DensePolynomial([0.0, 0.0, 1.0]))
        # f''=2, f'=2x: x*2 + (2+x)*2x + 3x^2 = 5x^2 + 6x
        np.testing.assert_allclose(out.coeffs, [0.0, 6.0, 5.0])

    @pytest.mark.parametrize("deg", [0, 1, 5, 17, 30])
    def test_degree_preserved(self, deg):
        rng = np.random.default_rng(deg)
        coeffs = rng.standard_normal(deg + 1)
        coeffs[-1] = 1.0 + abs(coeffs[-1])
        f = DensePolynomial(coeffs)
        assert apply(jacobi_operator(0.5, -0.3, 2.0), f).degree == deg
        assert apply(laguerre_operator(1.5, 0.7), f).degree == deg


class TestEigenvalues:
    def test_jacobi_values(self):
        assert eigenvalue_jacobi(0, 0.5, -0.3, 2.0) == 2.0
        assert eigenvalue_jacobi(2, -0.5, -0.5, 1.0) == pytest.approx(5.0)  # c + 4
        assert eigenvalue_laguerre(0, 0.3) == 0.3
        assert eigenvalue_laguerre(4, 1.0) == 5.0

    def test_positivity(self):
        for n in range(0, 20):
            assert eigenvalue_jacobi(n, 0.5, -0.3, 0.1) > 0
            assert eigenvalue_jacobi(n, -0.99, -0.99, 1e-3) > 0
            assert eigenvalue_laguerre(n, 1e-3) > 0


class TestEigenRelations:
    @pytest.mark.parametrize("alpha,beta,c", [(0.5, -0.3, 2.0), (-0.5, -0.5, 1.0), (1.7, 0.0, 0.1)])
    def test_jacobi_family(self, alpha, beta, c):
        assert max(verify_eigen_relation(Jacobi(alpha, beta), c, 15)) <= 1e-11

    @pytest.mark.parametrize("alpha,c", [(0.0, 2.0), (0.5, 0.1), (3.0, 1.0)])
    def test_laguerre_family(self, alpha, c):
        assert max(verify_eigen_relation(LaguerreNeg(alpha), c, 15)) <= 1e-11


class TestKernelImage:
    def test_order_zero_exact(self):
        # constant case collapses to the plain kernel exactly
        p0 = jacobi_sobolev_poly(0.5, -0.3, 2.0, 1.5, 0)
        out = apply(jacobi_operator(0.5, -0.3, 2.0), p0)
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 1)
        from modkernel.polycore import orthonormal_values

        ref = orthonormal_values(rc, 0, 1.5)[0] * rc.g0
        assert out.coeffs[0] == pytest.approx(ref, rel=1e-13)

    def test_jacobi_identity(self):
        assert verify_kernel_image(Jacobi(0.5, -0.3), 2.0, 1.5, 12) <= 1e-10

    def test_laguerre_identity(self):
        assert verify_kernel_image(LaguerreNeg(1.0), 0.5, 0.0, 12) <= 1e-10

    def test_chebyshev_identity(self):
        assert verify_kernel_image(Chebyshev1(), 1.0, 1.0, 12) <= 1e-10


class TestComposedEquation:
    def test_order_zero_trivial(self):
        # both sides vanish for the constant
        q = apply(jacobi_operator(-0.5, -0.5, 1.0), jacobi_sobolev_poly(-0.5, -0.5, 1.0, 1.0, 0))
        out = apply(jacobi_operator(0.5, -0.5, 0.0), q)
        assert out.is_zero or np.abs(out.coeffs).max() < 1e-15

    def test_jacobi_shifted_reading_holds(self):
        assert verify_composed_equation(Jacobi(-0.5, -0.5), 1.0, 10) <= 1e-9
        assert verify_composed_equation(Jacobi(0.5, -0.3), 2.0, 10) <= 1e-9

    def test_laguerre_shifted_reading_holds(self):
        assert verify_composed_equation(LaguerreNeg(0.0), 2.0, 10) <= 1e-9
        assert verify_composed_equation(LaguerreNeg(1.5), 0.3, 10) <= 1e-9

    def test_unshifted_reading_fails_clearly(self):
        # the rejected eigenvalue convention misses by order one
        assert verify_composed_equation(Jacobi(-0.5, -0.5), 1.0, 10, reading="unshifted") > 1e-2

    def test_unknown_reading_rejected(self):
        with pytest.raises(ValueError):
            verify_composed_equation(Jacobi(-0.5, -0.5), 1.0, 3, reading="sideways")


@pytest.mark.parametrize("family,n_max", [(Jacobi(0.5, -0.3), 200), (Chebyshev1(), 200), (LaguerreNeg(0.5), 150)])
def test_relations_hold_beyond_the_coefficient_cap(family, n_max):
    assert max(verify_eigen_relation(family, 1.0, n_max)) <= 1e-11
    assert verify_kernel_image(family, 1.0, family.edge + 0.5, n_max) <= 1e-10
    assert verify_composed_equation(family, 1.0, n_max) <= 1e-9


class TestEdgeImageIsShiftedFamily:
    def test_jacobi_edge_kernel_is_shifted_jacobi(self):
        # at t0 = 1 the operator image is proportional to the next family up
        alpha, beta, c, n = 0.5, -0.3, 2.0, 7
        q = apply(jacobi_operator(alpha, beta, c), jacobi_sobolev_poly(alpha, beta, c, 1.0, n))
        fam_up = Jacobi(alpha + 1.0, beta)
        rc_up = recurrence_coefficients(fam_up, n + 1)
        up = orthonormal_coeffs(fam_up, rc_up, n)
        ratio = q.coeffs[-1] / up.coeffs[-1]
        np.testing.assert_allclose(q.coeffs, ratio * up.coeffs, rtol=2e-12, atol=1e-12)

    def test_laguerre_edge_kernel_is_shifted_laguerre(self):
        alpha, c, n = 0.0, 2.0, 7
        q = apply(laguerre_operator(alpha, c), laguerre_sobolev_poly(alpha, c, 0.0, n))
        fam_up = LaguerreNeg(alpha + 1.0)
        rc_up = recurrence_coefficients(fam_up, n + 1)
        up = orthonormal_coeffs(fam_up, rc_up, n)
        ratio = q.coeffs[-1] / up.coeffs[-1]
        np.testing.assert_allclose(q.coeffs, ratio * up.coeffs, rtol=2e-12, atol=1e-12)
