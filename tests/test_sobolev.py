import math
import warnings

import numpy as np
import pytest

from modkernel.diffop import family_operator
from modkernel.kernels import jacobi_sobolev_poly, laguerre_sobolev_poly, sobolev_poly
from modkernel.polycore import (
    DensePolynomial,
    Jacobi,
    LaguerreNeg,
    Chebyshev1,
    orthonormal_values,
    recurrence_coefficients,
)
from modkernel.quadrature import family_rule, gauss_rule, integrate
from modkernel.sobolev import (
    MatrixWeight,
    gram_matrix,
    gram_offdiagonal_measures,
    jacobi_matrix_weight,
    laguerre_matrix_weight,
    matrix_weight,
    sobolev_gram,
)

from oracles import gram_by_operator_images, matrix_weight_column, rank_one_factorization_check


def column(wgt):
    """The weight's column v = (p0, p1, p2), read off its operator."""
    return (wgt.operator.p0, wgt.operator.p1, wgt.operator.p2)


class TestMatrixWeight:
    def test_jacobi_column_values(self):
        v = column(jacobi_matrix_weight(0.5, -0.3, 2.0, 1.5))
        # at x = 1 the second-derivative coefficient vanishes
        assert v[2](1.0) == pytest.approx(0.0, abs=1e-15)
        assert v[2](-1.0) == pytest.approx(0.0, abs=1e-15)
        assert v[0](0.3) == 2.0
        assert v[1](1.0) == pytest.approx((0.5 + (-0.3) + 2.0) * 1.0 + 0.5 - (-0.3))

    def test_laguerre_column_values(self):
        v = column(laguerre_matrix_weight(1.2, 0.7, 0.0))
        assert v[1](0.0) == pytest.approx(1.2 + 1.0)
        assert v[2](0.0) == 0.0

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            jacobi_matrix_weight(0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            laguerre_matrix_weight(0.0, 1.0, -0.2)
        with pytest.raises(ValueError):
            jacobi_matrix_weight(0.0, 0.0, -1.0, 1.5)

    def test_rank_one_factorization(self):
        wgt = jacobi_matrix_weight(0.5, -0.3, 2.0, 1.5)
        assert rank_one_factorization_check(wgt, np.linspace(-1, 1, 9))
        wgt = laguerre_matrix_weight(0.7, 1.3, 0.5)
        assert rank_one_factorization_check(wgt, np.linspace(-9, 0, 9))
        wgt = matrix_weight(Chebyshev1(), 0.4, 2.3)
        assert rank_one_factorization_check(wgt, np.linspace(-1, 1, 9))

    def test_rank_one_spectrum(self):
        v = column(jacobi_matrix_weight(0.5, -0.3, 2.0, 1.5))
        for x in (-0.8, 0.1, 0.9):
            vv = np.array([p(x) for p in v])
            m = np.outer(vv, vv)
            eig = np.sort(np.linalg.eigvalsh(m))
            np.testing.assert_allclose(eig[:2], 0.0, atol=1e-12 * max(1.0, eig[2]))
            assert eig[2] == pytest.approx(float(vv @ vv), rel=1e-12)

    @pytest.mark.parametrize("family,t0", [(Jacobi(0.5, -0.3), 1.5), (Chebyshev1(), 1.0), (LaguerreNeg(0.7), 0.5)])
    def test_operator_is_the_written_out_column(self, family, t0):
        # the weight takes v from the family operator; the tests' oracle
        # writes v out per family, and the two must be the same polynomials
        wgt = matrix_weight(family, 1.3, t0)
        assert wgt.family == family and wgt.t0 == t0 and wgt.c == 1.3
        for got, ref in zip(column(wgt), matrix_weight_column(family, 1.3)):
            assert np.array_equal(got.coeffs, ref.coeffs)
        assert rank_one_factorization_check(wgt, family.sample_points(9, 9.0))

    def test_factorization_check_rejects_another_operator(self):
        # the operator of a neighbouring family fails the written-out column
        wgt = MatrixWeight(family_operator(Jacobi(0.6, -0.3), 2.0), Jacobi(0.5, -0.3), 1.5, 2.0)
        assert not rank_one_factorization_check(wgt, np.linspace(-1, 1, 9))


class TestSobolevInner:
    """Inner products of polynomials, read off ``gram_matrix``."""

    def test_constant_case_positive(self):
        alpha, beta, c, t0 = 0.5, -0.3, 2.0, 1.5
        wgt = jacobi_matrix_weight(alpha, beta, c, t0)
        rule = family_rule(Jacobi(alpha, beta), 6)
        p0 = jacobi_sobolev_poly(alpha, beta, c, t0, 0)
        val = gram_matrix(wgt, [p0], rule)[0, 0]
        # constant case reduces to (g0(t0) g0)^2 * integral (t0 - x) w
        rc = recurrence_coefficients(Jacobi(alpha, beta), 2)
        mass = integrate(rule, lambda x: (t0 - x))
        ref = (orthonormal_values(rc, 0, t0)[0] * rc.g0) ** 2 * mass
        assert val == pytest.approx(ref, rel=1e-12)
        assert val > 0

    def test_matches_operator_route(self):
        # pure algebra: the matrix route equals the product of operator images
        from modkernel.diffop import apply as op_apply
        from modkernel.diffop import jacobi_operator

        alpha, beta, c, t0 = 0.5, -0.3, 2.0, 1.5
        wgt = jacobi_matrix_weight(alpha, beta, c, t0)
        rule = family_rule(Jacobi(alpha, beta), 14)
        op = jacobi_operator(alpha, beta, c)
        rng = np.random.default_rng(17)
        for _ in range(6):
            f = DensePolynomial(rng.standard_normal(7))
            g = DensePolynomial(rng.standard_normal(9))
            got = gram_matrix(wgt, [f, g], rule)[0, 1]
            ref = float(
                np.sum(rule.weights * (t0 - rule.nodes) * op_apply(op, f)(rule.nodes) * op_apply(op, g)(rule.nodes))
            )
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_positive_semidefinite(self):
        wgt = laguerre_matrix_weight(0.5, 1.0, 0.0)
        rule = family_rule(LaguerreNeg(0.5), 18)
        rng = np.random.default_rng(23)
        polys = [DensePolynomial(rng.standard_normal(int(rng.integers(1, 16)))) for _ in range(100)]
        gram = gram_matrix(wgt, polys, rule)
        assert np.diag(gram).min() >= -1e-12
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-12 * eig.max()

    def test_degree_precondition(self):
        wgt = jacobi_matrix_weight(0.0, 0.0, 1.0, 1.0)
        rule = family_rule(Jacobi(0.0, 0.0), 3)
        f = DensePolynomial(np.ones(7))
        with pytest.raises(ValueError, match="degree"):
            gram_matrix(wgt, [f], rule)

    def test_roundoff_past_edge_clamps_with_warning(self):
        from modkernel.quadrature import QuadratureRule

        wgt = jacobi_matrix_weight(0.0, 0.0, 1.0, 1.0)
        # a hand-built rule with one node past t0 stands in for round-off
        rule = QuadratureRule(nodes=np.array([-0.5, 0.5, 1.0 + 1e-15]),
                              weights=np.array([0.5, 0.5, 1e-20]),
                              exact_degree=5, weight_id=Jacobi(0.0, 0.0))
        f = DensePolynomial([1.0, 1.0])
        with pytest.warns(UserWarning, match="clamp") as record:
            val = gram_matrix(wgt, [f], rule)[0, 0]
        assert np.isfinite(val)
        # the warning points at the caller of gram_matrix
        assert record[0].filename == __file__


class TestChebyshevDiagonal:
    def test_inner_products_equal_inverse_pi(self):
        # derived ahead of time from the tilted-kernel diagonal closed form
        # a_hat[n] g_n(1) g_{n+1}(1), and confirmed here by raw quadrature
        c, t0 = 1.0, 1.0
        fam = Chebyshev1()
        wgt = matrix_weight(fam, c, t0)
        rc = recurrence_coefficients(fam, 23)
        rule = gauss_rule(fam, rc, 23)
        gt = orthonormal_values(rc, 22, t0)
        gram = gram_matrix(wgt, [sobolev_poly(fam, c, t0, n) for n in range(21)], rule)
        for n in range(21):
            closed = rc.a_hat[n] * gt[n] * gt[n + 1]
            assert closed == pytest.approx(1.0 / math.pi, rel=1e-12)
            assert gram[n, n] == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_cross_terms_vanish(self):
        c, t0 = 1.0, 1.0
        fam = Chebyshev1()
        wgt = matrix_weight(fam, c, t0)
        rc = recurrence_coefficients(fam, 23)
        rule = gauss_rule(fam, rc, 23)
        polys = [sobolev_poly(fam, c, t0, n) for n in range(21)]
        gram = gram_matrix(wgt, polys, rule)
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-9 * np.diag(gram).min()


class TestGramCertification:
    def test_entries_match_pairwise_inner(self):
        # each entry as the Gram matrix of its pair alone, padded to a lower top degree
        alpha, beta, c, t0 = 0.5, -0.3, 2.0, 1.5
        wgt = jacobi_matrix_weight(alpha, beta, c, t0)
        rule = family_rule(Jacobi(alpha, beta), 8)
        polys = [jacobi_sobolev_poly(alpha, beta, c, t0, n) for n in range(6)]
        gram = gram_matrix(wgt, polys, rule)
        for i in range(6):
            for j in range(6):
                pair = gram_matrix(wgt, [polys[i], polys[j]], rule)[0, 1]
                assert gram[i, j] == pytest.approx(pair, rel=1e-12, abs=1e-12)

    def test_one_by_one(self):
        wgt = laguerre_matrix_weight(0.0, 1.0, 0.0)
        rule = family_rule(LaguerreNeg(0.0), 4)
        gram = gram_matrix(wgt, [laguerre_sobolev_poly(0.0, 1.0, 0.0, 0)], rule)
        assert gram.shape == (1, 1) and gram[0, 0] > 0

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.7])
    @pytest.mark.parametrize("beta", [-0.5, 1.7])
    @pytest.mark.parametrize("c", [0.1, 10.0])
    @pytest.mark.parametrize("t0", [1.0, 2.0])
    def test_jacobi_sweep(self, alpha, beta, c, t0):
        meas = gram_offdiagonal_measures(sobolev_gram(Jacobi(alpha, beta), c, t0, 12))
        assert meas["diag_min"] > 0
        assert meas["normalized"] <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_laguerre_sweep(self, alpha, c, t0):
        meas = gram_offdiagonal_measures(sobolev_gram(LaguerreNeg(alpha), c, t0, 12))
        assert meas["diag_min"] > 0
        assert meas["normalized"] <= 1e-9

    @pytest.mark.parametrize("family,t0", [(Jacobi(0.5, -0.3), 1.5), (Chebyshev1(), 1.0), (LaguerreNeg(0.5), 0.7)])
    def test_table_route_matches_polynomial_route(self, family, t0):
        # the derivative-table Gram against the monomial-coefficient route,
        # entrywise relative to sqrt(G_nn G_mm), at degrees both can reach
        c, n_max = 0.7, 10
        wgt = matrix_weight(family, c, t0)
        polys = [sobolev_poly(family, c, t0, n) for n in range(n_max + 1)]
        ref = gram_matrix(wgt, polys, family_rule(wgt.family, n_max + 2))
        got = sobolev_gram(family, c, t0, n_max)
        d = np.sqrt(np.diag(ref))
        assert (np.abs(got - ref) / np.outer(d, d)).max() <= 1e-10

    @pytest.mark.parametrize("family,n_max", [(Jacobi(0.5, -0.3), 200), (Chebyshev1(), 200), (LaguerreNeg(0.5), 100)])
    def test_certifies_beyond_the_coefficient_cap(self, family, n_max):
        meas = gram_offdiagonal_measures(sobolev_gram(family, 1.0, family.edge, n_max))
        assert meas["diag_min"] > 0
        assert meas["normalized"] <= 1e-9

    def test_normalized_measure_survives_a_graded_diagonal(self):
        # G_nn G_mm = 1e400 overflows; sqrt(G_nn) sqrt(G_mm) = 1e200 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meas = gram_offdiagonal_measures(np.array([[1e200, 1e190], [1e190, 1e200]]))
        assert meas["normalized"] == pytest.approx(1e-10, rel=1e-15)

    def test_chebyshev_beyond_the_edge_certifies_without_warning(self):
        # a diagonal up to 3e166: every pair now counts in the certificate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = sobolev_gram(Chebyshev1(), 10.0, 1.5, 200)
            meas = gram_offdiagonal_measures(gram)
        assert np.diag(gram).max() > 1e166
        assert 0.0 < meas["normalized"] <= 1e-9

    def test_rule_degree_guard(self):
        wgt = jacobi_matrix_weight(0.0, 0.0, 1.0, 1.0)
        rule = family_rule(Jacobi(0.0, 0.0), 4)
        polys = [jacobi_sobolev_poly(0.0, 0.0, 1.0, 1.0, n) for n in range(6)]
        with pytest.raises(ValueError):
            gram_matrix(wgt, polys, rule)


class TestStackedGramOracle:
    """``gram_matrix`` against the written-out column applied per polynomial, bit for bit."""

    CASES = [
        (Jacobi(0.5, -0.3), 1.0, 1.5),
        (Jacobi(2.7, 0.2), 0.13, 1.0),
        (LaguerreNeg(0.5), 1.0, 0.0),
        (LaguerreNeg(3.1), 6.2, 0.8),
        (Chebyshev1(), 1.0, 1.0),
        (Chebyshev1(), 0.4, 2.3),
    ]

    @pytest.mark.parametrize("family,c,t0", CASES)
    def test_equals_per_polynomial_rows(self, family, c, t0):
        wgt = matrix_weight(family, c, t0)
        polys = [sobolev_poly(family, c, t0, n) for n in range(41)]
        for n_max in (0, 1, 5, 12, 30, 40):
            rule = family_rule(wgt.family, n_max + 2)
            got = gram_matrix(wgt, polys[: n_max + 1], rule)
            assert np.array_equal(got, gram_by_operator_images(wgt, polys[: n_max + 1], rule))

    @pytest.mark.parametrize("family,c,t0", CASES)
    def test_mixed_unsorted_degrees_and_zero(self, family, c, t0):
        rng = np.random.default_rng(11)
        wgt = matrix_weight(family, c, t0)
        polys = [DensePolynomial(rng.standard_normal(int(d) + 1)) for d in rng.integers(0, 14, 9)]
        polys += [DensePolynomial.zero(), sobolev_poly(family, c, t0, 13), DensePolynomial.constant(-2.5)]
        polys = [polys[i] for i in rng.permutation(len(polys))]
        rule = family_rule(wgt.family, 14)
        got = gram_matrix(wgt, iter(polys), rule)
        assert np.array_equal(got, gram_by_operator_images(wgt, polys, rule))

    def test_zero_polynomials_only(self):
        wgt = laguerre_matrix_weight(0.0, 1.0, 0.0)
        got = gram_matrix(wgt, [DensePolynomial.zero()] * 2, family_rule(LaguerreNeg(0.0), 1))
        assert got.shape == (2, 2) and not got.any()

    def test_empty_list(self):
        wgt = jacobi_matrix_weight(0.5, -0.3, 1.0, 1.5)
        assert gram_matrix(wgt, [], family_rule(wgt.family, 3)).shape == (0, 0)

    def test_rule_degree_refusal(self):
        # a top degree D needs exactness 2 D + 1, so D + 1 points and no fewer
        wgt = jacobi_matrix_weight(0.5, -0.3, 1.0, 1.5)
        polys = [jacobi_sobolev_poly(0.5, -0.3, 1.0, 1.5, n) for n in (3, 7, 0)]
        with pytest.raises(ValueError, match=r"^rule is exact to degree 13, but the integrand has degree 15$"):
            gram_matrix(wgt, polys, family_rule(wgt.family, 7))
        assert gram_matrix(wgt, polys, family_rule(wgt.family, 8)).shape == (3, 3)
