import math

import numpy as np
import pytest

from modkernel.pencil import (
    BandedMatrix,
    WeightSequence,
    associated_polynomials,
    associated_values,
    build_pencil_formulas,
    build_pencil_matrices,
    five_term_residual,
    path_equivalence_residual,
    pencil_to_banded,
    weighted_sum_residual,
)
from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg, orthonormal_values, recurrence_coefficients


def cheb_rc(n):
    return recurrence_coefficients(Chebyshev1(), n)


class TestWeightSequence:
    def test_rejects_nonpositive_with_index(self):
        with pytest.raises(ValueError, match=r"c\[2\]"):
            WeightSequence([1.0, 2.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"c\[1\]"):
            WeightSequence([1.0, -3.0])

    def test_basic_access(self):
        w = WeightSequence([1.0, 2.0, 3.0])
        assert len(w) == 3 and w[1] == 2.0
        with pytest.raises(ValueError):
            w.require(3)


class TestBandedMatrix:
    def test_roundtrip_and_transpose(self):
        m = BandedMatrix(5)
        m.set_band(0, [1.0, 2.0, 3.0, 4.0, 5.0])
        m.set_band(-1, [6.0, 7.0, 8.0, 9.0])
        m.set_band(2, [10.0, 11.0, 12.0])
        dense = m.to_dense()
        assert dense[2, 1] == 7.0 and dense[1, 3] == 11.0
        np.testing.assert_allclose(m.transpose().to_dense(), dense.T)
        assert m.bandwidth == 2
        assert m[0, 4] == 0.0

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        a = BandedMatrix(8)
        a.set_band(0, rng.standard_normal(8))
        a.set_band(-1, rng.standard_normal(7))
        b = BandedMatrix(8)
        b.set_band(0, rng.standard_normal(8))
        b.set_band(1, rng.standard_normal(7))
        b.set_band(-1, rng.standard_normal(7))
        np.testing.assert_allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-14)

    def test_neg(self):
        m = BandedMatrix(3)
        m.set_band(0, [1.0, -2.0, 3.0])
        np.testing.assert_allclose((-m).to_dense(), -m.to_dense())


class TestFormulaPath:
    def test_unit_weights_fixture(self):
        # direct substitution: a_n = 1, b_n = -2, gamma_n = a_hat[n+1]
        rc = cheb_rc(15)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(16)), 10)
        np.testing.assert_allclose(pen.a, 1.0, rtol=1e-15)
        np.testing.assert_allclose(pen.b, -2.0, rtol=1e-15)
        np.testing.assert_allclose(pen.gamma_band, rc.a_hat[1:12], rtol=1e-15)

    def test_chebyshev_starting_scalars(self):
        rc = cheb_rc(10)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(11)), 5)
        assert pen.alpha_tilde == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert pen.beta_tilde == pytest.approx(1.0, rel=1e-15)

    def test_sign_structure(self):
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 12)
        rng = np.random.default_rng(11)
        pen = build_pencil_formulas(rc, WeightSequence(0.5 + rng.random(13)), 8)
        assert np.all(pen.a > 0)
        assert np.all(pen.b < 0)
        assert np.all(pen.gamma_band > 0)
        assert pen.alpha_tilde > 0

    def test_coverage_errors(self):
        rc = cheb_rc(10)
        with pytest.raises(ValueError):
            build_pencil_formulas(rc, WeightSequence(np.ones(5)), 8)


class TestMatrixPath:
    def test_unit_weights_interior(self):
        rc = cheb_rc(10)
        t3, _ = build_pencil_matrices(rc, WeightSequence(np.ones(10)), 5)
        d = t3.to_dense()
        np.testing.assert_allclose(np.diag(d)[:3], -2.0, rtol=1e-15)
        np.testing.assert_allclose(np.diag(d, 1)[:3], 1.0, rtol=1e-15)

    def test_second_subdiagonal_is_gamma(self):
        rc = recurrence_coefficients(Jacobi(0.2, 0.8), 14)
        rng = np.random.default_rng(5)
        w = WeightSequence(0.5 + rng.random(14))
        _, p5 = build_pencil_matrices(rc, w, 12)
        pen = build_pencil_formulas(rc, w, 9)
        for n in range(8):
            assert p5[n + 2, n] == pytest.approx(pen.gamma_band[n], rel=1e-13)
            assert p5[n + 2, n] == pytest.approx(rc.a_hat[n + 1] / (w[n + 1] * w[n + 2]), rel=1e-13)

    @pytest.mark.parametrize("family", [Chebyshev1(), Jacobi(0.5, -0.3), LaguerreNeg(0.0)])
    def test_paths_agree_on_interior(self, family):
        rc = recurrence_coefficients(family, 12)
        rng = np.random.default_rng(20260808)
        w = WeightSequence(0.5 + rng.random(12))
        assert path_equivalence_residual(rc, w, 12) <= 1e-13

    def test_paths_agree_large_truncation(self):
        rc = cheb_rc(200)
        rng = np.random.default_rng(99)
        w = WeightSequence(0.5 + rng.random(200))
        assert path_equivalence_residual(rc, w, 200) <= 1e-12

    def test_small_truncation_rejected(self):
        rc = cheb_rc(5)
        with pytest.raises(ValueError):
            build_pencil_matrices(rc, WeightSequence(np.ones(5)), 2)

    def test_pencil_to_banded_symmetry(self):
        rc = cheb_rc(12)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(13)), 9)
        t3, p5 = pencil_to_banded(pen, 8)
        np.testing.assert_allclose(t3.to_dense(), t3.to_dense().T)
        np.testing.assert_allclose(p5.to_dense(), p5.to_dense().T)


class TestAssociatedPolynomials:
    def test_initial_values(self):
        rc = cheb_rc(12)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(13)), 9)
        polys = associated_polynomials(pen, 6)
        assert polys[0].degree == 0 and polys[0].coeffs[0] == 1.0
        np.testing.assert_allclose(polys[1].coeffs, [pen.beta_tilde, pen.alpha_tilde], rtol=1e-15)

    def test_degrees(self):
        rc = recurrence_coefficients(LaguerreNeg(0.0), 14)
        rng = np.random.default_rng(2)
        pen = build_pencil_formulas(rc, WeightSequence(0.5 + rng.random(15)), 11)
        polys = associated_polynomials(pen, 12)
        assert [p.degree for p in polys] == list(range(13))

    def test_matches_normalized_weighted_sums(self):
        # unit weights, order 10: compare against the direct summation route
        rc = cheb_rc(14)
        w = WeightSequence(np.ones(15))
        pen = build_pencil_formulas(rc, w, 11)
        polys = associated_polynomials(pen, 10)
        xs = np.linspace(-1.0, 1.0, 20)
        g = orthonormal_values(rc, 10, xs)
        ref = np.cumsum(g, axis=0) / rc.g0
        for n in range(11):
            scale = max(1.0, float(np.abs(ref[n]).max()))
            assert np.abs(polys[n](xs) - ref[n]).max() <= 1e-9 * scale

    def test_values_match_coefficients(self):
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 16)
        rng = np.random.default_rng(8)
        w = WeightSequence(0.5 + rng.random(17))
        pen = build_pencil_formulas(rc, w, 13)
        xs = np.linspace(-1.0, 1.0, 11)
        vals = associated_values(pen, xs, 12)
        polys = associated_polynomials(pen, 12)
        for n in range(13):
            np.testing.assert_allclose(vals[n], polys[n](xs), rtol=1e-9, atol=1e-9)


class TestFiveTermResidual:
    def test_self_consistency(self):
        rc = cheb_rc(14)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(15)), 11)
        polys = associated_polynomials(pen, 10)
        assert five_term_residual(pen, polys, np.linspace(-1, 1, 15), scaled=True) <= 1e-10

    def test_direct_sums_satisfy_relation(self):
        rc = recurrence_coefficients(LaguerreNeg(0.0), 14)
        w = WeightSequence(1.0 / (np.arange(15.0) + 1.0) ** 2 + 1.0)
        pen = build_pencil_formulas(rc, w, 11)
        xs = np.linspace(-9.0, 0.0, 13)
        u = np.cumsum(w.c[:11, None] * orthonormal_values(rc, 10, xs), axis=0)
        vals = u / (w[0] * rc.g0)
        assert five_term_residual(pen, vals, xs, scaled=True) <= 1e-9

    def test_detects_perturbation(self):
        rc = cheb_rc(14)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(15)), 11)
        polys = associated_polynomials(pen, 10)
        broken = list(polys)
        bumped = broken[3].coeffs.copy()
        bumped[1] += 1e-3
        from modkernel.polycore import DensePolynomial

        broken[3] = DensePolynomial(bumped)
        assert five_term_residual(pen, broken, np.linspace(-1, 1, 15)) > 1e-4

    def test_needs_three_polynomials(self):
        rc = cheb_rc(14)
        pen = build_pencil_formulas(rc, WeightSequence(np.ones(15)), 11)
        with pytest.raises(ValueError):
            five_term_residual(pen, associated_polynomials(pen, 1), [0.0])


def test_weighted_sum_residual_detects_perturbation():
    rc = cheb_rc(14)
    w = WeightSequence(np.ones(15))
    xs = np.linspace(-1.0, 1.0, 9)
    vals = associated_values(build_pencil_formulas(rc, w, 11), xs, 10)
    assert weighted_sum_residual(rc, w, vals, xs) <= 1e-12
    vals[4] *= 1.0 + 1e-6
    assert weighted_sum_residual(rc, w, vals, xs) > 1e-7
