import dataclasses
import math

import numpy as np
import pytest

from modkernel.kernels import EigScaledKernel, PlainKernel, SecondKind, generate_weights
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
from modkernel.polycore import (
    Chebyshev1,
    DensePolynomial,
    Jacobi,
    LaguerreNeg,
    RecurrenceCoefficients,
    orthonormal_values,
    recurrence_coefficients,
)
from oracles import associated_values_loop, five_term_residual_loop


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


ORACLE_FAMILIES = {"jacobi": Jacobi(0.5, -0.3), "chebyshev": Chebyshev1(), "laguerre": LaguerreNeg(0.5)}
ORACLE_SOURCES = ("ones", "random", "kernel", "eigkernel", "secondkind")


def edge_pencil(family, source: str, n: int):
    """Pencil for rows 0..n + 1 from one of the five weight sources, kernels at the support edge."""
    rc = recurrence_coefficients(family, n + 3)
    if source == "ones":
        w = WeightSequence(np.ones(n + 4))
    elif source == "random":
        w = WeightSequence(0.5 + np.random.default_rng(17).random(n + 4))
    else:
        rule = {
            "kernel": PlainKernel(t0=family.edge),
            "eigkernel": EigScaledKernel(c=2.0, t0=family.edge),
            "secondkind": SecondKind(t0=family.edge + 0.5),
        }[source]
        w = generate_weights(family, rc, rule, n + 3)
    return build_pencil_formulas(rc, w, n + 1)


class TestOneStepOracles:
    """The array forms reproduce the per-row loops of ``tests/oracles.py`` bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 64, 200])
    @pytest.mark.parametrize("source", ORACLE_SOURCES)
    @pytest.mark.parametrize("fam", sorted(ORACLE_FAMILIES))
    def test_sweep_and_residual_match_loops(self, fam, source, n):
        family = ORACLE_FAMILIES[fam]
        pen = edge_pencil(family, source, n)
        # the list form at n = 200 costs about 0.5 s a case; one case below covers it
        polys = associated_polynomials(pen, n) if n <= 64 else None
        for count in (1, 21):
            lams = family.sample_points(count, 12.0)
            vals = associated_values(pen, lams, n)
            assert np.array_equal(vals, associated_values_loop(pen, lams, n))
            if n < 2:
                continue
            bumped = vals * (1.0 + 1e-9 * np.random.default_rng(n).standard_normal(vals.shape))
            for scaled in (False, True):
                for given in (vals, bumped):
                    assert five_term_residual(pen, given, lams, scaled) == five_term_residual_loop(pen, given, lams, scaled)
                if polys is not None:
                    assert five_term_residual(pen, polys, lams, scaled) == five_term_residual_loop(pen, polys, lams, scaled)

    def test_scalar_sample_point(self):
        pen = edge_pencil(ORACLE_FAMILIES["jacobi"], "kernel", 12)
        vals = associated_values(pen, 0.25, 12)
        assert np.array_equal(vals, associated_values_loop(pen, 0.25, 12))
        for scaled in (False, True):
            assert five_term_residual(pen, vals, 0.25, scaled) == five_term_residual_loop(pen, vals, 0.25, scaled)

    @pytest.mark.parametrize("seed", range(4))
    def test_any_term_may_set_the_scale(self, seed):
        # random bands over six orders of magnitude and one large value per
        # index, so each of the five terms of a row is at times the largest
        rng = np.random.default_rng(seed)
        size = 12

        def spread():
            return 10.0 ** rng.uniform(-3.0, 3.0, size)

        pen = dataclasses.replace(
            build_pencil_formulas(cheb_rc(size + 1), WeightSequence(np.ones(size + 2)), size - 1),
            a=spread(), b=rng.standard_normal(size) * spread(), alpha_band=rng.standard_normal(size) * spread(),
            beta_band=rng.standard_normal(size) * spread(), gamma_band=spread(),
        )
        lams = np.array([0.0, 0.5])
        for j in range(size + 1):
            vals = rng.standard_normal((size + 1, 2))
            vals[j] *= 1e4
            for scaled in (False, True):
                assert five_term_residual(pen, vals, lams, scaled) == five_term_residual_loop(pen, vals, lams, scaled)

    def test_polynomial_list_at_degree_200(self):
        pen = edge_pencil(ORACLE_FAMILIES["chebyshev"], "random", 200)
        polys = associated_polynomials(pen, 200)
        lams = np.linspace(-1.0, 1.0, 21)
        for scaled in (False, True):
            assert five_term_residual(pen, polys, lams, scaled) == five_term_residual_loop(pen, polys, lams, scaled)


class TestPencilErrors:
    def test_residual_needs_index_two(self):
        pen = edge_pencil(Chebyshev1(), "ones", 4)
        for form in (associated_values(pen, [0.0], 1), associated_polynomials(pen, 1)):
            with pytest.raises(ValueError, match=r"^need polynomials up to index 2 to form a residual row$"):
                five_term_residual(pen, form, [0.0])

    def test_values_need_rows_and_columns(self):
        pen = edge_pencil(Chebyshev1(), "ones", 4)
        vals = associated_values(pen, [0.25], 4)
        with pytest.raises(ValueError, match=r"^precomputed values need one row per index"):
            five_term_residual(pen, vals[:, 0], 0.25)

    def test_sweep_names_missing_rows(self):
        pen = edge_pencil(Chebyshev1(), "ones", 4)  # bands cover rows 0..5
        assert associated_values(pen, [0.0], 7).shape == (8, 1)
        with pytest.raises(ValueError, match=r"^pencil bands cover rows 0\.\.5, need 0\.\.6$"):
            associated_values(pen, [0.0], 8)

    def test_residual_names_missing_rows(self):
        pen = edge_pencil(Chebyshev1(), "ones", 4)
        short = dataclasses.replace(pen, a=pen.a[:3], b=pen.b[:3], alpha_band=pen.alpha_band[:3],
                                    beta_band=pen.beta_band[:3], gamma_band=pen.gamma_band[:3])
        vals = associated_values(pen, [0.0, 0.5], 6)
        assert five_term_residual(short, vals[:5], [0.0, 0.5]) >= 0.0
        with pytest.raises(ValueError, match=r"^pencil bands cover rows 0\.\.2, need 0\.\.4$"):
            five_term_residual(short, vals, [0.0, 0.5])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteReadings:
    """A NaN or inf in the values or bands must never read as a pass."""

    TOL = 1e-10

    @pytest.fixture
    def solved(self):
        pen = edge_pencil(Jacobi(0.5, -0.3), "kernel", 20)
        lams = np.linspace(-1.0, 1.0, 21)
        return pen, lams, associated_values(pen, lams, 20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["one", "all", "last"])
    def test_values(self, solved, bad, where):
        pen, lams, vals = solved
        vals = vals.copy()
        if where == "one":
            vals[7, 3] = bad
        elif where == "all":
            vals[:] = bad
        else:
            vals[-1, -1] = bad
        for scaled in (False, True):
            assert not five_term_residual(pen, vals, lams, scaled) <= self.TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("band", ["b", "alpha_band", "beta_band"])
    def test_bands(self, solved, bad, band):
        pen, lams, vals = solved
        broken = getattr(pen, band).copy()
        broken[5] = bad
        pen = dataclasses.replace(pen, **{band: broken})
        for scaled in (False, True):
            assert not five_term_residual(pen, vals, lams, scaled) <= self.TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_construction_paths(self, bad):
        rc = recurrence_coefficients(Jacobi(0.5, -0.3), 20)
        w = WeightSequence(0.5 + np.random.default_rng(4).random(20))
        assert path_equivalence_residual(rc, w, 20) <= 1e-12
        b_hat = rc.b_hat.copy()
        b_hat[6] = bad
        broken = RecurrenceCoefficients(rc.a_hat, b_hat, rc.mu0)
        assert not path_equivalence_residual(broken, w, 20) <= 1e-12
