import math

import numpy as np
import pytest

from modkernel import integralrep, quadrature
from modkernel.gammafn import gamma_fn
from modkernel.integralrep import (
    CutoffError,
    SeriesRangeError,
    bessel_j,
    f_n_partial_sum,
    integral_rep_errors,
    laguerre_via_bessel,
    sobolev_laguerre_closed_form,
    sobolev_laguerre_integral_rep,
)
from modkernel.polycore import Jacobi

from oracles import bessel_series_oracle, hyp2f0_terminating, laguerre_poly_value

# orders and arguments of the series scan: w = 350 is 2 sqrt(w) = 37.4,
# beyond bessel_j's range of 30 and inside the integral routes' range
SCAN_NU = (0.0, 0.5, 1.0, 2.0, 3.0, 1.3)
SCAN_W = np.linspace(0.0, 350.0, 400)
# x grid of the mpmath oracles of both integral routes, down to x = -12
ROUTE_X = (-0.1, -1.0, -5.0, -12.0)


def clear_route_caches():
    """Empty the Bessel column and inner factor caches, so a count starts cold."""
    integralrep._bessel_column.cache_clear()
    integralrep._inner_factor.cache_clear()


class TestBessel:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z
        for z in (0.3, 1.0, math.pi / 2, 7.0):
            ref = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
            assert bessel_j(0.5, z) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_first_zero_of_j0(self):
        assert bessel_j(0.0, 2.404826) == pytest.approx(0.0, abs=1e-6)
        # bracket the zero properly
        assert bessel_j(0.0, 2.40) * bessel_j(0.0, 2.41) < 0

    def test_series_satisfies_defining_ode(self):
        # z^2 J'' + z J' + (z^2 - nu^2) J = 0 via finite differences
        nu, z, h = 1.3, 4.0, 1e-4
        f0 = bessel_j(nu, z)
        fp = (bessel_j(nu, z + h) - bessel_j(nu, z - h)) / (2 * h)
        fpp = (bessel_j(nu, z + h) - 2 * f0 + bessel_j(nu, z - h)) / (h * h)
        assert z * z * fpp + z * fp + (z * z - nu * nu) * f0 == pytest.approx(0.0, abs=1e-5)

    def test_vector_input(self):
        z = np.array([0.0, 0.5, 2.0])
        out = bessel_j(0.0, z)
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_range_refusal(self):
        with pytest.raises(SeriesRangeError):
            bessel_j(0.0, 31.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)


class TestBesselSeriesKernel:
    """The one-pass series against the per-term loop it replaced."""

    @staticmethod
    def _check(nu, w):
        tol = 1e-15
        got, est = integralrep._bessel_reg(nu, w, tol)
        ref, ref_est, ref_terms = bessel_series_oracle(nu, w, tol, gamma_fn(nu + 1.0))
        assert integralrep._bessel_block(nu, np.asarray(w, dtype=np.longdouble), tol)[2] >= ref_terms
        assert np.all(np.abs(got - ref) <= est + np.spacing(np.abs(got)))
        np.testing.assert_allclose(est, ref_est, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("nu", SCAN_NU)
    def test_matches_per_term_loop_on_scan(self, nu):
        self._check(nu, SCAN_W)
        for w in SCAN_W[::25]:
            self._check(nu, np.array([w]))

    def test_matches_per_term_loop_on_integral_run(self, monkeypatch):
        calls = []
        kernel = integralrep._bessel_reg
        monkeypatch.setattr(integralrep, "_bessel_reg",
                            lambda nu, w, tol: calls.append((nu, np.array(w))) or kernel(nu, w, tol))
        clear_route_caches()
        integral_rep_errors(0.5, 2, 6, (-0.5, -1.0, -5.0))
        monkeypatch.undo()
        assert len(calls) == 21
        for nu, w in calls:
            self._check(nu, w)

    @pytest.mark.parametrize("nu", SCAN_NU)
    def test_error_within_estimate(self, nu):
        # A_nu(w) = 0F1(; nu + 1; -w) / Gamma(nu + 1); the estimate covers
        # the series, not the error of Gamma(nu + 1), so the exact value
        # takes the package's Gamma(nu + 1)
        mpmath = pytest.importorskip("mpmath")
        got, est = integralrep._bessel_reg(nu, SCAN_W, 1e-15)
        with mpmath.workdps(50):
            gamma = mpmath.mpf(gamma_fn(nu + 1.0))
            for w, value, bound in zip(SCAN_W, got, est):
                exact = mpmath.hyp0f1(mpmath.mpf(nu) + 1, -w) / gamma
                assert abs(mpmath.mpf(value) - exact) <= bound, (w, value, bound)

    def test_blocks_of_arguments(self):
        # more arguments than one block of the term array: each block is summed on its own
        w = np.linspace(0.0, 350.0, 2 * integralrep._BLOCK + 7)
        got, est = integralrep._bessel_reg(1.0, w, 1e-15)
        for lo in range(0, w.size, integralrep._BLOCK):
            block = slice(lo, lo + integralrep._BLOCK)
            ref, ref_est, _ = bessel_series_oracle(1.0, w[block], 1e-15, gamma_fn(2.0))
            assert np.all(np.abs(got[block] - ref) <= est[block] + np.spacing(np.abs(got[block])))
            np.testing.assert_allclose(est[block], ref_est, rtol=1e-15, atol=0.0)

    def test_shape_is_kept(self):
        z = np.linspace(0.5, 7.0, 6)
        assert np.array_equal(bessel_j(1.3, z.reshape(2, 3)), bessel_j(1.3, z).reshape(2, 3))


class TestHyp2F0:
    def test_empty_product(self):
        assert hyp2f0_terminating(0, 5.0) == 1.0

    def test_hand_value(self):
        # n=1, theta=1: 1 + (-1)(1)(-1) = 2
        assert hyp2f0_terminating(1, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 7, 10])
    @pytest.mark.parametrize("theta", [0.25, 1.0, 2.0, 9.5])
    def test_partial_exponential_identity(self, n, theta):
        # (theta^n / n!) * value == sum_{j<=n} theta^j / j!
        lhs = theta**n / math.factorial(n) * hyp2f0_terminating(n, theta)
        rhs = sum(theta**j / math.factorial(j) for j in range(n + 1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_specific_sum(self):
        # theta=2, n=4: 1 + 2 + 2 + 4/3 + 2/3 = 7
        lhs = 2.0**4 / math.factorial(4) * hyp2f0_terminating(4, 2.0)
        assert lhs == pytest.approx(7.0, rel=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hyp2f0_terminating(3, 0.0)

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 4, 10, 30])
    def test_inner_integral_holds_the_2f0_form(self, c, n):
        # the inner integral sums theta^(c-1) e_n(theta); on the same rule the
        # 2F0 form theta^(n+c-1) 2F0(-n, 1; -; -1/theta) / n! gives the same value
        t = np.array([0.05, 0.7, 5.0, 20.0])
        rule = quadrature.family_rule(Jacobi(0.0, 0.0), max(integralrep._INNER_RULE_SIZE, (n + c) // 2 + 2))
        theta = 0.5 * np.multiply.outer(t, rule.nodes + 1.0)
        ref = 0.5 * t * ((theta ** (n + c - 1) * hyp2f0_terminating(n, theta)) @ rule.weights)
        np.testing.assert_allclose(integralrep._inner_integral(n, c, t), ref / math.factorial(n), rtol=1e-13)


class TestLaguerreViaBessel:
    def test_order_zero(self):
        assert laguerre_via_bessel(0.0, 0, -1.0) == pytest.approx(1.0, rel=1e-8)

    def test_vanishing_value_absolute(self):
        # L_1(1) = 0; compare absolutely
        assert laguerre_via_bessel(0.0, 1, -1.0) == pytest.approx(0.0, abs=1e-6)

    def test_matches_recurrence(self):
        assert laguerre_via_bessel(0.5, 3, -2.0) == pytest.approx(
            laguerre_poly_value(0.5, 3, 2.0), rel=1e-6
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 4, 8])
    @pytest.mark.parametrize("x", [-10.0, -4.0, -1.0, -0.1])
    def test_consistency_grid(self, alpha, n, x):
        got = laguerre_via_bessel(alpha, n, x)
        ref = laguerre_poly_value(alpha, n, -x)
        assert abs(got - ref) <= 1e-6 * max(abs(ref), 1.0)

    def test_requires_negative_x(self):
        with pytest.raises(ValueError):
            laguerre_via_bessel(0.0, 2, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("n", [150, 200, 300])
    @pytest.mark.parametrize("x", [-0.1, -0.5])
    def test_past_the_factorial_range(self, alpha, n, x):
        # the rule's mass factor (T/2)^(n+alpha+1) and n! overflowed from n = 150;
        # the Poisson factor e^-t t^n / n! is formed from its logarithm
        mpmath = pytest.importorskip("mpmath")
        ref = float(mpmath.laguerre(n, alpha, -x, zeroprec=300))
        assert abs(laguerre_via_bessel(alpha, n, x) - ref) <= 1e-9 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_refused_at_high_order(self, alpha):
        # at n = 1000 the series on [0, T] cancels beyond the budget
        with pytest.raises(CutoffError):
            laguerre_via_bessel(alpha, 1000, -0.5)


class TestRouteOracles:
    """Both integral routes against mpmath, at the routes' own 1e-5."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", range(7))
    def test_laguerre_via_bessel(self, alpha, n):
        mpmath = pytest.importorskip("mpmath")
        for x in ROUTE_X:
            ref = float(mpmath.laguerre(n, alpha, -x, zeroprec=300))
            assert abs(laguerre_via_bessel(alpha, n, x) - ref) <= 1e-5 * max(abs(ref), 1.0), x

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_sobolev_laguerre_integral_rep(self, alpha, c):
        mpmath = pytest.importorskip("mpmath")
        for x in ROUTE_X:
            with mpmath.workdps(40):
                # g_k(0) g_k(x) for the orthonormal family of (-x)^alpha e^x on (-inf, 0]
                terms = [mpmath.laguerre(k, alpha, 0) * mpmath.laguerre(k, alpha, -x, zeroprec=300)
                         * mpmath.factorial(k) / mpmath.gamma(k + alpha + 1) / (k + c) for k in range(7)]
                sums = [float(mpmath.fsum(terms[: n + 1])) for n in range(7)]
            for n, ref in enumerate(sums):
                got = sobolev_laguerre_integral_rep(alpha, c, n, x)
                assert abs(got - ref) <= 1e-5 * max(abs(ref), 1.0), (n, x)


class TestPartialSumRoutes:
    def test_order_zero(self):
        d, i = f_n_partial_sum(2, 0, 3.0)
        assert d == pytest.approx(0.5, rel=1e-14)
        assert i == pytest.approx(0.5, rel=1e-12)

    def test_hand_value(self):
        d, i = f_n_partial_sum(1, 2, 1.0)
        assert d == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert i == pytest.approx(5.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    @pytest.mark.parametrize("t", [0.05, 0.7, 5.0, 20.0])
    def test_routes_agree(self, c, n, t):
        d, i = f_n_partial_sum(c, n, t)
        assert i == pytest.approx(d, rel=1e-10)

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.05, 0.7, 5.0, 20.0])
    def test_high_order_is_finite(self, c, t):
        # the 2F0 form overflowed at the inner rule's smallest nodes from n = 52
        d, i = f_n_partial_sum(c, 100, t)
        assert math.isfinite(i)
        assert abs(i - d) <= 1e-12 * abs(d)

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [170, 300])
    @pytest.mark.parametrize("t", [0.05, 0.7, 5.0, 20.0])
    def test_past_the_factorial_range(self, c, n, t):
        # (k + c) k! passed the largest double from n = 170 before the term ratio t / k
        d, i = f_n_partial_sum(c, n, t)
        assert abs(i - d) <= 1e-12 * abs(d)

    def test_overflow_is_named(self):
        with pytest.raises(SeriesRangeError, match=r"inner factor .* c = 1, n = 900 overflows"):
            f_n_partial_sum(1, 900, 800.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_n_partial_sum(0, 2, 1.0)
        with pytest.raises(ValueError):
            f_n_partial_sum(1.5, 2, 1.0)
        with pytest.raises(ValueError):
            f_n_partial_sum(1, 2, 0.0)


class TestDoubleIntegral:
    def test_order_zero_value(self):
        alpha, c = 0.7, 2
        got = sobolev_laguerre_integral_rep(alpha, c, 0, -1.3)
        assert got == pytest.approx(1.0 / (c * math.gamma(alpha + 1.0)), rel=1e-8)

    def test_example_value(self):
        got = sobolev_laguerre_integral_rep(0.0, 1, 2, -1.0)
        ref = sum(laguerre_poly_value(0.0, k, 1.0) / (k + 1.0) for k in range(3))
        assert got == pytest.approx(ref, rel=1e-6)

    def test_closed_form_route_matches_raw_recurrence(self):
        # the package's closed-form side against the plain recurrence
        for alpha, c, n, x in ((0.0, 1.0, 3, -2.0), (1.5, 2.0, 5, -0.5)):
            ref = sum(laguerre_poly_value(alpha, k, -x) / (k + c) for k in range(n + 1))
            ref /= math.gamma(alpha + 1.0)
            assert sobolev_laguerre_closed_form(alpha, c, n, x) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_consistency_grid(self, alpha, c):
        assert integral_rep_errors(alpha, c, 6, (-0.5, -1.0, -5.0)).max() <= 1e-5

    def test_higher_alpha_corner(self):
        got = sobolev_laguerre_integral_rep(1.5, 2, 4, -3.0)
        ref = sobolev_laguerre_closed_form(1.5, 2.0, 4, -3.0)
        assert got == pytest.approx(ref, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sobolev_laguerre_integral_rep(0.0, 0, 2, -1.0)
        with pytest.raises(ValueError):
            sobolev_laguerre_integral_rep(0.0, 1.5, 2, -1.0)
        with pytest.raises(ValueError):
            sobolev_laguerre_integral_rep(0.0, 1, 2, 1.0)


class TestRangeLimits:
    @pytest.mark.parametrize("route", [
        lambda x: laguerre_via_bessel(0.5, 1, x),
        lambda x: sobolev_laguerre_integral_rep(0.5, 1, 1, x),
    ])
    def test_prefactor_overflow_is_named(self, route):
        with pytest.raises(SeriesRangeError, match=r"x = -1000000.0 .*-709.78"):
            route(-1e6)
        with pytest.raises(SeriesRangeError):
            route(-710.0)

    @pytest.mark.parametrize("route", [
        lambda x: laguerre_via_bessel(0.5, 1, x),
        lambda x: sobolev_laguerre_integral_rep(0.5, 1, 1, x),
    ])
    def test_nonfinite_result_is_refused(self, route):
        # the Bessel sum overflows before the prefactor does
        with pytest.raises(CutoffError):
            route(-700.0)

    def test_inner_overflow_is_named(self):
        # e_n(theta) passes the largest double on the outer range from about n = 527
        with pytest.raises(SeriesRangeError, match=r"inner factor .* c = 1, n = 600 overflows"):
            sobolev_laguerre_integral_rep(0.0, 1, 600, -0.5)

    def test_cutoff_past_the_overflowing_peak(self):
        # the peak e^(p log p - p) of the outer integrand leaves the double range from p = 171
        assert integralrep._auto_cutoff(200.0) == 348.0
        assert sobolev_laguerre_integral_rep(0.0, 1, 200, -0.5) == pytest.approx(
            sobolev_laguerre_closed_form(0.0, 1.0, 200, -0.5), rel=1e-12)


class TestRuleReuse:
    @pytest.mark.parametrize("route", [
        lambda: laguerre_via_bessel(0.815, 2, -1.5),
        lambda: sobolev_laguerre_integral_rep(0.815, 2, 3, -1.5),
    ])
    def test_second_call_skips_rule_construction(self, route, monkeypatch):
        calls = []
        solver = quadrature._newton_rule
        monkeypatch.setattr(quadrature, "_newton_rule", lambda f, rc, n: calls.append(1) or solver(f, rc, n))
        clear_route_caches()
        quadrature.family_rule.cache_clear()
        first = route()
        built = len(calls)
        assert built >= 1
        assert route() == first
        assert len(calls) == built


class TestRouteCaches:
    @pytest.mark.parametrize("first, second", [
        (lambda: sobolev_laguerre_integral_rep(0.5, 2, 3, -1.5), lambda: laguerre_via_bessel(0.5, 3, -1.5)),
        (lambda: laguerre_via_bessel(0.5, 3, -1.5), lambda: sobolev_laguerre_integral_rep(0.5, 2, 3, -1.5)),
    ])
    def test_second_route_sums_no_series(self, first, second, monkeypatch):
        calls = []
        kernel = integralrep._bessel_reg
        monkeypatch.setattr(integralrep, "_bessel_reg", lambda nu, w, tol: calls.append(1) or kernel(nu, w, tol))
        clear_route_caches()
        first()
        assert len(calls) == 1
        second()
        assert len(calls) == 1

    @pytest.mark.parametrize("x_grid", [(-0.5,), (-0.5, -1.0, -5.0), tuple(np.linspace(-0.2, -6.0, 7))])
    def test_inner_integral_once_per_order(self, x_grid, monkeypatch):
        calls = []
        inner = integralrep._inner_integral
        monkeypatch.setattr(integralrep, "_inner_integral", lambda n, c, t: calls.append(n) or inner(n, c, t))
        clear_route_caches()
        integral_rep_errors(0.5, 2, 4, x_grid)
        assert calls == list(range(5))

    def test_cached_arrays_are_read_only(self):
        sobolev_laguerre_integral_rep(0.5, 2, 3, -1.5)
        arrays = (*integralrep._bessel_column(0.5, 3, -1.5)[1:], integralrep._inner_factor(0.5, 3, 2))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_caches_are_bounded(self):
        clear_route_caches()
        for x in np.linspace(-0.2, -6.0, integralrep._COLUMN_CACHE_SIZE + 4):
            sobolev_laguerre_integral_rep(0.5, 1, 2, float(x))
        assert integralrep._bessel_column.cache_info().currsize == integralrep._COLUMN_CACHE_SIZE
        assert integralrep._inner_factor.cache_info().maxsize == integralrep._INNER_CACHE_SIZE
