"""Property test of both Bessel integral routes against mpmath.

``laguerre_via_bessel`` against ``mpmath.laguerre`` and the double
integral ``sobolev_laguerre_integral_rep`` against the sum
sum_{k<=n} L_k^alpha(-x) / ((k + c) Gamma(alpha + 1)) in 40 digits, over
the domain of the ``integral-table`` benchmark widened in alpha: alpha
in [-0.9, 3], n up to 6, c in {1, 2, 3} and x in [-8, -0.1].  The
tolerance is the integral routes' own, relative to max(|ref|, 1).
``zeroprec`` lets mpmath return an exact zero such as L_1^0(1) = 0
instead of raising.
"""

import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modkernel.acceptance import TOLERANCES  # noqa: E402
from modkernel.integralrep import laguerre_via_bessel, sobolev_laguerre_integral_rep  # noqa: E402

TOL = TOLERANCES["bessel-integral-representation"]
alphas = st.floats(min_value=-0.9, max_value=3.0, allow_nan=False)
orders = st.integers(min_value=0, max_value=6)
xs = st.floats(min_value=-8.0, max_value=-0.1, allow_nan=False)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(alpha=alphas, n=orders, x=xs)
def test_laguerre_via_bessel_matches_mpmath(alpha, n, x):
    with mpmath.workdps(40):
        ref = float(mpmath.laguerre(n, alpha, -x, zeroprec=300))
    assert abs(laguerre_via_bessel(alpha, n, x) - ref) <= TOL * max(abs(ref), 1.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(alpha=alphas, n=orders, c=st.sampled_from([1, 2, 3]), x=xs)
def test_double_integral_matches_mpmath(alpha, n, c, x):
    with mpmath.workdps(40):
        terms = [mpmath.laguerre(k, alpha, -x, zeroprec=300) / (k + c) for k in range(n + 1)]
        ref = float(mpmath.fsum(terms) / mpmath.gamma(alpha + 1))
    assert abs(sobolev_laguerre_integral_rep(alpha, c, n, x) - ref) <= TOL * max(abs(ref), 1.0)
