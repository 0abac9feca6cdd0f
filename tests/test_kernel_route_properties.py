"""Property test of the two routes to the eigenvalue-scaled kernel sums.

``sobolev_poly`` builds monomial coefficients; ``sobolev_tables`` sums
the differentiated recurrence at the points.  Criteria 05 and 11 read
the first route and the Gram and operator checks the second, so they
must agree.  Jacobi alpha, beta and LaguerreNeg alpha range over
(-1, 2], c over [0.01, 10], t0 up to 2 beyond the edge, n up to 20.
The tolerance is that of
``test_polycore.py::test_derivative_tables_match_coefficient_derivatives``:
1e-8 relative plus the coefficient-representation floor
eps * sum |c_k| |x|^k of each differentiated polynomial.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modkernel.kernels import sobolev_poly, sobolev_tables  # noqa: E402
from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg  # noqa: E402

params = st.floats(min_value=-1.0, max_value=2.0, exclude_min=True, allow_nan=False)
families = st.one_of(
    st.builds(Jacobi, params, params),
    st.builds(LaguerreNeg, params),
    st.just(Chebyshev1()),
)
EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=families,
    c=st.floats(min_value=0.01, max_value=10.0),
    beyond_edge=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    n=st.integers(min_value=0, max_value=20),
)
def test_coefficients_match_tables(family, c, beyond_edge, n):
    t0 = family.edge + beyond_edge
    xs = family.sample_points(15, 20.0)
    tables = sobolev_tables(family, c, t0, n, xs, 2)[:, n]
    p = sobolev_poly(family, c, t0, n)
    for j in range(3):
        ref = p(xs)
        floor = EPS * np.polyval(np.abs(p.coeffs[::-1]), np.abs(xs))
        assert np.all(np.abs(tables[j] - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)) + floor)
        p = p.derivative()
