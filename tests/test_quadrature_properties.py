"""Property tests of the Gauss rule solver against the QL oracle.

Jacobi alpha, beta range over (-0.999, 40), LaguerreNeg alpha over
(-0.99, 40), with N up to 150: wide enough that the asymptotic seeds
fail and the counting repair runs on some draws.  Of the 80 draws, the
repair runs for 3 of the 49 Jacobi rules (27 with interior seeds
alone, before the Bessel-zero seeds near both ends) and for 4 of the 13
LaguerreNeg rules.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg, recurrence_coefficients  # noqa: E402
from modkernel.quadrature import QuadratureRangeError, gauss_rule  # noqa: E402

from oracles import ql_gauss_rule  # noqa: E402

jacobi_params = st.floats(min_value=-0.999, max_value=40.0, exclude_min=True, exclude_max=True)
laguerre_params = st.floats(min_value=-0.99, max_value=40.0, exclude_min=True, exclude_max=True)
families = st.one_of(
    st.builds(Jacobi, jacobi_params, jacobi_params),
    st.builds(LaguerreNeg, laguerre_params),
    st.just(Chebyshev1()),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=families, n=st.integers(min_value=1, max_value=150))
def test_rule_matches_ql_oracle(family, n):
    rc = recurrence_coefficients(family, n)
    nodes, weights = ql_gauss_rule(rc.b_hat, rc.a_hat, rc.mu0, n)
    try:
        rule = gauss_rule(family, rc, n)
    except QuadratureRangeError:
        # only where the QL weights underflow as well
        assert np.any(weights == 0.0)
        return
    lo, hi = family.support
    assert lo < rule.nodes[0] and rule.nodes[-1] < hi
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.weights.sum() == pytest.approx(rc.mu0, rel=1e-12)
    assert np.abs(rule.nodes - nodes).max() <= 1e-13 * max(1.0, np.abs(nodes).max())
