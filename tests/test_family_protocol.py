"""Property tests of the family protocol over the documented parameter domains.

Jacobi alpha, beta and LaguerreNeg alpha range over (-1, 2]; Chebyshev1
has no parameter.  Tolerances are those of the acceptance criteria the
properties generalize (12: quadrature exactness, 07: eigen-relations,
03 and 04: Sobolev Gram diagonality).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modkernel.acceptance import CRITERIA  # noqa: E402
from modkernel.diffop import verify_eigen_relation  # noqa: E402
from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg  # noqa: E402
from modkernel.quadrature import gauss_rule, moment_residual  # noqa: E402
from modkernel.sobolev import gram_offdiagonal_measures, sobolev_gram  # noqa: E402

TOLERANCE = {c.name: c.tolerance for c in CRITERIA}
EIGEN_TOL = TOLERANCE["criterion-07-eigen-relations"]
EXACTNESS_TOL = TOLERANCE["criterion-12-quadrature-exactness"]
GRAM_TOL = TOLERANCE["criterion-03-jacobi-gram"]  # criterion 04 shares it

params = st.floats(min_value=-1.0, max_value=2.0, exclude_min=True, allow_nan=False)
families = st.one_of(
    st.builds(Jacobi, params, params),
    st.builds(LaguerreNeg, params),
    st.just(Chebyshev1()),
)
# the Gram certificate degrades as a parameter nears -1, so its domain starts at -1/2
gram_params = st.floats(min_value=-0.5, max_value=2.0, exclude_min=True, allow_nan=False)
gram_families = st.one_of(
    st.builds(Jacobi, gram_params, gram_params),
    st.builds(LaguerreNeg, gram_params),
    st.just(Chebyshev1()),
)
checked = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@checked
@given(family=families, n_points=st.integers(min_value=1, max_value=30))
def test_moments_match_rule_from_recurrence(family, n_points):
    rule = gauss_rule(family, family.recurrence(n_points), n_points)
    assert moment_residual(rule) <= EXACTNESS_TOL


@checked
@given(family=families, c=st.floats(min_value=0.01, max_value=10.0), n_max=st.integers(min_value=0, max_value=15))
def test_operator_has_spectral_eigenvalues(family, c, n_max):
    assert max(verify_eigen_relation(family, c, n_max)) <= EIGEN_TOL


@checked
@given(
    family=gram_families,
    c=st.floats(min_value=0.1, max_value=10.0),
    beyond_edge=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    n_max=st.integers(min_value=0, max_value=60),
)
def test_sobolev_gram_is_diagonal(family, c, beyond_edge, n_max):
    meas = gram_offdiagonal_measures(sobolev_gram(family, c, family.edge + beyond_edge, n_max))
    assert meas["diag_min"] > 0.0
    assert meas["normalized"] <= GRAM_TOL
