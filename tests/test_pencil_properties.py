"""Property test of the pencil's solution sweep and its self-residual.

Families with Jacobi alpha, beta and LaguerreNeg alpha in (-0.5, 1.5),
weights all ones, random in [0.5, 1.5) or the plain kernel at the
support edge, n up to 64, at the 21 sample points of the ``pencil``
command.  ``associated_values`` must reproduce the per-row loop of
``tests/oracles.py`` bit for bit, and the scaled five-term residual of
its solution must hold the command's default tolerance 1e-10.  The
weighted-sum certificate is not asserted: ROADMAP item 2 records where
it fails.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modkernel.kernels import PlainKernel, generate_weights  # noqa: E402
from modkernel.pencil import WeightSequence, associated_values, build_pencil_formulas, five_term_residual  # noqa: E402
from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg, recurrence_coefficients  # noqa: E402
from oracles import associated_values_loop  # noqa: E402

params = st.floats(min_value=-0.5, max_value=1.5, exclude_min=True, exclude_max=True, allow_nan=False)
families = st.one_of(
    st.builds(Jacobi, params, params),
    st.builds(LaguerreNeg, params),
    st.just(Chebyshev1()),
)
TOL_RESID = 1e-10  # the pencil command's --tol-resid default


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=families,
    source=st.sampled_from(["ones", "random", "kernel"]),
    wseed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=0, max_value=64),
)
def test_sweep_matches_loop_and_holds_its_residual(family, source, wseed, n):
    rc = recurrence_coefficients(family, n + 3)
    if source == "ones":
        w = WeightSequence(np.ones(n + 4))
    elif source == "random":
        w = WeightSequence(0.5 + np.random.default_rng(wseed).random(n + 4))
    else:
        w = generate_weights(family, rc, PlainKernel(t0=family.edge), n + 3)
    pen = build_pencil_formulas(rc, w, n + 1)
    lams = family.sample_points(21, 12.0)
    vals = associated_values(pen, lams, n)
    assert np.array_equal(vals, associated_values_loop(pen, lams, n))
    if n >= 2:
        assert five_term_residual(pen, vals, lams, scaled=True) <= TOL_RESID
