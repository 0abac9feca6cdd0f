"""Acceptance battery: one test per criterion of ``modkernel.acceptance``.

Case lists, measures, tolerances and time budgets live only in the
registry; each test here is named after its criterion's measure function
and asserts the registry's verdict.  Run pytest with -s to see one
PASS/FAIL line per criterion.
"""

import itertools
import math

import numpy as np
import pytest

from modkernel import acceptance
from modkernel.acceptance import CRITERIA, evaluate
from modkernel.kernels import quadratic_discriminant, sobolev_poly
from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg


def _criterion_test(criterion):
    def test():
        verdict = evaluate(criterion)
        print(verdict.summary, verdict.details)
        assert verdict.passed, f"{verdict.summary} {verdict.details}"

    test.__name__ = test.__qualname__ = f"test_{criterion.measure.__name__}"
    return test


for _criterion in CRITERIA:
    _test = _criterion_test(_criterion)
    globals()[_test.__name__] = _test


def test_nan_case_reading_fails_its_criterion(monkeypatch):
    # one NaN among the twelve case readings of criterion 01 must not be folded away
    calls = itertools.count()
    real = acceptance.weighted_sum_residual

    def nan_in_second_case(*args):
        value = real(*args)
        return math.nan if next(calls) == 1 else value

    monkeypatch.setattr(acceptance, "weighted_sum_residual", nan_in_second_case)
    criterion = next(c for c in CRITERIA if c.name == "criterion-01-recurrence-equivalence")
    verdict = evaluate(criterion)
    assert next(calls) == 12
    assert not verdict.passed and math.isnan(verdict.measured)


# the 12 coefficient sets of criterion 05 and the 7 quadratics of criterion 11
CRITERION_05_CASES = [(family, c, 1.0, n) for family in (Chebyshev1(), Jacobi(-0.5, -0.5))
                      for c in (0.1, 1.0, 10.0) for n in (1, 2)]
CRITERION_11_CASES = [(Chebyshev1(), 0.1, 1.0, 2)] + [
    (LaguerreNeg(0.0), c, 0.0, 2) for c in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)]


@pytest.mark.parametrize("family, c, t0, n", CRITERION_05_CASES + CRITERION_11_CASES)
def test_taylor_coefficients_equal_the_monomial_route(family, c, t0, n):
    # the battery's Taylor coefficients u^(j)(0) / j! are the monomial sum's coefficients, bit for bit
    got = acceptance._ascending_coefficients(family, c, t0, n)
    ref = sobolev_poly(family, c, t0, n).coeffs
    assert np.array_equal(got, ref)
    if n == 2:
        assert quadratic_discriminant(*got[::-1]) == quadratic_discriminant(*ref[::-1])
