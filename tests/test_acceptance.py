"""Acceptance battery: one test per criterion of ``modkernel.acceptance``.

Case lists, measures, tolerances and time budgets live only in the
registry; each test here is named after its criterion's measure function
and asserts the registry's verdict.  Run pytest with -s to see one
PASS/FAIL line per criterion.
"""

import itertools
import math

from modkernel import acceptance
from modkernel.acceptance import CRITERIA, evaluate


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
