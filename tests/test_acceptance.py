"""Acceptance battery: one test per criterion of ``modkernel.acceptance``.

Case lists, measures, tolerances and time budgets live only in the
registry; each test here is named after its criterion's measure function
and asserts the registry's verdict.  Run pytest with -s to see one
PASS/FAIL line per criterion.
"""

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
