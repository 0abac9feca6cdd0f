import math

import numpy as np
import pytest

from modkernel.gammafn import beta_fn, gamma_fn


@pytest.fixture
def mpmath():
    return pytest.importorskip("mpmath")


def test_gamma_against_stdlib():
    # gamma_fn is math.gamma behind its domain check
    for x in np.linspace(0.01, 60.0, 401):
        assert gamma_fn(float(x)) == math.gamma(float(x))


def test_gamma_against_stdlib_up_to_overflow():
    # the whole double range of Gamma, which ends at 171.62
    for x in np.linspace(0.01, 171.6, 401):
        assert gamma_fn(float(x)) == math.gamma(float(x))
    with pytest.raises(OverflowError, match=r"^gamma_fn\(171\.7\) overflows double precision$"):
        gamma_fn(171.7)
    with pytest.raises(OverflowError, match=r"^gamma_fn\(280\.0\) overflows"):
        gamma_fn(280.0)


def test_gamma_against_mpmath(mpmath):
    xs = np.linspace(0.01, 171.6, 2001)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(gamma_fn(float(x))) / mpmath.gamma(mpmath.mpf(float(x))) - 1) for x in xs)
    assert worst <= 2e-15


def test_within_one_ulp_of_mpmath(mpmath):
    with mpmath.workdps(50):
        for x in (0.5, 2.3, 11.5, 40.25, 171.6):
            exact = mpmath.gamma(mpmath.mpf(x))
            assert abs(mpmath.mpf(gamma_fn(x)) - exact) <= math.ulp(float(exact)), x


def test_half_integer_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-15)


def test_functional_equation():
    for x in (0.1, 0.7, 2.3, 11.5, 40.25):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-14)


def test_integer_factorials():
    # exact wherever (n - 1)! is a double
    for n in range(1, 24):
        assert gamma_fn(float(n)) == math.factorial(n - 1)


def test_beta_symmetry_and_value():
    assert beta_fn(2.5, 3.5) == pytest.approx(beta_fn(3.5, 2.5), rel=1e-14)
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_against_mpmath(mpmath):
    # includes arguments whose three Gamma values overflow a double
    with mpmath.workdps(50):
        for a, b in ((0.5, 0.5), (1.5, 0.7), (3.2, 4.1), (40.0, 0.3), (150.0, 150.0), (200.5, 2.5)):
            exact = mpmath.beta(mpmath.mpf(a), mpmath.mpf(b))
            assert abs(mpmath.mpf(beta_fn(a, b)) / exact - 1) <= 1e-12, (a, b)


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.0)
    with pytest.raises(ValueError):
        gamma_fn(math.nan)
