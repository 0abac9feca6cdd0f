import math

import numpy as np
import pytest

from modkernel.gammafn import beta_fn, binomial_gen, gamma_fn, lgamma_fn


def test_gamma_against_stdlib():
    xs = np.linspace(0.01, 60.0, 4001)
    worst = max(abs(gamma_fn(float(x)) - math.gamma(float(x))) / math.gamma(float(x)) for x in xs)
    assert worst < 1e-12


def test_gamma_against_stdlib_up_to_overflow():
    # the whole double range of Gamma, which ends at 171.62
    xs = np.linspace(0.01, 171.6, 4001)
    worst = max(abs(gamma_fn(float(x)) / math.gamma(float(x)) - 1.0) for x in xs)
    assert worst <= 1e-13
    with pytest.raises(OverflowError):
        gamma_fn(171.7)


def test_lgamma_against_stdlib():
    xs = np.linspace(0.01, 170.0, 2001)
    for x in xs:
        assert lgamma_fn(float(x)) == pytest.approx(math.lgamma(float(x)), abs=1e-12, rel=1e-13)


def test_half_integer_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


def test_functional_equation():
    for x in (0.1, 0.7, 2.3, 11.5, 40.25):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)


def test_integer_factorials():
    for n in range(1, 20):
        assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)


def test_beta_symmetry_and_value():
    assert beta_fn(2.5, 3.5) == pytest.approx(beta_fn(3.5, 2.5), rel=1e-14)
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        lgamma_fn(-1.0)


def test_binomial_gen():
    assert binomial_gen(5.0, 2) == pytest.approx(10.0, rel=1e-14)
    assert binomial_gen(2.5, 0) == 1.0
    # matches the gamma-ratio definition for non-integer upper index
    a, k = 3.7, 3
    ref = gamma_fn(a + 1.0) / (math.factorial(k) * gamma_fn(a - k + 1.0))
    assert binomial_gen(a, k) == pytest.approx(ref, rel=1e-13)
