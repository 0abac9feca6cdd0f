"""Gamma and beta functions for positive real arguments.

``gamma_fn`` is the standard library's ``math.gamma`` behind a domain
check: it is exact at the integers whose factorial is a double
(Gamma(1) to Gamma(23)) and within about one unit in the last place
elsewhere, and past x = 171.62, where Gamma leaves the double range, it
raises an ``OverflowError`` that names the argument.  ``beta_fn`` sums
``math.lgamma`` values, so it stays finite where the three Gamma values
would overflow.  Both keep the normalization constants of the
orthonormal families free of anything outside the stdlib and numpy.
"""

from __future__ import annotations

import math

__all__ = ["gamma_fn", "beta_fn"]


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0; OverflowError past about 171.62."""
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma_fn({x}) overflows double precision") from None


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
