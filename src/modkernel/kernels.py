"""Kernel sums, weighted kernel sums, and the classical special cases.

The plain kernel K_n(t, x) = sum_{k<=n} g_k(t) g_k(x) reproduces
polynomials of degree <= n under the family measure.  Replacing the
coefficients g_k(t) by an arbitrary positive sequence c_k gives the
weighted sums u_n = sum c_k g_k studied throughout this package; the
eigenvalue-scaled choice c_k = g_k(t0) / (c + spectral term) produces
the Jacobi- and Laguerre-type Sobolev families, whose Chebyshev case
t_n(c; x) has fully explicit coefficients and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .pencil import WeightSequence
from .polycore import (
    COEFF_DEGREE_CAP,
    Chebyshev1,
    DensePolynomial,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    RecurrenceCoefficients,
    coefficient_table,
    orthonormal_values,
    recurrence_coefficients,
    weighted_tables,
)

__all__ = [
    "PlainKernel",
    "EigScaledKernel",
    "SecondKind",
    "generate_weights",
    "weighted_tables",
    "sobolev_tables",
    "second_kind_values",
    "sobolev_poly",
    "jacobi_sobolev_poly",
    "laguerre_sobolev_poly",
    "chebyshev_bounds_check",
    "quadratic_discriminant",
]


def _check_edge(family: FamilySpec, t0: float) -> None:
    if t0 < family.edge:
        raise ValueError(
            f"t0 = {t0} lies below the support edge {family.edge} of {family.name}; "
            "kernel weights are only guaranteed positive from the edge upward"
        )


@dataclass(frozen=True)
class PlainKernel:
    """Weights c_k = g_k(t0) with t0 at or beyond the support edge."""

    t0: float


@dataclass(frozen=True)
class EigScaledKernel:
    """Weights c_k = g_k(t0) / (c + spectral term of index k), c > 0."""

    c: float
    t0: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("the eigenvalue shift c must be positive")


@dataclass(frozen=True)
class SecondKind:
    """c_0 = 1 and c_k = q_k(t0) for k >= 1, q the second-kind solution.

    Only admissible when every generated value is strictly positive;
    generation fails eagerly naming the first offending index.
    """

    t0: float


WeightRule = Union[PlainKernel, EigScaledKernel, SecondKind]


def generate_weights(
    family: FamilySpec, rc: RecurrenceCoefficients, rule: WeightRule, n_max: int
) -> WeightSequence:
    """Materialize a weight rule as explicit c_0..c_{n_max}."""
    if isinstance(rule, PlainKernel):
        _check_edge(family, rule.t0)
        vals = orthonormal_values(rc, n_max, rule.t0)
    elif isinstance(rule, EigScaledKernel):
        _check_edge(family, rule.t0)
        k = np.arange(n_max + 1)
        vals = orthonormal_values(rc, n_max, rule.t0) / (rule.c + family.spectral_term(k))
    elif isinstance(rule, SecondKind):
        q = second_kind_values(rc, n_max, rule.t0)
        vals = q.copy()
        vals[0] = 1.0
    else:
        raise TypeError(f"unknown weight rule {rule!r}")
    bad = np.flatnonzero(~(vals > 0.0))
    if bad.size:
        raise ValueError(
            f"weight rule {rule!r} produced a nonpositive value {vals[bad[0]]} at index {int(bad[0])}"
        )
    return WeightSequence(vals)


def sobolev_tables(family: FamilySpec, c: float, t0: float, n: int, x, order: int) -> np.ndarray:
    """Derivative tables of ``sobolev_poly(family, c, t0, k)``, k = 0..n.

    The eigenvalue-scaled weights from ``generate_weights`` summed
    against ``derivative_tables``: entry [j, k] is u_k^(j)(x), with no
    monomial coefficients and so no degree cap.
    """
    rc = recurrence_coefficients(family, n)
    return weighted_tables(rc, generate_weights(family, rc, EigScaledKernel(c, t0), n).c, x, order)


def second_kind_values(rc: RecurrenceCoefficients, n: int, t) -> np.ndarray:
    """Table q_0(t)..q_n(t) of the second-kind recurrence solution.

    Initialized q_0 = 0 and q_1 = 1/(a_hat[0] g0), after which q obeys
    the same three-term recurrence as the orthonormal family.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 1:
        rc.require(n - 1)
    ta = np.asarray(t, dtype=float)
    out = np.zeros((n + 1,) + ta.shape)
    if n >= 1:
        out[1] = 1.0 / (rc.a_hat[0] * rc.g0)
    for k in range(1, n):
        out[k + 1] = ((ta - rc.b_hat[k]) * out[k] - rc.a_hat[k - 1] * out[k - 1]) / rc.a_hat[k]
    return out


def sobolev_poly(family: FamilySpec, c: float, t0: float, n: int) -> DensePolynomial:
    """Eigenvalue-scaled kernel sum of order n: weights g_k(t0) / (c + spectral term).

    Needs c > 0 and t0 at or beyond the support edge.  The weighted rows of
    ``coefficient_table`` summed in order of degree; capped at ``COEFF_DEGREE_CAP``.
    """
    rc = recurrence_coefficients(family, n + 2)
    w = generate_weights(family, rc, EigScaledKernel(c, t0), n + 2)
    if n > COEFF_DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds the coefficient cap {COEFF_DEGREE_CAP}")
    # cumsum adds the rows in order of degree; a matrix product may reorder the additions
    return DensePolynomial(np.cumsum(w.c[: n + 1, None] * coefficient_table(rc, n), axis=0)[n])


def jacobi_sobolev_poly(alpha: float, beta: float, c: float, t0: float, n: int) -> DensePolynomial:
    """Eigenvalue-scaled Jacobi kernel sum of order n; t0 >= 1, c > 0."""
    return sobolev_poly(Jacobi(alpha, beta), c, t0, n)


def laguerre_sobolev_poly(alpha: float, c: float, t0: float, n: int) -> DensePolynomial:
    """Eigenvalue-scaled reflected-Laguerre kernel sum; t0 >= 0, c > 0."""
    return sobolev_poly(LaguerreNeg(alpha), c, t0, n)


def chebyshev_bounds_check(c: float, n_max: int, grid_size: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Grid maxima of |t_n| and |t_n'| on [-1, 1] for n = 0..n_max, and whether all keep the bounds.

    t_n(c; x) = 1/(pi c) + (2/pi) sum_{k=1}^n T_k(x)/(k^2 + c), the Chebyshev1
    kernel sum at t0 = 1: one ``sobolev_tables`` call holds every order.  The
    grid joins ``grid_size`` uniform points with as many Chebyshev nodes; the
    bounds |t_n| <= 1/(pi c) + 2n/pi and |t_n'| <= 2n/pi hold pointwise.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    uniform = np.linspace(-1.0, 1.0, grid_size)
    cheb = np.cos((2.0 * np.arange(1, grid_size + 1) - 1.0) * math.pi / (2.0 * grid_size))
    grid = np.concatenate([uniform, cheb])
    max_val, max_der = np.abs(sobolev_tables(Chebyshev1(), c, 1.0, n_max, grid, 1)).max(axis=2)
    n = np.arange(n_max + 1.0)
    ok = bool(np.all(max_val <= 1.0 / (math.pi * c) + 2.0 * n / math.pi) and np.all(max_der <= 2.0 * n / math.pi))
    return max_val, max_der, ok


def quadratic_discriminant(a: float, b: float, c: float) -> float:
    """b^2 - 4ac of the quadratic a x^2 + b x + c; a must be nonzero."""
    if a == 0.0:
        raise ValueError("a quadratic needs a nonzero leading coefficient")
    return float(b * b - 4.0 * a * c)
