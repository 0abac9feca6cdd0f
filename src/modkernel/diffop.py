"""Second-order operators whose eigenfunctions are the classical families.

The Jacobi-type operator (x^2-1) f'' + ((alpha+beta+2)x + alpha-beta) f'
+ c f maps the degree-n orthonormal Jacobi polynomial to
(c + n(n+alpha+beta+1)) times itself; the reflected-Laguerre operator
x f'' + (alpha+1+x) f' + c f has eigenvalues c + n.  Applying the
operator to an eigenvalue-scaled kernel sum strips the scaling and
returns the plain kernel sum, and composing with the parameter-shifted
operator at the support edge yields a fourth-order eigen-relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import sobolev_tables, weighted_tables
from .polycore import (
    DensePolynomial,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    derivative_tables,
    orthonormal_values,
    recurrence_coefficients,
)

__all__ = [
    "DifferentialOperator",
    "family_operator",
    "jacobi_operator",
    "laguerre_operator",
    "apply",
    "eigenvalue_jacobi",
    "eigenvalue_laguerre",
    "verify_eigen_relation",
    "verify_kernel_image",
    "verify_composed_equation",
]


@dataclass(frozen=True)
class DifferentialOperator:
    """Action f -> p2 f'' + p1 f' + p0 f with polynomial coefficients."""

    p2: DensePolynomial
    p1: DensePolynomial
    p0: DensePolynomial


def family_operator(family: FamilySpec, c: float) -> DifferentialOperator:
    """The family's second-order operator with additive constant c.

    It maps the degree-n orthonormal polynomial to
    (c + family.spectral_term(n)) times itself.
    """
    p2, p1 = family.operator_coefficients()
    return DifferentialOperator(p2=DensePolynomial(p2), p1=DensePolynomial(p1), p0=DensePolynomial.constant(c))


def jacobi_operator(alpha: float, beta: float, c: float) -> DifferentialOperator:
    """(x^2 - 1) d2 + ((alpha+beta+2) x + alpha - beta) d1 + c."""
    return family_operator(Jacobi(alpha, beta), c)


def laguerre_operator(alpha: float, c: float) -> DifferentialOperator:
    """x d2 + (alpha + 1 + x) d1 + c."""
    return family_operator(LaguerreNeg(alpha), c)


def apply(op: DifferentialOperator, f: DensePolynomial) -> DensePolynomial:
    """Exact coefficient-space application of the operator."""
    d1 = f.derivative()
    d2 = d1.derivative()
    return op.p2 * d2 + op.p1 * d1 + op.p0 * f


def eigenvalue_jacobi(n: int, alpha: float, beta: float, c: float) -> float:
    """c + n (n + alpha + beta + 1)."""
    return c + Jacobi(alpha, beta).spectral_term(n)


def eigenvalue_laguerre(n: int, c: float) -> float:
    """c + n."""
    return c + float(n)


def _samples(family: FamilySpec) -> np.ndarray:
    # 25 points reaching 8 below the support edge
    return family.sample_points(25, 8.0)


def _image_tables(op: DifferentialOperator, tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative tables of op(f) from those of f, by the Leibniz rule.

    ``tables[j]`` holds f^(j) at x for j = 0..J; entry k of the result
    holds (op f)^(k) for k = 0..J-2, as the sum over the coefficients
    p_i of C(k, m) p_i^(m) f^(i+k-m).
    """
    top = tables.shape[0] - 3
    out = np.zeros((top + 1,) + tables.shape[1:])
    for i, p in enumerate((op.p0, op.p1, op.p2)):
        for m in range(top + 1):
            pm = p(x)
            for k in range(m, top + 1):
                out[k] += math.comb(k, m) * pm * tables[i + k - m]
            p = p.derivative()
    return out


def _worst_relative(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # per degree: max |lhs - rhs| over the points, over the larger of 1 and max |rhs|
    return np.abs(lhs - rhs).max(axis=-1) / np.maximum(1.0, np.abs(rhs).max(axis=-1))


def verify_eigen_relation(family: FamilySpec, c: float, n_max: int) -> list[float]:
    """Residuals of operator(g_n) == (c + spectral term) g_n for n = 0..n_max.

    The operator acts on the value tables of g_n, g_n' and g_n'' at the
    25 default sample points; each residual is normalized by the larger
    of 1 and the largest magnitude of the right side there.
    """
    xs = _samples(family)
    g = derivative_tables(recurrence_coefficients(family, n_max), n_max, xs, 2)
    rhs = (c + family.spectral_term(np.arange(n_max + 1)))[:, None] * g[0]
    return [float(r) for r in _worst_relative(_image_tables(family_operator(family, c), g, xs)[0], rhs)]


def verify_kernel_image(family: FamilySpec, c: float, t0: float, n_max: int) -> float:
    """Residual of: operator applied to the scaled kernel sum == plain kernel sum.

    Returns the max over n <= n_max and sample points of the
    difference, normalized per n by the larger of 1 and the plain
    kernel magnitude on the 25 default sample points.
    """
    xs = _samples(family)
    rc = recurrence_coefficients(family, n_max)
    image = _image_tables(family_operator(family, c), sobolev_tables(family, c, t0, n_max, xs, 2), xs)[0]
    plain = weighted_tables(rc, orthonormal_values(rc, n_max, t0), xs, 0)[0]
    return float(_worst_relative(image, plain).max())


def verify_composed_equation(family: FamilySpec, c: float, n_max: int, reading: str = "shifted") -> float:
    """Residual of the composed fourth-order eigen-relation at the edge.

    With q_n the operator image of the scaled kernel sum taken at
    t0 = support edge, checks shifted-operator(q_n) == eigenvalue * q_n
    for n <= n_max, where the shifted operator is that of
    ``family.raised()`` with constant zero.  ``reading`` selects whether
    the eigenvalue uses the shifted first parameter (the convention this
    package adopts after numerical arbitration) or the unshifted one;
    both are exposed so a report can show the rejected alternative.
    """
    if reading not in ("shifted", "unshifted"):
        raise ValueError("reading must be 'shifted' or 'unshifted'")
    xs = _samples(family)
    q = _image_tables(family_operator(family, c), sobolev_tables(family, c, family.edge, n_max, xs, 4), xs)
    lhs = _image_tables(family_operator(family.raised(), 0.0), q, xs)[0]
    eigen_family = family.raised() if reading == "shifted" else family
    rhs = eigen_family.spectral_term(np.arange(n_max + 1))[:, None] * q[0]
    return float(_worst_relative(lhs, rhs).max())
