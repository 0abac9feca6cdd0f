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

from dataclasses import dataclass

import numpy as np

from .kernels import sobolev_poly
from .polycore import (
    DensePolynomial,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    orthonormal_coeffs,
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


def _samples(family: FamilySpec, samples) -> np.ndarray:
    # default: 25 points reaching 8 below the support edge
    return family.sample_points(25, 8.0) if samples is None else np.asarray(samples, dtype=float)


def verify_eigen_relation(family: FamilySpec, c: float, n_max: int) -> list[float]:
    """Residuals of operator(g_n) == (c + spectral term) g_n for n = 0..n_max.

    Compared coefficient-wise in the monomial basis; each residual is
    normalized by the larger of 1 and the largest coefficient of the
    right side.
    """
    op = family_operator(family, c)
    rc = recurrence_coefficients(family, max(n_max, 1))
    per_n = []
    for n in range(n_max + 1):
        g = orthonormal_coeffs(family, rc, n)
        lam = c + family.spectral_term(n)
        diff = apply(op, g) - lam * g
        scale = max(1.0, float(np.abs(lam * g.coeffs).max()))
        per_n.append(float(np.abs(diff.coeffs).max()) / scale)
    return per_n


def verify_kernel_image(
    family: FamilySpec, c: float, t0: float, n_max: int, samples=None
) -> float:
    """Residual of: operator applied to the scaled kernel sum == plain kernel sum.

    Returns the max over n <= n_max and sample points of the
    difference, normalized per n by the larger of 1 and the plain
    kernel magnitude on the samples.
    """
    xs = _samples(family, samples)
    op = family_operator(family, c)
    rc = recurrence_coefficients(family, max(n_max, 1))
    gt = orthonormal_values(rc, n_max, t0)
    gx = orthonormal_values(rc, n_max, xs)
    worst = 0.0
    for n in range(n_max + 1):
        image = apply(op, sobolev_poly(family, c, t0, n))(xs)
        plain = np.tensordot(gt[: n + 1], gx[: n + 1], axes=(0, 0))
        scale = max(1.0, float(np.abs(plain).max()))
        worst = max(worst, float(np.abs(image - plain).max()) / scale)
    return worst


def verify_composed_equation(
    family: FamilySpec, c: float, n_max: int, reading: str = "shifted", samples=None
) -> float:
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
    xs = _samples(family, samples)
    inner = family_operator(family, c)
    outer = family_operator(family.raised(), 0.0)
    eigen_family = family.raised() if reading == "shifted" else family
    worst = 0.0
    for n in range(n_max + 1):
        q = apply(inner, sobolev_poly(family, c, family.edge, n))
        lhs = apply(outer, q)(xs)
        rhs = eigen_family.spectral_term(n) * q(xs)
        scale = max(1.0, float(np.abs(rhs).max()))
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return worst
