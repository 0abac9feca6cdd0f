"""Sobolev inner products with rank-one 3x3 matrix weights.

The matrix weight is M(x) = v(x) v(x)^T where the column v collects the
coefficients of the family's second-order operator, so that
v . (f, f', f'') equals the operator applied to f.  The inner product

    <f, g> = integral (f, f', f'') M(x) (g, g', g'')^T (t0 - x) w(x) dx

therefore reduces to a weighted product of two operator images, which
is how it is evaluated: the weight holds ``family_operator(family, c)``
and applies it to derivative tables by the Leibniz rule of ``diffop``.
The 3x3 form, with v written out per family, is the tests' independent
check of that identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffop import DifferentialOperator, _image_tables, family_operator
from .kernels import sobolev_tables
from .polycore import FamilySpec, Jacobi, LaguerreNeg
from .quadrature import QuadratureRule, family_rule

__all__ = [
    "MatrixWeight",
    "matrix_weight",
    "jacobi_matrix_weight",
    "laguerre_matrix_weight",
    "gram_matrix",
    "sobolev_gram",
    "gram_offdiagonal_measures",
]


@dataclass(frozen=True)
class MatrixWeight:
    """Rank-one matrix weight v v^T over (t0 - x) times the family weight.

    The column v = (p0, p1, p2) is the coefficient list of ``operator``.
    """

    operator: DifferentialOperator
    family: FamilySpec
    t0: float
    c: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")
        if self.t0 < self.family.edge:
            raise ValueError(
                f"t0 = {self.t0} must not lie below the support edge {self.family.edge}"
            )


def matrix_weight(family: FamilySpec, c: float, t0: float) -> MatrixWeight:
    """The family's matrix weight: v is the operator c f + p1 f' + p2 f''."""
    return MatrixWeight(family_operator(family, c), family, t0, c)


def jacobi_matrix_weight(alpha: float, beta: float, c: float, t0: float) -> MatrixWeight:
    """v = (c, (alpha+beta+2) x + alpha - beta, x^2 - 1) over [-1, 1]."""
    return matrix_weight(Jacobi(alpha, beta), c, t0)


def laguerre_matrix_weight(alpha: float, c: float, t0: float) -> MatrixWeight:
    """v = (c, alpha + 1 + x, x) over (-inf, 0]."""
    return matrix_weight(LaguerreNeg(alpha), c, t0)


def _edge_factor(wgt: MatrixWeight, nodes: np.ndarray) -> np.ndarray:
    fac = wgt.t0 - nodes
    if np.any(fac < 0.0):
        # nodes live strictly inside the support, so any negative value
        # here is round-off past the edge; clamp but say so, at the caller
        # of gram_matrix or sobolev_gram
        warnings.warn("clamping a round-off-negative (t0 - x) factor to zero", stacklevel=4)
        fac = np.maximum(fac, 0.0)
    return fac


def _weighted_gram(wgt: MatrixWeight, tables: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Gram matrix from derivative tables f^(j) at the rule nodes, j = 0..2."""
    rows = _image_tables(wgt.operator, tables, rule.nodes)[0]
    return (rows * (rule.weights * _edge_factor(wgt, rule.nodes))) @ rows.T


def gram_matrix(wgt: MatrixWeight, polys, rule: QuadratureRule) -> np.ndarray:
    """Symmetric matrix of pairwise inner products of polynomials.

    The rule must absorb the base family weight and be exact at least to
    2 D + 1 for the top degree D (the extra degree pays for the (t0 - x)
    factor).  The coefficients of all polynomials, zero-padded to the top
    degree, and of their first two derivatives go through one
    extended-precision Horner pass at the rule nodes.  Leading zeros
    leave Horner's sums untouched, so every row equals the operator
    image of its polynomial evaluated on its own.
    """
    polys = list(polys)
    if not polys:
        return np.zeros((0, 0))
    need = 2 * max(max(p.degree for p in polys), 0) + 1
    if rule.exact_degree < need:
        raise ValueError(
            f"rule is exact to degree {rule.exact_degree}, but the integrand has degree {need}"
        )
    size = max(p.coeffs.size for p in polys)
    coeffs = np.zeros((3, len(polys), size))
    for row, p in zip(coeffs[0], polys):
        row[: p.coeffs.size] = p.coeffs
    # f' and f'' as DensePolynomial.derivative forms them, one order at a time
    coeffs[1, :, :-1] = coeffs[0, :, 1:] * np.arange(1, size)
    coeffs[2, :, :-1] = coeffs[1, :, 1:] * np.arange(1, size)
    x = rule.nodes.astype(np.longdouble)
    acc = np.zeros(coeffs.shape[:2] + x.shape, dtype=np.longdouble)
    for j in range(size - 1, -1, -1):
        acc = acc * x + coeffs[:, :, j, None]
    return _weighted_gram(wgt, acc.astype(float), rule)


def sobolev_gram(family: FamilySpec, c: float, t0: float, n_max: int) -> np.ndarray:
    """Gram matrix of ``sobolev_poly(family, c, t0, n)``, n = 0..n_max.

    Taken against ``matrix_weight(family, c, t0)`` with the
    (n_max + 2)-point Gauss rule of the family's own weight, which is
    exact for every entry.  The kernels and their two derivatives come
    from ``sobolev_tables`` at the rule nodes, so no degree cap applies.
    """
    wgt = matrix_weight(family, c, t0)
    rule = family_rule(family, n_max + 2)
    return _weighted_gram(wgt, sobolev_tables(family, c, t0, n_max, rule.nodes, 2), rule)


def gram_offdiagonal_measures(gram: np.ndarray) -> dict[str, float]:
    """Diagonality figures of a Gram matrix.

    Returns the raw max off-diagonal magnitude, the same normalized by
    the smallest diagonal entry, and normalized per pair by the
    geometric mean sqrt(G_nn G_mm) (the scale-invariant certificate; a
    heavily graded diagonal makes the min-diagonal figure meaningless in
    double precision).  The geometric mean is formed as
    sqrt(G_nn) sqrt(G_mm), whose product stays finite where G_nn G_mm
    would overflow.
    """
    g = np.asarray(gram, dtype=float)
    d = np.diag(g)
    if g.shape[0] < 2:
        return {
            "off_max": 0.0,
            "vs_min_diagonal": 0.0,
            "normalized": 0.0,
            "diag_min": float(d[0]) if d.size else 0.0,
        }
    off = g - np.diag(d)
    off_max = float(np.abs(off).max())
    normalized = float((np.abs(off) / np.outer(np.sqrt(d), np.sqrt(d))).max()) if np.all(d > 0) else float("inf")
    return {
        "off_max": off_max,
        "vs_min_diagonal": off_max / float(d.min()),
        "normalized": normalized,
        "diag_min": float(d.min()),
    }
