"""Sobolev inner products with rank-one 3x3 matrix weights.

The matrix weight is M(x) = v(x) v(x)^T where the column v collects the
coefficients of the family's second-order operator, so that
v . (f, f', f'') equals the operator applied to f.  The inner product

    <f, g> = integral (f, f', f'') M(x) (g, g', g'')^T (t0 - x) w(x) dx

therefore reduces to a weighted product of two operator images, which
is how it is evaluated; the full 3x3 route is kept only inside the
factorization check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffop import apply as diffop_apply
from .diffop import family_operator
from .kernels import sobolev_tables
from .polycore import DensePolynomial, FamilySpec, Jacobi, LaguerreNeg
from .quadrature import QuadratureRule, family_rule

__all__ = [
    "MatrixWeight",
    "matrix_weight",
    "jacobi_matrix_weight",
    "laguerre_matrix_weight",
    "sobolev_inner",
    "gram_matrix",
    "sobolev_gram",
    "gram_offdiagonal_measures",
    "rank_one_factorization_check",
]


@dataclass(frozen=True)
class MatrixWeight:
    """Rank-one matrix weight v v^T over (t0 - x) times the family weight."""

    v: tuple[DensePolynomial, DensePolynomial, DensePolynomial]
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

    def table_image(self, tables, x: np.ndarray) -> np.ndarray:
        """v(x) . (f, f', f''), given the values f^(j)(x) as tables[j]."""
        return self.v[0](x) * tables[0] + self.v[1](x) * tables[1] + self.v[2](x) * tables[2]

    def operator_image(self, f: DensePolynomial, x: np.ndarray) -> np.ndarray:
        """v(x) . (f(x), f'(x), f''(x))."""
        d1 = f.derivative()
        return self.table_image((f(x), d1(x), d1.derivative()(x)), x)


def jacobi_matrix_weight(alpha: float, beta: float, c: float, t0: float) -> MatrixWeight:
    """v = (c, (alpha+beta+2) x + alpha - beta, x^2 - 1) over [-1, 1]."""
    return MatrixWeight(
        v=(
            DensePolynomial.constant(c),
            DensePolynomial([alpha - beta, alpha + beta + 2.0]),
            DensePolynomial([-1.0, 0.0, 1.0]),
        ),
        family=Jacobi(alpha, beta),
        t0=t0,
        c=c,
    )


def laguerre_matrix_weight(alpha: float, c: float, t0: float) -> MatrixWeight:
    """v = (c, alpha + 1 + x, x) over (-inf, 0]."""
    return MatrixWeight(
        v=(
            DensePolynomial.constant(c),
            DensePolynomial([alpha + 1.0, 1.0]),
            DensePolynomial([0.0, 1.0]),
        ),
        family=LaguerreNeg(alpha),
        t0=t0,
        c=c,
    )


def matrix_weight(family: FamilySpec, c: float, t0: float) -> MatrixWeight:
    """The family's matrix weight; Chebyshev1 takes its Jacobi(-1/2, -1/2) form."""
    # the one family branch left: the two constructors write out v on their
    # own, as the side of rank_one_factorization_check that family_operator
    # does not supply
    if isinstance(family, LaguerreNeg):
        return laguerre_matrix_weight(family.alpha, c, t0)
    return jacobi_matrix_weight(family.alpha, family.beta, c, t0)


def _edge_factor(wgt: MatrixWeight, nodes: np.ndarray) -> np.ndarray:
    fac = wgt.t0 - nodes
    if np.any(fac < 0.0):
        # nodes live strictly inside the support, so any negative value
        # here is round-off past the edge; clamp but say so
        warnings.warn("clamping a round-off-negative (t0 - x) factor to zero", stacklevel=3)
        fac = np.maximum(fac, 0.0)
    return fac


def _require_degree(rule: QuadratureRule, f: DensePolynomial, g: DensePolynomial) -> None:
    need = max(f.degree, 0) + max(g.degree, 0) + 1
    if rule.exact_degree < need:
        raise ValueError(
            f"rule is exact to degree {rule.exact_degree}, but the integrand has degree {need}"
        )


def sobolev_inner(
    wgt: MatrixWeight, f: DensePolynomial, g: DensePolynomial, rule: QuadratureRule
) -> float:
    """Matrix-weight inner product of f and g.

    The rule must absorb the base family weight and be exact at least to
    deg f + deg g + 1 (the extra degree pays for the (t0 - x) factor).
    """
    _require_degree(rule, f, g)
    fac = _edge_factor(wgt, rule.nodes)
    fv = wgt.operator_image(f, rule.nodes)
    gv = wgt.operator_image(g, rule.nodes)
    return float(np.sum(rule.weights * fac * fv * gv))


def gram_matrix(wgt: MatrixWeight, polys, rule: QuadratureRule) -> np.ndarray:
    """Symmetric matrix of pairwise inner products.

    The coefficients of all polynomials, zero-padded to the top degree,
    and of their first two derivatives go through one extended-precision
    Horner pass at the rule nodes.  Leading zeros leave Horner's sums
    untouched, so every operator image equals ``operator_image`` of its
    polynomial, and the entries agree with ``sobolev_inner`` call by call.
    """
    polys = list(polys)
    if not polys:
        return np.zeros((0, 0))
    top = max(polys, key=lambda p: p.degree)
    _require_degree(rule, top, top)
    fac = _edge_factor(wgt, rule.nodes)
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
    rows = wgt.table_image(acc.astype(float), rule.nodes)
    return (rows * (rule.weights * fac)) @ rows.T


def sobolev_gram(family: FamilySpec, c: float, t0: float, n_max: int) -> np.ndarray:
    """Gram matrix of ``sobolev_poly(family, c, t0, n)``, n = 0..n_max.

    Taken against ``matrix_weight(family, c, t0)`` with the
    (n_max + 2)-point Gauss rule of its base weight, which is exact for
    every entry.  The kernels and their two derivatives come from
    ``sobolev_tables`` at the rule nodes, so no degree cap applies.
    """
    wgt = matrix_weight(family, c, t0)
    rule = family_rule(wgt.family, n_max + 2)
    rows = wgt.table_image(sobolev_tables(family, c, t0, n_max, rule.nodes, 2), rule.nodes)
    return (rows * (rule.weights * _edge_factor(wgt, rule.nodes))) @ rows.T


def gram_offdiagonal_measures(gram: np.ndarray) -> dict[str, float]:
    """Diagonality figures of a Gram matrix.

    Returns the raw max off-diagonal magnitude, the same normalized by
    the smallest diagonal entry, and normalized per pair by the
    geometric mean sqrt(G_nn G_mm) (the scale-invariant certificate; a
    heavily graded diagonal makes the min-diagonal figure meaningless in
    double precision).
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
    normalized = float((np.abs(off) / np.sqrt(np.outer(d, d))).max()) if np.all(d > 0) else float("inf")
    return {
        "off_max": off_max,
        "vs_min_diagonal": off_max / float(d.min()),
        "normalized": normalized,
        "diag_min": float(d.min()),
    }


def rank_one_factorization_check(wgt: MatrixWeight, sample_xs, seed: int = 20260808) -> bool:
    """Confirm M(x) = v(x) v(x)^T and the operator identity.

    The 3x3 entries are assembled as polynomial products and compared
    against the outer product of values at each sample; then
    v . (f, f', f'') is compared with the family operator applied to
    five seeded random polynomials.
    """
    xs = np.asarray(sample_xs, dtype=float)
    prods = [[wgt.v[i] * wgt.v[j] for j in range(3)] for i in range(3)]
    for x in xs:
        vv = np.array([p(x) for p in wgt.v])
        outer = np.outer(vv, vv)
        entry = np.array([[prods[i][j](x) for j in range(3)] for i in range(3)])
        scale = max(1.0, float(np.abs(outer).max()))
        if np.abs(entry - outer).max() > 1e-12 * scale:
            return False
    op = family_operator(wgt.family, wgt.c)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        deg = int(rng.integers(0, 9))
        f = DensePolynomial(rng.standard_normal(deg + 1))
        lhs = wgt.operator_image(f, xs)
        rhs = diffop_apply(op, f)(xs)
        if np.abs(lhs - rhs).max() > 1e-12 * max(1.0, float(np.abs(rhs).max())):
            return False
    return True
