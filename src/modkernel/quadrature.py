"""Gauss rules for the supported weights, built from the recurrence data.

Nodes are eigenvalues of the truncated symmetric tridiagonal recurrence
matrix; weights come from the squared first components of its
eigenvectors.  The eigensolver is an implicit-shift QL iteration that
tracks only those first components, which is all the construction needs.

``gauss_rule`` builds a rule from caller-supplied recurrence data and
caches nothing.  ``family_rule`` memoizes the rule of a family at a
given size in a bounded cache and hands out read-only arrays, so a
caller cannot corrupt the rule a later caller receives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .polycore import FamilySpec, RecurrenceCoefficients, recurrence_coefficients

__all__ = [
    "QuadratureRangeError",
    "QuadratureRule",
    "family_rule",
    "gauss_rule",
    "integrate",
    "moment_residual",
    "weight_moments",
]

# deflation threshold relative to the neighboring diagonal scale
_DEFLATION = 1e-14
_MAX_SWEEPS = 50
# how far past a finite support end a node may round before it counts as wrong
_EDGE_SLACK = 64 * np.finfo(float).eps
# distinct (family, size) rules kept by family_rule; a 140-point rule is ~2 KB
_RULE_CACHE_SIZE = 128


class QuadratureRangeError(ValueError):
    """The rule needs a number outside the double-precision range."""


def _tridiag_eigen_first(d, e, max_iter: int = _MAX_SWEEPS):
    """Eigenvalues (ascending) and eigenvector first components.

    d: diagonal (length n), e: subdiagonal (length n-1).  Implicit-shift
    QL with deflation; raises RuntimeError if an eigenvalue fails to
    converge within ``max_iter`` sweeps.

    The sweeps run on lists of Python floats: the same IEEE-754 double
    operations in the same order as on numpy arrays, without boxing a
    numpy scalar on every element read and write.
    """
    hypot = math.hypot
    copysign = math.copysign
    d = [float(v) for v in d]
    n = len(d)
    e = [float(v) for v in e] + [0.0]
    z = [0.0] * n
    z[0] = 1.0
    for l in range(n):
        iteration = 0
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= _DEFLATION * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            if iteration == max_iter:
                raise RuntimeError(f"eigen-iteration did not converge for index {l}")
            iteration += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    d = np.array(d)
    z = np.array(z)
    order = np.argsort(d, kind="stable")
    return d[order], z[order]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights exact up to ``exact_degree``."""

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    weight_id: FamilySpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have equal length")
        if not np.all(self.weights > 0.0):
            raise ValueError("all quadrature weights must be positive")
        if self.nodes.size > 1 and not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")

    @property
    def size(self) -> int:
        return self.nodes.size


def gauss_rule(family: FamilySpec, rc: RecurrenceCoefficients, n_points: int) -> QuadratureRule:
    """N-point Gauss rule for the family weight.

    The rule integrates polynomials of degree up to 2N-1 exactly; the
    total weight equals the mass mu0 of the measure, and nodes lie
    strictly inside the support.
    """
    if n_points < 1:
        raise ValueError("a Gauss rule needs at least one node")
    if rc.n_max < n_points - 1:
        raise ValueError(f"recurrence data covers 0..{rc.n_max}, need 0..{n_points - 1}")
    d = rc.b_hat[:n_points]
    e = rc.a_hat[: n_points - 1]
    nodes, first = _tridiag_eigen_first(d, e)
    weights = rc.mu0 * first**2
    underflowed = np.flatnonzero(weights == 0.0)
    if underflowed.size:
        k = int(underflowed[0])
        raise QuadratureRangeError(
            f"{family!r} rule with N = {n_points}: the weight at node {k} "
            f"(x = {nodes[k]:.6g}) underflows to 0 in double precision"
        )
    lo, hi = family.support
    if np.any(nodes < lo - _EDGE_SLACK) or np.any(nodes > hi + _EDGE_SLACK):
        raise RuntimeError("computed nodes left the support interval")
    # an exponent near -1 puts a node within round-off of that end, where the
    # solver may place it on or just past the end; the nearest double inside
    # is as accurate
    nodes = np.clip(nodes, np.nextafter(lo, hi), np.nextafter(hi, lo))
    return QuadratureRule(nodes=nodes, weights=weights, exact_degree=2 * n_points - 1, weight_id=family)


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def family_rule(family: FamilySpec, n_points: int) -> QuadratureRule:
    """Memoized N-point Gauss rule for the family weight.

    Same rule as ``gauss_rule`` on the family's own recurrence data,
    built once per (family, size) while it stays in the bounded cache.
    The arrays are read-only because every caller shares them.
    """
    rule = gauss_rule(family, recurrence_coefficients(family, n_points), n_points)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def integrate(rule: QuadratureRule, f) -> float:
    """Sum of weights[i] * f(nodes[i]).

    ``f`` may be any callable accepting an ndarray (or scalar) of nodes;
    non-finite values at a node raise ValueError.
    """
    try:
        vals = np.asarray(f(rule.nodes), dtype=float)
        if vals.shape != rule.nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in rule.nodes])
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"integrand is not finite at node {bad} (x = {rule.nodes[bad]})")
    return float(rule.weights @ vals)


def weight_moments(family: FamilySpec, k_max: int) -> np.ndarray:
    """Moments m_k = integral of x^k against the family weight, k = 0..k_max.

    The family's closed forms, independent of any quadrature: a stable
    three-term moment recurrence for Jacobi, reflected gamma values for
    LaguerreNeg, and double-factorial ratios for Chebyshev1.  Used as
    the reference side of exactness certifications.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    return family.moments(k_max)


def _first_overflowing_moment(family: FamilySpec, k_max: int) -> int:
    # bisection for the smallest k whose closed-form moment overflows;
    # the moment of x^k_max is known to overflow
    lo, hi = 0, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            weight_moments(family, mid)
        except OverflowError:
            hi = mid
        else:
            lo = mid + 1
    return lo


def moment_residual(rule: QuadratureRule) -> float:
    """Worst relative error of the rule on x^k, k = 0..2N-1.

    Each moment is compared with ``weight_moments`` of the rule's
    family, relative to the larger of the moment and the rule's sum of
    |x^k| weights.  Raises ``QuadratureRangeError`` naming the first
    power whose rule sum, or else whose closed-form moment, overflows
    double precision (reflected-Laguerre rules, from N = 66 for alpha
    0.5 and earlier for large alpha).
    """
    n = rule.size
    where = f"{rule.weight_id!r} rule with N = {n}"
    with np.errstate(over="ignore"):
        powers = rule.nodes[None, :] ** np.arange(2 * n)[:, None]
        absolute = np.abs(powers) @ rule.weights
    overflow = np.flatnonzero(~np.isfinite(absolute))
    if overflow.size:
        raise QuadratureRangeError(f"{where}: the rule sum of x^{int(overflow[0])} overflows double precision")
    try:
        moments = weight_moments(rule.weight_id, 2 * n - 1)
    except OverflowError:
        k = _first_overflowing_moment(rule.weight_id, 2 * n - 1)
        raise QuadratureRangeError(f"{where}: the moment of x^{k} overflows double precision") from None
    got = powers @ rule.weights
    # floor guards the N=1 symmetric rule, whose single node is 0
    scale = np.maximum(np.maximum(np.abs(moments), absolute), 1e-300)
    return float((np.abs(got - moments) / scale).max())
