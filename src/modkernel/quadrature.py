"""Gauss rules for the supported weights, built from the recurrence data.

The N nodes are the zeros of g_N, found by Newton's method on the
three-term recurrence: one sweep of the recurrence for g_k and g_k'
moves all N points at once, from asymptotic seeds that the family
supplies (``gauss_seeds``), and the family's differential equation
gives g_N'' for Halley's cubically convergent form of the step.  The
weights are the Christoffel numbers 1 / sum_{k<N} g_k(x_i)^2, summed
in the last sweep and corrected to first order for that sweep's step,
so each weight is accurate relative to itself, the small tail weights
included.  A sweep is O(N^2) numpy work and O(N) memory, and costs the
same however close the seeds are, so the seeds set a rule's cost: a
Chebyshev rule takes one sweep, as does every one-point rule, a Jacobi
rule with parameters up to 2 takes two (its seeds near both ends come
from Bessel zeros; Hale & Townsend, SIAM J. Sci. Comput. 35 (2013),
§3.2) and a LaguerreNeg rule three.  A fresh Jacobi rule at N = 255 takes about 5 ms on one core of
a 2-core x86 machine.

The rule certifies itself: N converged zeros that are separated and
inside the support are all N zeros of g_N.  Where seeds lead two points
to one zero, or fail to converge, the zeros are isolated by Sturm
counts (sign changes along g_0(x), ..., g_N(x)) and bisection, then
found by Newton kept inside the brackets.  The sweep rescales its
values by powers of two, so nothing overflows before a weight
underflows, which raises ``QuadratureRangeError``.

``gauss_rule`` builds a rule from caller-supplied recurrence data and
caches nothing.  ``family_rule`` memoizes the rule of a family at a
given size in a bounded cache and hands out read-only arrays, so a
caller cannot corrupt the rule a later caller receives.
"""

from __future__ import annotations

import functools
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

# a Newton step below this fraction of the local node spacing has converged:
# the node is then off by about its square, and so is the corrected weight
_NEWTON_TOL = 1e-9
# Halley's step cubes the error, so once a step is below this fraction of
# the spacing the next sweep may be the last, and it sums the weights;
# summing in vain costs a quarter of a sweep, and missing the last sweep a
# whole one, so the threshold errs towards summing
_LAST_SWEEP = 1e-3
_NEWTON_SWEEPS = 10
# converged nodes closer than this fraction of the spacing are one zero twice
_SEPARATION = 1e-3
# the bisection that isolates each zero halves a bracket at most this often
_BISECTION_SWEEPS = 200
# growth, in bits, that the recurrence may take between two rescalings
_RESCALE_BITS = 250
# distinct (family, size) rules kept by family_rule; a 140-point rule is ~2 KB
_RULE_CACHE_SIZE = 128


class QuadratureRangeError(ValueError):
    """The rule needs a number outside the double-precision range."""


class _Sweep:
    """The recurrence for g_k and g_k' up to k = n, run over many points at once.

    Every point gets a step towards a zero of g_n, the Christoffel
    weight of the node that step leads to and, on request, the number
    of zeros of g_n below it.  Memory is a few arrays the size of the
    point set.
    """

    def __init__(self, family: FamilySpec, rc: RecurrenceCoefficients, n: int, lo: float, hi: float) -> None:
        a, b = rc.a_hat[:n], rc.b_hat[:n]
        self.n, self.g0 = n, rc.g0
        # g_n solves p2 g'' + p1 g' = lambda g, the family's differential equation
        self.eigenvalue = family.spectral_term(n)
        self.p2, self.p1 = family.operator_coefficients()
        self.a, self.b = a.tolist(), b.tolist()
        # max(|g_k|, |g_k-1|, |g_k'|, |g_k-1'|) grows per step by at most
        # (|x - b_k| + a_k-1 + 1) / a_k for x in [lo, hi]; rescale each time
        # the bound has gained another _RESCALE_BITS
        reach = np.maximum(abs(lo - b), abs(hi - b)) + 1.0
        reach[1:] += a[:-1]
        bits = np.cumsum(np.log2(np.maximum(reach / a, 1.0))) // _RESCALE_BITS
        self.rescale_after = frozenset(np.searchsorted(bits, np.arange(1.0, bits[-1] + 1.0)).tolist())

    def __call__(self, x: np.ndarray, weights: bool = True, count: bool = False):
        """(step, weight or None, zeros below x or None) at every point of x.

        The step is Halley's, with g_n'' from the differential equation,
        wherever that changes Newton's step g_n / g_n' by less than a
        factor of two, and Newton's elsewhere; either way it vanishes
        only at a zero.  The weight is the Christoffel number
        1 / sum_{k<n} g_k^2 at x - step, to first order: with
        S = sum g_k^2 and T = sum g_k g_k' at x, that is 1 / (S - 2 step T).  Values are carried as
        mantissas times 2^e per point, so neither sum overflows before
        the weight itself underflows.  Without ``weights`` the sums are
        skipped, a quarter of the work.
        """
        cur = np.zeros((2, x.size))
        cur[0] = self.g0
        prev = np.zeros((2, x.size))
        sums = np.zeros((2, x.size))
        exponent = changes = 0
        a_prev = 0.0
        for k, (a, b) in enumerate(zip(self.a, self.b)):
            g = cur[0]
            if weights:
                sums += g * cur
            nxt = (x - b) * cur
            nxt -= a_prev * prev
            nxt[1] += g
            nxt /= a
            if count:
                changes = changes + ((nxt[0] < 0.0) != (g < 0.0))
            prev, cur, a_prev = cur, nxt, a
            if k in self.rescale_after:
                big = np.maximum(np.abs(cur).max(axis=0), np.abs(prev).max(axis=0))
                shift = np.maximum(np.frexp(big)[1], 0)
                cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
                sums = np.ldexp(sums, -2 * shift)
                exponent = exponent + shift
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = cur[0] / cur[1]
            # 1 - newton g''/(2 g') with g''/g' = (lambda newton - p1) / p2
            p1, p2 = _horner(self.p1, x), _horner(self.p2, x)
            factor = 1.0 - newton * (self.eigenvalue * newton - p1) / (2.0 * p2)
            step = np.where((factor > 0.5) & (factor < 2.0), newton / factor, newton)
            weight = 1.0 / (sums[0] - 2.0 * step * sums[1]) if weights else None
        if weights and self.rescale_after:
            weight = np.ldexp(weight, -2 * exponent)
        # sign changes along g_0(x), ..., g_n(x) count the zeros above x
        return step, weight, self.n - changes if count else None


def _horner(ascending: list, x: np.ndarray):
    """The polynomial with these ascending coefficients, at x."""
    value = ascending[-1]
    for c in ascending[-2::-1]:
        value = value * x + c
    return value


def _spacing(x: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest neighbour."""
    gaps = np.abs(np.diff(x))
    return np.minimum(np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf])))


def _newton(sweep: _Sweep, x: np.ndarray, spacing: np.ndarray, lo: float, hi: float):
    """Newton's iteration from x: (nodes, weights), with weights None unless it converged.

    The first sweep sums the weights, since seeds may already be the
    zeros (Chebyshev); later sweeps sum them only once the previous
    step was below _LAST_SWEEP.
    """
    weights = True
    for _ in range(_NEWTON_SWEEPS):
        step, weight, _ = sweep(x, weights)
        x = np.clip(x - step, lo, hi)
        size = np.abs(step)
        if weight is not None and (size <= _NEWTON_TOL * spacing).all():
            return x, weight
        weights = bool((size <= _LAST_SWEEP * spacing).all())
    return x, None


def _certified(nodes: np.ndarray, weights, spacing: np.ndarray) -> bool:
    """True when n converged nodes are n distinct zeros of g_n, hence all of them."""
    if weights is None:
        return False
    separated = np.diff(nodes) > _SEPARATION * np.minimum(spacing[:-1], spacing[1:])
    return bool(separated.all() and (weights >= 0.0).all())


def _isolate(sweep: _Sweep, x: np.ndarray, spacing: np.ndarray, lo: float, hi: float):
    """Brackets (below, above), each holding exactly one zero of g_n, in order.

    The counts of zeros below points just either side of every given
    point make the first brackets: a point that is a zero has no
    trustworthy count of its own.  Bisection on the count then splits
    every bracket that holds more or less than its own zero.
    """
    n = sweep.n
    x = np.where(np.isfinite(x), x, 0.5 * (lo + hi))
    offset = _SEPARATION * spacing
    points = np.sort(np.clip(np.concatenate((x - offset, x + offset)), lo, hi))
    below = np.maximum.accumulate(sweep(points, weights=False, count=True)[2])
    index = np.arange(n)
    left = np.searchsorted(below, index, side="right")  # points with at most k zeros below
    right = np.searchsorted(below, index + 1, side="left")  # first point with more than k
    points_lo, counts_lo = np.concatenate(([lo], points)), np.concatenate(([0], below))
    points_hi, counts_hi = np.concatenate((points, [hi])), np.concatenate((below, [n]))
    a, ca = points_lo[left], counts_lo[left]
    b, cb = points_hi[right], counts_hi[right]
    for _ in range(_BISECTION_SWEEPS):
        open_ = np.flatnonzero((ca != index) | (cb != index + 1))
        if not open_.size:
            return a, b
        mid = 0.5 * (a[open_] + b[open_])
        count = sweep(mid, weights=False, count=True)[2]
        up = count <= index[open_]
        a[open_[up]], ca[open_[up]] = mid[up], count[up]
        b[open_[~up]], cb[open_[~up]] = mid[~up], count[~up]
    raise RuntimeError(f"the zeros of g_{n} could not be separated by bisection")


def _repair(sweep: _Sweep, x: np.ndarray, spacing: np.ndarray, lo: float, hi: float):
    """Nodes and weights from isolating brackets, by Newton kept inside them.

    A bracket that holds one of the given points starts there, any other
    at its middle; a step that would leave the bracket bisects it instead.
    """
    a, b = _isolate(sweep, x, spacing, lo, hi)
    # the middles stand in for the zeros when measuring their spacing
    spacing = _spacing(0.5 * (a + b)) if sweep.n > 1 else b - a
    given = np.sort(x)
    x = given[np.minimum(np.searchsorted(given, a, side="right"), sweep.n - 1)]
    x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
    nodes, weights = np.empty_like(x), np.empty_like(x)
    # a point stops at its first converged step: another sweep could put a
    # bracket end on the zero itself, and leave no open bracket around it
    todo = np.arange(sweep.n)
    for _ in range(_NEWTON_SWEEPS + _BISECTION_SWEEPS):
        step, weight, below = sweep(x[todo], count=True)
        done = np.abs(step) <= _NEWTON_TOL * spacing[todo]
        nodes[todo[done]], weights[todo[done]] = x[todo[done]] - step[done], weight[done]
        todo, step, below = todo[~done], step[~done], below[~done]
        if not todo.size:
            return np.clip(nodes, lo, hi), weights, spacing
        up = below <= todo
        a[todo] = np.where(up, x[todo], a[todo])
        b[todo] = np.where(up, b[todo], x[todo])
        guess = x[todo] - step
        x[todo] = np.where((guess > a[todo]) & (guess < b[todo]), guess, 0.5 * (a[todo] + b[todo]))
    raise RuntimeError(f"Newton's iteration for the zeros of g_{sweep.n} did not converge")


def _newton_rule(family: FamilySpec, rc: RecurrenceCoefficients, n: int):
    """Zeros of g_n and their Christoffel weights, by Newton from the family's seeds.

    The result certifies itself: n converged, separated zeros inside the
    support are all n.  Otherwise the zeros are isolated by counting
    and found again.
    """
    a, b = rc.a_hat[: n - 1], rc.b_hat[:n]
    # Gershgorin's discs of the Jacobi matrix, cut to the support, hold every zero
    radius = np.concatenate(([0.0], a)) + np.concatenate((a, [0.0]))
    lo = max(family.support[0], float((b - radius).min()))
    hi = min(family.support[1], float((b + radius).max()))
    sweep = _Sweep(family, rc, n, lo, hi)
    # clipped like every later iterate: at n = 1 the interval is the one
    # zero b_0, which the first sweep then confirms
    seeds = np.clip(family.gauss_seeds(n), lo, hi)
    spacing = _spacing(seeds) if n > 1 else np.array([hi - lo])
    nodes, weights = _newton(sweep, seeds, spacing, lo, hi)
    if not _certified(nodes, weights, spacing):
        # a seed that led to a zero already taken, or to none: find the
        # zeros again by counting, from where Newton's iteration stopped
        nodes, weights, spacing = _repair(sweep, nodes, spacing, lo, hi)
        if not _certified(nodes, weights, spacing):
            raise RuntimeError(f"{family!r} rule with N = {n}: the Gauss nodes did not separate")
    return nodes, weights


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
    nodes, weights = _newton_rule(family, rc, n_points)
    underflowed = np.flatnonzero(weights == 0.0)
    if underflowed.size:
        k = int(underflowed[0])
        raise QuadratureRangeError(
            f"{family!r} rule with N = {n_points}: the weight at node {k} "
            f"(x = {nodes[k]:.6g}) underflows to 0 in double precision"
        )
    # an exponent near -1 puts a node within round-off of that end, where
    # Newton's step may land on the end itself; the nearest double inside
    # is as accurate
    lo, hi = family.support
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
