"""Bessel-kernel integral representations of the Laguerre-type sums.

For x < 0 the Laguerre polynomial values L_n^alpha(-x) equal a weighted
Bessel transform over [0, inf), and the eigenvalue-scaled sums at
t0 = 0 with integer shift c admit a double integral whose inner factor
is a terminating 2F0 series.  Everything here is evaluated honestly as
the stated integrals; the closed-form route through the orthonormal
family, the order-n entry of ``kernels.sobolev_tables``, serves as the
independent comparison side.  Both integral routes share one outer
Bessel integral, ``_bessel_integral``, and the double integral and
``f_n_partial_sum`` share one inner integral, ``_inner_integral``.

Numerical notes.  The Bessel series is summed in extended precision in
one array pass.  A scalar pass at the largest and smallest argument
bounds the number of terms first; then every term is built at once, a
running product of the term ratios down the rows of one array, and the
stopping index is the first where the largest term falls below
series_tol times the largest partial sum, as in a term-by-term loop.
The error estimate grows with the largest term, because the series
suffers catastrophic cancellation as the argument grows; it is
conservative, and it includes the rounding of the sum to double.  Both
routes integrate over t against the algebraic factor t^alpha at the
origin, which would ruin plain Gauss-Legendre convergence for
non-integer alpha, so that factor is absorbed exactly into one mapped
Gauss rule for the weight (1+s)^alpha and only entire factors are
sampled: the shared Bessel column (-x)^(alpha/2) A_alpha(-t x) and the
route's own factor, the Poisson weight e^-t t^n / n! (formed from its
logarithm, so it cannot overflow) for the single integral and
e^-t I(t) / t^c for the double one.  The inner factor
theta^(n+c-1) 2F0(-n, 1; -; -1/theta) equals n! theta^(c-1) e_n(theta),
e_n the exponential partial sum; it is summed in that form, whose terms
are all positive, and the n! cancels against the prefactor.

Two bounded caches with read-only arrays keep what repeats, the way
``quadrature.family_rule`` keeps the Gauss rules: ``_bessel_column``
holds the Bessel column per (alpha, n, x), so the second route at a
point sums no series, and ``_inner_factor`` holds e^-t I(t) / t^c per
(alpha, n, c), which does not depend on x.  The comparison sides,
``sobolev_tables`` and the orthonormal recurrence, read neither.  The
prefactor e^-x limits x to above -log(DBL_MAX) (about -709.78); beyond
that the routes raise SeriesRangeError, as they do where e_n(theta)
overflows on the outer range (from n = 527 at alpha = 0).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .gammafn import gamma_fn
from .kernels import sobolev_tables
from .polycore import Jacobi, LaguerreNeg
from .quadrature import family_rule

__all__ = [
    "SeriesRangeError",
    "CutoffError",
    "bessel_j",
    "laguerre_via_bessel",
    "f_n_partial_sum",
    "sobolev_laguerre_integral_rep",
    "sobolev_laguerre_closed_form",
    "integral_rep_errors",
]


class SeriesRangeError(ValueError):
    """The ascending series, or a double, cannot deliver the argument reliably."""


class CutoffError(RuntimeError):
    """Truncation or series round-off exceeds the accuracy budget."""


_LD_EPS = float(np.finfo(np.longdouble).eps)
# e^-x in the prefactors overflows a double for x below -_EXP_LIMIT
_EXP_LIMIT = math.log(np.finfo(float).max)


# the Bessel series stops at the first term below _SERIES_TOL times its
# largest partial sum; the outer cutoff T leaves a tail below _TAIL_REL
# times the integrand peak; an evaluation whose Bessel round-off estimate
# exceeds _BUDGET_REL of the result scale is refused; bessel_j refuses
# arguments beyond _ZMAX
_SERIES_TOL = 1e-15
_TAIL_REL = 1e-16
_BUDGET_REL = 1e-3
_ZMAX = 30.0
# Gauss rule sizes of the outer integral and of the inner (polynomial) one
_OUTER_RULE_SIZE = 140
_INNER_RULE_SIZE = 24
# entries of the Bessel column cache, keyed (alpha, n, x), and of the inner
# factor cache, keyed (alpha, n, c); one entry is a few 140-point arrays
_COLUMN_CACHE_SIZE = 16
_INNER_CACHE_SIZE = 64


def _term_bound(nu: float, lead: float, w_top: float, w_min: float, series_tol: float) -> int:
    """An upper bound on the stopping index of the series on [w_min, w_top].

    Every term is largest in magnitude at w_top, and |S_k(w_min)| is at
    most the largest partial sum over all arguments, so the first k with
    |term_k(w_top)| <= series_tol * |S_k(w_min)| is never earlier than
    the stopping index of ``_bessel_block``; it is usually the same k,
    as |A_nu| is largest near w = 0.  This scalar pass runs in double
    precision, so one more term covers its rounding.  At most m_cap.
    """
    m_cap = int(max(40, 2.0 * math.sqrt(max(w_top, 1.0)) + 60))
    top = low = low_sum = lead
    for k in range(1, m_cap + 1):
        d = k * (k + nu)
        top *= -w_top / d
        low *= -w_min / d
        low_sum += low
        if abs(top) <= series_tol * max(abs(low_sum), 1e-300):
            return min(k + 1, m_cap)
    return m_cap


def _bessel_block(nu: float, wa: np.ndarray, series_tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Sum, peak |term| per component, and the stopping index m, for one block of arguments.

    All terms up to the bound of ``_term_bound`` are built in one
    extended-precision array: term k is term k - 1 times the ratio
    -w / (k (k + nu)), a running product down the rows.  The stopping
    index m is the first with max |term_m| <= series_tol * max |S_m|
    over the block, and the sum is S_m, added in order of m.
    """
    ld = np.longdouble
    top = int(wa.argmax())
    w_top = float(wa[top])
    lead = ld(1.0) / ld(gamma_fn(nu + 1.0))
    bound = _term_bound(nu, float(lead), w_top, float(wa.min()), series_tol)
    k = np.arange(1, bound + 1, dtype=ld)
    terms = np.empty((bound + 1, wa.size), dtype=ld)
    terms[0] = lead
    np.multiply((-1.0 / (k * (k + ld(nu))))[:, None], wa, out=terms[1:])
    np.cumprod(terms, axis=0, out=terms)
    # |term_k| grows while k (k + nu) < w, so no column peaks after row k_top + 1
    k_top = int(0.5 * (math.sqrt(nu * nu + 4.0 * w_top) - nu))
    peak = np.abs(terms[: k_top + 2]).max(axis=0)
    largest = np.abs(terms[:, top])
    # no partial sum exceeds the sum of the largest terms, so the stop is at `first` or later
    first = max(1, int(np.argmax(largest <= series_tol * np.cumsum(largest))))
    sums = np.cumsum(terms, axis=0, out=terms)
    done = largest[first:] <= series_tol * np.maximum(np.abs(sums[first:]).max(axis=1), 1e-300)
    m = first + int(done.argmax()) if done.any() else bound
    return sums[m], peak, m


# arguments per block, so that the term arrays stay within a few megabytes
_BLOCK = 2048


def _bessel_reg(nu: float, w, series_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Entire part A_nu(w) = sum (-1)^m w^m / (m! Gamma(m+nu+1)) and error estimate.

    J_nu(2 sqrt(w)) = w^(nu/2) A_nu(w) for w >= 0.  Each block of
    arguments is summed by ``_bessel_block`` in one array pass.  The
    returned estimate bounds the round-off from cancellation
    (conservatively) per component, plus one unit in the last place for
    the rounding of the sum to double.  It does not cover the error of
    Gamma(nu + 1) itself.
    """
    wa = np.atleast_1d(np.asarray(w, dtype=np.longdouble))
    flat = wa.ravel()
    total = np.empty(flat.shape)
    est = np.empty(flat.shape)
    for lo in range(0, flat.size, _BLOCK):
        block_sum, peak, m = _bessel_block(nu, flat[lo : lo + _BLOCK], series_tol)
        total[lo : lo + _BLOCK] = block_sum
        est[lo : lo + _BLOCK] = peak * (_LD_EPS * 4.0 * math.sqrt(m + 1.0))
    est += np.spacing(np.abs(total))
    return total.reshape(wa.shape), est.reshape(wa.shape)


def bessel_j(nu: float, z):
    """Bessel function of the first kind by its ascending series.

    Valid for nu > -1 and 0 <= z <= 30; beyond that range
    the cancellation in the series outruns the extended-precision
    accumulator and the call refuses rather than degrade silently.
    """
    if not nu > -1.0:
        raise ValueError("bessel_j requires nu > -1")
    za = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(za < 0.0):
        raise ValueError("bessel_j requires z >= 0")
    if float(za.max()) > _ZMAX:
        raise SeriesRangeError(
            f"z = {float(za.max())} exceeds the series-safe range {_ZMAX}; "
            "the ascending series would lose the result to cancellation"
        )
    w = (za / 2.0) ** 2
    reg, _ = _bessel_reg(nu, w, _SERIES_TOL)
    with np.errstate(divide="ignore"):
        powers = (za / 2.0) ** nu
    at_zero = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
    vals = np.where(za > 0.0, powers * reg, at_zero)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(vals[0])
    return vals


def _auto_cutoff(p: float) -> float:
    """Smallest T with e^-T T^p below _TAIL_REL times the peak of e^-t t^p.

    The peak e^(p log p - p) is kept as its logarithm, since it
    overflows a double from p = 171.
    """
    target = math.log(_TAIL_REL) + (p * math.log(p) - p if p > 0 else 0.0)
    t = max(p + 5.0, 12.0)
    while -t + p * math.log(t) > target:
        t += 1.0
    return t


def _outer_rule(alpha: float, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The outer rule at (alpha, n): its mass (T/2)^(alpha+1), weights and nodes t on [0, T].

    The Gauss rule of the one-sided weight (1+s)^alpha on [-1, 1],
    mapped by t = T (1+s)/2; the cutoff T leaves a tail below _TAIL_REL
    of the peak of e^-t t^(n + alpha/2).
    """
    cutoff = _auto_cutoff(n + alpha / 2.0)
    rule = family_rule(Jacobi(0.0, alpha), _OUTER_RULE_SIZE)
    t = 0.5 * cutoff * (rule.nodes + 1.0)
    t.setflags(write=False)
    return (0.5 * cutoff) ** (alpha + 1.0), rule.weights, t


@functools.lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _bessel_column(alpha: float, n: int, x: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The outer rule at (alpha, n), (-x)^(alpha/2) A_alpha(-t x) on its nodes t, and its round-off estimate.

    Both routes sample the same column at one (alpha, n, x), so it is
    summed once while it stays in the bounded cache.  The arrays are
    read-only because every caller shares them.
    """
    mass, weights, t = _outer_rule(alpha, n)
    reg, reg_err = _bessel_reg(alpha, -t * x, _SERIES_TOL)
    root = (-x) ** (alpha / 2.0)
    col, col_err = root * reg, root * reg_err
    col.setflags(write=False)
    col_err.setflags(write=False)
    return mass, weights, t, col, col_err


def _bessel_integral(route: str, alpha: float, n: int, x: float, divisor: float, factor) -> float:
    """The outer Bessel integral of both routes, refused where its round-off spoils it.

    Returns e^-x (-x)^(-alpha/2) / divisor times the integral over
    t in [0, T] of t^alpha (-x)^(alpha/2) A_alpha(-t x) h(t), where
    J_alpha(2 sqrt(-t x)) = (-t x)^(alpha/2) A_alpha(-t x) and
    h = ``factor(t)`` is the route's own nonnegative factor on the outer
    nodes.  The origin factor t^alpha is absorbed into the rule of
    ``_outer_rule``, which turns the integral into
    (T/2)^(alpha+1) sum w_i g(t_i); the rule, the Bessel column and its
    estimate come from ``_bessel_column``.  A non-finite result or estimate,
    which the series reaches before the prefactor overflows, is refused
    like an estimate beyond _BUDGET_REL of the result scale.
    """
    if not x < 0.0:
        raise ValueError(f"the {route} needs strictly negative x")
    if not alpha > -1.0:
        raise ValueError("alpha must exceed -1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if x < -_EXP_LIMIT:
        raise SeriesRangeError(
            f"x = {x} is below {-_EXP_LIMIT:.6g}, where the prefactor e^-x overflows double precision"
        )
    mass, weights, t, col, col_err = _bessel_column(alpha, n, x)
    h = factor(t)
    prefactor = math.exp(-x) * (-x) ** (-alpha / 2.0) / divisor
    result = prefactor * (mass * float(weights @ (h * col)))
    err = prefactor * (mass * float(np.abs(weights) @ (h * col_err)))
    if not (math.isfinite(result) and err <= _BUDGET_REL * max(abs(result), 1.0)):
        raise CutoffError(
            f"Bessel series round-off budget {err:.3g} exceeds "
            f"{_BUDGET_REL} of the result scale {abs(result):.3g}; reduce the argument range"
        )
    return result


def laguerre_via_bessel(alpha: float, n: int, x: float) -> float:
    """L_n^alpha(-x) for x < 0 through its Bessel integral.

    Evaluates e^-x (-x)^(-alpha/2) times the integral over t in [0, T]
    of (e^-t t^n / n!) t^(alpha/2) J_alpha(2 sqrt(-t x)); the algebraic
    origin factor t^alpha (Bessel part included) is absorbed into the
    quadrature weight, and the Poisson factor e^-t t^n / n! is sampled
    as exp(n log t - t - log n!), which stays in range at every n.
    """
    return _bessel_integral("Bessel route", alpha, n, x, 1.0,
                            lambda t: np.exp(n * np.log(t) - t - math.lgamma(n + 1.0)))


def _inner_integral(n: int, c: int, t):
    """integral_0^t theta^(c-1) e_n(theta) dtheta, for scalar or array t.

    e_n(theta) = sum_{j<=n} theta^j / j! = (theta^n / n!) 2F0(-n, 1; -; -1/theta)
    is summed by Horner's rule; every term is positive, so nothing
    cancels and nothing overflows before e^theta does.  The integrand is
    a polynomial of degree n + c - 1, so the mapped Gauss-Legendre rule
    of at least (n + c)/2 + 2 points is exact.
    """
    rule = family_rule(Jacobi(0.0, 0.0), max(_INNER_RULE_SIZE, (n + c) // 2 + 2))
    theta = 0.5 * np.multiply.outer(t, rule.nodes + 1.0)
    e_n = np.ones_like(theta)
    with np.errstate(over="ignore"):
        for j in range(n, 0, -1):
            e_n = 1.0 + theta * e_n / j
        vals = theta ** (c - 1) * e_n
    if not np.isfinite(vals).all():
        raise SeriesRangeError(
            f"the inner factor theta^(c-1) e_n(theta) at c = {c}, n = {n} overflows double "
            f"precision for theta up to {float(np.max(theta)):.6g}; reduce n"
        )
    return 0.5 * t * (vals @ rule.weights)


@functools.lru_cache(maxsize=_INNER_CACHE_SIZE)
def _inner_factor(alpha: float, n: int, c: int) -> np.ndarray:
    """e^-t I(t) / t^c on the outer nodes t at (alpha, n), I the inner integral.

    It does not depend on x, so a table over an x grid builds it once
    per order while it stays in the bounded cache; read-only because
    every caller shares it.
    """
    t = _outer_rule(alpha, n)[2]
    vals = np.exp(-t) * _inner_integral(n, c, t) / t**c
    vals.setflags(write=False)
    return vals


def f_n_partial_sum(c: int, n: int, t: float) -> tuple[float, float]:
    """Both routes to f_n(t) = sum_{k<=n} t^k / ((k+c) k!), c a positive integer.

    Returns (direct sum, integral form); the direct sum forms each
    t^k / k! from the one before by the ratio t / k, and the integral
    form is t^-c integral_0^t theta^(c-1) e_n(theta) dtheta with e_n the
    exponential partial sum, that is (1/n!) t^-c times the integral of
    theta^(n+c-1) 2F0(-n, 1; -; -1/theta), evaluated with a mapped
    Gauss-Legendre rule (the integrand is a polynomial, so the rule is
    exact).  The integral form is evaluated first: near theta = t its
    integrand is about t^(c-1) e_n(t), above every term t^k / k! of the
    direct sum once t is large enough for either to overflow, so its
    SeriesRangeError names the overflow.
    """
    if not (isinstance(c, (int, np.integer)) and c >= 1):
        raise ValueError("c must be a positive integer")
    if not t > 0.0:
        raise ValueError("the integral form needs t > 0")
    integral = float(_inner_integral(n, int(c), t)) * t ** (-c)
    direct, term = 1.0 / c, 1.0
    for k in range(1, n + 1):
        term *= t / k
        direct += term / (k + c)
    return direct, integral


def sobolev_laguerre_integral_rep(alpha: float, c: int, n: int, x: float) -> float:
    """Double-integral route to the edge Laguerre-type Sobolev sum, x < 0.

    Evaluates (1/(Gamma(alpha+1) n!)) e^-x (-x)^(-alpha/2) times the
    double integral of e^-t t^(alpha/2-c) theta^(n+c-1)
    J_alpha(2 sqrt(-tx)) 2F0(-n, 1; -; -1/theta) over 0 < theta < t < T.
    The inner integrand is n! theta^(c-1) e_n(theta), so the n! cancels
    and the inner integral, a polynomial one, is exact; the outer
    algebraic factor t^alpha is absorbed into the rule weight, and the
    factor e^-t I(t) / t^c comes from ``_inner_factor``.
    """
    if not (isinstance(c, (int, np.integer)) and c >= 1):
        raise ValueError("c must be a positive integer")
    c = int(c)
    return _bessel_integral("integral representation", alpha, n, x, gamma_fn(alpha + 1.0),
                            lambda t: _inner_factor(alpha, n, c))


def sobolev_laguerre_closed_form(alpha: float, c: float, n: int, x) -> float:
    """Independent route: the same sum through the orthonormal family.

    sum_{k<=n} g_k(0) g_k(x) / (k + c) with g the reflected-Laguerre
    orthonormal polynomials, the order-n entry of ``sobolev_tables``; no
    Bessel function or quadrature involved.
    """
    res = sobolev_tables(LaguerreNeg(alpha), c, 0.0, n, x, 0)[0, n]
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(res)
    return res


def integral_rep_errors(alpha: float, c: int, n_max: int, x_grid) -> np.ndarray:
    """Relative errors of the double integral against the closed form.

    Entry [n, j] is |integral - closed| / max(|closed|, 1) at order n and
    x = x_grid[j], for n = 0..n_max.  The closed form of every entry
    comes from one ``sobolev_tables`` call over the grid.
    """
    ref = sobolev_tables(LaguerreNeg(alpha), float(c), 0.0, n_max, np.asarray(x_grid, dtype=float), 0)[0]
    err = np.zeros((n_max + 1, len(x_grid)))
    for n in range(n_max + 1):
        for j, x in enumerate(x_grid):
            got = sobolev_laguerre_integral_rep(alpha, c, n, x)
            err[n, j] = abs(got - ref[n, j]) / max(abs(ref[n, j]), 1.0)
    return err
