"""Bessel-kernel integral representations of the Laguerre-type sums.

For x < 0 the Laguerre polynomial values L_n^alpha(-x) equal a weighted
Bessel transform over [0, inf), and the eigenvalue-scaled sums at
t0 = 0 with integer shift c admit a double integral whose inner factor
is a terminating 2F0 series.  Everything here is evaluated honestly as
the stated integrals; the closed-form route through the orthonormal
family serves as the independent comparison side.

Numerical notes.  The Bessel series is summed in extended precision in
one array pass.  A scalar pass at the largest and smallest argument
bounds the number of terms first; then every term is built at once, a
running product of the term ratios down the rows of one array, and the
stopping index is the first where the largest term falls below
series_tol times the largest partial sum, as in a term-by-term loop.
The error estimate grows with the largest term, because the series
suffers catastrophic cancellation as the argument grows; it is
conservative, and it includes the rounding of the sum to double.  The
outer integrand carries an algebraic factor t^(n+alpha) at the origin
which would ruin plain Gauss-Legendre convergence for non-integer
alpha, so that factor is absorbed exactly into a mapped Gauss rule for
the weight (1+s)^(n+alpha) and only the remaining entire part is
sampled.  The Gauss rules come from ``quadrature.family_rule``, which
memoizes them by (family, size) in a bounded cache with read-only
arrays; repeated calls at the same (alpha, n) reuse one rule instead of
rebuilding it.  The prefactor e^-x limits x to above -log(DBL_MAX)
(about -709.78); beyond that the routes raise SeriesRangeError.
"""

from __future__ import annotations

import math

import numpy as np

from .gammafn import gamma_fn
from .polycore import Jacobi, LaguerreNeg, orthonormal_values, recurrence_coefficients
from .quadrature import family_rule

__all__ = [
    "SeriesRangeError",
    "CutoffError",
    "pochhammer",
    "bessel_j",
    "hyp2f0_terminating",
    "laguerre_via_bessel",
    "f_n_partial_sum",
    "sobolev_laguerre_integral_rep",
    "sobolev_laguerre_closed_form",
    "integral_rep_errors",
]


class SeriesRangeError(ValueError):
    """The ascending series cannot deliver the argument reliably."""


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


def pochhammer(c: float, k: int) -> float:
    """Shifted factorial (c)_k = c (c+1) ... (c+k-1), with (c)_0 = 1."""
    acc = 1.0
    for j in range(k):
        acc *= c + j
    return acc


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


def hyp2f0_terminating(n: int, theta):
    """Terminating sum 2F0(-n, 1; -; -1/theta) = sum_k (-n)_k (1)_k (-1/theta)^k / k!.

    theta = 0 is refused: the series form is singular there and the
    limit value is only meaningful inside the integrals below.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    ta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(ta == 0.0):
        raise ValueError("theta = 0 is outside the series form; only the limit value exists")
    term = np.ones_like(ta)
    total = term.copy()
    for k in range(n):
        # (1)_k / k! == 1, so each step multiplies by (k - n)(-1/theta)
        term = term * (k - n) * (-1.0 / ta)
        total += term
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return float(total[0])
    return total


def _auto_cutoff(p: float) -> float:
    """Smallest T with e^-T T^p below _TAIL_REL times the peak of e^-t t^p."""
    peak = math.exp(p * math.log(p) - p) if p > 0 else 1.0
    target = math.log(_TAIL_REL * peak)
    t = max(p + 5.0, 12.0)
    while -t + p * math.log(t) > target:
        t += 1.0
    return t


def _outer_rule(p: float, cutoff: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, weights and mass factor for integral_0^T t^p g(t) dt.

    Built from the Gauss rule of the one-sided weight (1+s)^p on
    [-1, 1], mapped by t = T (1+s) / 2; the returned factor multiplies
    the plain weighted sum of g values.
    """
    rule = family_rule(Jacobi(0.0, p), _OUTER_RULE_SIZE)
    t = 0.5 * cutoff * (rule.nodes + 1.0)
    # t = T (1+s)/2 turns the target into (T/2)^(p+1) sum w_i g(t_i)
    factor = (0.5 * cutoff) ** (p + 1.0)
    return t, rule.weights, factor


def _budget_guard(result: float, err: float) -> float:
    """Return the result unless the Bessel round-off estimate spoils it.

    A non-finite result or estimate, which the series reaches before
    the prefactor overflows, is refused the same way.
    """
    if not (math.isfinite(result) and err <= _BUDGET_REL * max(abs(result), 1.0)):
        raise CutoffError(
            f"Bessel series round-off budget {err:.3g} exceeds "
            f"{_BUDGET_REL} of the result scale {abs(result):.3g}; reduce the argument range"
        )
    return result


def _exp_range_guard(x: float) -> None:
    if x < -_EXP_LIMIT:
        raise SeriesRangeError(
            f"x = {x} is below {-_EXP_LIMIT:.6g}, where the prefactor e^-x overflows double precision"
        )


def _outer_cutoff(route: str, alpha: float, n: int, x: float) -> float:
    """Check the arguments of an outer Bessel integral; return its cutoff T."""
    if not x < 0.0:
        raise ValueError(f"the {route} needs strictly negative x")
    if not alpha > -1.0:
        raise ValueError("alpha must exceed -1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    _exp_range_guard(x)
    return _auto_cutoff(n + alpha / 2.0)


def laguerre_via_bessel(alpha: float, n: int, x: float) -> float:
    """L_n^alpha(-x) for x < 0 through its Bessel integral.

    Evaluates (1/n!) e^-x (-x)^(-alpha/2) times the integral over
    t in [0, T] of e^-t t^(n+alpha/2) J_alpha(2 sqrt(-t x)); the
    algebraic origin factor t^(n+alpha) (Bessel part included) is
    absorbed into the quadrature weight.
    """
    cutoff = _outer_cutoff("Bessel route", alpha, n, x)
    t, w, factor = _outer_rule(n + alpha, cutoff)
    reg, reg_err = _bessel_reg(alpha, -t * x, _SERIES_TOL)
    g = np.exp(-t) * (-x) ** (alpha / 2.0) * reg
    g_err = np.exp(-t) * (-x) ** (alpha / 2.0) * reg_err
    integral = factor * float(w @ g)
    budget = factor * float(np.abs(w) @ g_err)
    prefactor = math.exp(-x) * (-x) ** (-alpha / 2.0) / math.factorial(n)
    return _budget_guard(prefactor * integral, prefactor * budget)


def _inner_rule(size: int) -> tuple[np.ndarray, np.ndarray]:
    rule = family_rule(Jacobi(0.0, 0.0), size)
    return rule.nodes, rule.weights


def f_n_partial_sum(c: int, n: int, t: float) -> tuple[float, float]:
    """Both routes to f_n(t) = sum_{k<=n} t^k / ((k+c) k!), c a positive integer.

    Returns (direct sum, integral form); the integral form is
    (1/n!) t^-c integral_0^t theta^(n+c-1) 2F0(-n, 1; -; -1/theta) dtheta,
    evaluated with a mapped Gauss-Legendre rule (the integrand is a
    polynomial, so the rule is exact).
    """
    if not (isinstance(c, (int, np.integer)) and c >= 1):
        raise ValueError("c must be a positive integer")
    if not t > 0.0:
        raise ValueError("the integral form needs t > 0")
    direct = 0.0
    for k in range(n + 1):
        direct += t**k / ((k + c) * math.factorial(k))
    size = max(_INNER_RULE_SIZE, (n + c) // 2 + 2)
    s, w = _inner_rule(size)
    theta = 0.5 * t * (s + 1.0)
    vals = theta ** (n + c - 1) * hyp2f0_terminating(n, theta)
    integral = 0.5 * t * float(w @ vals)
    integral_form = integral * t ** (-c) / math.factorial(n)
    return direct, integral_form


def sobolev_laguerre_integral_rep(alpha: float, c: int, n: int, x: float) -> float:
    """Double-integral route to the edge Laguerre-type Sobolev sum, x < 0.

    Evaluates (1/(Gamma(alpha+1) n!)) e^-x (-x)^(-alpha/2) times the
    double integral of e^-t t^(alpha/2-c) theta^(n+c-1)
    J_alpha(2 sqrt(-tx)) 2F0(-n, 1; -; -1/theta) over 0 < theta < t < T.
    The inner integral is polynomial and handled exactly; the outer
    algebraic factor t^alpha is absorbed into the rule weight.
    """
    if not (isinstance(c, (int, np.integer)) and c >= 1):
        raise ValueError("c must be a positive integer")
    cutoff = _outer_cutoff("integral representation", alpha, n, x)
    t, w, factor = _outer_rule(alpha, cutoff)
    inner_size = max(_INNER_RULE_SIZE, (n + int(c)) // 2 + 2)
    s_in, w_in = _inner_rule(inner_size)
    theta = 0.5 * np.outer(t, s_in + 1.0)
    inner_vals = theta ** (n + c - 1) * hyp2f0_terminating(n, theta)
    inner = 0.5 * t * (inner_vals @ w_in)
    reg, reg_err = _bessel_reg(alpha, -t * x, _SERIES_TOL)
    g = np.exp(-t) * (-x) ** (alpha / 2.0) * reg * inner / t ** float(c)
    g_err = np.exp(-t) * (-x) ** (alpha / 2.0) * reg_err * np.abs(inner) / t ** float(c)
    integral = factor * float(w @ g)
    budget = factor * float(np.abs(w) @ g_err)
    prefactor = math.exp(-x) * (-x) ** (-alpha / 2.0) / (gamma_fn(alpha + 1.0) * math.factorial(n))
    return _budget_guard(prefactor * integral, prefactor * budget)


def sobolev_laguerre_closed_form(alpha: float, c: float, n: int, x) -> float:
    """Independent route: the same sum through the orthonormal family.

    sum_{k<=n} g_k(0) g_k(x) / (k + c) with g the reflected-Laguerre
    orthonormal polynomials; no Bessel function or quadrature involved.
    """
    fam = LaguerreNeg(alpha)
    rc = recurrence_coefficients(fam, max(n, 1))
    g0v = orthonormal_values(rc, n, 0.0)
    gxv = orthonormal_values(rc, n, x)
    k = np.arange(n + 1, dtype=float)
    res = np.tensordot(g0v / (k + c), gxv, axes=(0, 0))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(res)
    return res


def integral_rep_errors(alpha: float, c: int, n_max: int, x_grid) -> np.ndarray:
    """Relative errors of the double integral against the closed form.

    Entry [n, j] is |integral - closed| / max(|closed|, 1) at order n and
    x = x_grid[j], for n = 0..n_max.
    """
    err = np.zeros((n_max + 1, len(x_grid)))
    for n in range(n_max + 1):
        for j, x in enumerate(x_grid):
            ref = sobolev_laguerre_closed_form(alpha, float(c), n, x)
            got = sobolev_laguerre_integral_rep(alpha, c, n, x)
            err[n, j] = abs(got - ref) / max(abs(ref), 1.0)
    return err
