"""Reference implementations used only by the tests.

Everything here deliberately avoids the package's own evaluation paths:
classical values come from terminating hypergeometric sums or
trigonometric closed forms with stdlib gamma functions, recurrence
coefficients from Gram-Schmidt on moment matrices, and derivatives from
finite differences.  The exceptions are earlier, slower forms of package
routines, kept as the references their faster forms must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from modkernel.polycore import DensePolynomial


def jacobi_poly_value(alpha: float, beta: float, n: int, x: float) -> float:
    """P_n for the (1-x)^alpha (1+x)^beta weight, hypergeometric form."""
    if x < 0.0:
        # reflect so the series argument stays small (conditioning)
        return (-1.0) ** n * jacobi_poly_value(beta, alpha, n, -x)
    # C(n+alpha, n) * sum_k (-n)_k (n+a+b+1)_k / ((a+1)_k k!) * ((1-x)/2)^k
    binom = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(n + 1) - math.lgamma(alpha + 1))
    term = 1.0
    total = 1.0
    z = 0.5 * (1.0 - x)
    for k in range(n):
        term *= (k - n) * (n + alpha + beta + 1 + k) / ((alpha + 1 + k) * (k + 1)) * z
        total += term
    return binom * total


def jacobi_orthonormal_value(alpha: float, beta: float, n: int, x: float) -> float:
    """Orthonormal version with positive leading coefficient."""
    if n == 0:
        lg_mass = (alpha + beta + 1) * math.log(2.0) + math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2)
        return math.exp(-0.5 * lg_mass)
    lg = (
        math.log(2 * n + alpha + beta + 1)
        + math.lgamma(n + 1)
        + math.lgamma(n + alpha + beta + 1)
        - (alpha + beta + 1) * math.log(2.0)
        - math.lgamma(n + alpha + 1)
        - math.lgamma(n + beta + 1)
    )
    return math.exp(0.5 * lg) * jacobi_poly_value(alpha, beta, n, x)


def laguerre_poly_value(alpha: float, n: int, y: float) -> float:
    """L_n for the y^alpha e^-y weight on [0, inf), by recurrence."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - y) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def laguerre_orthonormal_reflected(alpha: float, n: int, x: float) -> float:
    """Orthonormal family for the (-x)^alpha e^x weight on (-inf, 0]."""
    lg_norm = math.lgamma(alpha + 1) + math.lgamma(n + alpha + 1) - math.lgamma(n + 1) - math.lgamma(alpha + 1)
    return laguerre_poly_value(alpha, n, -x) * math.exp(-0.5 * lg_norm)


def chebyshev_orthonormal_value(n: int, x: float) -> float:
    """First-kind orthonormal Chebyshev value, trigonometric form."""
    if n == 0:
        return 1.0 / math.sqrt(math.pi)
    if abs(x) <= 1.0:
        t = math.cos(n * math.acos(x))
    elif x > 1.0:
        t = math.cosh(n * math.acosh(x))
    else:
        t = (-1.0) ** n * math.cosh(n * math.acosh(-x))
    return math.sqrt(2.0 / math.pi) * t


def jacobi_recurrence_scalar(alpha: float, beta: float, n_max: int):
    """Jacobi a_hat and b_hat from the closed forms, one index at a time.

    The scalar loops ``Jacobi.recurrence`` ran before it evaluated the
    same formulas as array expressions; returns (a_hat, b_hat).
    """
    ab = alpha + beta
    b_hat = np.empty(n_max + 1)
    b_hat[0] = (beta - alpha) / (ab + 2.0)
    for k in range(1, n_max + 1):
        b_hat[k] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    sq = np.empty(n_max + 1)
    sq[0] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    for k in range(2, n_max + 2):
        s = 2.0 * k + ab
        sq[k - 1] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    return np.sqrt(sq), b_hat


def jacobi_moments_lowdeg(alpha: float, beta: float, k_max: int) -> np.ndarray:
    """Moments of (1-x)^alpha (1+x)^beta by binomial beta-function sums.

    A different algorithm from any in the package; trustworthy for
    moderate k only (alternating binomial sums), which is all the
    cross-checks need.
    """

    def beta_f(a, b):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))

    out = np.zeros(k_max + 1)
    scale = 2.0 ** (alpha + beta + 1.0)
    for k in range(k_max + 1):
        acc = 0.0
        for j in range(k + 1):
            acc += math.comb(k, j) * (-2.0) ** j * beta_f(alpha + 1.0 + j, beta + 1.0)
        out[k] = scale * acc
    return out


def laguerre_neg_moments(alpha: float, k_max: int) -> np.ndarray:
    return np.array([(-1.0) ** k * math.exp(math.lgamma(alpha + k + 1.0)) for k in range(k_max + 1)])


def recurrence_from_moments(moments: np.ndarray, n_max: int):
    """Gram-Schmidt on the moment (Hankel) matrix.

    Returns (a_hat, b_hat) for indices 0..n_max, derived from the
    Cholesky factor of H[i, j] = m_{i+j}; conditioning limits this to
    small n, which is exactly its role as an independent oracle.
    """
    size = n_max + 2
    h = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            h[i, j] = moments[i + j]
    chol = np.linalg.cholesky(h)
    coeffs = np.linalg.inv(chol).copy()  # row n = coefficients of g_n

    def inner_x(pa, pb):
        # integral of x * pa(x) * pb(x) against the measure
        acc = 0.0
        for i, ca in enumerate(pa):
            for j, cb in enumerate(pb):
                acc += ca * cb * moments[i + j + 1]
        return acc

    a_hat = np.empty(n_max + 1)
    b_hat = np.empty(n_max + 1)
    for n in range(n_max + 1):
        b_hat[n] = inner_x(coeffs[n, : n + 1], coeffs[n, : n + 1])
        a_hat[n] = inner_x(coeffs[n, : n + 1], coeffs[n + 1, : n + 2])
    return a_hat, b_hat


def dense_gauss_rule(b_hat: np.ndarray, a_hat: np.ndarray, mu0: float, n_points: int):
    """Golub-Welsch rule from LAPACK's dense symmetric eigensolver.

    Nodes are the eigenvalues of the N x N Jacobi matrix (diagonal
    b_hat, off-diagonal a_hat); weights are mu0 times the squared first
    components of its normalized eigenvectors.  Structurally independent
    of the package's Newton iteration on the recurrence.
    """
    jac = np.diag(np.asarray(b_hat[:n_points], dtype=float))
    off = np.asarray(a_hat[: n_points - 1], dtype=float)
    jac += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, mu0 * vecs[0] ** 2


# QL deflation threshold relative to the neighboring diagonal scale
_QL_DEFLATION = 1e-14
_QL_MAX_SWEEPS = 50


def _tridiag_eigen_first(d, e, max_iter: int = _QL_MAX_SWEEPS):
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
                if abs(e[m]) <= _QL_DEFLATION * (abs(d[m]) + abs(d[m + 1])):
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


def ql_gauss_rule(b_hat: np.ndarray, a_hat: np.ndarray, mu0: float, n_points: int):
    """Golub-Welsch rule from an implicit-shift QL iteration in pure Python.

    Nodes are the eigenvalues of the N x N Jacobi matrix, weights mu0
    times the squared first eigenvector components; O(N^2) work and
    O(N) memory.  Independent of the package's Newton iteration on the
    recurrence, and of LAPACK.
    """
    nodes, first = _tridiag_eigen_first(b_hat[:n_points], a_hat[: n_points - 1])
    return nodes, mu0 * first**2


def bessel_series_oracle(nu: float, w, series_tol: float, gamma_nu1: float):
    """Entire part A_nu(w) of J_nu by the ascending series, one term at a time.

    The per-term loop the package used before it summed the series in
    one array pass: each term from the last by the ratio -w / (m (m + nu))
    in extended precision (m + nu too: formed in double, as the loop once
    did, it loses about 1e-16 per term when nu is not a short binary
    fraction, such as 1.3), a convergence test after every term
    (max |term| <= series_tol * max |total| over all components), and the
    round-off estimate peak |term| * eps * 4 sqrt(m + 1) plus one unit in
    the last place of the double sum.  Gamma(nu + 1) is passed in, so the
    oracle and the package share the first term.  Returns (sum, estimate,
    number of terms after the first).
    """
    ld = np.longdouble
    wa = np.atleast_1d(np.asarray(w, dtype=ld))
    term = np.full_like(wa, ld(1.0) / ld(gamma_nu1))
    total = term.copy()
    peak = np.abs(term)
    w_top = float(wa.max())
    m_cap = int(max(40, 2.0 * math.sqrt(max(w_top, 1.0)) + 60))
    m = 0
    for m in range(1, m_cap + 1):
        term = -term * wa / (ld(m) * (ld(m) + ld(nu)))
        total += term
        np.maximum(peak, np.abs(term), out=peak)
        if float(np.abs(term).max()) <= series_tol * max(float(np.abs(total).max()), 1e-300):
            break
    total = total.astype(float)
    est = peak.astype(float) * (float(np.finfo(ld).eps) * 4.0 * math.sqrt(m + 1.0)) + np.spacing(np.abs(total))
    return total, est, m


def orthonormal_coeffs_loop(rc, n: int) -> list:
    """Coefficient arrays of g_0..g_n, one recurrence step per degree.

    The loop ``orthonormal_coeffs`` ran for each degree before the
    coefficients came from one table: each g_(k+1) a fresh array built
    from g_k and g_(k-1).
    """
    prev = np.zeros(1)
    cur = np.array([rc.g0])
    out = [cur]
    for k in range(n):
        nxt = np.zeros(k + 2)
        nxt[1:] = cur
        nxt[: k + 1] -= rc.b_hat[k] * cur
        if k >= 1:
            nxt[:k] -= rc.a_hat[k - 1] * prev
        nxt /= rc.a_hat[k]
        prev, cur = cur, nxt
        out.append(cur)
    return out


def modified_kernel_accumulation(rc, c, n: int):
    """u_n = sum c_k g_k as a running sum of polynomials, degree by degree.

    The accumulation ``modified_kernel`` ran before it summed the rows of
    one coefficient table; returns a ``DensePolynomial``.
    """
    acc = DensePolynomial.zero()
    for k, g in enumerate(orthonormal_coeffs_loop(rc, n)):
        acc = acc + float(c[k]) * DensePolynomial(g)
    return acc


def gram_by_operator_images(wgt, polys, rule) -> np.ndarray:
    """Gram matrix from one ``operator_image`` per polynomial.

    The rows ``gram_matrix`` evaluated one polynomial at a time before it
    ran one stacked Horner pass; the nodes lie inside the support, where
    the (t0 - x) factor is nonnegative.
    """
    rows = np.array([wgt.operator_image(p, rule.nodes) for p in polys])
    return (rows * (rule.weights * (wgt.t0 - rule.nodes))) @ rows.T


def fd1(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd2(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def associated_values_loop(p, lambdas, n: int) -> np.ndarray:
    """p_0..p_n at the sample points, band coefficients formed inside the sweep.

    The sweep ``associated_values`` ran before it formed the coefficients
    alpha_k - lambda b_k and beta_k - lambda a_k as arrays ahead of the
    loop: every row rebuilds the two or three it needs.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if n >= 2 and p.n_max < n - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n - 2}")
    out = np.zeros((n + 1, lam.size))
    out[0] = 1.0
    if n >= 1:
        out[1] = p.alpha_tilde * lam + p.beta_tilde
    for k in range(0, n - 1):
        s = (p.alpha_band[k] - lam * p.b[k]) * out[k] + (p.beta_band[k] - lam * p.a[k]) * out[k + 1]
        if k >= 1:
            s += (p.beta_band[k - 1] - lam * p.a[k - 1]) * out[k - 1]
        if k >= 2:
            s += p.gamma_band[k - 2] * out[k - 2]
        out[k + 2] = -s / p.gamma_band[k]
    return out


def five_term_residual_loop(p, polys, lambdas, scaled: bool = False) -> float:
    """The pencil relation's row residual, one row at a time.

    The loop ``five_term_residual`` ran before it formed every row in
    one array pass: each row stacks its three to five terms, sums them
    with ``np.sum`` and folds the row maximum and the largest term into
    Python ``max``, which passes over NaN.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    n_top = len(polys) - 1
    if n_top < 2:
        raise ValueError("need polynomials up to index 2 to form a residual row")
    if isinstance(polys, np.ndarray):
        vals = np.asarray(polys, dtype=float)
    else:
        vals = np.array([np.broadcast_to(np.asarray(q(lam), dtype=float), lam.shape) for q in polys])
    worst = 0.0
    scale = 0.0
    for k in range(0, n_top - 1):
        terms = [
            (p.alpha_band[k] - lam * p.b[k]) * vals[k],
            (p.beta_band[k] - lam * p.a[k]) * vals[k + 1],
            p.gamma_band[k] * vals[k + 2],
        ]
        if k >= 1:
            terms.append((p.beta_band[k - 1] - lam * p.a[k - 1]) * vals[k - 1])
        if k >= 2:
            terms.append(p.gamma_band[k - 2] * vals[k - 2])
        row = np.sum(terms, axis=0)
        worst = max(worst, float(np.abs(row).max()))
        scale = max(scale, float(np.max(np.abs(terms))))
    if scaled:
        return worst / max(scale, 1.0)
    return worst
