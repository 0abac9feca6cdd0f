"""Dense polynomials and orthonormal classical families.

Three families are supported, each orthonormal with positive leading
coefficients against its weight:

* ``Jacobi(alpha, beta)`` on [-1, 1] with weight (1-x)^alpha (1+x)^beta,
* ``LaguerreNeg(alpha)`` on (-inf, 0] with weight (-x)^alpha e^x,
* ``Chebyshev1`` on [-1, 1] with weight 1/sqrt(1-x^2).

Values and up to four derivatives are produced by running the
three-term recurrence together with its differentiated forms, which is
stable far beyond where monomial coefficients stop being trustworthy.
Monomial coefficients of g_0..g_n come from one pass of the same
recurrence over a coefficient table; their extraction stays capped at
degree 40 (``COEFF_DEGREE_CAP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .gammafn import beta_fn, gamma_fn

__all__ = [
    "COEFF_DEGREE_CAP",
    "DensePolynomial",
    "RecurrenceCoefficients",
    "Jacobi",
    "LaguerreNeg",
    "Chebyshev1",
    "FamilySpec",
    "recurrence_coefficients",
    "derivative_tables",
    "weighted_tables",
    "orthonormal_values",
    "coefficient_table",
    "orthonormal_coeffs",
]

#: Monomial bases become ill-conditioned with degree; coefficient
#: extraction refuses degrees beyond this cap.
COEFF_DEGREE_CAP = 40
# Newton steps on Tricomi's theta - sin(theta) = s in the LaguerreNeg seeds
_KEPLER_STEPS = 3
# the first zero of the Airy function Ai
_AIRY_ZERO = -2.338107410459767
# Jacobi nodes at each end seeded by the boundary formula: at N = 40 to 60
# it is the closer formula up to about the tenth node, and further in both
# are well within what two Newton sweeps need
_BOUNDARY_NODES = 10


class DensePolynomial:
    """Real polynomial stored as ascending monomial coefficients.

    ``coeffs[k]`` multiplies x^k.  Trailing zero coefficients are
    trimmed on construction, so the leading coefficient is nonzero
    except for the zero polynomial (which has ``degree == -1``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        n = c.size
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        self.coeffs = c[:n].copy()

    @classmethod
    def zero(cls) -> "DensePolynomial":
        return cls([0.0])

    @classmethod
    def constant(cls, value: float) -> "DensePolynomial":
        return cls([value])

    @classmethod
    def identity(cls) -> "DensePolynomial":
        """The polynomial x."""
        return cls([0.0, 1.0])

    @property
    def degree(self) -> int:
        """Exact degree; -1 marks the zero polynomial."""
        if self.coeffs.size == 1 and self.coeffs[0] == 0.0:
            return -1
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == -1

    def __call__(self, x):
        """Horner evaluation; accumulates in extended precision.

        Accepts a scalar or ndarray.  The wider accumulator keeps the
        round-off of high-degree evaluations well below the coefficient
        representation error.
        """
        arr = np.asarray(x, dtype=np.longdouble)
        acc = np.zeros_like(arr)
        for ck in self.coeffs[::-1]:
            acc = acc * arr + np.longdouble(ck)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(acc)
        return acc.astype(float)

    def derivative(self) -> "DensePolynomial":
        if self.coeffs.size == 1:
            return DensePolynomial.zero()
        return DensePolynomial(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    def _binop(self, other, sign: float) -> "DensePolynomial":
        oc = other.coeffs if isinstance(other, DensePolynomial) else np.atleast_1d(np.asarray(other, float))
        n = max(self.coeffs.size, oc.size)
        out = np.zeros(n)
        out[: self.coeffs.size] = self.coeffs
        out[: oc.size] += sign * oc
        return DensePolynomial(out)

    def __add__(self, other):
        return self._binop(other, 1.0)

    def __radd__(self, other):
        return self._binop(other, 1.0)

    def __sub__(self, other):
        return self._binop(other, -1.0)

    def __rsub__(self, other):
        return (-self)._binop(other, 1.0)

    def __neg__(self):
        return DensePolynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, DensePolynomial):
            if self.is_zero or other.is_zero:
                return DensePolynomial.zero()
            return DensePolynomial(np.convolve(self.coeffs, other.coeffs))
        return DensePolynomial(self.coeffs * float(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self) -> str:
        return f"DensePolynomial(degree={self.degree}, coeffs={self.coeffs!r})"


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Coefficients of x g_n = a_hat[n-1] g_{n-1} + b_hat[n] g_n + a_hat[n] g_{n+1}.

    ``mu0`` is the total mass of the weight and ``g0 = mu0**-0.5`` the
    value of the constant orthonormal polynomial.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray
    mu0: float
    g0: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_hat", np.asarray(self.a_hat, dtype=float))
        object.__setattr__(self, "b_hat", np.asarray(self.b_hat, dtype=float))
        if self.a_hat.shape != self.b_hat.shape:
            raise ValueError("a_hat and b_hat must have equal length")
        if not np.all(self.a_hat > 0.0):
            raise ValueError("every off-diagonal coefficient a_hat[n] must be positive")
        if not self.mu0 > 0.0:
            raise ValueError("mu0 must be positive")
        object.__setattr__(self, "g0", self.mu0 ** -0.5)

    @property
    def n_max(self) -> int:
        return self.a_hat.size - 1

    def require(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"index {n} outside the computed range 0..{self.n_max}")


class _Family:
    """The family protocol.

    Each family supplies ``recurrence(n_max)``; ``moments(k_max)`` from
    closed forms, never from the recurrence or a rule; ``spectral_term(k)``,
    the operator eigenvalue at degree k less the constant c;
    ``operator_coefficients()``, ascending p2 and p1 of p2 f'' + p1 f' + c f;
    ``raised()``, the family with its left exponent one higher; and
    ``gauss_seeds(n)``, ascending asymptotic estimates of the n zeros of
    g_n, where the Gauss rule's Newton iteration starts.  Each sweep of
    that iteration costs the same however close the seeds are, so their
    accuracy sets the rule's cost: Jacobi seeds, with Bessel zeros at
    both ends, converge in two sweeps for parameters up to 2, Chebyshev
    seeds are exact and take one, and LaguerreNeg seeds take three.
    """

    support: tuple[float, float]

    @property
    def edge(self) -> float:
        """Right end of the support; kernel weights are positive from here up."""
        return self.support[1]

    def sample_points(self, count: int, reach: float) -> np.ndarray:
        """``count`` equispaced points over the support, at most ``reach`` below the edge."""
        lo, hi = self.support
        return np.linspace(max(lo, hi - reach), hi, count)


def _bessel_zeros(nu: float, m: int) -> np.ndarray:
    """The first m positive zeros of J_nu, nu > -1, ascending.

    J_(nu+k-1)(z) + J_(nu+k+1)(z) = 2 (nu+k) / z J_(nu+k)(z), with J_nu(z) = 0,
    makes 2 / z an eigenvalue of the symmetric tridiagonal Bessel matrix
    with zero diagonal and off-diagonal 1 / sqrt((nu+k) (nu+k+1)),
    k = 1, 2, ... (Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38
    (1991)).  Its eigenvalues are plus and minus the singular values of
    the bidiagonal matrix made of every other off-diagonal entry.
    Truncated to 2m + 8 + 2 sqrt(nu) rows, that matrix holds the m largest
    within 2e-15 of themselves for nu up to 200 at least (against mpmath;
    20 to 30 rows for the 10 zeros of a small nu).
    """
    size = 2 * m + 8 + int(2.0 * math.sqrt(max(nu, 0.0)))
    k = np.arange(1.0, 2.0 * size)
    off = 1.0 / np.sqrt((nu + k) * (nu + k + 1.0))
    # laid out upper bidiagonal, which LAPACK's SVD takes about 15% faster
    # than the lower form with the same singular values
    bidiagonal = np.zeros((size, size))
    flat = bidiagonal.reshape(-1)
    flat[:: size + 1] = off[0::2]
    flat[1 :: size + 1] = off[1::2]
    return 2.0 / np.linalg.svd(bidiagonal, compute_uv=False)[:m]


def _boundary_angles(near: float, far: float, rho: float, m: int) -> np.ndarray:
    """Gatteschi's theta_1..theta_m of the Jacobi nodes next to the end with exponent ``near``."""
    j = _bessel_zeros(near, m)
    v2 = rho * rho + (1.0 - near * near - 3.0 * far * far) / 12.0
    c = (4.0 - near * near - 15.0 * far * far) / (720.0 * v2 * v2)
    return j / math.sqrt(v2) * (1.0 - c * (0.5 * j * j + near * near - 1.0))


class _JacobiType(_Family):
    """Operator data of the weights (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: float
    beta: float
    support = (-1.0, 1.0)

    def spectral_term(self, k):
        """k (k + alpha + beta + 1)."""
        return k * (k + self.alpha + self.beta + 1.0)

    def operator_coefficients(self) -> tuple[list[float], list[float]]:
        """(x^2 - 1) f'' + ((alpha+beta+2) x + alpha - beta) f'."""
        return [-1.0, 0.0, 1.0], [self.alpha - self.beta, self.alpha + self.beta + 2.0]

    def raised(self) -> "Jacobi":
        return Jacobi(self.alpha + 1.0, self.beta)

    def gauss_seeds(self, n: int) -> np.ndarray:
        """Gatteschi's interior and boundary formulas (Hale & Townsend, 2013, §3.2).

        Inside, x_k = cos(theta_k) with phi_k = (k + alpha/2 - 1/4) pi / rho,
        rho = n + (alpha + beta + 1)/2, and
        theta_k = phi_k + ((1/4 - alpha^2) cot(phi_k/2) - (1/4 - beta^2) tan(phi_k/2)) / (4 rho^2).
        At the m = min(10, n // 2) nodes nearest +1 it is replaced by
        theta_k = (j_k / v) (1 - (4 - alpha^2 - 15 beta^2) (j_k^2 / 2 + alpha^2 - 1) / (720 v^4)),
        with v^2 = rho^2 + (1 - alpha^2 - 3 beta^2) / 12 and j_k the k-th
        zero of J_alpha (``_bessel_zeros``); near -1, the same with alpha
        and beta swapped and x negated.  For alpha, beta in (-0.9, 2] the
        seeds are then within 7e-5 of the node spacing inside and within
        4e-4 (N < 40) to 1e-11 (N > 300) near the ends, where the interior
        formula alone is off by up to 5e-3; Halley's step converges from
        them in two sweeps.  Both formulas give the exact nodes
        cos((k - 1/2) pi / n) at alpha = beta = -1/2, so a Chebyshev rule
        converges in one.  A symmetric weight (alpha = beta) mirrors the
        seeds near +1 to -1, one Bessel-zero solve for both ends.
        """
        a, b = self.alpha, self.beta
        rho = n + 0.5 * (a + b + 1.0)
        phi = (np.arange(n, 0, -1) + 0.5 * a - 0.25) * (math.pi / rho)
        # cot(phi/2) = (1 + cos phi) / sin phi, tan(phi/2) = (1 - cos phi) / sin phi
        c = np.cos(phi)
        shift = ((0.25 - a * a) * (1.0 + c) - (0.25 - b * b) * (1.0 - c)) / (4.0 * rho * rho * np.sin(phi))
        x = np.cos(phi + shift)
        m = min(_BOUNDARY_NODES, n // 2)
        if m:
            x[-m:] = np.cos(_boundary_angles(a, b, rho, m))[::-1]
            x[:m] = -x[-m:][::-1] if a == b else -np.cos(_boundary_angles(b, a, rho, m))
        return x


@dataclass(frozen=True)
class Jacobi(_JacobiType):
    """Weight (1-x)^alpha (1+x)^beta on [-1, 1]; alpha, beta > -1."""

    alpha: float
    beta: float
    name = "jacobi"

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})")

    def recurrence(self, n_max: int) -> RecurrenceCoefficients:
        # closed-form monic coefficients, symmetrized to the orthonormal form,
        # over all k at once: each product and sum in the left-to-right order
        # of its formula, in place to keep the fixed cost of short arrays down
        alpha, beta = self.alpha, self.beta
        ab = alpha + beta
        k = np.arange(1.0, n_max + 2.0)
        s = 2.0 * k
        s += ab
        b_hat = np.empty(n_max + 1)
        b_hat[0] = (beta - alpha) / (ab + 2.0)
        # (beta^2 - alpha^2) / ((2k + ab) (2k + ab + 2)), k = 1..n_max
        den = s[:-1] + 2.0
        den *= s[:-1]
        np.divide(beta * beta - alpha * alpha, den, out=b_hat[1:])
        sq = np.empty(n_max + 1)
        sq[0] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
        # 4k (k + alpha) (k + beta) (k + ab) / (s^2 (s + 1) (s - 1)), s = 2k + ab, k = 2..n_max+1
        k, s = k[1:], s[1:]
        num = 4.0 * k
        num *= k + alpha
        num *= k + beta
        num *= k + ab
        den = s * s
        den *= s + 1.0
        den *= s - 1.0
        np.divide(num, den, out=sq[1:])
        mu0 = 2.0 ** (ab + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)
        return RecurrenceCoefficients(a_hat=np.sqrt(sq), b_hat=b_hat, mu0=mu0)

    def moments(self, k_max: int) -> np.ndarray:
        # a stable three-term moment recurrence
        a, b = self.alpha, self.beta
        m = np.zeros(k_max + 1)
        m[0] = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0)
        if k_max >= 1:
            m[1] = (b - a) / (a + b + 2.0) * m[0]
        for k in range(1, k_max):
            m[k + 1] = (k * m[k - 1] + (b - a) * m[k]) / (k + a + b + 2.0)
        return m


@dataclass(frozen=True)
class LaguerreNeg(_Family):
    """Weight (-x)^alpha e^x on (-inf, 0]; alpha > -1.

    Realized by reflecting the orthonormal Laguerre family, with signs
    arranged so every member keeps a positive leading coefficient.
    """

    alpha: float
    name = "laguerre-neg"
    support = (-math.inf, 0.0)

    def __post_init__(self) -> None:
        if not self.alpha > -1.0:
            raise ValueError(f"LaguerreNeg parameter must exceed -1, got {self.alpha}")

    def recurrence(self, n_max: int) -> RecurrenceCoefficients:
        n = np.arange(n_max + 1, dtype=float)
        return RecurrenceCoefficients(
            a_hat=np.sqrt((n + 1.0) * (n + self.alpha + 1.0)),
            b_hat=-(2.0 * n + self.alpha + 1.0),
            mu0=gamma_fn(self.alpha + 1.0),
        )

    def moments(self, k_max: int) -> np.ndarray:
        # reflected gamma values
        return np.array([(-1.0) ** k * gamma_fn(self.alpha + k + 1.0) for k in range(k_max + 1)])

    def spectral_term(self, k):
        """k."""
        return 1.0 * k

    def operator_coefficients(self) -> tuple[list[float], list[float]]:
        """x f'' + (alpha + 1 + x) f'."""
        return [0.0, 1.0], [self.alpha + 1.0, 1.0]

    def raised(self) -> "LaguerreNeg":
        return LaguerreNeg(self.alpha + 1.0)

    def gauss_seeds(self, n: int) -> np.ndarray:
        """Tricomi's formula, with the Bessel zeros of the hard edge.

        Tricomi's theta - sin(theta) = pi (4n - 4k + 3) / nu, with
        nu = 4n + 2 alpha + 2, gives x_k = -nu cos^2(theta/2).  Its right
        side is pi - 4 j / nu with j = (k + alpha/2 - 1/4) pi, the leading
        term of McMahon's expansion of the Bessel zero j_(alpha, k); two
        more McMahon terms give the small zeros their dependence on alpha.
        The largest zero comes from Gatteschi's Airy-type expansion
        nu + 2^(2/3) a nu^(1/3) + 2^(4/3) a^2 / (5 nu^(1/3)) + (11/35 - alpha^2 - 12 a^3 / 175) / nu,
        a being the first zero of Ai, which is several times closer there.
        """
        mu = 4.0 * self.alpha * self.alpha
        nu = 4.0 * n + 2.0 * self.alpha + 2.0
        j = (np.arange(n, 0, -1) + 0.5 * self.alpha - 0.25) * math.pi
        j = j - (mu - 1.0) / (8.0 * j) - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * j) ** 3)
        s = math.pi - 4.0 * j / nu
        # Newton from (6 s)^(1/3), the root of the cubic term, is within
        # 1e-9 after three steps for every s in (0, pi]
        theta = (6.0 * s) ** (1.0 / 3.0)
        for _ in range(_KEPLER_STEPS):
            theta = theta - (theta - np.sin(theta) - s) / (1.0 - np.cos(theta))
        x = -nu * np.cos(0.5 * theta) ** 2
        a = _AIRY_ZERO
        x[0] = -(
            nu + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0) + 2.0 ** (4.0 / 3.0) * a * a / (5.0 * nu ** (1.0 / 3.0))
            + (11.0 / 35.0 - self.alpha**2 - 12.0 * a**3 / 175.0) / nu
        )
        return x


@dataclass(frozen=True)
class Chebyshev1(_JacobiType):
    """First-kind Chebyshev weight 1/sqrt(1-x^2) on [-1, 1].

    This is the Jacobi weight at alpha = beta = -1/2 and shares its
    operator; the recurrence and moments are its own closed forms.
    """

    alpha = -0.5
    beta = -0.5
    name = "chebyshev1"

    def recurrence(self, n_max: int) -> RecurrenceCoefficients:
        a_hat = np.full(n_max + 1, 0.5)
        a_hat[0] = math.sqrt(0.5)
        return RecurrenceCoefficients(a_hat=a_hat, b_hat=np.zeros(n_max + 1), mu0=math.pi)

    def moments(self, k_max: int) -> np.ndarray:
        # double-factorial ratios; odd moments vanish
        m = np.zeros(k_max + 1)
        m[0] = math.pi
        val = math.pi
        for j in range(1, k_max // 2 + 1):
            val *= (2.0 * j - 1.0) / (2.0 * j)
            m[2 * j] = val
        return m


FamilySpec = Union[Jacobi, LaguerreNeg, Chebyshev1]


def recurrence_coefficients(family: FamilySpec, n_max: int) -> RecurrenceCoefficients:
    """Recurrence data a_hat[0..n_max], b_hat[0..n_max] for the family.

    Parameters
    ----------
    family : FamilySpec
        One of Jacobi, LaguerreNeg, Chebyshev1.
    n_max : int
        Highest index produced; evaluation of g_0..g_{n_max+1} is then
        possible.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return family.recurrence(n_max)


def derivative_tables(rc: RecurrenceCoefficients, n: int, x, order: int) -> np.ndarray:
    """Table of g_k^(j)(x) for j = 0..order and k = 0..n.

    The three-term recurrence differentiated j times,

        a_k g^(j)_{k+1} = (x - b_k) g^(j)_k + j g^(j-1)_k - a_{k-1} g^(j)_{k-1},

    is vectorized over x, with x - b_k formed for every k up front, and
    runs in one loop over k that advances every order at once: column
    k + 1 of order j needs only columns k and k - 1 of orders j and
    j - 1.  A scalar x runs order by order on Python floats instead,
    since there a numpy call costs more than the arithmetic it does.
    Each entry is formed in the order the formula lists its terms, so
    both give the table of one order at a time bit for bit.  Returns
    shape (order+1, n+1) + x.shape.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 0:
        rc.require(n - 1)
    xa = np.asarray(x, dtype=float)
    shifted = xa - rc.b_hat[:n].reshape((n,) + (1,) * xa.ndim)
    a = rc.a_hat[:n].tolist()
    if xa.ndim == 0:
        shifted = shifted.tolist()
        rows = [[rc.g0] + [0.0] * n] + [[0.0] * (n + 1) for _ in range(order)]
        for j, row in enumerate(rows):
            for k, s in enumerate(shifted):
                nxt = s * row[k]
                if k:
                    nxt -= a[k - 1] * row[k - 1]
                if j:
                    nxt += j * rows[j - 1][k]
                row[k + 1] = nxt / a[k]
        return np.array(rows)
    out = np.zeros((order + 1, n + 1) + xa.shape)
    out[0, 0] = rc.g0
    # cols[k] is column k of every order; at order 0 without the order axis,
    # which the products with x - b_k would otherwise broadcast over
    if order:
        cols = list(np.moveaxis(out, 1, 0))
        j = np.arange(1.0, order + 1.0).reshape((order,) + (1,) * xa.ndim)
    else:
        cols = list(out[0])
    for k, s in enumerate(shifted):
        nxt = s * cols[k]
        if k:
            nxt -= a[k - 1] * cols[k - 1]
        if order:
            nxt[1:] += j * cols[k][:-1]
        np.divide(nxt, a[k], out=cols[k + 1])
    return out


def weighted_tables(rc: RecurrenceCoefficients, c, x, order: int) -> np.ndarray:
    """Derivative tables of the partial sums u_k = sum_{i<=k} c_i g_i.

    Entry [j, k] holds u_k^(j)(x) for j = 0..order and k = 0..len(c)-1:
    the cumulative sum over k of c_k times ``derivative_tables``.  The
    coefficients may have any sign, so plain kernels K_n(t, x) with t
    inside the support are covered too.
    """
    c = np.asarray(c, dtype=float)
    u = derivative_tables(rc, c.size - 1, x, order)
    u *= c.reshape((1, c.size) + (1,) * (u.ndim - 2))
    return np.cumsum(u, axis=1, out=u)


def orthonormal_values(rc: RecurrenceCoefficients, n: int, x) -> np.ndarray:
    """Table of g_0(x)..g_n(x); x may be a scalar or ndarray.

    The order-0 case of ``derivative_tables``: shape (n+1,) for scalar
    x, else (n+1,) + x.shape.
    """
    return derivative_tables(rc, n, x, 0)[0]


def coefficient_table(rc: RecurrenceCoefficients, n: int) -> np.ndarray:
    """Ascending monomial coefficients of g_0..g_n, one row per degree.

    Row k of the (n+1, n+1) table holds g_k, zero-padded past degree k.
    The rows come from one pass of the three-term recurrence,

        a_k g_{k+1} = x g_k - b_k g_k - a_{k-1} g_{k-1},

    each from the two before it.  No degree cap applies here; callers
    that hand out coefficients enforce ``COEFF_DEGREE_CAP``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 0:
        rc.require(n - 1)
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = rc.g0
    for k in range(n):
        cur = table[k, : k + 1]
        nxt = table[k + 1, : k + 2]
        nxt[1:] = cur
        nxt[: k + 1] -= rc.b_hat[k] * cur
        if k >= 1:
            nxt[:k] -= rc.a_hat[k - 1] * table[k - 1, :k]
        nxt /= rc.a_hat[k]
    return table


def orthonormal_coeffs(family: FamilySpec, rc: RecurrenceCoefficients, n: int) -> DensePolynomial:
    """Monomial coefficients of g_n, positive leading coefficient.

    Row n of ``coefficient_table``.  Raises beyond ``COEFF_DEGREE_CAP``:
    the monomial basis is too ill-conditioned there for the coefficients
    to mean much.
    """
    if n > COEFF_DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds the coefficient cap {COEFF_DEGREE_CAP}")
    return DensePolynomial(coefficient_table(rc, n)[n])
