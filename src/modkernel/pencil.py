"""Tridiagonal/pentadiagonal matrix pencils for weighted partial sums.

Given orthonormal recurrence data and a positive weight sequence c, the
normalized partial sums p_n = (1/(c_0 g_0)) * sum_{k<=n} c_k g_k solve a
generalized eigenvector relation (P - lambda T) p(lambda) = 0 with T
tridiagonal and P symmetric pentadiagonal.  Both matrices are produced
two ways: by explicit band formulas and by embordering the recurrence
matrix with a two-diagonal factor; the interior entries must agree.

Row n of the pencil relation reads

    gamma_{n-2} p_{n-2} + (beta_{n-1} - lambda a_{n-1}) p_{n-1}
      + (alpha_n - lambda b_n) p_n + (beta_n - lambda a_n) p_{n+1}
      + gamma_n p_{n+2} = 0,

with p_{-2} = p_{-1} = 0 and gamma_{-2} = gamma_{-1} = a_{-1} =
beta_{-1} = 0, started from p_0 = 1, p_1 = alpha_tilde*lambda + beta_tilde.

``associated_values`` solves each row for p_{n+2} in turn; the
coefficients alpha_n - lambda b_n and beta_n - lambda a_n are formed for
all rows before that sweep.  ``five_term_residual`` forms the terms of
every row in one array pass and adds them in the order the row lists
them, so its reading equals a row-by-row sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polycore import DensePolynomial, RecurrenceCoefficients, orthonormal_values

__all__ = [
    "WeightSequence",
    "JacobiTypePencil",
    "BandedMatrix",
    "build_pencil_formulas",
    "build_pencil_matrices",
    "pencil_to_banded",
    "path_equivalence_residual",
    "associated_polynomials",
    "associated_values",
    "five_term_residual",
    "weighted_sum_residual",
]


class WeightSequence:
    """Strictly positive weights c_0, c_1, ..."""

    __slots__ = ("c",)

    def __init__(self, values) -> None:
        c = np.asarray(values, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("a weight sequence must be a nonempty one-dimensional array")
        bad = np.flatnonzero(~(c > 0.0))
        if bad.size:
            raise ValueError(f"weight c[{int(bad[0])}] = {c[bad[0]]} is not strictly positive")
        self.c = c.copy()

    def __len__(self) -> int:
        return self.c.size

    def __getitem__(self, k: int) -> float:
        return float(self.c[k])

    def require(self, k: int) -> None:
        if k >= self.c.size:
            raise ValueError(f"weight sequence has {self.c.size} entries, index {k} needed")


@dataclass(frozen=True)
class JacobiTypePencil:
    """Bands of the pencil plus the two starting scalars.

    ``a``/``b`` are the off-diagonal and diagonal of the tridiagonal
    factor, ``alpha_band``/``beta_band``/``gamma_band`` the diagonal,
    first and second off-diagonals of the pentadiagonal factor, indexed
    so entry n belongs to row n.
    """

    a: np.ndarray
    b: np.ndarray
    alpha_band: np.ndarray
    beta_band: np.ndarray
    gamma_band: np.ndarray
    alpha_tilde: float
    beta_tilde: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "alpha_band", "beta_band", "gamma_band"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not np.all(self.a > 0.0):
            raise ValueError("tridiagonal off-diagonal entries a[n] must be positive")
        if not np.all(self.gamma_band > 0.0):
            raise ValueError("second-subdiagonal entries gamma[n] must be positive")
        if not self.alpha_tilde > 0.0:
            raise ValueError("alpha_tilde must be positive")

    @property
    def n_max(self) -> int:
        return self.a.size - 1


class BandedMatrix:
    """Square banded matrix stored by diagonals.

    ``bands[offset][i]`` holds entry (i, i + offset); positions outside
    the matrix are kept at exactly zero.
    """

    __slots__ = ("n", "bands")

    def __init__(self, n: int, bands: dict[int, np.ndarray] | None = None) -> None:
        if n < 1:
            raise ValueError("matrix order must be positive")
        self.n = n
        self.bands: dict[int, np.ndarray] = {}
        if bands:
            for off, vals in bands.items():
                self.set_band(off, vals)

    def set_band(self, offset: int, values) -> None:
        v = np.zeros(self.n)
        vals = np.asarray(values, dtype=float)
        lo = max(0, -offset)
        hi = min(self.n, self.n - offset)
        if vals.size != hi - lo:
            raise ValueError(f"band {offset} needs {hi - lo} entries, got {vals.size}")
        v[lo:hi] = vals
        self.bands[offset] = v

    def band(self, offset: int) -> np.ndarray:
        return self.bands.get(offset, np.zeros(self.n))

    @property
    def bandwidth(self) -> int:
        return max((abs(o) for o in self.bands), default=0)

    def __getitem__(self, key) -> float:
        i, j = key
        off = j - i
        if off in self.bands and 0 <= i < self.n and 0 <= j < self.n:
            return float(self.bands[off][i])
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for off, v in self.bands.items():
            lo = max(0, -off)
            hi = min(self.n, self.n - off)
            idx = np.arange(lo, hi)
            out[idx, idx + off] = v[lo:hi]
        return out

    def transpose(self) -> "BandedMatrix":
        out = BandedMatrix(self.n)
        for off, v in self.bands.items():
            lo = max(0, off)
            hi = min(self.n, self.n + off)
            out.set_band(-off, v[lo - off : hi - off])
        return out

    def __neg__(self) -> "BandedMatrix":
        out = BandedMatrix(self.n)
        for off, v in self.bands.items():
            out.bands[off] = -v.copy()
        return out

    def __matmul__(self, other: "BandedMatrix") -> "BandedMatrix":
        if not isinstance(other, BandedMatrix) or other.n != self.n:
            raise ValueError("can only multiply banded matrices of equal order")
        n = self.n
        out = BandedMatrix(n)
        acc: dict[int, np.ndarray] = {}
        for oa, va in self.bands.items():
            for ob, vb in other.bands.items():
                oc = oa + ob
                if abs(oc) >= n:
                    continue
                # entry (i, i+oc) accumulates A[i, i+oa] * B[i+oa, i+oa+ob]
                shifted = np.zeros(n)
                if oa >= 0:
                    shifted[: n - oa] = vb[oa:]
                else:
                    shifted[-oa:] = vb[: n + oa]
                acc.setdefault(oc, np.zeros(n))
                acc[oc] += va * shifted
        for oc, v in acc.items():
            lo = max(0, -oc)
            hi = min(n, n - oc)
            v[:lo] = 0.0
            v[hi:] = 0.0
            out.bands[oc] = v
        return out


def build_pencil_formulas(rc: RecurrenceCoefficients, w: WeightSequence, n_max: int) -> JacobiTypePencil:
    """Pencil bands for rows 0..n_max from the explicit entry formulas.

    Needs weights up to index n_max + 2 and recurrence data up to
    n_max + 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    w.require(n_max + 2)
    rc.require(n_max + 1)
    c = w.c
    ah, bh = rc.a_hat, rc.b_hat
    n = np.arange(n_max + 1)
    a = 1.0 / c[n + 1] ** 2
    b = -1.0 / c[n] ** 2 - 1.0 / c[n + 1] ** 2
    alpha = 2.0 * ah[n] / (c[n] * c[n + 1]) - bh[n] / c[n] ** 2 - bh[n + 1] / c[n + 1] ** 2
    beta = bh[n + 1] / c[n + 1] ** 2 - ah[n + 1] / (c[n + 1] * c[n + 2]) - ah[n] / (c[n] * c[n + 1])
    gamma = ah[n + 1] / (c[n + 1] * c[n + 2])
    alpha_tilde = c[1] / (c[0] * ah[0])
    beta_tilde = 1.0 - c[1] * bh[0] / (c[0] * ah[0])
    return JacobiTypePencil(
        a=a,
        b=b,
        alpha_band=alpha,
        beta_band=beta,
        gamma_band=gamma,
        alpha_tilde=alpha_tilde,
        beta_tilde=beta_tilde,
    )


def _embordering_matrix(w: WeightSequence, n: int) -> BandedMatrix:
    # lower two-diagonal factor: 1/c_k on the diagonal, -1/c_k below
    w.require(n - 1)
    c = w.c[:n]
    m = BandedMatrix(n)
    m.set_band(0, 1.0 / c)
    m.set_band(-1, -1.0 / c[1:])
    return m


def _recurrence_matrix(rc: RecurrenceCoefficients, n: int) -> BandedMatrix:
    rc.require(n - 1)
    m = BandedMatrix(n)
    m.set_band(0, rc.b_hat[:n])
    m.set_band(1, rc.a_hat[: n - 1])
    m.set_band(-1, rc.a_hat[: n - 1])
    return m


def build_pencil_matrices(
    rc: RecurrenceCoefficients, w: WeightSequence, n: int
) -> tuple[BandedMatrix, BandedMatrix]:
    """Truncated matrix-product construction of the pencil pair.

    Returns (T, P) with T = -C^T C tridiagonal and P = -C^T G C
    pentadiagonal, where C is the two-diagonal embordering factor and G
    the recurrence matrix.  Products of truncations are wrong near the
    boundary, so only rows/columns up to n - 3 match the band formulas.
    """
    if n < 3:
        raise ValueError("truncation order must be at least 3")
    cmat = _embordering_matrix(w, n)
    gmat = _recurrence_matrix(rc, n)
    ct = cmat.transpose()
    t3 = -(ct @ cmat)
    p5 = -(ct @ (gmat @ cmat))
    return t3, p5


def pencil_to_banded(p: JacobiTypePencil, n: int) -> tuple[BandedMatrix, BandedMatrix]:
    """Dense-band truncations of the formula-path pencil."""
    if n - 1 > p.n_max:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n - 1}")
    t3 = BandedMatrix(n)
    t3.set_band(0, p.b[:n])
    t3.set_band(1, p.a[: n - 1])
    t3.set_band(-1, p.a[: n - 1])
    p5 = BandedMatrix(n)
    p5.set_band(0, p.alpha_band[:n])
    p5.set_band(1, p.beta_band[: n - 1])
    p5.set_band(-1, p.beta_band[: n - 1])
    p5.set_band(2, p.gamma_band[: n - 2])
    p5.set_band(-2, p.gamma_band[: n - 2])
    return t3, p5


def path_equivalence_residual(rc: RecurrenceCoefficients, w: WeightSequence, n: int) -> float:
    """Max relative interior mismatch between the two construction paths.

    Interior means rows and columns up to n - 3; the comparison is
    band-wise, normalized per entry by max(1, |formula entry|).  A NaN
    in either path reads NaN.
    """
    t_mat, p_mat = build_pencil_matrices(rc, w, n)
    pen = build_pencil_formulas(rc, w, n - 3)
    t_ref, p_ref = pencil_to_banded(pen, n - 2)
    band_worst = [0.0]
    interior = n - 2  # rows 0..n-3
    for ref, got in ((t_ref, t_mat), (p_ref, p_mat)):
        offsets = set(ref.bands) | set(got.bands)
        for off in offsets:
            vr = ref.band(off)[:interior]
            vg = got.band(off)[:interior]
            m = min(vr.size, vg.size, interior - max(0, off))
            if m <= 0:
                continue
            diff = np.abs(vg[:m] - vr[:m]) / np.maximum(1.0, np.abs(vr[:m]))
            band_worst.append(diff.max())
    return float(np.max(band_worst))


def associated_polynomials(p: JacobiTypePencil, n: int) -> list[DensePolynomial]:
    """p_0..p_n in the monomial coefficient basis.

    Row k of the pencil relation is solved for p_{k+2}; the division by
    gamma_k is safe because the pencil type enforces gamma_k > 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= 2 and p.n_max < n - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n - 2}")
    lam = DensePolynomial.identity()
    polys = [DensePolynomial.constant(1.0)]
    if n >= 1:
        polys.append(p.alpha_tilde * lam + p.beta_tilde)
    for k in range(0, n - 1):
        s = (p.alpha_band[k] - lam * p.b[k]) * polys[k] + (p.beta_band[k] - lam * p.a[k]) * polys[k + 1]
        if k >= 1:
            s = s + (p.beta_band[k - 1] - lam * p.a[k - 1]) * polys[k - 1]
        if k >= 2:
            s = s + p.gamma_band[k - 2] * polys[k - 2]
        polys.append((-1.0 / p.gamma_band[k]) * s)
    return polys


def associated_values(p: JacobiTypePencil, lambdas, n: int) -> np.ndarray:
    """Values p_k(lambda) for k = 0..n over an array of sample points.

    Runs the five-term relation pointwise, which avoids the monomial
    basis entirely; returns shape (n+1, len(lambdas)).  The coefficients
    alpha_k - lambda b_k and beta_k - lambda a_k are formed for every row
    before the sweep, which then does only the recurrence.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if n >= 2 and p.n_max < n - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n - 2}")
    out = np.zeros((n + 1, lam.size))
    out[0] = 1.0
    if n >= 1:
        out[1] = p.alpha_tilde * lam + p.beta_tilde
    rows = max(n - 1, 0)
    diag = p.alpha_band[:rows, None] - lam * p.b[:rows, None]
    off = p.beta_band[:rows, None] - lam * p.a[:rows, None]
    gamma = p.gamma_band[:rows].tolist()
    for k in range(rows):
        s = diag[k] * out[k]
        s += off[k] * out[k + 1]
        if k >= 1:
            s += off[k - 1] * out[k - 1]
        if k >= 2:
            s += gamma[k - 2] * out[k - 2]
        out[k + 2] = -s / gamma[k]
    return out


def five_term_residual(p: JacobiTypePencil, polys, lambdas, scaled: bool = False) -> float:
    """Max absolute row residual of the pencil relation over sample points.

    ``polys`` is a sequence of callables indexed 0..N (or an ndarray of
    precomputed values, one row per index); rows 0..N-2 are evaluated,
    all in one array pass.  With ``scaled=True`` the result is divided by
    the largest term magnitude that appeared, giving a dimensionless
    figure.  A NaN anywhere in the values or bands reads NaN.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    n_top = len(polys) - 1
    if n_top < 2:
        raise ValueError("need polynomials up to index 2 to form a residual row")
    if p.n_max < n_top - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n_top - 2}")
    if isinstance(polys, np.ndarray):
        vals = np.asarray(polys, dtype=float)
        if vals.ndim != 2:
            raise ValueError("precomputed values need one row per index and one column per sample point")
    else:
        vals = np.array([np.broadcast_to(np.asarray(q(lam), dtype=float), lam.shape) for q in polys])
    rows = n_top - 1
    inner = max(rows - 2, 0)
    diag = p.alpha_band[:rows, None] - lam * p.b[:rows, None]
    off = p.beta_band[:rows, None] - lam * p.a[:rows, None]
    terms = (
        diag * vals[:rows],
        off * vals[1 : rows + 1],
        p.gamma_band[:rows, None] * vals[2 : rows + 2],
        off[: rows - 1] * vals[: rows - 1],
        p.gamma_band[:inner, None] * vals[:inner],
    )
    # the terms of row k are added in the order the row lists them
    row = terms[0] + terms[1]
    row += terms[2]
    row[1:] += terms[3]
    row[2:] += terms[4]
    worst = float(np.abs(row).max())
    if scaled:
        scale = float(np.max([np.abs(t).max(initial=0.0) for t in terms]))
        return worst / max(scale, 1.0)
    return worst


def weighted_sum_residual(rc: RecurrenceCoefficients, w: WeightSequence, values: np.ndarray, lambdas) -> float:
    """Max relative mismatch between pencil solutions and normalized weighted sums.

    ``values`` holds p_0..p_n at ``lambdas`` (from ``associated_values``);
    the reference side sums c_k g_k directly and divides by c_0 g_0.
    Each row is normalized by the larger of 1 and its reference magnitude.
    """
    n = values.shape[0] - 1
    g = orthonormal_values(rc, n, np.asarray(lambdas, dtype=float))
    ref = np.cumsum(w.c[: n + 1, None] * g, axis=0) / (w[0] * rc.g0)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    return float((np.abs(values - ref) / scale).max())
