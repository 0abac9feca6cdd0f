"""Tridiagonal/pentadiagonal matrix pencils for weighted partial sums.

Given orthonormal recurrence data and a positive weight sequence c, the
normalized partial sums p_n = (1/(c_0 g_0)) * sum_{k<=n} c_k g_k solve a
generalized eigenvector relation (P - lambda T) p(lambda) = 0 with T
tridiagonal and P symmetric pentadiagonal.  Both matrices are produced
two ways: by explicit band formulas and by embordering the recurrence
matrix with a two-diagonal factor in plain dense products; the interior
entries must agree.

Row n of the pencil relation reads

    gamma_{n-2} p_{n-2} + (beta_{n-1} - lambda a_{n-1}) p_{n-1}
      + (alpha_n - lambda b_n) p_n + (beta_n - lambda a_n) p_{n+1}
      + gamma_n p_{n+2} = 0,

with p_{-2} = p_{-1} = 0 and gamma_{-2} = gamma_{-1} = a_{-1} =
beta_{-1} = 0, started from p_0 = 1, p_1 = alpha_tilde*lambda + beta_tilde.

``associated_values`` solves each row for p_{n+2} in turn.  The four
coefficients of p_{n-2}..p_{n+1} in every row are stacked before that
sweep, so a row costs one product of its coefficients with four values,
three additions and one division, whatever the number of sample points;
at the few dozen points of a sweep the cost is the count of numpy calls,
not the arithmetic.  ``five_term_residual`` forms the terms of every row
in one array pass and adds them in the order the row lists them.  Both
equal a row-by-row loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polycore import RecurrenceCoefficients, weighted_tables

__all__ = [
    "WeightSequence",
    "JacobiTypePencil",
    "build_pencil_formulas",
    "build_pencil_matrices",
    "path_equivalence_residual",
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


def build_pencil_formulas(rc: RecurrenceCoefficients, w: WeightSequence, n_max: int) -> JacobiTypePencil:
    """Pencil bands for rows 0..n_max from the explicit entry formulas.

    Needs weights up to index n_max + 2 and recurrence data up to
    n_max + 1.  The terms 1/c_k^2, b_k/c_k^2 and a_k/(c_k c_{k+1}) are
    formed once, and the bands read them as slices.  Raises ValueError
    naming the first weight c_k, k <= n_max + 1, so large or so small
    that 1/c_k^2 reads 0 or inf.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    w.require(n_max + 2)
    rc.require(n_max + 1)
    m = n_max + 1
    c, ah, bh = w.c[: m + 2], rc.a_hat[: m + 1], rc.b_hat[: m + 1]
    with np.errstate(over="ignore", divide="ignore"):
        sq = c[:-1] * c[:-1]
        inv = 1.0 / sq
    lost = ~((inv > 0.0) & (inv < np.inf))
    if lost.any():
        k = int(lost.argmax())
        raise ValueError(f"weight c[{k}] = {c[k]:.6g} is outside the pencil's range: 1/c[{k}]^2 reads {inv[k]:g}")
    cc = c[:-1] * c[1:]
    q = ah / cc
    bq = bh / sq
    # 2 a_k / (c_k c_{k+1}) as written: doubling q_k can round differently
    # where q_k is subnormal
    alpha = 2.0 * ah[:m] / cc[:m] - bq[:m]
    alpha -= bq[1:]
    beta = bq[1:] - q[1:]
    beta -= q[:m]
    return JacobiTypePencil(
        a=inv[1:],
        b=-inv[:m] - inv[1:],
        alpha_band=alpha,
        beta_band=beta,
        gamma_band=q[1:],
        alpha_tilde=c[1] / (c[0] * ah[0]),
        beta_tilde=1.0 - c[1] * bh[0] / (c[0] * ah[0]),
    )


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def build_pencil_matrices(
    rc: RecurrenceCoefficients, w: WeightSequence, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated matrix-product construction of the pencil pair.

    Returns (T, P) as n x n arrays with T = -C^T C tridiagonal and
    P = -C^T G C pentadiagonal, where C is the two-diagonal embordering
    factor (1/c_k on the diagonal, -1/c_k below it) and G the recurrence
    matrix.  Products of truncations are wrong near the boundary, so
    only rows/columns up to n - 3 match the band formulas.
    """
    if n < 3:
        raise ValueError("truncation order must be at least 3")
    w.require(n - 1)
    rc.require(n - 1)
    inv_c = 1.0 / w.c[:n]
    cmat = np.diag(inv_c) - np.diag(inv_c[1:], -1)
    gmat = _tridiagonal(rc.b_hat[:n], rc.a_hat[: n - 1])
    return -(cmat.T @ cmat), -(cmat.T @ (gmat @ cmat))


def path_equivalence_residual(rc: RecurrenceCoefficients, w: WeightSequence, n: int) -> float:
    """Max relative interior mismatch between the two construction paths.

    The embordering products of ``build_pencil_matrices`` are compared
    entry by entry with the band formulas of rows 0..n - 3 laid out as
    matrices, over the interior block of rows and columns 0..n - 3,
    each entry normalized by max(1, |formula entry|).  A NaN in either
    path reads NaN.
    """
    t_mat, p_mat = build_pencil_matrices(rc, w, n)
    pen = build_pencil_formulas(rc, w, n - 3)
    m = n - 2  # rows 0..n-3
    t_ref = _tridiagonal(pen.b[:m], pen.a[: m - 1])
    p_ref = _tridiagonal(pen.alpha_band[:m], pen.beta_band[: m - 1])
    p_ref += np.diag(pen.gamma_band[: m - 2], 2) + np.diag(pen.gamma_band[: m - 2], -2)
    return float(np.max([
        np.abs(got[:m, :m] - ref) / np.maximum(1.0, np.abs(ref))
        for ref, got in ((t_ref, t_mat), (p_ref, p_mat))
    ]))


def associated_values(p: JacobiTypePencil, lambdas, n: int) -> np.ndarray:
    """Values p_k(lambda) for k = 0..n over an array of sample points.

    Runs the five-term relation pointwise, which avoids the monomial
    basis entirely; returns shape (n+1, len(lambdas)).  The coefficients
    of every row are stacked before the sweep, so each row is one product
    of its four coefficients with p_{k-2}..p_{k+1}, summed in the order
    the row lists its terms and divided by -gamma_k: s / (-gamma_k) is
    -s / gamma_k exactly, apart from the sign bit of a NaN.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if n >= 2 and p.n_max < n - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n - 2}")
    # p_{-2} = p_{-1} = -0.0, the additive identity: their terms read -0.0
    # and leave the sums of rows 0 and 1 as they were, signed zeros included
    padded = np.zeros((n + 3, lam.size))
    padded[:2] = -0.0
    out = padded[2:]
    out[0] = 1.0
    if n >= 1:
        out[1] = p.alpha_tilde * lam + p.beta_tilde
    rows = max(n - 1, 0)
    # row k's coefficients of p_{k-2}, p_{k-1}, p_k and p_{k+1}, 0 where the index is negative
    coef = np.zeros((rows, 4, lam.size))
    np.subtract(p.alpha_band[:rows, None], lam * p.b[:rows, None], out=coef[:, 2])
    np.subtract(p.beta_band[:rows, None], lam * p.a[:rows, None], out=coef[:, 3])
    coef[1:, 1] = coef[:-1, 3]
    coef[2:, 0] = p.gamma_band[: max(rows - 2, 0), None]
    neg_gamma = (-p.gamma_band[:rows]).tolist()
    for k in range(rows):
        t = coef[k] * padded[k : k + 4]
        s = t[2] + t[3]
        s += t[1]
        s += t[0]
        np.divide(s, neg_gamma[k], out=padded[k + 4])
    return out


def five_term_residual(p: JacobiTypePencil, values: np.ndarray, lambdas, scaled: bool = False) -> float:
    """Max absolute row residual of the pencil relation over sample points.

    ``values`` holds p_0..p_N at ``lambdas``, one row per index and one
    column per sample point (from ``associated_values``); rows 0..N-2 are
    evaluated, all in one array pass.  With ``scaled=True`` the result is
    divided by the largest term magnitude that appeared, giving a
    dimensionless figure.  A NaN anywhere in the values or bands reads
    NaN.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("precomputed values need one row per index and one column per sample point")
    n_top = vals.shape[0] - 1
    if n_top < 2:
        raise ValueError("need polynomials up to index 2 to form a residual row")
    if p.n_max < n_top - 2:
        raise ValueError(f"pencil bands cover rows 0..{p.n_max}, need 0..{n_top - 2}")
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
    the reference side sums c_k g_k directly (``weighted_tables``) and
    divides by c_0 g_0.  Each row is normalized by the larger of 1 and
    its reference magnitude.
    """
    n = values.shape[0] - 1
    ref = weighted_tables(rc, w.c[: n + 1], np.asarray(lambdas, dtype=float), 0)[0] / (w[0] * rc.g0)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    return float((np.abs(values - ref) / scale).max())
