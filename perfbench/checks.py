"""Independent checks of the workloads' outputs.

Nothing here calls modkernel: orthonormal polynomials come from
scipy.special evaluations with closed-form norms, Gauss rules from
scipy's ``roots_*``, polynomial derivatives from ``numpy.polynomial``
and high-precision Laguerre values from mpmath.  Each check returns its
worst error as a fraction of its tolerance, so a value above 1 rejects
the job.  The module is imported only after the measured phase, which
keeps scipy and mpmath out of the set-up time and the peak memory.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import special as sp

from workloads import (
    TOL_EQUIV,
    TOL_INTEGRAL,
    TOL_OFFDIAG,
    jacobi_params,
    pencil_rows,
    pencil_samples,
)

TOL_NODES = 1e-12  # relative to the largest node magnitude
TOL_WEIGHTS = 1e-6  # relative to the largest weight; scipy's own weights are good to ~1e-8
TOL_MASS = 1e-12
TOL_ORTHO = 1e-10
TOL_KERNEL_WEIGHTS = 1e-10


def log_mass(kind: str, params) -> float:
    """log of the total mass of the family weight."""
    if kind == "jacobi":
        a, b = params
        return (a + b + 1.0) * math.log(2.0) + sp.gammaln(a + 1.0) + sp.gammaln(b + 1.0) - sp.gammaln(a + b + 2.0)
    if kind == "laguerre":
        return float(sp.gammaln(params[0] + 1.0))
    return math.log(math.pi)


def orthonormal_table(kind: str, params, degrees, x) -> np.ndarray:
    """g_k(x) for k in ``degrees``, one row per degree, positive leading coefficients.

    Jacobi and Chebyshev use the classical polynomials on [-1, 1];
    the reflected Laguerre family is g_k(x) = L_k^alpha(-x) / ||L_k^alpha||.
    """
    k = np.asarray(degrees, dtype=int)
    kf = k.astype(float)[:, None]
    x = np.asarray(x, dtype=float)[None, :]
    if kind == "jacobi":
        a, b = params
        with np.errstate(divide="ignore", invalid="ignore"):
            log_h = ((a + b + 1.0) * math.log(2.0) - np.log(2.0 * kf + a + b + 1.0) + sp.gammaln(kf + a + 1.0)
                     + sp.gammaln(kf + b + 1.0) - sp.gammaln(kf + a + b + 1.0) - sp.gammaln(kf + 1.0))
        # the k = 0 norm has a removable 0/0 when a + b = -1
        log_h = np.where(kf == 0.0, log_mass(kind, params), log_h)
        return sp.eval_jacobi(k[:, None], a, b, x) * np.exp(-0.5 * log_h)
    if kind == "laguerre":
        a = params[0]
        log_h = sp.gammaln(kf + a + 1.0) - sp.gammaln(kf + 1.0)
        return sp.eval_genlaguerre(k[:, None], a, -x) * np.exp(-0.5 * log_h)
    scale = np.where(kf == 0.0, math.sqrt(1.0 / math.pi), math.sqrt(2.0 / math.pi))
    return sp.eval_chebyt(k[:, None], x) * scale


def gauss_reference(kind: str, params, n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's n-point Gauss rule for the family weight, nodes ascending."""
    if kind == "jacobi":
        return sp.roots_jacobi(n, *params)
    if kind == "laguerre":
        y, w = sp.roots_genlaguerre(n, params[0])
        return -y[::-1], w[::-1]
    return sp.roots_chebyt(n)


def check_integral(job: dict, out: dict) -> float:
    """Laguerre-type sums from eval_genlaguerre and gammaln; L_n from mpmath."""
    alpha, c, xs = job["alpha"], job["c"], np.asarray(job["x"])
    n_top = job["n_max"]
    k = np.arange(n_top + 1)
    # g_k(0) g_k(x) = L_k(0) L_k(-x) k! / Gamma(k + alpha + 1)
    terms = (sp.eval_genlaguerre(k[:, None], alpha, 0.0) * sp.eval_genlaguerre(k[:, None], alpha, -xs[None, :])
             * np.exp(sp.gammaln(k + 1.0) - sp.gammaln(k + alpha + 1.0))[:, None] / (k[:, None] + c))
    sums = np.cumsum(terms, axis=0)
    lag = np.array([[float(mpmath.laguerre(n, alpha, -x)) for x in xs] for n in range(n_top + 1)])
    worst = 0.0
    for got, ref in ((out["got"], sums), (out["ref"], sums), (out["lag"], lag)):
        worst = max(worst, float((np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)).max()))
    return worst / TOL_INTEGRAL


def check_quadrature(job: dict, out: dict) -> float:
    """Against scipy's rule, the closed-form mass and discrete orthonormality.

    Orthonormality sum_i w_i g_j(x_i) g_k(x_i) = delta_jk is tested on a
    spread of degrees up to N - 1, where a Gauss rule is still exact.
    """
    kind, params, n = job["family"], job["params"], job["n"]
    nodes, weights = out["nodes"], out["weights"]
    if nodes.shape != (n,) or weights.shape != (n,):
        return math.inf
    x_ref, w_ref = gauss_reference(kind, params, n)
    node_err = float(np.abs(nodes - x_ref).max()) / max(1.0, float(np.abs(x_ref).max()))
    weight_err = float(np.abs(weights - w_ref).max()) / float(w_ref.max())
    mass_err = abs(float(weights.sum()) / math.exp(log_mass(kind, params)) - 1.0)
    degrees = sorted({0, 1, 2, n // 4, n // 2, (3 * n) // 4, n - 2, n - 1} & set(range(n)))
    v = orthonormal_table(kind, params, degrees, nodes) * np.sqrt(weights)[None, :]
    ortho_err = float(np.abs(v @ v.T - np.eye(len(degrees))).max())
    return max(node_err / TOL_NODES, weight_err / TOL_WEIGHTS, mass_err / TOL_MASS, ortho_err / TOL_ORTHO)


def _spectral_term(kind: str, params, k: np.ndarray) -> np.ndarray:
    if kind == "jacobi":
        return k * (k + params[0] + params[1] + 1.0)
    if kind == "laguerre":
        return k
    return k * k


def check_pencil(job: dict, out: dict) -> float:
    """Pencil solution rows against sum_k c_k g_k(lambda) / (c_0 g_0).

    Kernel weights are also recomputed from g_k at the support edge.
    """
    kind, params, n_max = job["family"], job["params"], job["n_max"]
    c = out["c"]
    lams = pencil_samples(kind)
    g = orthonormal_table(kind, params, range(n_max + 1), lams)
    g0 = math.exp(-0.5 * log_mass(kind, params))
    ref = (np.cumsum(c[:, None] * g, axis=0) / (c[0] * g0))[pencil_rows(n_max)]
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    worst = float((np.abs(out["vals"] - ref) / scale).max()) / TOL_EQUIV
    if job["source"] in ("kernel", "eigkernel"):
        k = np.arange(n_max + 1, dtype=float)
        edge = 0.0 if kind == "laguerre" else 1.0
        expect = orthonormal_table(kind, params, range(n_max + 1), [edge])[:, 0]
        if job["source"] == "eigkernel":
            expect = expect / (job["shift"] + _spectral_term(kind, params, k))
        worst = max(worst, float((np.abs(c - expect) / np.abs(expect)).max()) / TOL_KERNEL_WEIGHTS)
    return worst


def check_gram(job: dict, out: dict) -> float:
    """Recompute the Gram matrix with a separate rule and test orthogonality.

    The operator image v . (u, u', u'') of each returned polynomial is
    formed with numpy.polynomial derivatives at the nodes of a scipy
    Gauss rule with one node more than the program's, and the off-diagonal
    entries are measured against sqrt(G_nn G_mm).  The program's own
    Gram matrix must agree with the recomputed one on the same scale.
    """
    kind, c, t0, n_max = job["family"], job["c"], job["t0"], job["n_max"]
    polys, gram = out["polys"], out["gram"]
    if len(polys) != n_max + 1 or gram.shape != (n_max + 1, n_max + 1):
        return math.inf
    if kind == "laguerre":
        alpha = job["params"][0]
        x, w = gauss_reference("laguerre", (alpha,), n_max + 3)
        v = (np.full_like(x, c), alpha + 1.0 + x, x)
    else:
        a, b = jacobi_params(job)
        x, w = gauss_reference("jacobi", (a, b), n_max + 3)
        v = (np.full_like(x, c), (a + b + 2.0) * x + a - b, x * x - 1.0)
    rows = np.array([
        v[0] * npoly.polyval(x, p) + v[1] * npoly.polyval(x, npoly.polyder(p)) + v[2] * npoly.polyval(x, npoly.polyder(p, 2))
        for p in polys
    ])
    ref = (rows * (w * (t0 - x))) @ rows.T
    d = np.diag(ref)
    if not np.all(d > 0.0):
        return math.inf
    norm = np.sqrt(np.outer(d, d))
    off = np.abs(ref - np.diag(d)) / norm
    agree = np.abs(gram - ref) / norm
    return max(float(off.max()), float(agree.max())) / TOL_OFFDIAG


CHECKS = {
    "integral-table": check_integral,
    "quadrature-certify": check_quadrature,
    "pencil-sweep": check_pencil,
    "sobolev-gram": check_gram,
}
