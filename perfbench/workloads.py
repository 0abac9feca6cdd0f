"""The four benchmark workloads: input generators and jobs.

A job runs the library calls of one ``modkernel`` subcommand, in that
subcommand's order, and applies the subcommand's own certificate.  Every
library function is reached through its module attribute
(``quadrature.gauss_rule``) so that the tracer's wrappers see the call.

Inputs are drawn in rounds.  A round has a fixed make-up of job sizes,
and a run always completes whole rounds, so the mix of jobs a run
completes does not depend on how fast it goes.  All parameter domains
below were checked to certify on every draw; where the program fails
inside the domain a subcommand accepts, the domain stops short of that
and the README names the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from modkernel import diffop, gammafn, integralrep, kernels, pencil, polycore, quadrature, sobolev


@dataclass
class Result:
    """What a job hands back: the program's verdict and the outputs to check."""

    passed: bool  # the subcommand's own certificate held
    ratio: float  # worst measured residual as a fraction of its tolerance
    out: dict  # outputs kept for the independent checks


def make_family(job: dict):
    kind, params = job["family"], job["params"]
    if kind == "jacobi":
        return polycore.Jacobi(*params)
    if kind == "laguerre":
        return polycore.LaguerreNeg(*params)
    return polycore.Chebyshev1()


def jacobi_params(job: dict) -> tuple[float, float]:
    """(alpha, beta) of a Jacobi-type job; Chebyshev is Jacobi(-1/2, -1/2)."""
    return tuple(job["params"]) if job["family"] == "jacobi" else (-0.5, -0.5)


def _draw_family(rng, kinds, lo: float = -0.9, hi: float = 3.0) -> tuple[str, tuple]:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "jacobi":
        return kind, (float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
    if kind == "laguerre":
        return kind, (float(rng.uniform(lo, hi)),)
    return kind, ()


# ----------------------------------------------------------- integral-table

INTEGRAL_ALPHAS = (0.0, 0.5, 1.0, 2.0, 3.0)
# (n_max, number of x values) per job of a round: 2, 4, 4, 4 and 8 table
# points.  Three of five jobs have the median's 4 points, so that the
# median of a run's few dozen jobs rests on many jobs of one size.
INTEGRAL_SHAPES = ((0, 2), (1, 2), (1, 2), (1, 2), (3, 2))
INTEGRAL_X = (0.1, 8.0)  # |x| range, drawn log-uniformly
TOL_INTEGRAL = 1e-5  # the integralcheck default


def integral_round(rng, used: set) -> list[dict]:
    jobs = []
    for n_max, nx in INTEGRAL_SHAPES:
        xs = -np.exp(rng.uniform(math.log(INTEGRAL_X[0]), math.log(INTEGRAL_X[1]), nx))
        jobs.append({
            "alpha": INTEGRAL_ALPHAS[int(rng.integers(len(INTEGRAL_ALPHAS)))],
            "c": int(rng.integers(1, 4)),
            "n_max": n_max,
            "x": [float(x) for x in np.sort(xs)],
        })
    return [jobs[i] for i in rng.permutation(len(jobs))]


def integral_job(job: dict) -> Result:
    """One integralcheck table, plus the single Bessel integral at each point.

    The single integral L_n^alpha(-x) is held against the library's
    recurrence route: g_n(x) sqrt(Gamma(n+alpha+1) / n!).
    """
    alpha, c, n_max, xs = job["alpha"], job["c"], job["n_max"], job["x"]
    rc = polycore.recurrence_coefficients(polycore.LaguerreNeg(alpha), max(n_max, 1))
    g = polycore.orthonormal_values(rc, n_max, np.asarray(xs))
    shape = (n_max + 1, len(xs))
    got, ref, lag = np.empty(shape), np.empty(shape), np.empty(shape)
    worst = 0.0
    for n in range(n_max + 1):
        norm = math.sqrt(gammafn.gamma_fn(n + alpha + 1.0) / math.factorial(n))
        for j, x in enumerate(xs):
            ref[n, j] = integralrep.sobolev_laguerre_closed_form(alpha, float(c), n, x)
            got[n, j] = integralrep.sobolev_laguerre_integral_rep(alpha, c, n, x)
            lag[n, j] = integralrep.laguerre_via_bessel(alpha, n, x)
            lag_ref = g[n, j] * norm
            worst = max(
                worst,
                abs(got[n, j] - ref[n, j]) / max(abs(ref[n, j]), 1.0),
                abs(lag[n, j] - lag_ref) / max(abs(lag_ref), 1.0),
            )
    return Result(bool(worst <= TOL_INTEGRAL), float(worst) / TOL_INTEGRAL, {"got": got, "ref": ref, "lag": lag})


# ------------------------------------------------------- quadrature-certify

# One job per slot: (family, N range).  The cost grows like N^2, so the
# slots sort by cost and the median job always comes from the five
# narrow Jacobi slots in the middle, which give the median many samples
# of one size.  LaguerreNeg rules fail from N = 193 to 198, depending on
# alpha, so its slots stay at N <= 180.
QUAD_SLOTS = (
    ("laguerre", 60, 100), ("laguerre", 140, 181), ("chebyshev", 180, 221),
    ("jacobi", 250, 261), ("jacobi", 250, 261), ("jacobi", 250, 261),
    ("jacobi", 250, 261), ("jacobi", 250, 261),
    ("chebyshev", 440, 500), ("jacobi", 500, 560), ("chebyshev", 540, 601),
)
# tail weights lose relative accuracy for alpha = beta above about 2.5
QUAD_PARAM_MAX = 2.0
QUAD_MOMENT_DEGREE = 20
TOL_MOMENTS = 1e-10  # selftest criterion 12


def quadrature_round(rng, used: set) -> list[dict]:
    """One fresh rule per slot.

    Jacobi and LaguerreNeg parameters are continuous, so they never
    repeat.  A Chebyshev rule takes the next unused N of its slot, and
    repeats only once the slot is exhausted.
    """
    jobs = []
    for kind, lo, hi in QUAD_SLOTS:
        kind, params = _draw_family(rng, (kind,), hi=QUAD_PARAM_MAX)
        n = int(rng.integers(lo, hi))
        for step in range(hi - lo):
            candidate = lo + (n - lo + step) % (hi - lo)
            if (kind, params, candidate) not in used:
                n = candidate
                break
        used.add((kind, params, n))
        jobs.append({"family": kind, "params": params, "n": n})
    return [jobs[i] for i in rng.permutation(len(jobs))]


def quadrature_job(job: dict) -> Result:
    """Recurrence data and one Gauss rule, certified on its low moments."""
    fam, n = make_family(job), job["n"]
    rc = polycore.recurrence_coefficients(fam, n)
    rule = quadrature.gauss_rule(fam, rc, n)
    k_top = min(2 * n - 1, QUAD_MOMENT_DEGREE)
    moments = quadrature.weight_moments(fam, k_top)
    powers = rule.nodes[None, :] ** np.arange(k_top + 1)[:, None]
    got = powers @ rule.weights
    scale = np.maximum(np.maximum(np.abs(moments), np.abs(powers) @ rule.weights), 1e-300)
    err = float((np.abs(got - moments) / scale).max())
    return Result(err <= TOL_MOMENTS, err / TOL_MOMENTS, {"nodes": rule.nodes, "weights": rule.weights})


# ------------------------------------------------------------- pencil-sweep

PENCIL_SOURCES = ("ones", "kernel", "eigkernel", "secondkind", "random")
# the weighted-sum certificate fails at random from n_max of about 150
PENCIL_N = ((16, 40), (40, 65))
PENCIL_SAMPLES = 21
TOL_PATH, TOL_EQUIV, TOL_RESID = 1e-12, 1e-9, 1e-10  # the pencil defaults


def pencil_round(rng, used: set) -> list[dict]:
    jobs = []
    for source in PENCIL_SOURCES:
        for lo, hi in PENCIL_N:
            kind, params = _draw_family(rng, ("jacobi", "chebyshev", "laguerre"), -0.5, 1.5)
            jobs.append({
                "family": kind,
                "params": params,
                "source": source,
                "shift": float(math.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
                "wseed": int(rng.integers(2**31)),
                "n_max": int(rng.integers(lo, hi)),
            })
    return [jobs[i] for i in rng.permutation(len(jobs))]


def pencil_samples(kind: str) -> np.ndarray:
    """The pencil subcommand's sample points."""
    if kind == "laguerre":
        return np.linspace(-12.0, 0.0, PENCIL_SAMPLES)
    return np.linspace(-1.0, 1.0, PENCIL_SAMPLES)


def pencil_rows(n_max: int) -> list[int]:
    """Rows of the pencil solution kept for the independent check."""
    return sorted({0, 1, n_max // 3, (2 * n_max) // 3, n_max})


def _pencil_weights(job: dict, fam, rc, count: int):
    source, edge = job["source"], fam.edge
    if source == "ones":
        return pencil.WeightSequence(np.ones(count + 1))
    if source == "random":
        return pencil.WeightSequence(0.5 + np.random.default_rng(job["wseed"]).random(count + 1))
    if source == "kernel":
        rule = kernels.PlainKernel(t0=edge)
    elif source == "eigkernel":
        rule = kernels.EigScaledKernel(c=job["shift"], t0=edge)
    else:
        rule = kernels.SecondKind(t0=edge)
    return kernels.generate_weights(fam, rc, rule, count)


def pencil_job(job: dict) -> Result:
    """One pencil certification, weights at the support edge."""
    fam, n_max = make_family(job), job["n_max"]
    n_trunc = max(12, min(n_max + 3, 200))
    cover = max(n_max + 3, n_trunc)
    rc = polycore.recurrence_coefficients(fam, cover)
    w = _pencil_weights(job, fam, rc, cover)
    pen = pencil.build_pencil_formulas(rc, w, n_max + 1)
    positive = bool(np.all(pen.a > 0) and np.all(pen.gamma_band > 0) and pen.alpha_tilde > 0)
    path = pencil.path_equivalence_residual(rc, w, n_trunc)
    lams = pencil_samples(job["family"])
    vals = pencil.associated_values(pen, lams, n_max)
    resid = pencil.five_term_residual(pen, vals, lams, scaled=True)
    g = polycore.orthonormal_values(rc, n_max, lams)
    ref = np.cumsum(w.c[: n_max + 1, None] * g, axis=0) / (w[0] * rc.g0)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    equiv = float((np.abs(vals - ref) / scale).max())
    ratio = max(path / TOL_PATH, resid / TOL_RESID, equiv / TOL_EQUIV)
    rows = pencil_rows(n_max)
    return Result(positive and ratio <= 1.0, ratio, {"c": w.c[: n_max + 1].copy(), "vals": vals[rows]})


# ------------------------------------------------------------- sobolev-gram

# (family, n_max range) of the seeded jobs of a round, which certify
GRAM_PASSING = (
    ("jacobi", (8, 12)), ("jacobi", (13, 16)), ("jacobi", (17, 20)),
    ("chebyshev", (8, 12)), ("chebyshev", (13, 16)), ("chebyshev", (17, 20)),
    ("laguerre", (6, 8)), ("laguerre", (9, 10)), ("laguerre", (11, 12)),
)
# Fixed jobs that fail the 1e-9 Gram certificate at every run: the
# monomial-coefficient route loses precision well below the degree cap.
GRAM_FAILING = (
    {"family": "jacobi", "params": (0.5, -0.3), "c": 1.0, "t0": 1.5, "n_max": 30},
    {"family": "chebyshev", "params": (), "c": 1.0, "t0": 1.0, "n_max": 32},
    {"family": "laguerre", "params": (0.5,), "c": 1.0, "t0": 0.0, "n_max": 20},
)
# near -1 the certificate degrades: Jacobi(1.78, -0.86) at n_max 20 uses 0.75 of it
GRAM_PARAM_MIN = -0.5
TOL_OFFDIAG = 1e-9
TOL_EIGEN, TOL_IMAGE, TOL_COMPOSED = 1e-11, 1e-10, 1e-9  # the diffcheck defaults
DIFF_EIGEN_TOP, DIFF_IMAGE_TOP, DIFF_COMPOSED_TOP = 15, 12, 10  # diffcheck's caps


def gram_round(rng, used: set) -> list[dict]:
    jobs = [dict(job) for job in GRAM_FAILING]
    for kind, (lo, hi) in GRAM_PASSING:
        kind, params = _draw_family(rng, (kind,), lo=GRAM_PARAM_MIN)
        fam = make_family({"family": kind, "params": params})
        # half the jobs sit at the support edge, where diffcheck adds the composed relation
        t0 = fam.edge if rng.random() < 0.5 else fam.edge + float(rng.uniform(0.0, 1.0))
        jobs.append({
            "family": kind,
            "params": params,
            "c": float(math.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
            "t0": t0,
            "n_max": int(rng.integers(lo, hi + 1)),
        })
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _diffcheck(fam, c: float, t0: float, n_max: int) -> float:
    """The diffcheck subcommand's three relations; worst residual / tolerance."""
    rc = polycore.recurrence_coefficients(fam, max(n_max, DIFF_EIGEN_TOP) + 1)
    if isinstance(fam, polycore.LaguerreNeg):
        op = diffop.laguerre_operator(fam.alpha, c)
    else:
        alpha, beta = (fam.alpha, fam.beta) if isinstance(fam, polycore.Jacobi) else (-0.5, -0.5)
        op = diffop.jacobi_operator(alpha, beta, c)
    eigen = 0.0
    for n in range(min(n_max, DIFF_EIGEN_TOP) + 1):
        gp = polycore.orthonormal_coeffs(fam, rc, n)
        image = diffop.apply(op, gp)
        if isinstance(fam, polycore.LaguerreNeg):
            lam = diffop.eigenvalue_laguerre(n, c)
        else:
            lam = diffop.eigenvalue_jacobi(n, alpha, beta, c)
        diff = image - lam * gp
        scale = max(1.0, float(np.abs(lam * gp.coeffs).max()))
        eigen = max(eigen, float(np.abs(diff.coeffs).max()) / scale)
    ratio = max(eigen / TOL_EIGEN,
                diffop.verify_kernel_image(fam, c, t0, min(n_max, DIFF_IMAGE_TOP)) / TOL_IMAGE)
    if math.isclose(t0, fam.edge):
        top = min(n_max, DIFF_COMPOSED_TOP)
        shifted = diffop.verify_composed_equation(fam, c, top, reading="shifted")
        diffop.verify_composed_equation(fam, c, top, reading="unshifted")  # reported, not asserted
        ratio = max(ratio, shifted / TOL_COMPOSED)
    return ratio


def gram_job(job: dict) -> Result:
    """One gram certification followed by one diffcheck at the same (family, c, t0)."""
    fam, c, t0, n_max = make_family(job), job["c"], job["t0"], job["n_max"]
    if isinstance(fam, polycore.LaguerreNeg):
        wgt = sobolev.laguerre_matrix_weight(fam.alpha, c, t0)
        polys = [kernels.laguerre_sobolev_poly(fam.alpha, c, t0, n) for n in range(n_max + 1)]
    else:
        alpha, beta = jacobi_params(job)
        wgt = sobolev.jacobi_matrix_weight(alpha, beta, c, t0)
        polys = [kernels.jacobi_sobolev_poly(alpha, beta, c, t0, n) for n in range(n_max + 1)]
    rc = polycore.recurrence_coefficients(wgt.family, n_max + 2)
    rule = quadrature.gauss_rule(wgt.family, rc, n_max + 2)
    gram = sobolev.gram_matrix(wgt, polys, rule)
    meas = sobolev.gram_offdiagonal_measures(gram)
    ratio = max(meas["normalized"] / TOL_OFFDIAG, _diffcheck(fam, c, t0, n_max))
    passed = meas["diag_min"] > 0.0 and ratio <= 1.0
    return Result(passed, ratio, {"polys": [p.coeffs.copy() for p in polys], "gram": gram})


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator, set], list]  # the run's drawn jobs go in the set
    run: Callable[[dict], Result]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("integral-table", integral_round, integral_job),
        Workload("quadrature-certify", quadrature_round, quadrature_job),
        Workload("pencil-sweep", pencil_round, pencil_job),
        Workload("sobolev-gram", gram_round, gram_job),
    )
}
