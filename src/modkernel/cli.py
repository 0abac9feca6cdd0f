"""Verification command line.

Every identity the library implements is exposed as a subcommand that
measures residuals, compares them against tolerances, writes a JSON
report (and CSV side files where a matrix or series is produced), and
exits nonzero if anything fails.  ``selftest`` runs the whole
acceptance battery in one go.

Weight sequences are described by a tiny source language:

    ones                     all weights 1
    kernel:t0=V              c_k = g_k(t0)
    eigkernel:c=V,t0=V       c_k = g_k(t0) / (c + spectral term)
    secondkind:t0=V          c_0 = 1, c_k = q_k(t0)
    file:PATH                one value per line (or comma separated)
    random:seed=S            positive pseudo-random weights in (0.5, 1.5)
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .diffop import verify_composed_equation, verify_kernel_image
from .integralrep import (
    CutoffError,
    SpecialFnConfig,
    sobolev_laguerre_closed_form,
    sobolev_laguerre_integral_rep,
)
from .kernels import (
    EigScaledKernel,
    PlainKernel,
    SecondKind,
    chebyshev_bounds_check,
    chebyshev_t_with_derivative,
    generate_weights,
    jacobi_sobolev_poly,
    kernel_poly,
    laguerre_sobolev_poly,
    quadratic_discriminant,
)
from .pencil import (
    WeightSequence,
    associated_values,
    build_pencil_formulas,
    five_term_residual,
    path_equivalence_residual,
)
from .polycore import (
    Chebyshev1,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    orthonormal_values,
    recurrence_coefficients,
)
from .quadrature import gauss_rule, weight_moments
from .sobolev import (
    gram_matrix,
    gram_offdiagonal_measures,
    jacobi_matrix_weight,
    laguerre_matrix_weight,
)

OUTPUT_DIR_ENV = "MODKERNEL_OUTPUT_DIR"
DEFAULT_SEED = 20260808


@dataclass
class Check:
    name: str
    ref: str
    measured: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class ReportDocument:
    command: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, ref: str, measured: float, tolerance: float, passed=None, **details) -> Check:
        if passed is None:
            passed = bool(measured <= tolerance)
        chk = Check(name=name, ref=ref, measured=float(measured), tolerance=float(tolerance), passed=bool(passed), details=details)
        self.checks.append(chk)
        return chk

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "checks": [
                {
                    "name": c.name,
                    "ref": c.ref,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    **({"details": c.details} if c.details else {}),
                }
                for c in self.checks
            ],
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "precision": "float64",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_path(args_path: str | None, default_name: str) -> str | None:
    if args_path:
        return args_path
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base:
        return os.path.join(base, default_name)
    return None


def _emit(report: ReportDocument, path: str | None) -> None:
    text = report.to_json() + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _parse_family(args) -> FamilySpec:
    name = args.family
    if name == "jacobi":
        return Jacobi(args.alpha, args.beta)
    if name == "laguerre":
        return LaguerreNeg(args.alpha)
    if name == "chebyshev":
        return Chebyshev1()
    raise SystemExit(f"unknown family: {name}")


def parse_weight_source(source: str, family: FamilySpec, rc, n_needed: int, seed: int) -> WeightSequence:
    """Materialize a weight-source expression as explicit weights.

    Malformed expressions, missing keys and unreadable files raise
    ValueError with a one-line message.
    """
    kind, _, rest = source.partition(":")
    kv = _parse_kv(rest)

    def need(key: str) -> float:
        if key not in kv:
            raise ValueError(f"weight source {source!r} needs {key}=")
        return float(kv[key])

    if source == "ones":
        return WeightSequence(np.ones(n_needed + 1))
    if kind == "kernel":
        return generate_weights(family, rc, PlainKernel(t0=need("t0")), n_needed)
    if kind == "eigkernel":
        return generate_weights(family, rc, EigScaledKernel(c=need("c"), t0=need("t0")), n_needed)
    if kind == "secondkind":
        return generate_weights(family, rc, SecondKind(t0=need("t0")), n_needed)
    if kind == "file":
        try:
            with open(rest) as fh:
                raw = fh.read().replace(",", "\n").split()
        except OSError as exc:
            raise ValueError(f"cannot read weight file {rest}: {exc.strerror}") from exc
        vals = np.array([float(v) for v in raw])
        if vals.size < n_needed + 1:
            raise ValueError(f"weight file {rest} holds {vals.size} values, {n_needed + 1} needed")
        return WeightSequence(vals[: n_needed + 1])
    if kind == "random":
        rng = np.random.default_rng(int(kv.get("seed", seed)))
        return WeightSequence(0.5 + rng.random(n_needed + 1))
    raise ValueError(f"cannot parse weight source: {source!r}")


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        out[k.strip()] = v.strip()
    return out


def _sample_points(family: FamilySpec, count: int = 21) -> np.ndarray:
    if isinstance(family, LaguerreNeg):
        return np.linspace(-12.0, 0.0, count)
    return np.linspace(-1.0, 1.0, count)


# ---------------------------------------------------------------- commands


def run_pencil_checks(family: FamilySpec, w_source: str, n_max: int, seed: int,
                      tol_path: float = 1e-12, tol_equiv: float = 1e-9,
                      tol_resid: float = 1e-10) -> tuple[ReportDocument, WeightSequence]:
    n_trunc = max(12, min(n_max + 3, 200))
    cover = max(n_max + 3, n_trunc)
    rc = recurrence_coefficients(family, cover)
    w = parse_weight_source(w_source, family, rc, cover, seed)
    pen = build_pencil_formulas(rc, w, n_max + 1)
    report = ReportDocument(
        command="pencil",
        parameters={"family": family.name, "weights": w_source, "n_max": n_max},
        metadata=_metadata(seed),
    )
    report.add(
        "definition-positivity",
        "pencil-band-signs",
        0.0 if (np.all(pen.a > 0) and np.all(pen.gamma_band > 0) and pen.alpha_tilde > 0) else 1.0,
        0.0,
    )
    report.add(
        "construction-path-equality",
        "embordering-vs-band-formulas",
        path_equivalence_residual(rc, w, n_trunc),
        tol_path,
        truncation=n_trunc,
    )
    lams = _sample_points(family)
    vals = associated_values(pen, lams, n_max)
    report.add(
        "five-term-self-residual",
        "five-term-recurrence",
        five_term_residual(pen, vals, lams, scaled=True),
        tol_resid,
    )
    g = orthonormal_values(rc, n_max, lams)
    u = np.cumsum(w.c[: n_max + 1, None] * g, axis=0)
    ref = u / (w[0] * rc.g0)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    equiv = float((np.abs(vals - ref) / scale).max())
    report.add("recurrence-matches-weighted-sums", "pencil-solution-identity", equiv, tol_equiv)
    return report, w


def cmd_pencil(args) -> int:
    try:
        family = _parse_family(args)
        report, w = run_pencil_checks(
            family, args.c, args.nmax, args.seed,
            tol_path=args.tol_path, tol_equiv=args.tol_equiv, tol_resid=args.tol_resid,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bands_csv:
        rc = recurrence_coefficients(family, args.nmax + 3)
        pen = build_pencil_formulas(rc, w, args.nmax + 1)
        n = np.arange(pen.a.size)
        text = _csv_text(
            ["n", "a", "b", "alpha", "beta", "gamma"],
            zip(n, pen.a, pen.b, pen.alpha_band, pen.beta_band, pen.gamma_band),
        )
        _atomic_write(args.bands_csv, text)
    _emit(report, _out_path(args.emit, "pencil-report.json"))
    return 0 if report.all_passed else 1


def run_gram_checks(family: FamilySpec, c: float, t0: float, n_max: int, seed: int,
                    tol_offdiag: float = 1e-9) -> tuple[ReportDocument, np.ndarray]:
    if isinstance(family, LaguerreNeg):
        wgt = laguerre_matrix_weight(family.alpha, c, t0)
        polys = [laguerre_sobolev_poly(family.alpha, c, t0, n) for n in range(n_max + 1)]
    else:
        alpha, beta = (family.alpha, family.beta) if isinstance(family, Jacobi) else (-0.5, -0.5)
        wgt = jacobi_matrix_weight(alpha, beta, c, t0)
        polys = [jacobi_sobolev_poly(alpha, beta, c, t0, n) for n in range(n_max + 1)]
    rc = recurrence_coefficients(wgt.family, n_max + 2)
    rule = gauss_rule(wgt.family, rc, n_max + 2)
    gram = gram_matrix(wgt, polys, rule)
    meas = gram_offdiagonal_measures(gram)
    report = ReportDocument(
        command="gram",
        parameters={"family": family.name, "c": c, "t0": t0, "n_max": n_max},
        metadata=_metadata(seed),
    )
    report.add(
        "diagonal-positivity",
        "sobolev-gram-diagonal",
        0.0 if meas["diag_min"] > 0.0 else 1.0,
        0.0,
        diag_min=meas["diag_min"],
    )
    # the asserted certificate is scale-invariant; the min-diagonal variant
    # is reported because its floor grows with the diagonal grading
    report.add(
        "offdiagonal-suppression",
        "sobolev-orthogonality",
        meas["normalized"],
        tol_offdiag,
        off_max=meas["off_max"],
        vs_min_diagonal=meas["vs_min_diagonal"],
        diag_grading=float(np.max(np.diag(gram)) / meas["diag_min"]) if meas["diag_min"] > 0 else float("inf"),
    )
    return report, gram


def cmd_gram(args) -> int:
    try:
        family = _parse_family(args)
        report, gram = run_gram_checks(family, args.c, args.t0, args.nmax, args.seed,
                                       tol_offdiag=args.tol_offdiag)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gram_path = args.gram_csv or _out_path(None, "gram.csv")
    if gram_path:
        text = _csv_text([f"g{j}" for j in range(gram.shape[1])], gram)
        _atomic_write(gram_path, text)
    _emit(report, _out_path(args.emit, "gram-report.json"))
    return 0 if report.all_passed else 1


def run_diff_checks(family: FamilySpec, c: float, t0: float | None, n_max: int, seed: int,
                    tol_eigen: float = 1e-11, tol_image: float = 1e-10,
                    tol_composed: float = 1e-9) -> ReportDocument:
    from .diffop import apply as op_apply
    from .diffop import _family_operator, eigenvalue_jacobi, eigenvalue_laguerre
    from .polycore import orthonormal_coeffs

    report = ReportDocument(
        command="diffcheck",
        parameters={"family": family.name, "c": c, "t0": t0, "n_max": n_max},
        metadata=_metadata(seed),
    )
    rc = recurrence_coefficients(family, max(n_max, 15) + 1)
    op = _family_operator(family, c)
    worst = 0.0
    per_n = []
    for n in range(min(n_max, 15) + 1):
        gp = orthonormal_coeffs(family, rc, n)
        image = op_apply(op, gp)
        if isinstance(family, LaguerreNeg):
            lam = eigenvalue_laguerre(n, c)
        elif isinstance(family, Jacobi):
            lam = eigenvalue_jacobi(n, family.alpha, family.beta, c)
        else:
            lam = eigenvalue_jacobi(n, -0.5, -0.5, c)
        diff = image - lam * gp
        scale = max(1.0, float(np.abs(lam * gp.coeffs).max()))
        resid = float(np.abs(diff.coeffs).max()) / scale
        per_n.append(resid)
        worst = max(worst, resid)
    report.add("eigen-relation", "second-order-operator-eigenvalues", worst, tol_eigen, per_n=per_n)

    edge = family.edge
    t0_eff = edge if t0 is None else t0
    report.add(
        "kernel-image-identity",
        "operator-strips-eigenvalue-scaling",
        verify_kernel_image(family, c, t0_eff, min(n_max, 12)),
        tol_image,
        t0=t0_eff,
    )
    if math.isclose(t0_eff, edge):
        shifted = verify_composed_equation(family, c, min(n_max, 10), reading="shifted")
        unshifted = verify_composed_equation(family, c, min(n_max, 10), reading="unshifted")
        report.add(
            "composed-equation-shifted-reading",
            "fourth-order-composition",
            shifted,
            tol_composed,
            unshifted_reading_residual=unshifted,
            eigenvalue_convention="shifted first parameter",
        )
    return report


def cmd_diffcheck(args) -> int:
    try:
        family = _parse_family(args)
        report = run_diff_checks(family, args.c, args.t0, args.nmax, args.seed,
                                 tol_eigen=args.tol_eigen, tol_image=args.tol_image,
                                 tol_composed=args.tol_composed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, _out_path(args.emit, "diffcheck-report.json"))
    return 0 if report.all_passed else 1


def run_integral_checks(alpha: float, c: int, n_max: int, x_grid, seed: int,
                        tol: float = 1e-5) -> ReportDocument:
    report = ReportDocument(
        command="integralcheck",
        parameters={"alpha": alpha, "c": int(c), "n_max": n_max, "x_grid": list(map(float, x_grid))},
        metadata=_metadata(seed),
    )
    cfg = SpecialFnConfig()
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        for x in x_grid:
            ref = sobolev_laguerre_closed_form(alpha, float(c), n, x)
            got = sobolev_laguerre_integral_rep(alpha, c, n, x, cfg)
            rel = abs(got - ref) / max(abs(ref), 1.0)
            rows.append({"n": n, "x": float(x), "relative_error": rel})
            worst = max(worst, rel)
    report.add("double-integral-vs-closed-form", "bessel-integral-representation", worst, tol, table=rows)
    return report


def cmd_integralcheck(args) -> int:
    if args.c != int(args.c) or args.c < 1:
        print(f"error: c must be a positive integer, got {args.c}", file=sys.stderr)
        return 2
    grid = [float(v) for v in args.x.split(",") if v]
    if not grid or any(x >= 0 for x in grid):
        print("error: the x grid must be nonempty and strictly negative", file=sys.stderr)
        return 2
    try:
        report = run_integral_checks(args.alpha, int(args.c), args.nmax, grid, args.seed, tol=args.tol)
    except (CutoffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, _out_path(args.emit, "integralcheck-report.json"))
    return 0 if report.all_passed else 1


def cmd_plotdata(args) -> int:
    grid_vals = [float(v) for v in args.grid.split(",") if v]
    if len(grid_vals) == 3 and grid_vals[2] == int(grid_vals[2]) and grid_vals[2] > 1:
        xs = np.linspace(grid_vals[0], grid_vals[1], int(grid_vals[2]))
    elif grid_vals:
        xs = np.asarray(grid_vals)
    else:
        print("error: empty grid", file=sys.stderr)
        return 2
    path = _out_path(args.emit, f"plot-{args.what}.csv")
    if path is None:
        path = f"plot-{args.what}.csv"
    try:
        if args.what == "tn":
            val, der = chebyshev_t_with_derivative(args.c, args.n, xs)
            bound_v = 1.0 / (math.pi * args.c) + 2.0 * args.n / math.pi
            bound_d = 2.0 * args.n / math.pi
            rows = zip(xs, val, der, [bound_v] * xs.size, [bound_d] * xs.size)
            text = _csv_text(["x", "value", "derivative", "bound_value", "bound_derivative"], rows)
        elif args.what in ("P", "L"):
            if args.what == "P":
                p = jacobi_sobolev_poly(args.alpha, args.beta, args.c, args.t0, args.n)
            else:
                p = laguerre_sobolev_poly(args.alpha, args.c, args.t0, args.n)
            d = p.derivative()
            text = _csv_text(["x", "value", "derivative"], zip(xs, p(xs), d(xs)))
        elif args.what == "kernel":
            family = _parse_family(args)
            vals = kernel_poly(family, args.t0, args.n, xs)
            h = 1e-6
            der = (kernel_poly(family, args.t0, args.n, xs + h) - kernel_poly(family, args.t0, args.n, xs - h)) / (2 * h)
            text = _csv_text(["x", "value", "derivative"], zip(xs, vals, der))
        else:
            print(f"error: unknown plot kind {args.what}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _atomic_write(path, text)
    print(path)
    return 0


# ---------------------------------------------------------------- selftest

def _selftest_checks(seed: int) -> ReportDocument:  # noqa: C901
    report = ReportDocument(command="selftest", parameters={}, metadata=_metadata(seed))
    t_start = time.time()

    # 1: recurrence/weighted-sum equivalence, 3 families x 4 weight sources
    t0c = time.time()
    worst = 0.0
    fams = [Jacobi(0.5, -0.3), LaguerreNeg(0.0), Chebyshev1()]
    for fam in fams:
        edge = fam.edge
        near = 0.5 if isinstance(fam, LaguerreNeg) else 1.1
        sources = ["ones", "invsq", f"kernel:t0={edge if not isinstance(fam, LaguerreNeg) else 0.5}",
                   f"eigkernel:c=1,t0={near}"]
        rc = recurrence_coefficients(fam, 28)
        for src in sources:
            if src == "invsq":
                w = WeightSequence(1.0 / (np.arange(29.0) + 1.0) ** 2 + 1.0)
            else:
                w = parse_weight_source(src, fam, rc, 28, seed)
            pen = build_pencil_formulas(rc, w, 26)
            lams = _sample_points(fam)
            vals = associated_values(pen, lams, 25)
            g = orthonormal_values(rc, 25, lams)
            ref = np.cumsum(w.c[:26, None] * g, axis=0) / (w[0] * rc.g0)
            scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
            worst = max(worst, float((np.abs(vals - ref) / scale).max()))
    report.add("criterion-01-recurrence-equivalence", "pencil-solution-identity", worst, 1e-9,
               elapsed=time.time() - t0c, budget_seconds=10.0)

    # 2: construction path equality at truncation 200
    t0c = time.time()
    fam = Chebyshev1()
    rc = recurrence_coefficients(fam, 200)
    rng = np.random.default_rng(seed)
    w = WeightSequence(0.5 + rng.random(201))
    resid = path_equivalence_residual(rc, w, 200)
    report.add("criterion-02-path-equality", "embordering-vs-band-formulas", resid, 1e-12,
               elapsed=time.time() - t0c, budget_seconds=1.0)

    # 3 and 4: gram certifications
    for tag, cases in (
        ("criterion-03-jacobi-gram", [(Jacobi(a, b), c, t0) for a in (-0.5, 0.0, 1.7)
                                      for b in (-0.5, 0.0, 1.7) for c in (0.1, 1.0, 10.0)
                                      for t0 in (1.0, 2.0)]),
        ("criterion-04-laguerre-gram", [(LaguerreNeg(a), c, t0) for a in (0.0, 0.5, 3.0)
                                        for c in (0.1, 1.0, 10.0) for t0 in (0.0, 1.0)]),
    ):
        t0c = time.time()
        worst_norm = 0.0
        worst_vs_min = 0.0
        diag_ok = True
        for fam, c, t0 in cases:
            _rep, gram = run_gram_checks(fam, c, t0, 12, seed)
            meas = gram_offdiagonal_measures(gram)
            diag_ok = diag_ok and meas["diag_min"] > 0.0
            worst_norm = max(worst_norm, meas["normalized"])
            worst_vs_min = max(worst_vs_min, meas["vs_min_diagonal"])
        report.add(tag, "sobolev-orthogonality", worst_norm, 1e-9,
                   passed=(worst_norm <= 1e-9 and diag_ok),
                   vs_min_diagonal=worst_vs_min, diagonal_positive=diag_ok,
                   elapsed=time.time() - t0c, budget_seconds=5.0)

    # 5: explicit low-order coefficients and the degree-1 root
    worst = 0.0
    for c in (0.1, 1.0, 10.0):
        p1 = math.pi * jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, 1)
        p2 = math.pi * jacobi_sobolev_poly(-0.5, -0.5, c, 1.0, 2)
        ref1 = np.array([1.0 / c, 2.0 / (c + 1.0)])
        ref2 = np.array([1.0 / c - 2.0 / (c + 4.0), 2.0 / (c + 1.0), 4.0 / (c + 4.0)])
        worst = max(worst, float(np.abs(p1.coeffs - ref1).max()))
        worst = max(worst, float(np.abs(p2.coeffs - ref2).max()))
        root = -p1.coeffs[0] / p1.coeffs[1]
        worst = max(worst, abs(root - (-(c + 1.0) / (2.0 * c))))
    report.add("criterion-05-chebyshev-fixtures", "explicit-low-order-coefficients", worst, 1e-12)

    # 6: value and derivative bounds on a fine grid
    t0c = time.time()
    ok = True
    for c in (0.01, 1.0, 100.0):
        for n in range(0, 21):
            _, _, good = chebyshev_bounds_check(c, n, 10001)
            ok = ok and good
    report.add("criterion-06-chebyshev-bounds", "value-and-slope-bounds", 0.0 if ok else 1.0, 0.0,
               elapsed=time.time() - t0c, budget_seconds=2.0)

    # 7, 8, 9: operator identities
    worst = 0.0
    for fam, c in ((Jacobi(0.5, -0.3), 2.0), (LaguerreNeg(1.0), 0.5), (Chebyshev1(), 1.0)):
        rep = run_diff_checks(fam, c, None, 15, seed)
        by_name = {ch.name: ch for ch in rep.checks}
        worst = max(worst, by_name["eigen-relation"].measured)
    report.add("criterion-07-eigen-relations", "second-order-operator-eigenvalues", worst, 1e-11)
    worst = max(
        verify_kernel_image(Jacobi(0.5, -0.3), 2.0, 1.5, 12),
        verify_kernel_image(LaguerreNeg(1.0), 0.5, 0.0, 12),
    )
    report.add("criterion-08-kernel-image", "operator-strips-eigenvalue-scaling", worst, 1e-10)
    worst = max(
        verify_composed_equation(Jacobi(-0.5, -0.5), 1.0, 10),
        verify_composed_equation(LaguerreNeg(0.0), 2.0, 10),
    )
    report.add("criterion-09-composed-equation", "fourth-order-composition", worst, 1e-9,
               eigenvalue_convention="shifted first parameter")

    # 10: integral representation
    t0c = time.time()
    worst = 0.0
    cfg = SpecialFnConfig()
    for alpha in (0.0, 0.5, 2.0):
        for c in (1, 2, 3):
            for n in range(0, 7):
                for x in (-0.5, -1.0, -5.0):
                    ref = sobolev_laguerre_closed_form(alpha, float(c), n, x)
                    got = sobolev_laguerre_integral_rep(alpha, c, n, x, cfg)
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    report.add("criterion-10-integral-representation", "bessel-integral-representation", worst, 1e-5,
               elapsed=time.time() - t0c, budget_seconds=60.0)

    # 11: negative discriminants witness non-orthogonality
    p2 = math.pi * jacobi_sobolev_poly(-0.5, -0.5, 0.1, 1.0, 2)
    d_cheb = quadratic_discriminant(p2)
    found_c = None
    d_lag = None
    for c in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        cand = quadratic_discriminant(laguerre_sobolev_poly(0.0, c, 0.0, 2))
        if cand < 0.0:
            found_c, d_lag = c, cand
            break
    report.add("criterion-11-discriminant-witness", "quadratic-discriminant-sign",
               0.0 if (d_cheb < 0.0 and found_c is not None) else 1.0, 0.0,
               chebyshev_discriminant=d_cheb, laguerre_c=found_c, laguerre_discriminant=d_lag)

    # 12: quadrature exactness against closed-form moments
    t0c = time.time()
    worst = 0.0
    for fam in (Jacobi(0.5, -0.3), LaguerreNeg(0.5), Chebyshev1()):
        rc = recurrence_coefficients(fam, 60)
        for n in range(1, 61):
            rule = gauss_rule(fam, rc, n)
            moments = weight_moments(fam, 2 * n - 1)
            powers = rule.nodes[None, :] ** np.arange(2 * n)[:, None]
            got = powers @ rule.weights
            # floor guards the N=1 symmetric rule, whose single node is 0
            scale = np.maximum(np.maximum(np.abs(moments), np.abs(powers) @ rule.weights), 1e-300)
            worst = max(worst, float((np.abs(got - moments) / scale).max()))
    report.add("criterion-12-quadrature-exactness", "moment-exactness", worst, 1e-10,
               elapsed=time.time() - t0c)

    report.metadata["total_elapsed"] = time.time() - t_start
    return report


def cmd_selftest(args) -> int:
    report = _selftest_checks(args.seed)
    for chk in report.checks:
        status = "PASS" if chk.passed else "FAIL"
        print(f"{status} {chk.name}: measured={chk.measured:.3e} tolerance={chk.tolerance:.1e}")
    _emit(report, _out_path(args.emit, "selftest-report.json"))
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--emit", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modkernel", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pencil", help="pencil construction and recurrence checks")
    p.add_argument("--family", required=True, choices=["jacobi", "laguerre", "chebyshev"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--c", default="ones", help="weight source expression")
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--tol-path", type=float, default=1e-12, dest="tol_path")
    p.add_argument("--tol-equiv", type=float, default=1e-9, dest="tol_equiv")
    p.add_argument("--tol-resid", type=float, default=1e-10, dest="tol_resid")
    p.add_argument("--bands-csv", dest="bands_csv")
    _add_common(p)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("gram", help="Sobolev Gram matrix certification")
    p.add_argument("--family", required=True, choices=["jacobi", "laguerre", "chebyshev"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--tol-offdiag", type=float, default=1e-9, dest="tol_offdiag")
    p.add_argument("--gram-csv", dest="gram_csv")
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("diffcheck", help="operator eigen-relations and compositions")
    p.add_argument("--family", required=True, choices=["jacobi", "laguerre", "chebyshev"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--tol-eigen", type=float, default=1e-11, dest="tol_eigen")
    p.add_argument("--tol-image", type=float, default=1e-10, dest="tol_image")
    p.add_argument("--tol-composed", type=float, default=1e-9, dest="tol_composed")
    _add_common(p)
    p.set_defaults(func=cmd_diffcheck)

    p = sub.add_parser("integralcheck", help="Bessel double integral vs closed form")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--x", default="-0.5,-1,-5", help="comma-separated strictly negative grid")
    p.add_argument("--tol", type=float, default=1e-5)
    _add_common(p)
    p.set_defaults(func=cmd_integralcheck)

    p = sub.add_parser("plotdata", help="CSV of values and derivatives over a grid")
    p.add_argument("--what", required=True, choices=["tn", "P", "L", "kernel"])
    p.add_argument("--family", default="chebyshev", choices=["jacobi", "laguerre", "chebyshev"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--grid", default="-1,1,1001", help="lo,hi,count or an explicit comma list")
    _add_common(p)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
