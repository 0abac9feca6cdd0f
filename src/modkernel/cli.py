"""Verification command line.

Every identity the library implements is exposed as a subcommand that
measures residuals, compares them against the tolerances of
``acceptance.TOLERANCES``, writes a JSON report (and CSV side files
where a matrix or series is produced), and exits nonzero if anything
fails.  ``selftest`` runs the whole acceptance battery in one go.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .acceptance import CRITERIA, DEFAULT_SEED, Check, check, evaluate
from .diffop import verify_composed_equation, verify_eigen_relation, verify_kernel_image
from .integralrep import CutoffError, integral_rep_errors
from .kernels import (
    EigScaledKernel,
    PlainKernel,
    SecondKind,
    generate_weights,
    sobolev_tables,
    weighted_tables,
)
from .pencil import (
    WeightSequence,
    associated_values,
    build_pencil_formulas,
    five_term_residual,
    path_equivalence_residual,
    weighted_sum_residual,
)
from .polycore import (
    Chebyshev1,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    orthonormal_values,
    recurrence_coefficients,
)
from .sobolev import gram_offdiagonal_measures, sobolev_gram

OUTPUT_DIR_ENV = "MODKERNEL_OUTPUT_DIR"


@dataclass
class ReportDocument:
    command: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, ref: str, measured: float, **details) -> None:
        self.checks.append(check(name, ref, measured, **details))

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


def _new_report(command: str, seed: int, **parameters) -> ReportDocument:
    metadata = {
        "seed": seed,
        "precision": "float64",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return ReportDocument(command=command, parameters=parameters, metadata=metadata)


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


def _refuse_unread(args, context: str, defaults: dict) -> None:
    """Refuse an option that ``context`` does not read; one left at its default passes."""
    for name, default in defaults.items():
        if getattr(args, name) != default:
            raise ValueError(f"{context} takes no --{name}, got {getattr(args, name)}")


def _parse_family(args) -> FamilySpec:
    if args.family == "jacobi":
        return Jacobi(args.alpha, args.beta)
    if args.family == "laguerre":
        _refuse_unread(args, "--family laguerre", {"beta": 0.0})
        return LaguerreNeg(args.alpha)
    _refuse_unread(args, "--family chebyshev", {"alpha": 0.0, "beta": 0.0})
    return Chebyshev1()


def _family_parameters(family: FamilySpec) -> dict:
    """The report parameters that select the family: its name and its alpha and beta, where it takes them."""
    return {"family": family.name, **asdict(family)}


def _finish(report: ReportDocument, emit: str | None, default_name: str) -> int:
    _emit(report, _out_path(emit, default_name))
    return 0 if report.all_passed else 1


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


# ---------------------------------------------------------------- commands


def cmd_pencil(args) -> int:
    family, n_max = _parse_family(args), args.nmax
    n_trunc = max(12, min(n_max + 3, 200))
    cover = max(n_max + 3, n_trunc)
    rc = recurrence_coefficients(family, cover)
    w = parse_weight_source(args.c, family, rc, cover, args.seed)
    pen = build_pencil_formulas(rc, w, n_max + 1)
    report = _new_report("pencil", args.seed, **_family_parameters(family), weights=args.c, n_max=n_max)
    report.add(
        "definition-positivity",
        "pencil-band-signs",
        0.0 if (np.all(pen.a > 0) and np.all(pen.gamma_band > 0) and pen.alpha_tilde > 0) else 1.0,
    )
    report.add(
        "construction-path-equality",
        "embordering-vs-band-formulas",
        path_equivalence_residual(rc, w, n_trunc),
        truncation=n_trunc,
    )
    lams = family.sample_points(21, 12.0)
    vals = associated_values(pen, lams, n_max)
    if n_max >= 2:
        report.add("five-term-self-residual", "five-term-recurrence", five_term_residual(pen, vals, lams, scaled=True))
    else:
        # a residual row needs p_0..p_2, so below index 2 there are no rows
        report.add("five-term-self-residual", "five-term-recurrence", 0.0, rows=0)
    report.add("recurrence-matches-weighted-sums", "pencil-solution-identity",
               weighted_sum_residual(rc, w, vals, lams))
    if args.bands_csv:
        text = _csv_text(
            ["n", "a", "b", "alpha", "beta", "gamma"],
            zip(np.arange(pen.a.size), pen.a, pen.b, pen.alpha_band, pen.beta_band, pen.gamma_band),
        )
        _atomic_write(args.bands_csv, text)
    return _finish(report, args.emit, "pencil-report.json")


def cmd_gram(args) -> int:
    family = _parse_family(args)
    gram = sobolev_gram(family, args.c, args.t0, args.nmax)
    meas = gram_offdiagonal_measures(gram)
    report = _new_report("gram", args.seed, **_family_parameters(family), c=args.c, t0=args.t0, n_max=args.nmax)
    report.add(
        "diagonal-positivity",
        "sobolev-gram-diagonal",
        0.0 if meas["diag_min"] > 0.0 else 1.0,
        diag_min=meas["diag_min"],
    )
    # the asserted certificate is scale-invariant; the min-diagonal variant
    # is reported because its floor grows with the diagonal grading
    report.add(
        "offdiagonal-suppression",
        "sobolev-orthogonality",
        meas["normalized"],
        off_max=meas["off_max"],
        vs_min_diagonal=meas["vs_min_diagonal"],
        diag_grading=float(np.max(np.diag(gram)) / meas["diag_min"]) if meas["diag_min"] > 0 else float("inf"),
    )
    gram_path = args.gram_csv or _out_path(None, "gram.csv")
    if gram_path:
        _atomic_write(gram_path, _csv_text([f"g{j}" for j in range(gram.shape[1])], gram))
    return _finish(report, args.emit, "gram-report.json")


def cmd_diffcheck(args) -> int:
    family, c, n_max = _parse_family(args), args.c, args.nmax
    report = _new_report("diffcheck", args.seed, **_family_parameters(family), c=c, t0=args.t0, n_max=n_max)
    per_n = verify_eigen_relation(family, c, n_max)
    # np.max, unlike max, reads NaN when any degree does
    report.add("eigen-relation", "second-order-operator-eigenvalues", np.max(per_n), per_n=per_n)

    edge = family.edge
    t0 = edge if args.t0 is None else args.t0
    report.add(
        "kernel-image-identity",
        "operator-strips-eigenvalue-scaling",
        verify_kernel_image(family, c, t0, n_max),
        t0=t0,
    )
    if math.isclose(t0, edge):
        shifted = verify_composed_equation(family, c, n_max, reading="shifted")
        unshifted = verify_composed_equation(family, c, n_max, reading="unshifted")
        report.add(
            "composed-equation-shifted-reading",
            "fourth-order-composition",
            shifted,
            unshifted_reading_residual=unshifted,
            eigenvalue_convention="shifted first parameter",
        )
    return _finish(report, args.emit, "diffcheck-report.json")


def cmd_integralcheck(args) -> int:
    if args.c != int(args.c) or args.c < 1:
        raise ValueError(f"c must be a positive integer, got {args.c}")
    c, n_max = int(args.c), args.nmax
    grid = [float(v) for v in args.x.split(",") if v]
    if not grid or any(x >= 0 for x in grid):
        raise ValueError("the x grid must be nonempty and strictly negative")
    report = _new_report("integralcheck", args.seed, alpha=args.alpha, c=c, n_max=n_max, x_grid=grid)
    err = integral_rep_errors(args.alpha, c, n_max, grid)
    rows = [{"n": n, "x": x, "relative_error": float(err[n, j])}
            for n in range(n_max + 1) for j, x in enumerate(grid)]
    report.add("double-integral-vs-closed-form", "bessel-integral-representation",
               float(err.max(initial=0.0)), table=rows)
    return _finish(report, args.emit, "integralcheck-report.json")


# plotdata's family, parameter, weight and point options, and those each branch does not read
_PLOT_DEFAULTS = {"family": "chebyshev", "alpha": 0.0, "beta": 0.0, "c": 1.0, "t0": 1.0}
_PLOT_UNREAD = {"tn": ("family", "alpha", "beta", "t0"), "P": ("family",), "L": ("family", "beta"), "kernel": ("c",)}


def cmd_plotdata(args) -> int:
    _refuse_unread(args, f"plotdata --what {args.what}", {k: _PLOT_DEFAULTS[k] for k in _PLOT_UNREAD[args.what]})
    grid_vals = [float(v) for v in args.grid.split(",") if v]
    if len(grid_vals) == 3 and grid_vals[2] == int(grid_vals[2]) and grid_vals[2] > 1:
        xs = np.linspace(grid_vals[0], grid_vals[1], int(grid_vals[2]))
    elif grid_vals:
        xs = np.asarray(grid_vals)
    else:
        raise ValueError("empty grid")
    path = _out_path(args.emit, f"plot-{args.what}.csv") or f"plot-{args.what}.csv"
    # value and exact slope of u_n from its derivative tables
    if args.what == "kernel":
        family = _parse_family(args)
        rc = recurrence_coefficients(family, args.n)
        u = weighted_tables(rc, orthonormal_values(rc, args.n, args.t0), xs, 1)[:, args.n]
    elif args.what == "tn":
        u = sobolev_tables(Chebyshev1(), args.c, 1.0, args.n, xs, 1)[:, args.n]
    else:
        family = Jacobi(args.alpha, args.beta) if args.what == "P" else LaguerreNeg(args.alpha)
        u = sobolev_tables(family, args.c, args.t0, args.n, xs, 1)[:, args.n]
    if args.what == "tn":
        bound_v = 1.0 / (math.pi * args.c) + 2.0 * args.n / math.pi
        bound_d = 2.0 * args.n / math.pi
        rows = zip(xs, u[0], u[1], [bound_v] * xs.size, [bound_d] * xs.size)
        text = _csv_text(["x", "value", "derivative", "bound_value", "bound_derivative"], rows)
    else:
        text = _csv_text(["x", "value", "derivative"], zip(xs, u[0], u[1]))
    _atomic_write(path, text)
    print(path)
    return 0


# ---------------------------------------------------------------- selftest

def cmd_selftest(args) -> int:
    report = _new_report("selftest", args.seed)
    t_start = time.time()
    for criterion in CRITERIA:
        result = evaluate(criterion, args.seed)
        print(result.summary)
        report.checks.append(result)
    report.metadata["total_elapsed"] = time.time() - t_start
    return _finish(report, args.emit, "selftest-report.json")


# ---------------------------------------------------------------- parser

def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_family(p: argparse.ArgumentParser, **family_kw) -> None:
    p.add_argument("--family", choices=["jacobi", "laguerre", "chebyshev"], **family_kw)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--emit", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modkernel", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pencil", help="pencil construction and recurrence checks")
    _add_family(p, required=True)
    p.add_argument("--c", default="ones", help="weight source expression")
    p.add_argument("--nmax", type=_nonnegative_int, default=20)
    p.add_argument("--bands-csv", dest="bands_csv")
    _add_common(p)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("gram", help="Sobolev Gram matrix certification")
    _add_family(p, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--nmax", type=_nonnegative_int, default=12)
    p.add_argument("--gram-csv", dest="gram_csv")
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("diffcheck", help="operator eigen-relations and compositions")
    _add_family(p, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--nmax", type=_nonnegative_int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_diffcheck)

    p = sub.add_parser("integralcheck", help="Bessel double integral vs closed form")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--nmax", type=_nonnegative_int, default=6)
    p.add_argument("--x", default="-0.5,-1,-5", help="comma-separated strictly negative grid")
    _add_common(p)
    p.set_defaults(func=cmd_integralcheck)

    p = sub.add_parser("plotdata", help="CSV of values and derivatives over a grid")
    p.add_argument("--what", required=True, choices=list(_PLOT_UNREAD))
    _add_family(p)
    p.add_argument("--c", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--n", type=_nonnegative_int, default=5)
    p.add_argument("--grid", default="-1,1,1001", help="lo,hi,count or an explicit comma list")
    _add_common(p)
    p.set_defaults(func=cmd_plotdata, **_PLOT_DEFAULTS)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    """Run one subcommand; invalid input or a named range limit exits 2 with a one-line ``error:`` message.

    A reader that closes stdout early ends the run with exit status 1 and
    no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (CutoffError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``modkernel selftest | head -1``); as the
        # signal module's notes on SIGPIPE advise, point stdout at os.devnull,
        # so the flush at exit cannot fail again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
