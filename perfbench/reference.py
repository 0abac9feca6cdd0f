"""Reference figures: the layer list of ROADMAP aim 1, and selftest.

    python3 perfbench/reference.py [--repeats N]

Prints one JSON object per entry: median and minimum wall time over the
repeats, the worst residual and the tolerance the program holds it to
(none for the Bessel series, which has no stated tolerance).  These are
reference figures, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from scipy import special as sp  # noqa: E402

import modkernel as mk  # noqa: E402
from modkernel import cli  # noqa: E402


def rule_entry(fam, n: int):
    def run():
        rc = mk.recurrence_coefficients(fam, n)
        rule = mk.gauss_rule(fam, rc, n)
        k_top = 20
        moments = mk.weight_moments(fam, k_top)
        powers = rule.nodes[None, :] ** np.arange(k_top + 1)[:, None]
        scale = np.maximum(np.abs(moments), np.abs(powers) @ rule.weights)
        return float((np.abs(powers @ rule.weights - moments) / scale).max()), 1e-10
    return run


def pencil_entry(n: int):
    fam = mk.Chebyshev1()

    def run():
        rc = mk.recurrence_coefficients(fam, n + 3)
        w = mk.WeightSequence(np.ones(n + 4))
        pen = mk.build_pencil_formulas(rc, w, n + 1)
        lams = np.linspace(-1.0, 1.0, 21)
        vals = mk.associated_values(pen, lams, n)
        ref = np.cumsum(mk.orthonormal_values(rc, n, lams), axis=0) / rc.g0
        scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
        return float((np.abs(vals - ref) / scale).max()), 1e-9
    return run


def gram_entry(n: int):
    def run():
        wgt = mk.jacobi_matrix_weight(0.5, -0.3, 1.0, 1.5)
        polys = [mk.jacobi_sobolev_poly(0.5, -0.3, 1.0, 1.5, k) for k in range(n + 1)]
        rc = mk.recurrence_coefficients(wgt.family, n + 2)
        rule = mk.gauss_rule(wgt.family, rc, n + 2)
        return mk.gram_offdiagonal_measures(mk.gram_matrix(wgt, polys, rule))["normalized"], 1e-9
    return run


def bessel_entry():
    z = np.linspace(0.0, 30.0, 301)

    def run():
        worst = 0.0
        for nu in (0.0, 0.5, 1.0, 2.0, 3.0):
            got = mk.bessel_j(nu, z)
            worst = max(worst, float(np.abs(got - sp.jv(nu, z)).max()))
        return worst, None
    return run


def integral_entry():
    def run():
        got = mk.sobolev_laguerre_integral_rep(0.5, 2, 4, -1.0)
        ref = mk.sobolev_laguerre_closed_form(0.5, 2.0, 4, -1.0)
        return abs(got - ref) / max(abs(ref), 1.0), 1e-5
    return run


def selftest_entry():
    def run():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["selftest", "--emit", os.path.join(tmp, "selftest.json")])
            with open(os.path.join(tmp, "selftest.json")) as fh:
                checks = json.load(fh)["checks"]
        # the criterion closest to its tolerance; the pass/fail criteria have tolerance 0
        worst = max((c for c in checks if c["tolerance"] > 0), key=lambda c: c["measured"] / c["tolerance"])
        return worst["measured"], worst["tolerance"]
    return run


ENTRIES = [
    ("gauss_rule Jacobi(0, 0.5) N=140", rule_entry(mk.Jacobi(0.0, 0.5), 140)),
    ("gauss_rule Chebyshev N=1000", rule_entry(mk.Chebyshev1(), 1000)),
    ("pencil build + associated_values n=200", pencil_entry(200)),
    ("pencil build + associated_values n=2000", pencil_entry(2000)),
    ("Gram Jacobi(0.5, -0.3) n=12", gram_entry(12)),
    ("Gram Jacobi(0.5, -0.3) n=30", gram_entry(30)),
    ("bessel_j series, 5 orders x 301 points", bessel_entry()),
    ("integral representation, one point", integral_entry()),
    ("modkernel selftest", selftest_entry()),
]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    for name, run in ENTRIES:
        times, worst, tolerance = [], 0.0, None
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            residual, tolerance = run()
            times.append(time.perf_counter() - t0)
            worst = max(worst, residual)
        print(json.dumps({
            "name": name,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "repeats": args.repeats,
            "worst_residual": worst,
            "tolerance": tolerance,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
