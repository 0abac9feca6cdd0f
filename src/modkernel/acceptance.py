"""The acceptance battery and the tolerance of every certificate.

``TOLERANCES`` maps each reference tag to its tolerance; the 12 criteria
and the subcommands' checks all read it there, so a tolerance is stated
once.  A criterion is a name, a reference tag, an optional time budget
and a function that measures it with library calls.  Both ``modkernel
selftest`` and the test suite run the criteria through ``evaluate``,
which passes a criterion only when the measured value is within the
tolerance, its side conditions hold and it finished within its budget.
Every reading, of a criterion or of a subcommand, is one ``Check``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .diffop import verify_composed_equation, verify_eigen_relation, verify_kernel_image
from .integralrep import integral_rep_errors
from .kernels import (
    EigScaledKernel,
    PlainKernel,
    chebyshev_bounds_check,
    generate_weights,
    quadratic_discriminant,
    sobolev_tables,
)
from .pencil import (
    WeightSequence,
    associated_values,
    build_pencil_formulas,
    path_equivalence_residual,
    weighted_sum_residual,
)
from .polycore import Chebyshev1, Jacobi, LaguerreNeg, recurrence_coefficients
from .quadrature import gauss_rule, moment_residual
from .sobolev import gram_offdiagonal_measures, sobolev_gram

__all__ = ["CRITERIA", "DEFAULT_SEED", "TOLERANCES", "Check", "Criterion", "Measurement", "check", "evaluate"]

DEFAULT_SEED = 20260808

#: the tolerance of each reference tag; a tag of tolerance 0 is a
#: pass/fail reading, 0 when it holds
TOLERANCES = {
    "pencil-solution-identity": 1e-9,
    "embordering-vs-band-formulas": 1e-12,
    "five-term-recurrence": 1e-10,
    "pencil-band-signs": 0.0,
    "sobolev-orthogonality": 1e-9,
    "sobolev-gram-diagonal": 0.0,
    "explicit-low-order-coefficients": 1e-12,
    "value-and-slope-bounds": 0.0,
    "second-order-operator-eigenvalues": 1e-11,
    "operator-strips-eigenvalue-scaling": 1e-10,
    "fourth-order-composition": 1e-9,
    "bessel-integral-representation": 1e-5,
    "quadratic-discriminant-sign": 0.0,
    "moment-exactness": 1e-10,
}


class Measurement(NamedTuple):
    """What a criterion measured; ``holds`` carries any side condition."""

    value: float
    details: dict
    holds: bool = True


@dataclass(frozen=True)
class Criterion:
    name: str
    ref: str
    measure: Callable[[int], Measurement]
    budget_seconds: float | None = None

    @property
    def tolerance(self) -> float:
        return TOLERANCES[self.ref]


@dataclass(frozen=True)
class Check:
    """One reading against the tolerance of its reference tag."""

    name: str
    ref: str
    measured: float
    tolerance: float
    passed: bool
    details: dict

    @property
    def summary(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name}: "
                f"measured={self.measured:.3e} tolerance={self.tolerance:.1e}")


def check(name: str, ref: str, measured: float, passed: bool | None = None, **details) -> Check:
    """A reading of tag ``ref``; unless told otherwise it passes when within the tag's tolerance (NaN fails)."""
    tolerance = TOLERANCES[ref]
    if passed is None:
        passed = measured <= tolerance
    return Check(name, ref, float(measured), tolerance, bool(passed), details)


#: the battery, in criterion order; filled by the ``_criterion`` decorator
CRITERIA: list[Criterion] = []


def _criterion(name: str, ref: str, budget_seconds: float | None = None):
    def register(measure: Callable[[int], Measurement]) -> Callable[[int], Measurement]:
        CRITERIA.append(Criterion(name, ref, measure, budget_seconds))
        return measure

    return register


def evaluate(criterion: Criterion, seed: int = DEFAULT_SEED) -> Check:
    """Run one criterion; its details gain ``elapsed`` and any ``budget_seconds``."""
    start = time.perf_counter()
    m = criterion.measure(seed)
    elapsed = time.perf_counter() - start
    details = {**m.details, "elapsed": elapsed}
    in_budget = True
    if criterion.budget_seconds is not None:
        details["budget_seconds"] = criterion.budget_seconds
        in_budget = elapsed <= criterion.budget_seconds
    passed = m.holds and m.value <= criterion.tolerance and in_budget
    return check(criterion.name, criterion.ref, m.value, passed, **details)


@_criterion("criterion-01-recurrence-equivalence", "pencil-solution-identity", budget_seconds=10.0)
def criterion_01_recurrence_equivalence(seed: int) -> Measurement:
    # 3 families x 4 weight sequences, orders up to 25
    readings = []
    # (family, t0 of the plain kernel, t0 of the eigenvalue-scaled kernel)
    for family, kernel_t0, near_t0 in (
        (Jacobi(0.5, -0.3), 1.0, 1.1),
        (LaguerreNeg(0.0), 0.5, 0.5),
        (Chebyshev1(), 1.0, 1.1),
    ):
        rc = recurrence_coefficients(family, 28)
        sequences = [
            WeightSequence(np.ones(29)),
            WeightSequence(1.0 / (np.arange(29.0) + 1.0) ** 2 + 1.0),
            generate_weights(family, rc, PlainKernel(kernel_t0), 28),
            generate_weights(family, rc, EigScaledKernel(1.0, near_t0), 28),
        ]
        xs = family.sample_points(21, 12.0)
        for w in sequences:
            vals = associated_values(build_pencil_formulas(rc, w, 26), xs, 25)
            readings.append(weighted_sum_residual(rc, w, vals, xs))
    return Measurement(np.max(readings), {})


@_criterion("criterion-02-path-equality", "embordering-vs-band-formulas", budget_seconds=1.0)
def criterion_02_path_equality_at_200(seed: int) -> Measurement:
    readings = []
    for family, family_seed in ((Chebyshev1(), seed), (Jacobi(0.5, -0.3), seed + 1)):
        w = WeightSequence(0.5 + np.random.default_rng(family_seed).random(201))
        readings.append(path_equivalence_residual(recurrence_coefficients(family, 200), w, 200))
    return Measurement(np.max(readings), {})


def _gram_sweep(cases) -> Measurement:
    # degree-12 Sobolev Gram blocks
    measures = [gram_offdiagonal_measures(sobolev_gram(family, c, t0, 12)) for family, c, t0 in cases]
    diag_ok = all(meas["diag_min"] > 0.0 for meas in measures)
    worst_vs_min = float(np.max([meas["vs_min_diagonal"] for meas in measures]))
    return Measurement(np.max([meas["normalized"] for meas in measures]),
                       {"vs_min_diagonal": worst_vs_min, "diagonal_positive": diag_ok}, holds=diag_ok)


@_criterion("criterion-03-jacobi-gram", "sobolev-orthogonality", budget_seconds=5.0)
def criterion_03_jacobi_sobolev_orthogonality(seed: int) -> Measurement:
    grid = (-0.5, 0.0, 1.7)
    return _gram_sweep([(Jacobi(a, b), c, t0) for a in grid for b in grid
                        for c in (0.1, 1.0, 10.0) for t0 in (1.0, 2.0)])


@_criterion("criterion-04-laguerre-gram", "sobolev-orthogonality", budget_seconds=5.0)
def criterion_04_laguerre_sobolev_orthogonality(seed: int) -> Measurement:
    return _gram_sweep([(LaguerreNeg(a), c, t0) for a in (0.0, 0.5, 3.0)
                        for c in (0.1, 1.0, 10.0) for t0 in (0.0, 1.0)])


def _ascending_coefficients(family, c: float, t0: float, n: int) -> np.ndarray:
    # the monomial coefficients of u_n as its Taylor coefficients u_n^(j)(0) / j!
    return sobolev_tables(family, c, t0, n, 0.0, n)[:, n] / [math.factorial(j) for j in range(n + 1)]


@_criterion("criterion-05-chebyshev-fixtures", "explicit-low-order-coefficients")
def criterion_05_chebyshev_explicit_fixtures(seed: int) -> Measurement:
    # explicit low-order coefficients and the degree-1 root, through both the
    # Chebyshev recurrence and its Jacobi(-1/2, -1/2) form; each error is the
    # larger of its absolute and relative forms
    readings = []
    for family, c in itertools.product((Chebyshev1(), Jacobi(-0.5, -0.5)), (0.1, 1.0, 10.0)):
        p1 = math.pi * _ascending_coefficients(family, c, 1.0, 1)
        p2 = math.pi * _ascending_coefficients(family, c, 1.0, 2)
        root = -p1[0] / p1[1]
        for got, ref in (
            (p1, [1.0 / c, 2.0 / (c + 1.0)]),
            (p2, [1.0 / c - 2.0 / (c + 4.0), 2.0 / (c + 1.0), 4.0 / (c + 4.0)]),
            ([root], [-(c + 1.0) / (2.0 * c)]),
        ):
            ref = np.asarray(ref)
            err = float(np.abs(np.asarray(got) - ref).max())
            readings.append(err / min(1.0, float(np.abs(ref).max())))
    return Measurement(np.max(readings), {})


@_criterion("criterion-06-chebyshev-bounds", "value-and-slope-bounds", budget_seconds=2.0)
def criterion_06_chebyshev_bounds(seed: int) -> Measurement:
    # orders 0..20 of each c from one table
    ok = all(chebyshev_bounds_check(c, 20, 10001)[2] for c in (0.01, 1.0, 100.0))
    return Measurement(0.0 if ok else 1.0, {})


@_criterion("criterion-07-eigen-relations", "second-order-operator-eigenvalues")
def criterion_07_eigen_relations(seed: int) -> Measurement:
    cases = (
        (Jacobi(0.5, -0.3), 2.0), (Jacobi(-0.5, -0.5), 1.0), (Jacobi(1.7, 0.0), 0.1),
        (LaguerreNeg(0.0), 2.0), (LaguerreNeg(0.5), 0.1), (LaguerreNeg(1.0), 0.5), (LaguerreNeg(3.0), 1.0),
        (Chebyshev1(), 1.0),
    )
    return Measurement(np.max([np.max(verify_eigen_relation(f, c, 15)) for f, c in cases]), {})


@_criterion("criterion-08-kernel-image", "operator-strips-eigenvalue-scaling")
def criterion_08_kernel_image_identities(seed: int) -> Measurement:
    cases = (
        (Jacobi(0.5, -0.3), 2.0, 1.5), (Chebyshev1(), 1.0, 1.0),
        (LaguerreNeg(1.0), 0.5, 0.0), (LaguerreNeg(0.0), 2.0, 1.0),
    )
    return Measurement(np.max([verify_kernel_image(f, c, t0, 12) for f, c, t0 in cases]), {})


@_criterion("criterion-09-composed-equation", "fourth-order-composition")
def criterion_09_composed_equations(seed: int) -> Measurement:
    cases = ((Jacobi(-0.5, -0.5), 1.0), (Jacobi(0.5, -0.3), 2.0), (LaguerreNeg(0.0), 2.0), (LaguerreNeg(1.5), 0.3))
    worst = np.max([verify_composed_equation(f, c, 10) for f, c in cases])
    # the adopted convention takes the outer eigenvalue at the raised first
    # parameter; the alternative must fail visibly
    unshifted = verify_composed_equation(Jacobi(-0.5, -0.5), 1.0, 10, reading="unshifted")
    details = {"eigenvalue_convention": "shifted first parameter", "unshifted_reading_residual": unshifted}
    return Measurement(worst, details, holds=unshifted > 1e-2)


@_criterion("criterion-10-integral-representation", "bessel-integral-representation", budget_seconds=60.0)
def criterion_10_integral_representation(seed: int) -> Measurement:
    worst = np.max([integral_rep_errors(alpha, c, 6, (-0.5, -1.0, -5.0)).max()
                    for alpha in (0.0, 0.5, 2.0) for c in (1, 2, 3)])
    return Measurement(worst, {})


@_criterion("criterion-11-discriminant-witness", "quadratic-discriminant-sign")
def criterion_11_discriminant_witnesses(seed: int) -> Measurement:
    # negative degree-2 discriminants witness non-orthogonality
    d_cheb = quadratic_discriminant(*(math.pi * _ascending_coefficients(Chebyshev1(), 0.1, 1.0, 2))[::-1])
    found_c = d_lag = None
    for c in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        cand = quadratic_discriminant(*_ascending_coefficients(LaguerreNeg(0.0), c, 0.0, 2)[::-1])
        if cand < 0.0:
            found_c, d_lag = c, cand
            break
    details = {"chebyshev_discriminant": d_cheb, "laguerre_c": found_c, "laguerre_discriminant": d_lag}
    return Measurement(0.0 if (d_cheb < 0.0 and found_c is not None) else 1.0, details)


@_criterion("criterion-12-quadrature-exactness", "moment-exactness")
def criterion_12_quadrature_exactness(seed: int) -> Measurement:
    readings = []
    for family in (Jacobi(0.5, -0.3), LaguerreNeg(0.5), Chebyshev1()):
        rc = recurrence_coefficients(family, 60)
        readings += [moment_residual(gauss_rule(family, rc, n)) for n in range(1, 61)]
    return Measurement(np.max(readings), {})
