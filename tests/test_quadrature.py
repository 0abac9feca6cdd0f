import math
import os
import sys
import threading

import numpy as np
import pytest

from modkernel.polycore import Chebyshev1, Jacobi, LaguerreNeg, orthonormal_values, recurrence_coefficients
from modkernel import quadrature
from modkernel.quadrature import (
    QuadratureRangeError,
    QuadratureRule,
    family_rule,
    gauss_rule,
    integrate,
    moment_residual,
    weight_moments,
)

from oracles import dense_gauss_rule, jacobi_moments_lowdeg, laguerre_neg_moments, ql_gauss_rule

FAMILIES = [Jacobi(0.5, -0.3), Jacobi(1.7, 1.7), LaguerreNeg(0.0), LaguerreNeg(2.5), Chebyshev1()]


def test_chebyshev_closed_form_rule():
    fam = Chebyshev1()
    rc = recurrence_coefficients(fam, 12)
    rule = gauss_rule(fam, rc, 12)
    ref_nodes = np.sort(np.cos((2 * np.arange(1, 13) - 1) * math.pi / 24))
    np.testing.assert_allclose(rule.nodes, ref_nodes, atol=5e-15)
    np.testing.assert_allclose(rule.weights, math.pi / 12, rtol=1e-12)


def test_chebyshev_two_point_rule_is_exact():
    rule = gauss_rule(Chebyshev1(), recurrence_coefficients(Chebyshev1(), 2), 2)
    assert rule.nodes.tolist() == [-math.cos(math.pi / 4), math.cos(math.pi / 4)]


def test_legendre_two_point_rule():
    fam = Jacobi(0.0, 0.0)
    rc = recurrence_coefficients(fam, 4)
    rule = gauss_rule(fam, rc, 2)
    np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_total_weight_is_mass(family):
    rc = recurrence_coefficients(family, 25)
    for n in (1, 2, 7, 25):
        rule = gauss_rule(family, rc, n)
        assert rule.weights.sum() == pytest.approx(rc.mu0, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_node_bracketing(family):
    rc = recurrence_coefficients(family, 30)
    rule = gauss_rule(family, rc, 30)
    lo, hi = family.support
    assert rule.nodes.min() > lo and rule.nodes.max() < hi
    if isinstance(family, LaguerreNeg):
        assert rule.nodes.max() < 0.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_symmetric_weight_rule_is_symmetric():
    fam = Jacobi(1.7, 1.7)
    rc = recurrence_coefficients(fam, 15)
    rule = gauss_rule(fam, rc, 15)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 5, 13, 37, 60])
def test_moment_exactness(family, n):
    rule = gauss_rule(family, recurrence_coefficients(family, 60), n)
    assert moment_residual(rule) < 1e-10


@pytest.mark.parametrize("family, n", [
    (Jacobi(0.0, -0.9999999999999999), 2),
    (Jacobi(-0.9999999999999999, 0.0), 5),
    (Jacobi(-0.9999999999999999, -0.9999999999999999), 5),
    (Jacobi(0.5, -0.99999999999999), 30),
])
def test_node_rounding_onto_edge_stays_inside(family, n):
    # an exponent this close to -1 puts a node within round-off of the end
    rule = gauss_rule(family, recurrence_coefficients(family, n), n)
    assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
    assert moment_residual(rule) <= 1e-10


@pytest.mark.parametrize("family, n", [
    (Jacobi(0.3, 1.7), 255),
    (Jacobi(-0.9, 1.9), 530),
    (Chebyshev1(), 570),
    (LaguerreNeg(0.5), 180),
])
def test_large_rule_matches_dense_eigensolver(family, n):
    rc = recurrence_coefficients(family, n)
    rule = gauss_rule(family, rc, n)
    nodes, weights = dense_gauss_rule(rc.b_hat, rc.a_hat, rc.mu0, n)
    assert np.abs(rule.nodes - nodes).max() <= 1e-13 * max(1.0, np.abs(nodes).max())
    assert np.abs(rule.weights - weights).max() <= 1e-9 * weights.max()


def test_large_symmetric_rule_integrates_high_degree_square():
    fam = Jacobi(2.95, 2.95)
    rc = recurrence_coefficients(fam, 600)
    rule = gauss_rule(fam, rc, 600)
    g = orthonormal_values(rc, 450, rule.nodes)[450]
    assert abs(rule.weights @ g**2 - 1.0) <= 1e-11


@pytest.mark.parametrize("family, n", [
    (Jacobi(-0.9, 1.9), 530),
    (Jacobi(-0.9999, 0.5), 300),
    (LaguerreNeg(0.5), 180),
])
def test_tail_weights_and_mass(family, n):
    # g_k^2 for k near N puts its mass on the small end weights, so these
    # sums hold only if every weight is accurate relative to itself
    rc = recurrence_coefficients(family, n)
    rule = gauss_rule(family, rc, n)
    assert rule.weights.sum() == pytest.approx(rc.mu0, rel=1e-12)
    g = orthonormal_values(rc, n - 1, rule.nodes)
    for k in (n // 2, (3 * n) // 4, n - 1):
        assert abs(rule.weights @ g[k] ** 2 - 1.0) <= 1e-11


def _matches_ql_oracle(family, n, rule):
    rc = recurrence_coefficients(family, n)
    nodes, weights = ql_gauss_rule(rc.b_hat, rc.a_hat, rc.mu0, n)
    assert np.abs(rule.nodes - nodes).max() <= 1e-13 * max(1.0, np.abs(nodes).max())
    assert np.abs(rule.weights - weights).max() <= 1e-9 * weights.max()
    assert rule.weights.sum() == pytest.approx(rc.mu0, rel=1e-12)


@pytest.mark.parametrize("family, n", [
    # large parameters, where asymptotic seeds can lead two points to one
    # zero: the first two still take the repair (15 and 14 sweeps), because
    # the boundary seeds of Jacobi(40, 0.5) are off at N = 60 and LaguerreNeg
    # has none; the third converges in four sweeps
    (Jacobi(40.0, 0.5), 60),
    (LaguerreNeg(40.0), 50),
    (LaguerreNeg(10.0), 180),
])
def test_seed_failure_cases_match_ql_oracle(family, n):
    _matches_ql_oracle(family, n, gauss_rule(family, recurrence_coefficients(family, n), n))


@pytest.mark.parametrize("family, n", [(Jacobi(0.5, -0.3), 40), (LaguerreNeg(2.5), 40), (Chebyshev1(), 9)])
@pytest.mark.parametrize("seeds", [np.zeros, lambda n: np.full(n, -0.25), lambda n: np.linspace(-0.5, -0.4, n)])
def test_degenerate_seeds_are_repaired(family, n, seeds, monkeypatch):
    counts = _count_work(monkeypatch)
    monkeypatch.setattr(type(family), "gauss_seeds", lambda self, n_points: seeds(n_points))
    _matches_ql_oracle(family, n, gauss_rule(family, recurrence_coefficients(family, n), n))
    assert counts["repairs"] == 1


def _count_work(monkeypatch):
    """Counters of the recurrence sweeps and of the repairs of the rules built from here on."""
    counts = {"sweeps": 0, "repairs": 0}
    sweep, repair = quadrature._Sweep.__call__, quadrature._repair

    def counted_sweep(self, *args, **kwargs):
        counts["sweeps"] += 1
        return sweep(self, *args, **kwargs)

    def counted_repair(*args):
        counts["repairs"] += 1
        return repair(*args)

    monkeypatch.setattr(quadrature._Sweep, "__call__", counted_sweep)
    monkeypatch.setattr(quadrature, "_repair", counted_repair)
    return counts


_FAST_PATH_PARAMS = [(2.0, 2.0), (-0.89, -0.89), (2.0, -0.89), (0.0, 0.0)] + [
    (float(a), float(b)) for a, b in np.random.default_rng(12).uniform(-0.9, 2.0, (8, 2))
]


@pytest.mark.parametrize("n", [40, 255, 530])
def test_jacobi_rules_take_two_sweeps(n, monkeypatch):
    # interior seeds within 7e-5 of the spacing and boundary seeds from
    # Bessel zeros within 4e-4: Halley's step from them has converged by
    # the second sweep, which sums the weights (alpha and beta at +-1/2
    # make the seeds exact, and one sweep does)
    counts = _count_work(monkeypatch)
    for alpha, beta in _FAST_PATH_PARAMS:
        family = Jacobi(alpha, beta)
        counts.update(sweeps=0, repairs=0)
        rule = gauss_rule(family, recurrence_coefficients(family, n), n)
        assert counts == {"sweeps": 2, "repairs": 0}, (alpha, beta)
    _matches_ql_oracle(family, n, rule)


@pytest.mark.parametrize("n", [2, 9, 40, 255, 530, 570])
def test_chebyshev_rules_take_one_sweep(n, monkeypatch):
    # the seeds are the nodes
    counts = _count_work(monkeypatch)
    gauss_rule(Chebyshev1(), recurrence_coefficients(Chebyshev1(), n), n)
    assert counts == {"sweeps": 1, "repairs": 0}


@pytest.mark.parametrize("family", [Chebyshev1(), Jacobi(0.5, -0.3), LaguerreNeg(0.5)])
def test_one_point_rules_take_one_sweep(family, monkeypatch):
    # Gershgorin's interval is the zero b_0 itself, and the seed starts on it
    counts = _count_work(monkeypatch)
    rc = recurrence_coefficients(family, 1)
    rule = gauss_rule(family, rc, 1)
    assert counts == {"sweeps": 1, "repairs": 0}
    assert rule.nodes[0] == rc.b_hat[0] and rule.weights[0] == pytest.approx(rc.mu0, rel=1e-15)


def test_large_parameters_stay_off_the_repair(monkeypatch):
    # with interior seeds alone, two points lead to one zero here (10 sweeps)
    counts = _count_work(monkeypatch)
    family = Jacobi(20.0, 30.0)
    rule = gauss_rule(family, recurrence_coefficients(family, 150), 150)
    assert counts["repairs"] == 0
    _matches_ql_oracle(family, 150, rule)


def test_moments_match_independent_formulas():
    # the binomial-sum oracle cancels catastrophically with degree; stop at 12
    np.testing.assert_allclose(
        weight_moments(Jacobi(0.5, -0.3), 12), jacobi_moments_lowdeg(0.5, -0.3, 12), rtol=2e-8, atol=1e-12
    )
    np.testing.assert_allclose(
        weight_moments(LaguerreNeg(1.5), 12), laguerre_neg_moments(1.5, 12), rtol=1e-12
    )
    # Chebyshev even moments: pi * (k-1)!! / k!!
    m = weight_moments(Chebyshev1(), 6)
    np.testing.assert_allclose(m[[0, 2, 4, 6]], [math.pi, math.pi / 2, 3 * math.pi / 8, 5 * math.pi / 16], rtol=1e-14)
    np.testing.assert_allclose(m[[1, 3, 5]], 0.0, atol=1e-300)


def test_laguerre_moments_reach_gamma_range():
    # Gamma(alpha + k + 1) is a double up to alpha + k + 1 = 171.6
    assert np.all(np.isfinite(weight_moments(LaguerreNeg(0.5), 150)))
    np.testing.assert_allclose(weight_moments(LaguerreNeg(0.5), 150), laguerre_neg_moments(0.5, 150), rtol=1e-12)


def test_integrate_constant_and_orthonormal_pairs():
    fam = Jacobi(0.5, -0.3)
    rc = recurrence_coefficients(fam, 10)
    rule = gauss_rule(fam, rc, 8)
    assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(rc.mu0, rel=1e-13)

    def pair(x):
        vals = orthonormal_values(rc, 5, x)
        return vals[3] * vals[5]

    def square(x):
        vals = orthonormal_values(rc, 4, x)
        return vals[4] ** 2

    assert abs(integrate(rule, pair)) < 1e-10
    assert integrate(rule, square) == pytest.approx(1.0, abs=1e-10)


def test_integrate_scalar_callable():
    fam = Chebyshev1()
    rc = recurrence_coefficients(fam, 6)
    rule = gauss_rule(fam, rc, 6)
    assert integrate(rule, lambda x: float(x) ** 2) == pytest.approx(math.pi / 2, rel=1e-12)


def test_integrate_rejects_nonfinite():
    fam = Chebyshev1()
    rc = recurrence_coefficients(fam, 4)
    rule = gauss_rule(fam, rc, 4)
    with pytest.raises(ValueError, match="not finite"):
        integrate(rule, lambda x: np.full_like(x, np.nan))


def test_gauss_rule_preconditions():
    fam = Chebyshev1()
    rc = recurrence_coefficients(fam, 4)
    with pytest.raises(ValueError):
        gauss_rule(fam, rc, 0)
    with pytest.raises(ValueError):
        gauss_rule(fam, rc, 9)  # rc too short


def test_rule_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadratureRule(nodes=np.array([0.0, 0.5]), weights=np.array([1.0, -1.0]),
                       exact_degree=3, weight_id=Chebyshev1())
    with pytest.raises(ValueError, match="increasing"):
        QuadratureRule(nodes=np.array([0.5, 0.0]), weights=np.array([1.0, 1.0]),
                       exact_degree=3, weight_id=Chebyshev1())


def test_laguerre_weight_underflow_is_named():
    fam = LaguerreNeg(0.0)
    rc = recurrence_coefficients(fam, 196)
    with pytest.raises(QuadratureRangeError, match=r"N = 196.*node 0 .*underflows"):
        gauss_rule(fam, rc, 196)
    rule = gauss_rule(fam, rc, 180)
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5, 2.0])
def test_laguerre_range_reaches_ql_range(alpha):
    # every N whose QL weights are all representable still builds (the
    # Christoffel weights may reach one N further); the QL range ends by 200
    fam = LaguerreNeg(alpha)
    rc = recurrence_coefficients(fam, 200)
    for n in range(180, 201):
        nodes, weights = ql_gauss_rule(rc.b_hat, rc.a_hat, rc.mu0, n)
        if np.all(weights > 0.0):
            rule = gauss_rule(fam, rc, n)
            assert np.abs(rule.nodes - nodes).max() <= 1e-13 * np.abs(nodes).max()
        else:
            break
    assert n < 200


@pytest.mark.parametrize(
    "alpha,n,what",
    [
        # x^k at the outermost node overflows before the gamma moments
        # Gamma(alpha + k + 1) do; at alpha 40 those reach k = 130
        (0.5, 85, r"the rule sum of x\^124"),
        (40.0, 63, r"the rule sum of x\^125"),
    ],
)
def test_laguerre_moment_overflow_is_named(alpha, n, what):
    family = LaguerreNeg(alpha)
    rule = gauss_rule(family, recurrence_coefficients(family, n), n)
    with pytest.raises(QuadratureRangeError, match=rf"LaguerreNeg\(alpha={alpha}\) rule with N = {n}: {what} overflows"):
        moment_residual(rule)


class TestFamilyRule:
    @pytest.mark.parametrize("n", [24, 140])
    def test_bitwise_equal_to_fresh_rule(self, n):
        fam = Jacobi(0.0, 1.3)
        cached = family_rule(fam, n)
        fresh = gauss_rule(fam, recurrence_coefficients(fam, n), n)
        assert cached.nodes.tobytes() == fresh.nodes.tobytes()
        assert cached.weights.tobytes() == fresh.weights.tobytes()
        assert cached.exact_degree == fresh.exact_degree and cached.weight_id == fam

    def test_arrays_are_read_only(self):
        rule = family_rule(Jacobi(0.0, 2.0), 24)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights *= 2.0
        assert family_rule(Jacobi(0.0, 2.0), 24).weights.sum() == pytest.approx(2.0**3 / 3.0, rel=1e-13)

    def test_repeat_reuses_rule(self, monkeypatch):
        calls = []
        solver = quadrature._newton_rule
        monkeypatch.setattr(quadrature, "_newton_rule", lambda f, rc, n: calls.append(1) or solver(f, rc, n))
        family_rule.cache_clear()
        fam = Jacobi(0.0, 0.615)
        first = family_rule(fam, 30)
        assert family_rule(Jacobi(0.0, 0.615), 30) is first
        assert len(calls) == 1
        family_rule(fam, 31)
        assert len(calls) == 2

    def test_concurrent_callers_share_identical_rules(self):
        fam = Jacobi(0.0, 0.4321)
        sizes = list(range(8, 20))
        fresh = {n: gauss_rule(fam, recurrence_coefficients(fam, n), n) for n in sizes}
        workers = min((os.cpu_count() or 1) + 2, 8)
        results = [None] * workers

        def work(slot):
            order = sizes[slot % len(sizes):] + sizes[: slot % len(sizes)]
            results[slot] = {n: family_rule(fam, n) for n in order}

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            for n in sizes:
                assert got[n].nodes.tobytes() == fresh[n].nodes.tobytes()
                assert got[n].weights.tobytes() == fresh[n].weights.tobytes()
                assert not got[n].nodes.flags.writeable and not got[n].weights.flags.writeable

    def test_cache_is_bounded(self):
        assert family_rule.cache_info().maxsize == quadrature._RULE_CACHE_SIZE
