"""The independent checks accept the program's outputs and reject perturbed ones.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

JOBS = {
    "integral-table": {"alpha": 0.5, "c": 2, "n_max": 1, "x": [-3.0, -0.4]},
    "quadrature-certify": {"family": "jacobi", "params": (0.7, -0.4), "n": 80},
    "pencil-sweep": {"family": "laguerre", "params": (0.6,), "source": "eigkernel", "shift": 2.0,
                     "wseed": 5, "n_max": 24},
    "sobolev-gram": {"family": "jacobi", "params": (0.3, 1.2), "c": 0.7, "t0": 1.0, "n_max": 10},
}


def _perturb_integral(out, key):
    out[key][-1, 0] += 1e-4 * max(1.0, abs(out[key][-1, 0]))


def _perturb_quadrature(out, key):
    if key == "nodes":
        out["nodes"][5] += 1e-9 * abs(out["nodes"][5])
    else:
        out["weights"][5] *= 1.0 + 1e-6


def _perturb_pencil(out, key):
    if key == "vals":
        out["vals"][-1, 7] += 1e-6 * max(1.0, abs(out["vals"][-1, 7]))
    else:
        out["c"][3] *= 1.0 + 1e-8


def _perturb_gram(out, key):
    if key == "gram":
        g = out["gram"]
        g[1, 2] += 1e-6 * np.sqrt(g[1, 1] * g[2, 2])
    else:
        out["polys"][4] = out["polys"][4] + 1e-7 * np.abs(out["polys"][4]).max() * np.eye(out["polys"][4].size)[2]


CASES = [
    ("integral-table", "got", _perturb_integral),
    ("integral-table", "ref", _perturb_integral),
    ("integral-table", "lag", _perturb_integral),
    ("quadrature-certify", "nodes", _perturb_quadrature),
    ("quadrature-certify", "weights", _perturb_quadrature),
    ("pencil-sweep", "vals", _perturb_pencil),
    ("pencil-sweep", "c", _perturb_pencil),
    ("sobolev-gram", "gram", _perturb_gram),
    ("sobolev-gram", "polys", _perturb_gram),
]


@pytest.fixture(scope="module")
def results():
    return {name: wl.WORKLOADS[name].run(job) for name, job in JOBS.items()}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_program_output_accepted(name, results):
    res = results[name]
    assert res.passed
    assert checks.CHECKS[name](JOBS[name], res.out) <= 1.0


@pytest.mark.parametrize("name,key,perturb", CASES, ids=[f"{n}-{k}" for n, k, _ in CASES])
def test_perturbed_output_rejected(name, key, perturb, results):
    out = copy.deepcopy(results[name].out)
    perturb(out, key)
    assert checks.CHECKS[name](JOBS[name], out) > 1.0


def test_failing_gram_jobs_fail_the_program_certificate():
    for job in wl.GRAM_FAILING:
        assert not wl.gram_job(job).passed


def test_rounds_are_reproducible_and_sized():
    for workload in wl.WORKLOADS.values():
        first = workload.make_round(np.random.default_rng(7), set())
        again = workload.make_round(np.random.default_rng(7), set())
        assert first == again
    gram = wl.gram_round(np.random.default_rng(7), set())
    assert len(gram) == len(wl.GRAM_PASSING) + len(wl.GRAM_FAILING)


def test_tracer_counts_calls_and_restores_bindings():
    from tracer import Tracer

    original = wl.pencil.build_pencil_formulas
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job_id = 0
        res = wl.pencil_job(JOBS["pencil-sweep"])
    finally:
        tracer.uninstall()
    assert wl.pencil.build_pencil_formulas is original
    assert res.passed
    layers = tracer.layer_metrics(1)
    assert layers["pencil.calls"] >= 4 and layers["kernels.calls"] == 1
    assert layers["pencil.self_ms"] > 0.0
    # every span closes after it opens, inside its parent
    for span, parent in enumerate(tracer.parent):
        assert tracer.end[span] >= tracer.start[span]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[span] and tracer.end[span] <= tracer.end[parent]
