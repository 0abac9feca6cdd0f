"""modkernel benchmark: one workload as a closed loop, checked, with metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, one caller: each job is sent when
the previous one has completed, in whole rounds of jobs (see
workloads.py) until the measured time is used.  After the measured
phase every output of a certified job is checked against an
independent computation (checks.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every timing
metric is scaled to a reference machine speed, read from a fixed probe
computation that never calls modkernel and that runs between jobs
throughout the run (see README.md, Steadiness).  The line before it
carries reference figures that are not metrics: the probe times, the
unscaled timings, the worst residual as a fraction of its tolerance,
and the job and round counts.  Run records and trace spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
SETUP_PROBES = 5  # probe samples taken before each set-up sample
PROBE_SHARE = 0.05  # share of the measured time spent in the probe, spread over the run
LOCAL_PROBES = 4  # a job's time is scaled by the mean of this many probe samples on each side
# Mean probe time, in seconds, at the reference speed that timings are scaled to
PROBE_REF_S = 0.010
READY = "ready"


def probe() -> float:
    """Seconds taken by a fixed computation that never calls modkernel.

    It mixes the three kinds of work the library does: interpreted float
    arithmetic, as in the pure-Python solvers; small-array numpy calls,
    as in the pencil code; and numpy polynomial arithmetic, as in the
    Sobolev and operator code.  On a host whose speed drifts, its time
    follows the jobs' time (see README.md, Steadiness).
    """
    import numpy as np

    poly = np.polynomial.polynomial
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    a = np.linspace(0.0, 1.0, 32)
    for _ in range(900):
        a = np.sqrt(a * a + 1.0) - 0.5
    c = np.linspace(0.1, 1.0, 21)
    x = np.linspace(-1.0, 1.0, 40)
    for _ in range(40):
        acc += float(poly.polyval(x, poly.polymul(c[:11], poly.polyder(c)[:11])).sum())
    return time.perf_counter() - t0


def import_library():
    """Import modkernel from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "modkernel" / "__init__.py").is_file():
        raise SystemExit(f"error: no modkernel sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import modkernel

    if pathlib.Path(modkernel.__file__).resolve().parent != (src / "modkernel").resolve():
        raise SystemExit(f"error: modkernel was imported from {modkernel.__file__}, not from {src}")
    import workloads

    return workloads


def setup_sample(args) -> float:
    """Seconds from starting a fresh process to its first round of inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != READY or code != 0:
        raise SystemExit(f"error: set-up probe ended with code {code} and output {line!r}")
    return elapsed


def measure(workload, rng, used: set, first_round, seconds: float, sink, tracer=None) -> dict:
    """Closed loop over whole rounds until ``seconds`` of measured time.

    The run stops at the round boundary nearest to ``seconds``.  Between
    jobs the probe runs whenever its total has fallen below
    ``PROBE_SHARE`` of the measured time, so that its samples cover the
    run evenly; probe time is left out of the measured time.  Each job's
    inputs and outputs are pickled to ``sink`` so that memory does not
    grow with the number of jobs.  With a tracer, rounds alternate
    untraced and traced, and the run ends after a traced round.
    """
    from workloads import Result

    times, traced_flags, passed = array.array("d"), array.array("b"), array.array("b")
    probe_at = array.array("l")  # probe samples taken before each job started
    ratios = array.array("d")
    errors: list = []
    probe_s = array.array("d")
    probe_total = 0.0
    rounds = 0
    t_start = time.perf_counter()
    batch = first_round
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for job in batch:
                if traced:
                    tracer.job_id = len(times)
                t0 = time.perf_counter()
                try:
                    result = workload.run(job)
                except Exception:  # a job that raises counts as failed; the run goes on
                    result = Result(False, math.inf, {})
                    errors.append(traceback.format_exc(limit=-3))
                t1 = time.perf_counter()
                times.append(t1 - t0)
                probe_at.append(len(probe_s))
                traced_flags.append(traced)
                passed.append(bool(result.passed))
                ratios.append(result.ratio)
                pickle.dump((job, result.passed, result.out), sink, pickle.HIGHEST_PROTOCOL)
                while probe_total < PROBE_SHARE * (time.perf_counter() - t_start - probe_total):
                    dt = probe()
                    probe_s.append(dt)
                    probe_total += dt
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - t_start - probe_total
        if elapsed + 0.5 * elapsed / rounds >= seconds and (tracer is None or traced):
            break
        batch = workload.make_round(rng, used)
    return {"times": times, "probe_at": probe_at, "traced": traced_flags, "passed": passed, "ratios": ratios,
            "rounds": rounds, "wall_s": elapsed, "probe_s": probe_s, "errors": errors}


def measure_setup(args) -> tuple[list, list]:
    """Set-up samples, each after a few probe samples taken just before it."""
    setup, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.extend(probe() for _ in range(SETUP_PROBES))
        setup.append(setup_sample(args))
    return setup, probes


def check_outputs(check, path, count: int) -> float:
    """Worst independent-check ratio over the certified jobs pickled at ``path``."""
    worst = 0.0
    with open(path, "rb") as fh:
        for _ in range(count):
            job, passed, out = pickle.load(fh)
            if passed:
                worst = max(worst, check(job, out))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl_module = import_library()
    if args.workload not in wl_module.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(wl_module.WORKLOADS)}")
    workload = wl_module.WORKLOADS[args.workload]
    import numpy as np

    rng = np.random.default_rng(args.seed)
    used: set = set()
    first_round = workload.make_round(rng, used)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    setup, setup_probes = measure_setup(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outputs = OUT_DIR / f"outputs-{stem}.pkl"
    try:
        with open(outputs, "wb") as sink:
            run = measure(workload, rng, used, first_round, args.seconds, sink, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # independent checks come after every measurement of this process
        import checks

        attempted = len(run["times"])
        worst_check = check_outputs(checks.CHECKS[args.workload], outputs, attempted)
    finally:
        outputs.unlink(missing_ok=True)
    correct = bool(worst_check <= 1.0)
    failed = run["passed"].count(0)
    certified = attempted - failed

    # Timings are scaled to the reference speed, at which the probe takes
    # PROBE_REF_S on average.  The host switches between faster and
    # slower states within a run, so a rate is scaled by the run's mean
    # probe time, which weighs each state by the time spent in it, and a
    # job's time by the probe samples taken just before and after it.
    speed = PROBE_REF_S / statistics.fmean(run["probe_s"])
    setup_speed = PROBE_REF_S / statistics.fmean(setup_probes)
    probes = run["probe_s"]
    scaled = [dt * PROBE_REF_S / statistics.fmean(probes[max(0, at - LOCAL_PROBES):at + LOCAL_PROBES])
              for dt, at in zip(run["times"], run["probe_at"])]
    untraced = [dt for dt, tr in zip(scaled, run["traced"]) if not tr]
    raw = {
        "certified_per_s": certified / run["wall_s"],
        "job_p50_ms": 1000.0 * statistics.median(dt for dt, tr in zip(run["times"], run["traced"]) if not tr),
        "setup_s": statistics.median(setup),
    }
    reference = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": run["rounds"],
        "jobs": attempted,
        "wall_s": run["wall_s"],
        "probe_ms_mean": 1000.0 * statistics.fmean(run["probe_s"]),
        "probe_ms_p50": 1000.0 * statistics.median(run["probe_s"]),
        "probe_samples": len(run["probe_s"]),
        "setup_probe_ms_mean": 1000.0 * statistics.fmean(setup_probes),
        "unscaled": raw,
        "worst_residual_ratio": max((r for r, ok in zip(run["ratios"], run["passed"]) if ok), default=0.0),
        "worst_check_ratio": worst_check,
        "setup_samples_s": setup,
        "job_errors": len(run["errors"]),
        "first_job_error": run["errors"][0] if run["errors"] else None,
    }
    if args.trace:
        traced = [dt for dt, tr in zip(scaled, run["traced"]) if tr]
        values = tracer.layer_metrics(len(traced))
        for name in values:
            if name.endswith("_ms"):
                values[name] *= speed
        values["trace.overhead_ms"] = 1000.0 * (statistics.median(traced) - statistics.median(untraced))
        units = {name: _layer_unit(name) for name in values}
        reference["traced_jobs"] = len(traced)
    else:
        values = {
            "certified_per_s": raw["certified_per_s"] / speed,
            "job_p50_ms": 1000.0 * statistics.median(untraced),
            "setup_s": raw["setup_s"] * setup_speed,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"certified_per_s": "1/s", "job_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }

    with open(OUT_DIR / f"run-{stem}.json", "w") as fh:
        json.dump({"result": result, "reference": reference}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{stem}.json")
    print(json.dumps({"reference": reference}))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
