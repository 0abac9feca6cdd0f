"""Spans around the public functions of the modkernel layers.

The tracer wraps every public function of each layer module, wherever
the function object is bound: in its own module, in the modules that
imported it by name, and in any other loaded module, the benchmark's
own included.  Spans are kept in flat in-memory columns with a parent
link and the job they belong to, and are written out once, when the run
ends.  Self time is each span's duration minus the time of its child
spans, and is accumulated per layer as the spans close.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time

LAYERS = ("polycore", "quadrature", "pencil", "kernels", "diffop", "sobolev", "integralrep", "gammafn")

# calls whose (family, size) arguments are recorded, to count distinct work
KEYED = {("quadrature", "gauss_rule"): "n_points", ("polycore", "orthonormal_coeffs"): "n"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.function" per function index
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.keys = {key: [] for key in KEYED}  # per keyed function: (job, family, size)
        self.parent = array.array("l")
        self.job = array.array("l")
        self.func = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.job_id = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._bindings = []  # (namespace, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"modkernel.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        for ns in list(sys.modules.values()):
            for attr, value in list(getattr(ns, "__dict__", {}).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((ns, attr, value, hit[1]))

    def _wrap(self, fn, layer: str, name: str):
        index = len(self.names)
        self.names.append(f"{layer}.{name}")
        keyed = KEYED.get((layer, name))
        signature = inspect.signature(fn) if keyed else None
        key_list = self.keys.get((layer, name))
        stack, parent, job, func, start, end = self._stack, self.parent, self.job, self.func, self.start, self.end
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                bound = signature.bind(*args, **kwargs).arguments
                key_list.append((self.job_id, bound["family"], bound[keyed]))
            span = len(start)
            parent.append(stack[-1][0] if stack else -1)
            job.append(self.job_id)
            func.append(index)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[span] = t1
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def install(self) -> None:
        for ns, attr, _orig, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig, _wrapper in self._bindings:
            setattr(ns, attr, orig)

    def layer_metrics(self, jobs: int) -> dict:
        """Per-job figures of each layer, from the spans recorded."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1000.0 * self.self_s[layer] / jobs
            out[f"{layer}.calls"] = self.calls[layer] / jobs
        rules = self.keys[("quadrature", "gauss_rule")]
        coeffs = self.keys[("polycore", "orthonormal_coeffs")]
        out["quadrature.nodes_built"] = sum(size for _job, _fam, size in rules) / jobs
        out["quadrature.distinct_rule_ratio"] = _distinct_ratio(rules)
        out["polycore.coeff_extractions"] = len(coeffs) / jobs
        out["polycore.coeff_distinct_ratio"] = _distinct_ratio(coeffs)
        return out

    def write(self, path) -> None:
        """All spans as columns; ``parent`` is -1 for a span a job opened directly."""
        doc = {
            "functions": self.names,
            "columns": ["parent", "job", "function", "start_s", "end_s"],
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "function": self.func.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _distinct_ratio(keys) -> float:
    """Distinct (family, size) pairs within each job over calls, pooled over jobs.

    A job that repeats no work scores 1; no calls at all also scores 1.
    """
    if not keys:
        return 1.0
    return len(set(keys)) / len(keys)
