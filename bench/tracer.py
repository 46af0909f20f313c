"""Per-layer tracing from the benchmark's side of the layer boundaries.

The tracer replaces each public function named in LAYER_FUNCTIONS, in every
loaded ``qdiscord`` module namespace that holds it, with a wrapper that
records a span (id, parent id, name, start, end).  It also wraps the two
scipy calls at the layer boundary: ``measures.minimize`` (one Nelder-Mead
restart, reported as ``measures.refine``) and ``bounds.bisect``.  Spans stay
in memory; ``write_spans`` dumps them once the workload has finished.

A span's self time is its duration minus the durations of its direct child
spans, so ``measures.classical_correlation.self_s`` is already net of the
refine restarts it starts (that is, roughly the angle-grid scan).
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYER_FUNCTIONS = {
    "states": [
        "random_state",
        "make_family",
        "validate_state",
        "von_neumann_entropy",
        "linear_entropy",
    ],
    "measures": [
        "discord_numeric",
        "mutual_information",
        "classical_correlation",
        "concurrence",
        "eof",
    ],
    "bounds": [
        "sample_random",
        "verify_bounds",
        "horn_crossovers",
        "horn_upper",
        "horn_lower",
        "entropy_upper",
        "eof_to_concurrence",
        "sweep_family",
    ],
    "io": ["csv_text", "report_json_text"],
    "cli": ["main"],
}
LAYERS = list(LAYER_FUNCTIONS)


def metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units["measures.refine.calls"] = "count"
    units["measures.refine.self_s"] = "s"
    units["measures.refine.nfev"] = "count"
    units["measures.refine.useful_ratio"] = "fraction"
    units["bounds.bisect.calls"] = "count"
    units["bounds.bisect.self_s"] = "s"
    units["io.bytes_out"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


class Tracer:
    """Span recorder for one workload repetition in one process."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, name, start, end]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.nfev = 0
        self.bytes_out = 0
        self._stack = []  # [span, time covered by child spans]
        self._restarts = defaultdict(list)  # parent span id -> [(f(x0), f(x*))]
        self._patched = []

    # -- installation -----------------------------------------------------
    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qdiscord" or name.startswith("qdiscord.")
        }
        for layer, names in LAYER_FUNCTIONS.items():
            home = modules[f"qdiscord.{layer}"]
            for fn_name in names:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue
                wrapped = self._wrap(f"{layer}.{fn_name}", orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapped)
        # the scipy calls, wrapped only in the namespace that makes them
        measures, bounds = modules["qdiscord.measures"], modules["qdiscord.bounds"]
        if hasattr(measures, "minimize"):
            self._patch(measures, "minimize", self._wrap_refine(measures.minimize))
        if hasattr(bounds, "bisect"):
            self._patch(bounds, "bisect", self._wrap("bounds.bisect", bounds.bisect))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _patch(self, mod, attr, new):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    # -- spans ------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1][0][0] if self._stack else -1
        span = [len(self.spans), parent, name, 0.0, 0.0]
        self.spans.append(span)
        entry = [span, 0.0]
        self._stack.append(entry)
        span[3] = time.perf_counter()
        return entry

    def _close(self, entry):
        end = time.perf_counter()
        self._stack.pop()
        span, child = entry
        span[4] = end
        dur = end - span[3]
        self.self_s[span[2]] += dur - child
        self.calls[span[2]] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn):
        counts_bytes = name.startswith("io.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(entry)
            if counts_bytes and isinstance(result, str):
                self.bytes_out += len(result.encode())
            return result

        return traced

    def _wrap_refine(self, fn):
        """Wrap scipy's minimize: one call is one refinement restart.

        Besides the span it records nfev and, per calling span, the objective
        at the start point and at the result, from which useful_ratio counts
        the restarts that improved on the grid optimum and on every earlier
        restart of the same state.
        """

        @functools.wraps(fn)
        def traced(fun, x0, *args, **kwargs):
            parent = self._stack[-1][0][0] if self._stack else -1
            entry = self._open("measures.refine")
            try:
                res = fn(fun, x0, *args, **kwargs)
            finally:
                self._close(entry)
            # f(x0) is tracing overhead: keep it out of the caller's self time
            t0 = time.perf_counter()
            start = float(fun(x0))
            if self._stack:
                self._stack[-1][1] += time.perf_counter() - t0
            self.nfev += int(getattr(res, "nfev", 0))
            self._restarts[parent].append((start, float(res.fun)))
            return res

        return traced

    # -- results ----------------------------------------------------------
    def useful_restarts(self):
        useful = 0
        for runs in self._restarts.values():
            best = runs[0][0]  # the first restart starts at the grid optimum
            won = False
            for _, end in runs:
                if end < best:
                    best, won = end, True
            useful += won
        return useful

    def metrics(self, wall_s):
        """Per-layer values for one traced repetition (overhead_frac excluded)."""
        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fn in names:
                out[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.self_s"] = self.self_s[f"{layer}.{fn}"]
        restarts = self.calls["measures.refine"]
        out["measures.refine.calls"] = restarts
        out["measures.refine.self_s"] = self.self_s["measures.refine"]
        out["measures.refine.nfev"] = self.nfev
        out["measures.refine.useful_ratio"] = (
            self.useful_restarts() / restarts if restarts else 0.0
        )
        out["bounds.bisect.calls"] = self.calls["bounds.bisect"]
        out["bounds.bisect.self_s"] = self.self_s["bounds.bisect"]
        out["io.bytes_out"] = self.bytes_out
        for layer in LAYERS:
            layer_self = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + ".")
            )
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = layer_self / wall_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans},
                fh,
            )
