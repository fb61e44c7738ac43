"""Spans for the traced run, recorded from the benchmark's own files.

`Tracer.install` wraps every public function of the ten layer modules, in
the module that defines it and in every simplexion module that bound it with
``from ... import`` (so ``connection.bareiss_det`` and ``exact.bareiss_det``
are the same span), plus the verify suites in ``cli.CHECKS``.  Helpers that
run in inner loops stay unwrapped.  Each span is
``[name, layer, start_ns, end_ns, parent, request]``; spans stay in memory
until `write` at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("generators", "core", "refinement", "connection", "exact",
          "cohomology", "geometry", "spectral", "jsonio", "cli")

# called in inner loops: a span each would cost more than the work it times
HOT = {"core.parity", "core.simplex", "core.dim", "cohomology.simplex_image",
       "cohomology.permutation_sign_on", "cohomology.is_automorphism",
       "generators.cell_leq"}
# cli.main stays unwrapped: `Tracer.root` opens its span around each request
UNWRAPPED = HOT | {"cli.main"}
# private functions that are wrapped anyway, for the counters they carry
PRIVATE = {"exact._promote"}


def _shape(a) -> tuple:
    if hasattr(a, "shape"):
        return tuple(a.shape) if len(a.shape) == 2 else (len(a), 1)
    return (len(a), len(a[0]) if len(a) else 0)


def _elim(args, result):
    n = len(args[0])
    return {"exact.elim_ops": n ** 3, "exact.max_order": n}


def _rank(args, result):
    r, c = _shape(args[0])
    return {"exact.elim_ops": r * c * min(r, c), "exact.max_order": max(r, c)}


def _file_bytes(args, result):
    return {"jsonio.bytes": os.path.getsize(args[0])}


# work counts taken from argument shapes (or result sizes), per function
COUNTS = {
    "exact.berkowitz_charpoly": lambda a, r: {
        "exact.charpoly_ops": len(a[0]) ** 4, "exact.max_order": len(a[0])},
    "exact.bareiss_det": _elim,
    "exact.leading_minor_signs": _elim,
    "exact.integer_inverse": _elim,
    "exact.det_exact": _elim,
    "exact.fraction_inverse": _elim,
    "exact.rank_exact": _rank,
    "exact._promote": lambda a, r: {"exact.promotions": 1},
    "spectral.eig_symmetric": lambda a, r: {"spectral.eig_ops": len(a[0]) ** 3},
    "refinement.barycentric": lambda a, r: {
        "refinement.barycentric.simplices_out": len(r)},
    "jsonio.read_json": _file_bytes,
    "jsonio.dumps_canonical": lambda a, r: {"jsonio.bytes": len(r)},
}
COUNTERS = ("exact.charpoly_ops", "exact.elim_ops", "exact.max_order",
            "exact.promotions", "refinement.barycentric.simplices_out",
            "spectral.eig_ops", "jsonio.bytes")
MAX_COUNTS = {"exact.max_order"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.skipped = set()  # indices of verify-suite spans that ended skipped
        self.counts = defaultdict(int)
        self.request = -1
        self._stack = []
        self._undo = []

    # -- wrapping -------------------------------------------------------------

    def _span(self, name, layer, fn, count=None, suite=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        resource_error = sys.modules["simplexion.errors"].ResourceLimitError

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(i)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except resource_error:
                if suite:
                    self.skipped.add(i)
                raise
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if suite and isinstance(result[0], str):
                self.skipped.add(i)
            if count is not None:
                for key, value in count(args, result).items():
                    if key in MAX_COUNTS:
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        return traced

    def install(self):
        """Wrap the layer functions everywhere simplexion binds them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"simplexion.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or name in UNWRAPPED
                        or (attr.startswith("_") and name not in PRIVATE)):
                    continue
                wrappers[id(obj)] = self._span(name, layer, obj, COUNTS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "simplexion" and not modname.startswith("simplexion."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, obj))
        checks = sys.modules["simplexion.cli"].CHECKS
        for suite, fn in list(checks.items()):
            checks[suite] = self._span(f"verify.{suite}", "cli", fn, suite=True)
            self._undo.append((checks, suite, fn))

    def uninstall(self):
        for target, attr, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._undo.clear()

    def root(self, fn, *args):
        """Run one request as a root span; returns (result, duration_ns)."""
        self.request += 1
        span = ["cli.main", "cli", 0, 0, -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            span[3] = perf_counter_ns()
            self._stack.pop()
        return result, span[3] - span[2]

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer and per function, inclusive time per verify
        suite, call counts and the root (request) total, all in ns."""
        spans = self.spans
        covered = [0] * len(spans)
        for start, end, parent in ((s[2], s[3], s[4]) for s in spans):
            if parent >= 0:
                covered[parent] += end - start
        layer_self = defaultdict(int)
        layer_calls = defaultdict(int)
        fn_self = defaultdict(int)
        suite_ns = defaultdict(int)
        skipped_ns = 0
        root_ns = 0
        for i, (name, layer, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - covered[i]
            layer_self[layer] += own
            layer_calls[layer] += 1
            fn_self[name] += own
            if name.startswith("verify."):
                suite_ns[name[len("verify."):]] += dur
                if i in self.skipped:
                    skipped_ns += dur
            if parent < 0:
                root_ns += dur
        return {"layer_self": layer_self, "layer_calls": layer_calls,
                "fn_self": fn_self, "suite": suite_ns,
                "skipped": skipped_ns, "root": root_ns}

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
