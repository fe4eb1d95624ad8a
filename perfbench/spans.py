"""Spans around the public functions of slimformer's modules.

The wrappers live here, in the benchmark, so the library itself carries
no timing code.  Several modules bind a function by name at import
(``pipeline`` binds ``factorize_layer``, ``topk_mask``, ``allocate``,
``distill_step`` and ``evaluate``; ``factorize`` binds ``svd``), so a
wrapper replaces every module attribute that holds the original object,
not only the one in the defining module.

A span's self time is its duration minus the durations of its child
spans.  Spans are aggregated by name in memory while the traced
operation runs; nothing is written until the run ends.
"""

import os
import sys
import time
from contextlib import contextmanager

# (module, attribute) for free functions, (module, class, method) for
# methods; the span name is the dotted path the per-layer metrics use.
FUNCTIONS = (
    ("svd", "svd"),
    ("factorize", "factorize_layer"),
    ("prune", "topk_mask"),
    ("budget", "allocate"),
    ("pipeline", "compress_model"),
    ("pipeline", "run_pipeline"),
    ("distill", "distill_step"),
    ("tasks", "evaluate"),
    ("tasks", "train_classifier"),
    ("tensor", "save_bundle"),
    ("tensor", "load_bundle"),
)
METHODS = (
    ("model", "EncoderModel", "forward", "model.forward"),
    ("model", "EncoderModel", "backward", "model.backward"),
    ("model", "EncoderModel", "to_bundle", "model.to_bundle"),
    ("model", "Adam", "step", "model.Adam.step"),
)

# model.forward time is split by the nearest enclosing span of these kinds
FORWARD_PARENTS = {
    "distill.distill_step": "distill",
    "tasks.evaluate": "eval",
    "tasks.train_classifier": "train",
}

# the cutoff below which svd._jacobi treats a column as having no
# direction and falls back to orthonormal completion
RANK_CUTOFF = 1e-14
# which positional argument of the bundle functions is the file path
PATH_ARG = {"tensor.save_bundle": 1, "tensor.load_bundle": 0}


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack plus per-name aggregates for one traced operation."""

    def __init__(self):
        self.stats = {}
        self.counts = {
            "svd.rank_deficient_calls": 0,
            "factorize.kept_triples": 0,
            "factorize.possible_triples": 0,
            "tensor.save_bundle.bytes": 0,
            "tensor.load_bundle.bytes": 0,
            "pipeline.evaluate_inclusive_s": 0.0,
        }
        self._stack = []   # [name, start, child time]
        self._phase = None

    @contextmanager
    def phase(self, name):
        """Label spans opened outside any library span (e.g. serving)."""
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = previous

    def _span_name(self, name):
        if name != "model.forward":
            return name
        for frame in reversed(self._stack):
            kind = FORWARD_PARENTS.get(frame[0])
            if kind is not None:
                return f"model.forward.{kind}"
        return f"model.forward.{self._phase or 'other'}"

    def _call(self, name, fn, args, kwargs):
        name = self._span_name(name)
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            duration = time.perf_counter() - frame[1]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total += duration
            st.self_time += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if name == "tasks.evaluate" and any(
                    f[0] == "pipeline.run_pipeline" for f in self._stack):
                self.counts["pipeline.evaluate_inclusive_s"] += duration
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result):
        c = self.counts
        if name == "svd.svd":
            s = result.singular_values
            rows, cols = args[0].shape
            if s[0] == 0.0 or s[-1] <= s[0] * max(rows, cols) * RANK_CUTOFF:
                c["svd.rank_deficient_calls"] += 1
        elif name == "factorize.factorize_layer":
            c["factorize.kept_triples"] += result.r
            c["factorize.possible_triples"] += min(args[0].shape)
        elif name in PATH_ARG:
            c[f"{name}.bytes"] += os.path.getsize(args[PATH_ARG[name]])

    def traced_time(self):
        """Summed self time of every span: the time some span covers."""
        return sum(st.self_time for st in self.stats.values())

    @contextmanager
    def installed(self):
        """Swap every module attribute bound to a wrapped function (in
        slimformer and in its callers alike), then restore them."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        undo = []
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"slimformer.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"slimformer.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper
