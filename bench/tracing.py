"""Span tracing of heismoduli's functions, from outside the library.

Loaded only by a traced run.  ``Tracer.install`` wraps every function and
method written in a library module (``linalg``, ``lattice``,
``heisenberg``, ``compactness``, ``cli``): each public module-level
function, and each public method, property, static method and
hand-written special method (``__matmul__``, ``__post_init__``) of a
public class.  Methods generated by ``dataclass`` and exception classes
are left alone.  A function is replaced on every heismoduli module
attribute that holds it (``lattice.ldl_decompose`` as well as
``linalg.ldl_decompose``); a method on its class.  Each call records a
span (name, start, end, parent) in memory; ``dump`` writes them out when
the run ends.  A span's self time is its duration minus the time its
child spans cover, so private helpers count towards the traced function
that called them.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "bench.item"
LIBRARY_LAYERS = ("linalg", "lattice", "heisenberg", "compactness", "cli")
LAYERS = ("bench",) + LIBRARY_LAYERS
# short span names the per-layer table uses for two special methods
ALIASES = {"linalg.DenseMatrix.__matmul__": "linalg.matmul",
           "linalg.SpdMatrix.__post_init__": "linalg.SpdMatrix"}
# the counts that do not depend on the machine, besides the calls
COUNTS = ("lattice.enumerate_below.vectors", "compactness.samples",
          "lattice.first_minimum.witnesses", "lattice.first_minimum.candidates")

# The per-layer metrics of the result line (BENCHMARK.json lists the
# same); the worker prints every traced function above it.
_FUNCTIONS = (
    "linalg.matmul", "linalg.SpdMatrix", "linalg.DenseMatrix.from_rows", "linalg.determinant",
    "linalg.congruence", "linalg.ldl_decompose", "linalg.quadratic_form",
    "linalg.eigenvalues_symmetric", "linalg.singular_values", "linalg.matrix_from_json",
    "heisenberg.d_spectrum", "heisenberg.is_heisenberg_type", "heisenberg.curvature_upper_bound",
    "lattice.enumerate_below", "lattice.first_minimum", "lattice.first_minimum_r",
    "compactness.key_inequality_sweep", "compactness.bhatia_sweep",
    "compactness.verify_key_inequality", "compactness.verify_bhatia_k1",
    "compactness.heisenberg_certificate", "compactness.heisenberg_type_certificate",
    "compactness.mahler_certificate", "cli.main",
)
REPORTED = tuple(f"{f}.{m}" for f in _FUNCTIONS for m in ("calls", "s")) + tuple(
    f"{layer}.self_s" for layer in LAYERS) + (
    "lattice.enumerate_below.vectors", "lattice.enumerate_below.budget_exceeded",
    "heisenberg.pairing_failures", "compactness.samples",
    "lattice.first_minimum.useful_ratio",
    "trace.overhead_frac", "trace.wall_s", "trace.accounted_frac", "trace.bench_frac",
)


def traced_functions(mods):
    """(span name, owner, attribute, class-dict value or function) for
    every function the tracer wraps, in source order."""
    for layer in LIBRARY_LAYERS:
        module = getattr(mods, layer)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield _span(f"{layer}.{name}"), module, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in vars(obj).items():
                    fn = _function(raw)
                    special = attr.startswith("__") and attr.endswith("__")
                    if (fn is not None and (special or not attr.startswith("_"))
                            and fn.__code__.co_filename == module.__file__):
                        yield _span(f"{layer}.{name}.{attr}"), obj, attr, raw


def _span(name):
    return ALIASES.get(name, name)


def _function(raw):
    """The function behind a class-dict value, or None."""
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    if isinstance(raw, property):
        return raw.fget
    return raw if inspect.isfunction(raw) else None


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.targets = list(traced_functions(mods))
        self.names = [ROOT] + [span for span, _, _, _ in self.targets]
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.raised = defaultdict(int)  # (span, exception class) -> count
        self._stack = []  # [name index, start, child time, span index]
        self._undo = []

    # --- recording ----------------------------------------------------

    def _enter(self, idx):
        self._stack.append([idx, perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def _exit(self):
        end = perf_counter()
        idx, start, child, pos = self._stack.pop()
        dur = end - start
        name = self.names[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        self.spans[pos] = (idx, start, end, parent)

    def _ancestor(self, name):
        for idx, _, _, _ in reversed(self._stack):
            if self.names[idx] == name:
                return True
        return False

    def item(self, fn):
        """Run one benchmark item under the root span."""
        self._enter(0)
        try:
            return fn()
        finally:
            self._exit()

    def _wrap(self, idx, fn):
        span = self.names[idx]
        after = _AFTER.get(span)

        def wrapper(*args, **kwargs):
            self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[span, type(exc).__name__] += 1
                raise
            finally:
                self._exit()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "heismoduli" or name.startswith("heismoduli.")]
        for idx, (_, owner, attr, raw) in enumerate(self.targets, start=1):
            if inspect.isclass(owner):
                wrapper = self._wrap(idx, _function(raw))
                if isinstance(raw, property):
                    wrapper = property(wrapper, raw.fset, raw.fdel, raw.__doc__)
                elif isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(wrapper)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            wrapper = self._wrap(idx, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, key, raw))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # --- results ------------------------------------------------------

    def metrics(self) -> dict:
        """Calls and self time of every traced function, self time per
        layer, and the derived counts."""
        out = {}
        for name in self.names[1:]:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".")[0] == layer)
        c = self.machine_independent_counts()
        for name in ("lattice.enumerate_below.vectors", "lattice.enumerate_below.budget_exceeded",
                     "heisenberg.pairing_failures", "compactness.samples"):
            out[name] = c[name]
        den = c["lattice.first_minimum.candidates"]
        out["lattice.first_minimum.useful_ratio"] = (
            c["lattice.first_minimum.witnesses"] / den if den else 0.0)
        return out

    def machine_independent_counts(self) -> dict:
        counts = {f"{name}.calls": self.calls[name] for name in self.names}
        counts.update(self.counts)
        counts["lattice.enumerate_below.budget_exceeded"] = self.raised[
            "lattice.enumerate_below", "EnumerationBudgetExceeded"]
        counts["heisenberg.pairing_failures"] = self.raised["heisenberg.d_spectrum", "PairingFailure"]
        return counts

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write("%d %.9f %.9f %d\n" % span)


def _after_enumerate(tracer, result):
    tracer.counts["lattice.enumerate_below.vectors"] += len(result)
    if tracer._ancestor("lattice.first_minimum"):
        tracer.counts["lattice.first_minimum.candidates"] += len(result)


def _after_first_minimum(tracer, result):
    tracer.counts["lattice.first_minimum.witnesses"] += 1


def _after_sweep(tracer, result):
    tracer.counts["compactness.samples"] += result.total


_AFTER = {
    "lattice.enumerate_below": _after_enumerate,
    "lattice.first_minimum": _after_first_minimum,
    "compactness.key_inequality_sweep": _after_sweep,
    "compactness.bhatia_sweep": _after_sweep,
}
