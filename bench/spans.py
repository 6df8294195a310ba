"""Per-layer tracing taken from outside the program.

`Tracer.patched()` replaces each traced public function by a timing wrapper
in *every* conormal module that binds it: `harness` and `cm` import with
`from .x import y`, so patching only the defining module would miss most
calls.  Each call becomes a span (name, parent span, start, end) kept in
memory, plus a count read from its return value.  The traced names are the
layer boundaries; internal helpers of a layer are not traced.
"""

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module, function) pairs traced by name; the criteria and constructions
# layers are traced whole, every public function they define.
TRACED = [
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "ideal_square"),
    ("points", "general_points"),
    ("points", "vanishing_ideal"),
    ("cm", "analyze"),
    ("cm", "is_cm_square"),
    ("cm", "artinian_reduction"),
    ("invariants", "classify"),
    ("invariants", "length"),
    ("invariants", "eliminate_linear_forms"),
    ("harness", "conjecture_experiment"),
    ("harness", "verify_example61"),
]
WHOLE_LAYERS = ("criteria", "constructions")

# Buchberger time is split by the span that called it.
BUCHBERGER_CALLERS = {"cm.is_cm_square": "square", "cm.artinian_reduction": "reduction"}

# Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "groebner.buchberger.square.s": "s",
    "groebner.buchberger.reduction.s": "s",
    "groebner.buchberger.other.s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.basis_len.sum": "count",
    "groebner.normal_form.s": "s",
    "groebner.normal_form.calls": "count",
    "groebner.ideal_square.s": "s",
    "groebner.ideal_square.gens": "count",
    "points.general_points.s": "s",
    "points.vanishing_ideal.s": "s",
    "points.redraws": "count",
    "cm.is_cm_square.s": "s",
    "cm.is_cm_square.trials": "count",
    "cm.trial_yield": "ratio",
    "cm.artinian_reduction.s": "s",
    "cm.analyze.self_s": "s",
    "invariants.classify.s": "s",
    "invariants.length.s": "s",
    "invariants.eliminate_linear_forms.s": "s",
    "criteria.s": "s",
    "constructions.s": "s",
    "trace_overhead_s": "s",
}


def _traced_functions():
    """{original function: span name}."""
    targets = {}
    for module, name in TRACED:
        targets[getattr(sys.modules[f"conormal.{module}"], name)] = f"{module}.{name}"
    for layer in WHOLE_LAYERS:
        module = sys.modules[f"conormal.{layer}"]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                targets[fn] = layer
    return targets


class Tracer:
    """Spans of one traced replay.  A span is [name, parent index, start, end];
    the benchmark wraps each item in a root span of its own."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`, child of the innermost open span."""
        span = [name, self.stack[-1] if self.stack else None, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[3] = time.perf_counter()
        self._count(name, result)
        return result

    def _count(self, name, result):
        c = self.counts
        if name == "groebner.buchberger":
            c["groebner.buchberger.calls"] += 1
            c["groebner.basis_len.sum"] += len(result)
        elif name == "groebner.normal_form":
            c["groebner.normal_form.calls"] += 1
        elif name == "groebner.ideal_square":
            c["groebner.ideal_square.gens"] += len(result.generators)
        elif name == "points.general_points":
            c["points.redraws"] += result[1]
        elif name == "cm.is_cm_square":
            c["cm.is_cm_square.trials"] += result.trials
            c["cm.is_cm_square.decided"] += result.status in ("CM", "NotCM")

    @contextmanager
    def patched(self):
        """Swap every binding of a traced function, in every conormal module,
        for its wrapper; restore the originals on exit."""
        targets = _traced_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        swapped = []
        for modname, module in list(sys.modules.items()):
            if modname != "conormal" and not modname.startswith("conormal."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    swapped.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def _wrap(self, name, fn):
        call = self.call

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    def orphan_buchberger_spans(self) -> int:
        """Buchberger spans without exactly one parent span (should be 0)."""
        return sum(1 for name, parent, _, _ in self.spans
                   if name == "groebner.buchberger" and parent is None)

    def per_layer(self):
        """Self times and counts, keyed like PER_LAYER (without the overhead)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            own = end - start - child_time[i]
            if name == "groebner.buchberger":
                caller = self.spans[parent][0] if parent is not None else ""
                name = f"groebner.buchberger.{BUCHBERGER_CALLERS.get(caller, 'other')}"
            self_s[name] += own
        out = {}
        for metric, unit in PER_LAYER.items():
            if unit == "count":
                out[metric] = self.counts[metric]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".s"):
                out[metric] = self_s[metric[: -len(".s")]]
        trials = self.counts["cm.is_cm_square.trials"]
        out["cm.trial_yield"] = self.counts["cm.is_cm_square.decided"] / trials if trials else 0.0
        return out
