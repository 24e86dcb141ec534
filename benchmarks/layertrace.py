"""Outside-in layer trace for the benchmark.

The tracer wraps the public entry points of every ``brpic`` layer module from
outside the package: each module-level function named in a layer's
``__all__`` (plus a few named methods) is replaced by a wrapper that records
a span, and the replacement is applied to every ``brpic`` module attribute
that refers to the original, so calls that go through ``from .x import f``
names are traced too.  The hottest methods (``Cyclotomic`` arithmetic and
``FpMatrix.__matmul__``) only count calls, because a span per scalar
operation would cost more than the operation's own bookkeeping.

A layer's self time is the time inside its spans minus the time inside the
spans they enclose.  Inclusive times per function and per layer count only
the outermost activation, so recursion and same-layer nesting are not
counted twice.  Spans live in memory; ``per_layer_metrics`` reduces them
when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "cyclo", "chars", "center", "cohom", "zmodlin",
          "autoeq", "fpn", "cli")

# methods that are entry points but are not module-level functions:
# (module, class, method, span name)
_SPAN_METHODS = (
    ("autoeq", "BraidedAutoeq", "__init__", "autoeq.BraidedAutoeq"),
    ("cohom", "H2Classes", "class_index", "cohom.H2Classes.class_index"),
    ("zmodlin", "DiagonalizedSystem", "__init__", "zmodlin.DiagonalizedSystem"),
    ("zmodlin", "DiagonalizedSystem", "solve", "zmodlin.DiagonalizedSystem.solve"),
)

# count-only wrappers: (module, class, method, counter name)
_COUNT_METHODS = (
    ("cyclo", "Cyclotomic", "__mul__", "cyclo.mul"),
    ("cyclo", "Cyclotomic", "__rmul__", "cyclo.mul"),
    ("cyclo", "Cyclotomic", "__add__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "__radd__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "__sub__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "__rsub__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "__eq__", "cyclo.eq"),
    ("cyclo", "Cyclotomic", "conj", "cyclo.conj"),
    ("fpn", "FpMatrix", "__matmul__", "fpn.matmul"),
)

# module-level names that are not in a layer's __all__ but are its entry
# points (the CLI has no __all__)
_EXTRA_FUNCTIONS = (("cli", "dispatch"),)


class Tracer:
    """Spans and counters, recorded in memory while installed."""

    def __init__(self):
        self._stack: list[list] = []          # [layer, start, child_s]
        self._active_fn: Counter = Counter()
        self._active_layer: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.layer_s: defaultdict = defaultdict(float)
        self.fn_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.objects_built = 0
        self.search_results = 0
        self.closure_new = 0
        self.closure_compose = 0
        self.fpn_closure_elements = 0
        self.fpn_closure_new = 0
        self.fpn_closure_matmul = 0
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        stack = self._stack
        active_fn, active_layer = self._active_fn, self._active_layer
        self_s, layer_s, fn_s, calls = self.self_s, self.layer_s, self.fn_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            active_fn[name] += 1
            active_layer[layer] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                active_fn[name] -= 1
                if not active_fn[name]:
                    fn_s[name] += dur
                active_layer[layer] -= 1
                if not active_layer[layer]:
                    layer_s[layer] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's entry points in all loaded brpic modules."""
        mods = {layer: importlib.import_module(f"brpic.{layer}")
                for layer in LAYERS}
        spans = {}                           # span name -> (original, wrapper)
        for layer, mod in mods.items():
            if layer == "cyclo":
                continue
            names = list(getattr(mod, "__all__", ()))
            names += [n for (l, n) in _EXTRA_FUNCTIONS if l == layer]
            for n in names:
                obj = getattr(mod, n)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{n}"
                    spans[name] = (obj, self._span(name, layer, obj))
        self._add_result_hooks(spans)
        for layer, cls, meth, name in _SPAN_METHODS:
            owner = getattr(mods[layer], cls)
            self._set(owner, meth, self._span(name, layer,
                                              owner.__dict__[meth]))
        for layer, cls, meth, name in _COUNT_METHODS:
            owner = getattr(mods[layer], cls)
            self._set(owner, meth, self._counter(name, owner.__dict__[meth]))
        md_init = mods["center"].ModularData.__init__

        def count_objects(md, *args, **kwargs):
            md_init(md, *args, **kwargs)
            self.objects_built += md.size

        self._set(mods["center"].ModularData, "__init__", count_objects)
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in spans.values()}
        for modname, mod in list(sys.modules.items()):
            if modname != "brpic" and not modname.startswith("brpic."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _add_result_hooks(self, spans):
        """Record the outputs that per-layer metrics are computed from."""

        def hook(name, after):
            orig, span = spans[name]

            def wrapper(*args, **kwargs):
                before = (self.calls["autoeq.compose"], self.counts["fpn.matmul"])
                out = span(*args, **kwargs)
                after(out, before)
                return out

            wrapper.__wrapped__ = orig
            spans[name] = (orig, wrapper)

        def complete_extensions(found, _):
            self.search_results += len(found)

        def generate_group(gg, before):
            self.closure_new += max(gg.order - 1, 0)
            self.closure_compose += self.calls["autoeq.compose"] - before[0]

        def generate_matrix_group(mats, before):
            self.fpn_closure_elements += len(mats)
            self.fpn_closure_new += max(len(mats) - 1, 0)
            self.fpn_closure_matmul += self.counts["fpn.matmul"] - before[1]

        hook("autoeq.complete_extensions", complete_extensions)
        hook("autoeq.generate_group", generate_group)
        hook("fpn.generate_matrix_group", generate_matrix_group)

    def wrapper_calls(self) -> tuple[int, int]:
        """(span wrapper invocations, count wrapper invocations)."""
        return sum(self.calls.values()), sum(self.counts.values())


# ---------------------------------------------------------------------------
# overhead calibration and the cyclotomic probe
# ---------------------------------------------------------------------------

def calibrate(n: int = 20000) -> tuple[float, float]:
    """Seconds added per span wrapper call and per count wrapper call."""
    def plain():
        return None

    probe = Tracer()
    span = probe._span("calibrate.span", "calibrate", plain)
    count = probe._counter("calibrate.count", plain)
    out = []
    for fn in (span, count):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            t1 = time.perf_counter()
            for _ in range(n):
                plain()
            t2 = time.perf_counter()
            samples.append(((t1 - t0) - (t2 - t1)) / n)
        out.append(max(statistics.median(samples), 0.0))
    return out[0], out[1]


PROBE_FIELDS = (1, 3, 4, 5)
_PROBE_OPS = {
    "mul": lambda a, b: a * b,
    "add": lambda a, b: a + b,
    "conj": lambda a, b: a.conj(),
    "eq": lambda a, b: a == b,
}


def cyclo_probe(mds, seed: int, pairs: int = 400, rounds: int = 5) -> dict:
    """Microseconds per Cyclotomic operation over sampled S and T entries.

    ``cyclo.<op>_us`` samples the S entries of all given modular data as
    they occur (mostly rationals); ``cyclo.q<n>.<op>_us`` samples the S and
    T entries that lie in the field Q(zeta_n).  Each figure is the median
    over ``rounds`` timed batches of ``pairs`` operations.
    """
    rng = random.Random(f"cyclo-probe:{seed}")
    s_entries = [md.S[i, j] for md in mds
                 for i in range(md.size) for j in range(md.size)]
    by_field = defaultdict(list)
    for v in s_entries + [t for md in mds for t in md.T]:
        by_field[v.to_json()["conductor"]].append(v)
    pools = {"": s_entries}
    for n in PROBE_FIELDS:
        pools[f"q{n}."] = by_field[n]
    out = {}
    for prefix, pool in pools.items():
        for op, fn in _PROBE_OPS.items():
            name = f"cyclo.{prefix}{op}_us"
            if not pool:
                out[name] = 0.0
                continue
            xs = [(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)]
            batch = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                for a, b in xs:
                    fn(a, b)
                batch.append((time.perf_counter() - t0) / pairs * 1e6)
            out[name] = statistics.median(batch)
    return out


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(tr: Tracer, accept_ratio: float, stdout_bytes: int,
                      overhead_s: float, probe: dict) -> dict:
    fn, calls, counts = tr.fn_s, tr.calls, tr.counts

    def fsum(*names):
        return sum(fn[n] for n in names)

    m = {}
    for op in ("mul", "add", "eq", "conj"):
        m[f"cyclo.{op}_calls"] = (counts[f"cyclo.{op}"], "count")
    for name, val in probe.items():
        m[name] = (val, "us")
    for layer in LAYERS:
        if layer != "cyclo":
            m[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    m["chars.centralizer_table_calls"] = (calls["chars.centralizer_table"],
                                          "count")
    m["center.modular_data_s"] = (fn["center.modular_data"], "s")
    m["center.fusion_s"] = (fn["center.verlinde_fusion"], "s")
    m["center.objects"] = (tr.objects_built, "count")
    m["cohom.h2_s"] = (fn["cohom.h2_classes"], "s")
    m["cohom.class_index_s"] = (fn["cohom.H2Classes.class_index"], "s")
    m["zmodlin.s"] = (tr.layer_s["zmodlin"], "s")
    m["zmodlin.calls"] = (sum(c for n, c in calls.items()
                              if n.startswith("zmodlin.")), "count")
    m["autoeq.verify_calls"] = (calls["autoeq.BraidedAutoeq"], "count")
    m["autoeq.verify_s"] = (fn["autoeq.BraidedAutoeq"], "s")
    m["autoeq.construct_s"] = (fsum(
        "autoeq.from_hopf_auto", "autoeq.from_bv", "autoeq.from_ev_lazy",
        "autoeq.partial_dualization_rprime"), "s")
    m["autoeq.search_s"] = (fn["autoeq.complete_extensions"], "s")
    m["autoeq.search_results"] = (tr.search_results, "count")
    m["autoeq.closure_s"] = (fn["autoeq.generate_group"], "s")
    m["autoeq.compose_calls"] = (calls["autoeq.compose"], "count")
    m["autoeq.closure_yield"] = (
        tr.closure_new / tr.closure_compose if tr.closure_compose else 0.0,
        "ratio")
    m["autoeq.bimodule_s"] = (fn["autoeq.bimodule_data"], "s")
    m["autoeq.query_accept_ratio"] = (accept_ratio, "ratio")
    m["fpn.closure_s"] = (fn["fpn.generate_matrix_group"], "s")
    m["fpn.closure_elements"] = (tr.fpn_closure_elements, "count")
    m["fpn.matmul_calls"] = (counts["fpn.matmul"], "count")
    m["fpn.closure_yield"] = (
        tr.fpn_closure_new / tr.fpn_closure_matmul
        if tr.fpn_closure_matmul else 0.0, "ratio")
    m["fpn.oracle_s"] = (fn["fpn.group_order_oracle"], "s")
    m["fpn.bruhat_s"] = (fn["fpn.bruhat_factorize"], "s")
    m["fpn.bruhat_calls"] = (calls["fpn.bruhat_factorize"], "count")
    m["fpn.dictionary_s"] = (fsum("fpn.autoeq_to_matrix",
                                  "fpn.matrix_to_autoeq"), "s")
    m["cli.dispatch_s"] = (fn["cli.dispatch"], "s")
    m["cli.stdout_bytes"] = (stdout_bytes, "B")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
