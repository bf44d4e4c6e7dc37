"""Outside-in tracer: spans around the public entry points of each layer.

The tracer never edits ``cpverify``.  It replaces, for the length of one
traced pass, every public function of each layer module (in every
``cpverify.*`` namespace that holds it through ``from ... import``) and the
public and arithmetic methods of each layer's classes with a wrapper that
records a span: name, start, end and parent span.  Spans stay in compact
arrays in memory.  After the pass, ``table()`` gives the calls and self time
of each span name, ``metrics()`` the per-layer figures, and ``restore()``
puts every original back.

A few wrappers also count work from their arguments and results: the term
pairs an ``MPoly`` multiply forms, the sizes of ``RatFun`` denominators, and
tanh-sinh node-cache hits.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("exact", "diffop", "weyl", "radial", "moments", "quadrature", "checks")

# methods wrapped besides public names: the arithmetic that does a layer's work
DUNDERS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__")
)

# metric prefix -> span name
SPAN_OF = {
    "exact.mpoly_mul": "exact.MPoly.__mul__",
    "exact.mpoly_add": "exact.MPoly.__add__",
    "exact.ratfun_new": "exact.RatFun.__init__",
    "diffop.conjugate_by_vandermonde": "diffop.conjugate_by_vandermonde",
    "diffop.build_cp_hamiltonian": "diffop.build_cp_hamiltonian",
    "diffop.operator_equal": "diffop.operator_equal",
    "weyl.ncpoly_mul": "weyl.NCPoly.__mul__",
    "weyl.normalize_word": "weyl.WeylAlgebra.normalize_word",
    "radial.apply_trace_word": "radial.apply_trace_word",
    "radial.resolve_radial_corrections": "radial.resolve_radial_corrections",
    "moments.reduce": "moments.MomentReducer.reduce",
    "moments.ibp_relation": "moments.ibp_relation",
    "moments.build_phi": "moments.build_phi",
    "quadrature.theta": "quadrature.theta",
    "quadrature.simplex_phi_coeffs": "quadrature.simplex_phi_coeffs",
    "quadrature.moment_numeric": "quadrature.moment_numeric",
    "quadrature.ts_nodes": "quadrature.ts_nodes",
}

# (metric, unit, better, the end-to-end metric and workload it should move);
# the layer is the name's first component
METRICS = (
    ("exact.mpoly_mul.calls", "count", "lower", "wall_s on exact (N=3 tasks); overhead shows on its N<=2 tasks"),
    ("exact.mpoly_mul.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("exact.mpoly_mul.term_pairs", "count", "lower", "wall_s and peak_rss_mb on exact (N=3 tasks)"),
    ("exact.mpoly_mul.terms_out_max", "count", "lower", "peak_rss_mb on exact (N=3 tasks)"),
    ("exact.mpoly_add.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("exact.ratfun_new.calls", "count", "lower", "wall_s on exact (N=3 tasks)"),
    ("exact.ratfun_new.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("exact.ratfun.den_terms_max", "count", "lower", "wall_s and peak_rss_mb on exact (N=3 tasks)"),
    ("exact.ratfun.den_degree_max", "count", "lower", "wall_s on exact (N=3 tasks)"),
    ("exact.self_s", "s", "lower", "wall_s on exact; no change on numeric"),
    ("diffop.conjugate_by_vandermonde.calls", "count", "lower", "wall_s on exact (N=3 tasks)"),
    ("diffop.conjugate_by_vandermonde.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("diffop.build_cp_hamiltonian.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("diffop.operator_equal.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("diffop.self_s", "s", "lower", "wall_s on exact (N=3 tasks)"),
    ("weyl.ncpoly_mul.calls", "count", "lower", "wall_s on exact (N<=2 tasks)"),
    ("weyl.normalize_word.calls", "count", "lower", "wall_s on exact (N<=2 tasks)"),
    ("weyl.normalize_word.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("weyl.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("radial.apply_trace_word.calls", "count", "lower", "wall_s on exact (N<=2 tasks)"),
    ("radial.apply_trace_word.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("radial.resolve_radial_corrections.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("radial.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("moments.reduce.calls", "count", "lower", "wall_s on exact (N<=2 tasks)"),
    ("moments.reduce.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("moments.ibp_relation.calls", "count", "lower", "wall_s on exact (N<=2 tasks)"),
    ("moments.build_phi.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("moments.self_s", "s", "lower", "wall_s on exact (N<=2 tasks)"),
    ("quadrature.theta.calls", "count", "lower", "wall_s on numeric; no change on exact"),
    ("quadrature.simplex_phi_coeffs.calls", "count", "lower", "wall_s on numeric"),
    ("quadrature.simplex_phi_coeffs.self_s", "s", "lower", "wall_s on numeric"),
    ("quadrature.moment_numeric.calls", "count", "lower", "wall_s on numeric"),
    ("quadrature.moment_numeric.self_s", "s", "lower", "wall_s on numeric"),
    ("quadrature.ts_nodes.calls", "count", "lower", "wall_s on numeric"),
    ("quadrature.ts_nodes.hit_ratio", "ratio", "higher", "wall_s on numeric"),
    ("quadrature.self_s", "s", "lower", "wall_s on numeric; no change on exact"),
    ("checks.tasks", "count", "higher", "none: the size of the task list"),
    ("checks.task_p50_s", "s", "lower", "wall_s on every workload"),
    ("checks.task_max_s", "s", "lower", "wall_s on every workload"),
    ("trace.wall_s", "s", "lower", "none: wall_s of the traced pass, the base of the layer self times"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Child
    intervals are clipped to the parent and merged, so overlapping children
    are not subtracted twice.
    """
    n = len(starts)
    order = sorted(range(n), key=starts.__getitem__)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the merged child cover so far
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Spans for one process: install(), run the work, restore(), then table() and metrics()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.pairs = 0
        self.terms_out_max = 0
        self.den_terms_max = 0
        self.den_degree_max = 0
        self.node_keys: set = set()
        self.node_hits = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name, fn, after=None):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        sid = self._ids[span_name]
        name_of, starts, ends, parents, stack = self.name_of, self.starts, self.ends, self.parents, self._stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_of.append(sid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def _count_mul(self, args, kwargs, result):
        a, b = args
        if result is NotImplemented:
            return
        nb = len(b.terms) if hasattr(b, "terms") else 1
        self.pairs += len(a.terms) * nb
        self.terms_out_max = max(self.terms_out_max, len(result.terms))

    def _count_ratfun(self, args, kwargs, result):
        den = args[0].den
        self.den_terms_max = max(self.den_terms_max, len(den.terms))
        self.den_degree_max = max(self.den_degree_max, den.total_degree())

    def _count_nodes(self, args, kwargs, result):
        bound = self._ts_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        if key in self.node_keys:
            self.node_hits += 1
        self.node_keys.add(key)

    def install(self):
        """Wrap every layer's entry points in every cpverify namespace."""
        from cpverify import quadrature

        self._ts_signature = inspect.signature(quadrature.ts_nodes)
        after_of = {
            "exact.MPoly.__mul__": self._count_mul,
            "exact.RatFun.__init__": self._count_ratfun,
            "quadrature.ts_nodes": self._count_nodes,
        }
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"cpverify.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(name, obj, after_of.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, after_of)
        # rebind the functions in every namespace that imported them by name
        for modname, mod in list(sys.modules.items()):
            if modname != "cpverify" and not modname.startswith("cpverify."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, layer, cls, after_of):
        done: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share a wrapper
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if id(fn) not in done:
                name = f"{layer}.{cls.__name__}.{fn.__name__}"
                done[id(fn)] = self._wrap(name, fn, after_of.get(name))
            wrapped = done[id(fn)]
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def table(self) -> dict:
        """Per span name: number of calls and summed self time."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, s in zip(self.name_of, selfs):
            calls[sid] += 1
            self_s[sid] += s
        return {n: {"calls": calls[i], "self_s": self_s[i]} for i, n in enumerate(self.names)}

    def metrics(self, table: dict) -> dict:
        """Per-layer counts and self times from ``table()``."""
        out = {}
        for prefix, span in SPAN_OF.items():
            row = table.get(span, {"calls": 0, "self_s": 0.0})
            out[f"{prefix}.calls"] = row["calls"]
            out[f"{prefix}.self_s"] = row["self_s"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(row["self_s"] for n, row in table.items() if n.startswith(layer + "."))
        out["exact.mpoly_mul.term_pairs"] = self.pairs
        out["exact.mpoly_mul.terms_out_max"] = self.terms_out_max
        out["exact.ratfun.den_terms_max"] = self.den_terms_max
        out["exact.ratfun.den_degree_max"] = self.den_degree_max
        ts_calls = out["quadrature.ts_nodes.calls"]
        out["quadrature.ts_nodes.hit_ratio"] = self.node_hits / ts_calls if ts_calls else 0.0
        return out
