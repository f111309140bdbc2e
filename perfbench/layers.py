"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public stage functions of each clusterperm
module at every place they are bound: the defining module and every
module that took them with ``from ... import``.  ``BiSeries`` methods are
wrapped on the class.  ``Tracer.uninstall`` puts every original back.

A span's self time is its duration minus the time covered by the spans it
called, so the busy times of all layers add up to the traced wall time
(less the benchmark's own glue).  Counters and maxima are observed on the
returned values; that work is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "cli.self_s": "s",
    "graph.build_s": "s",
    "graph.calls": "count",
    "graph.vertices_max": "count",
    "graph.edges_max": "count",
    "clusters.general_s": "s",
    "clusters.general_calls": "count",
    "clusters.memo_states": "count",
    "clusters.cells": "count",
    "clusters.single_s": "s",
    "clusters.oracle_s": "s",
    "kernels.distribution_s": "s",
    "kernels.distribution_calls": "count",
    "kernels.linext_s": "s",
    "kernels.linext_calls": "count",
    "monotone.recurrence_s": "s",
    "monotone.emit_s": "s",
    "monotone.verify_s": "s",
    "series.shift_s": "s",
    "series.reciprocal_s": "s",
    "series.ops_s": "s",
    "series.gf_s": "s",
    "series.alpha_s": "s",
    "series.terms": "count",
    "series.coeff_bits_max": "bits",
    "equivalence.bijection_s": "s",
    "equivalence.theorem13_checks": "count",
    "equivalence.iso_s": "s",
    "equivalence.classify_s": "s",
    "cache.key_s": "s",
    "cache.key_calls": "count",
    "cache.io_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "trace_overhead_s": "s",
}


def _graph(tracer, graph):
    tracer.peak("graph.vertices_max", len(graph.vertices))
    tracer.peak("graph.edges_max", len(graph.edges))


def _table(tracer, table):
    engine = table._engine
    tracer.add("clusters.memo_states", len(engine.memo) if engine else 0)
    tracer.add("clusters.cells", len(table.totals))


def _series(tracer, series):
    tracer.add("series.terms", len(series.coeffs))
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for c in series.coeffs.values()),
        default=0,
    )
    tracer.peak("series.coeff_bits_max", bits)


def _loaded(tracer, table):
    tracer.add("cache.misses" if table is None else "cache.hits", 1)


_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "scale", "dx", "mul_xpow",
        "mul_monomial", "mul_tpow", "truncated", "eq_through", "subs_t")

# (module, attribute, busy-time metric, call counter, observer)
SPANS = (
    ("cli", "main", "cli.self_s", None, None),
    ("graph", "build_graph", "graph.build_s", "graph.calls", _graph),
    ("clusters", "cluster_counts", "clusters.general_s",
     "clusters.general_calls", _table),
    ("clusters", "cluster_counts_single_pattern", "clusters.single_s", None, None),
    ("clusters", "count_clusters_oracle", "clusters.oracle_s", None, None),
    ("clusters", "enumerate_clusters_oracle", "clusters.oracle_s", None, None),
    ("series", "count_distribution_oracle", "clusters.oracle_s", None, None),
    ("kernels", "count_distribution", "kernels.distribution_s",
     "kernels.distribution_calls", None),
    ("kernels", "count_linear_extensions", "kernels.linext_s",
     "kernels.linext_calls", None),
    ("monotone", "monotone_cluster_counts", "monotone.recurrence_s", None, None),
    ("monotone", "monotone_vertex_series", "monotone.recurrence_s", None, None),
    ("monotone", "emit_ode_system", "monotone.emit_s", None, None),
    ("monotone", "emit_single_pattern_ode", "monotone.emit_s", None, None),
    ("monotone", "verify_ode", "monotone.verify_s", None, None),
    ("monotone", "verify_poly_ode", "monotone.verify_s", None, None),
    ("series", "BiSeries.shift_t", "series.shift_s", None, None),
    ("series", "BiSeries.reciprocal", "series.reciprocal_s", None, _series),
    *(("series", f"BiSeries.{m}", "series.ops_s", None, None) for m in _OPS),
    ("series", "cluster_gf", "series.gf_s", None, None),
    ("series", "avoidance_gf", "series.gf_s", None, None),
    ("series", "alpha_counts", "series.alpha_s", None, None),
    ("equivalence", "any_theorem13_bijection", "equivalence.bijection_s",
     None, None),
    ("equivalence", "check_theorem13", "equivalence.bijection_s",
     "equivalence.theorem13_checks", None),
    ("equivalence", "any_monotone_corollary_bijection",
     "equivalence.bijection_s", None, None),
    ("equivalence", "check_monotone_corollary", "equivalence.bijection_s",
     None, None),
    ("equivalence", "graphs_isomorphic", "equivalence.iso_s", None, None),
    ("equivalence", "classify_s5", "equivalence.classify_s", None, None),
    ("cache", "cache_key", "cache.key_s", "cache.key_calls", None),
    ("cache", "load_table", "cache.io_s", None, _loaded),
    ("cache", "save_table", "cache.io_s", None, None),
    ("cache", "cached_cluster_counts", "cache.io_s", None, None),
)

PACKAGE = "clusterperm"


def package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    """Records self time, call counts and maxima while ``active``."""

    def __init__(self):
        self.active = False
        self.values: dict[str, float] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, metric, amount):
        self.values[metric] = self.values.get(metric, 0) + amount

    def peak(self, metric, value):
        self.values[metric] = max(self.values.get(metric, 0), value)

    def take(self) -> dict[str, float]:
        values, self.values = self.values, {}
        return values

    def _wrap(self, fn, metric, counter, observe):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                children = stack.pop()
                self.add(metric, perf_counter() - start - children)
                if counter:
                    self.add(counter, 1)
                if returned and observe:
                    observe(self, result)
                if stack:
                    stack[-1] += perf_counter() - start
            return result

        return span

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of a module-level original -> its wrapper
        for module, path, metric, counter, observe in SPANS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, metric, counter, observe)
            if classes:
                self._set(owner, attr, wrapper)
            else:
                wrappers[id(original)] = wrapper
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
