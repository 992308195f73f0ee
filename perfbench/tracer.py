"""Layer tracing from outside the program.

Every function defined in an `origamis` module, and every method of
``Permutation``, ``Origami`` and ``QuadNum``, is replaced by a wrapper in every
module namespace that bound it.  Top-level ops are kept as whole spans (name,
start, end, parent, op id); the calls beneath them are aggregated per (name,
parent name), which bounds memory for calls made once per crossing or per
BFS step.  A row's self time is its duration minus the time of its children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("perm", "origami", "action", "cylinders", "flow", "quadfield", "lshape", "intlattice", "catalog", "cli")
CLASSES = {"perm": ("Permutation",), "origami": ("Origami",), "quadfield": ("QuadNum",)}
# frozen dataclasses route only failed assignments through these
SKIP_METHODS = {"__setattr__", "__delattr__"}

QUAD_ARITH = tuple(
    f"quadfield.QuadNum.{m}"
    for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__")
)

# per-call item counts taken from results, summed per row
ITEMS = {
    "action.orbit": lambda r: r.index,
    "flow.trace": lambda r: r.crossings,
    "catalog._transitive_pair": lambda r: int(r),
    "catalog.canonical_origamis": len,
    "catalog.catalog_write": lambda r: r[0] + r[1],
    "catalog.catalog_query": len,
    "catalog._read_entries": len,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.rows: dict[tuple[str, str | None], list] = {}  # [calls, total s, child s, items]
        self.spans: list[tuple] = []  # top-level ops: (name, start, end, parent, op id)
        self._op = None

    def begin_op(self, name):
        self._op = [name, 0.0, perf_counter()]
        self.stack.append(self._op)

    def end_op(self):
        end = perf_counter()
        self.stack.pop()
        name, _, start = self._op
        self.spans.append((name, start, end, None, len(self.spans)))
        self._op = None

    def wrap(self, name, fn):
        stack = self.stack
        rows = self.rows
        items = ITEMS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += frame[1]
                if items is not None and result is not None:
                    row[3] += items(result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package="origamis"):
        """Wrap every function and method named above, everywhere it is bound."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr in SKIP_METHODS:
                        continue
                    label = f"{short}.{cls_name}.{attr}"
                    if isinstance(obj, staticmethod):
                        setattr(cls, attr, staticmethod(self.wrap(label, obj.__func__)))
                    elif inspect.isfunction(obj):
                        setattr(cls, attr, self.wrap(label, obj))
        namespaces = [sys.modules[package], *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)

    # -- report -------------------------------------------------------------

    def table(self):
        """Rows as dicts, largest self time first."""
        out = [
            {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[1] - r[2], "items": r[3]}
            for (n, p), r in self.rows.items()
        ]
        out.sort(key=lambda d: -d["self_s"])
        return out


def _sum(table, field, name=None, prefix=None, parent=None):
    return sum(
        d[field]
        for d in table
        if (name is None or d["name"] == name)
        and (prefix is None or d["name"].startswith(prefix))
        and (parent is None or d["parent"] == parent)
    )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, extra) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced pass, as
    name -> (value, unit), and the base of every ratio as name -> text.

    ``extra`` carries what the harness measured itself: the catalog file
    size, and from an untraced pass the crossings per scalar kind and the
    time of the trace calls (``by_name``, reference seconds).
    """

    def calls(name):
        return _sum(table, "calls", name=name)

    def self_s(prefix):
        return _sum(table, "self_s", prefix=prefix)

    enumerate_fns = ("enumerate_origamis", "canonical_origamis", "_transitive_pair", "_partitions", "_cycle_type_rep")
    candidates = calls("catalog._transitive_pair")
    transitive = _sum(table, "items", name="catalog._transitive_pair")
    distinct = _sum(table, "items", name="catalog.canonical_origamis")
    elements = _sum(table, "items", name="action.orbit")
    proj = calls("action._proj_key")
    crossings = extra.get("crossings", {})
    by_name = extra.get("by_name", {})

    def us_per_crossing(kind):
        return _ratio(by_name.get(kind, 0.0) * 1e6, crossings.get(kind, 0))

    bases = {
        "action.orbit.useful_ratio": f"{elements} orbit elements / {proj} _proj_key calls",
        "catalog.transitive_ratio": f"{transitive} transitive pairs / {candidates} candidate pairs",
        "catalog.distinct_ratio": f"{distinct} distinct canonical keys / {transitive} transitive pairs",
    }
    for kind in ("fraction", "quad"):
        key = f"trace[{kind}]"
        bases[f"flow.trace.us_per_crossing_{kind}"] = (
            f"{by_name.get(key, 0.0):.4g} s of untraced {key} ops / {crossings.get(key, 0)} crossings")

    m = {
        "origami.canonical_key.calls": (calls("origami._canonical_key"), "count"),
        "origami.canonical_key.self_s": (_sum(table, "self_s", name="origami._canonical_key"), "s"),
        "origami.origami_new.calls": (calls("origami.Origami.__init__"), "count"),
        "perm.permutation_new.calls": (calls("perm.Permutation.__init__"), "count"),
        "perm.is_transitive.calls": (calls("perm.is_transitive"), "count"),
        "perm.compose.calls": (calls("perm.compose"), "count"),
        "perm.self_s": (self_s("perm."), "s"),
        "origami.self_s": (self_s("origami."), "s"),
        "action.orbit.elements": (elements, "count"),
        "action.proj_key.calls": (proj, "count"),
        "action.orbit.useful_ratio": (_ratio(elements, proj), "ratio"),
        "action.self_s": (self_s("action."), "s"),
        "action.apply_word.calls": (calls("action.apply_word"), "count"),
        "cylinders.horizontal_decomposition.calls": (calls("cylinders.horizontal_decomposition"), "count"),
        "cylinders.self_s": (self_s("cylinders."), "s"),
        "flow.trace.calls": (calls("flow.trace"), "count"),
        "flow.trace.crossings": (_sum(table, "items", name="flow.trace"), "count"),
        "flow.trace.self_s": (_sum(table, "self_s", name="flow.trace"), "s"),
        "flow.trace.us_per_crossing_fraction": (us_per_crossing("trace[fraction]"), "us"),
        "flow.trace.us_per_crossing_quad": (us_per_crossing("trace[quad]"), "us"),
        "flow.discrepancy.self_s": (_sum(table, "self_s", name="flow.discrepancy"), "s"),
        "quadfield.quadnum_new.calls": (calls("quadfield.QuadNum.__init__"), "count"),
        "quadfield.arith.calls": (sum(calls(n) for n in QUAD_ARITH), "count"),
        "quadfield.self_s": (self_s("quadfield."), "s"),
        "intlattice.hermite_form.calls": (calls("intlattice.hermite_form"), "count"),
        "intlattice.self_s": (self_s("intlattice."), "s"),
        "lshape.self_s": (self_s("lshape."), "s"),
        "catalog.candidates": (candidates, "count"),
        "catalog.transitive_ratio": (_ratio(transitive, candidates), "ratio"),
        "catalog.distinct_ratio": (_ratio(distinct, transitive), "ratio"),
        "catalog.enumerate.self_s": (sum(self_s(f"catalog.{f}") for f in enumerate_fns), "s"),
        "catalog.write_s": (_sum(table, "total_s", name="catalog.catalog_write"), "s"),
        "catalog.write.records": (_sum(table, "items", name="catalog.catalog_write"), "count"),
        "catalog.write.bytes": (extra.get("catalog_bytes", 0), "bytes"),
        "catalog.query_s": (_sum(table, "total_s", name="catalog.catalog_query"), "s"),
        "catalog.query.records_read": (
            _sum(table, "items", name="catalog._read_entries", parent="catalog.catalog_query"), "count"),
        "cli.self_s": (self_s("cli."), "s"),
    }
    return m, bases
