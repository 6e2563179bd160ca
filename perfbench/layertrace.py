"""Per-layer tracing of the homlie package, installed from outside the package.

``Tracer.install()`` wraps every public function of every loaded ``homlie.*``
module, plus the public methods and arithmetic operators of the classes those
modules define.  Modules bind each other's functions with ``from .x import f``,
so every module attribute (and module-level dict value) that refers to a
wrapped function is patched to the wrapper as well.

Two kinds of call are recorded:

* spans: one record (id, name, start, end, parent span, op id) per call of a
  non-hot function, kept in memory and written out by ``dump``;
* aggregates: for every call, a count and self/inclusive time keyed by
  (function, calling function).  Hot leaves (all class methods, ``evaluate``,
  the rational coercions and shuffle helpers) are only aggregated, since one
  span per ``Vec`` addition would dwarf the work it measures.

Self time is a call's duration minus the time its wrapped children cover; the
self time of a layer is the sum over the functions its module defines, so
unwrapped helpers and ``Fraction`` arithmetic count toward the nearest wrapped
caller (``Fraction`` work done in ``Vec``/``Mat`` methods counts as linalg).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("linalg", "cochains", "structures", "differentials", "brackets", "cohomology",
          "operators", "deformations", "theorems", "io", "cli")

# Module-level functions that are only aggregated, never recorded as spans.
HOT_FUNCTIONS = {"linalg.rat", "linalg.rat_str", "cochains.evaluate", "cochains.shuffles",
                 "cochains.perm_sign", "cochains.sort_with_sign"}
# Dunder methods wrapped besides the public ones.
DUNDERS = ("__add__", "__sub__", "__neg__", "__matmul__")

RREF_ENTRY = {"linalg.mat_rank", "linalg.kernel_basis", "linalg.solve_linear"}
COMPAT = "cochains.compatibility_basis"
SEARCHES = {"operators.search_nijenhuis", "operators.search_rota_baxter",
            "operators.search_relative_rb"}

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        # (name, caller) -> [calls, self seconds, inclusive seconds]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.rref_cells = 0
        self.compat_miss = 0
        self.found = 0
        self.op = None
        self._next_span = 0
        self._originals: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool):
        stack, spans, agg = self.stack, self.spans, self.agg
        is_rref = name in RREF_ENTRY
        is_compat = name == COMPAT
        is_search = name in SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_rref:
                m = args[0]
                self.rref_cells += m.nrows * (m.ncols + (name == "linalg.solve_linear"))
                if parent is not None and parent[1] == COMPAT:
                    parent[3] = True
            span_parent = parent[2] if parent is not None else None
            span_id = None
            if not hot:
                span_id = self._next_span
                self._next_span += 1
            # frame: child seconds, name, nearest span id, compat miss flag
            frame = [0.0, name, span_parent if span_id is None else span_id, False]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                caller = None
                if parent is not None:
                    parent[0] += dur
                    caller = parent[1]
                key = (name, caller)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, dur - frame[0], dur]
                else:
                    entry[0] += 1
                    entry[1] += dur - frame[0]
                    entry[2] += dur
                if span_id is not None:
                    spans.append((span_id, name, t0, t1, span_parent, self.op))
                if is_compat and frame[3]:
                    self.compat_miss += 1
            if is_search:
                self.found += len(result)
            return result

        return wrapper

    def _matmul(self, fn, vec_type):
        vec_wrapped = self._wrap(fn, "linalg.Mat@Vec", True)
        mat_wrapped = self._wrap(fn, "linalg.Mat@Mat", True)

        @functools.wraps(fn)
        def matmul(a, b):
            return (vec_wrapped if isinstance(b, vec_type) else mat_wrapped)(a, b)

        return matmul

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public homlie function and patch every binding of it."""
        mods = {}
        for layer in LAYERS:
            name = f"homlie.{layer}"
            try:
                mods[layer] = importlib.import_module(name)
            except ImportError:
                continue
        package = importlib.import_module("homlie")
        vec_type = mods["linalg"].Vec
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, qual, qual in HOT_FUNCTIONS)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, vec_type)
        for target in [package, *mods.values()]:
            for attr, obj in list(vars(target).items()):
                if id(obj) in replaced:
                    self._originals.append((target, attr, obj))
                    setattr(target, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            self._originals.append((obj, k, v))
                            obj[k] = replaced[id(v)]

    def _wrap_class(self, layer, cls, vec_type):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                fn, rewrap = raw.__func__, staticmethod
            elif inspect.isfunction(raw):
                fn, rewrap = raw, (lambda f: f)
            else:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__matmul__":
                wrapped = self._matmul(fn, vec_type)
            else:
                wrapped = self._wrap(fn, qual, True)
            self._originals.append((cls, attr, raw))
            setattr(cls, attr, rewrap(wrapped))

    def uninstall(self):
        for target, key, obj in reversed(self._originals):
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._originals.clear()

    # -- output ---------------------------------------------------------

    def export(self) -> dict:
        return {"agg": [[n, c, v[0], v[1], v[2]] for (n, c), v in self.agg.items()],
                "rref_cells": self.rref_cells, "compat_miss": self.compat_miss,
                "found": self.found, "spans": len(self.spans)}

    def dump_spans(self, path: str):
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(exports: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one or more ``Tracer.export()`` results."""
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    incl: dict[str, float] = {}
    by_caller: dict[tuple[str, str | None], int] = {}
    rref_cells = compat_miss = found = 0
    for ex in exports:
        rref_cells += ex["rref_cells"]
        compat_miss += ex["compat_miss"]
        found += ex["found"]
        for name, caller, n, s, t in ex["agg"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name.split(".", 1)[0]] += s
            # inclusive time only for calls not nested in the same function
            if caller != name:
                incl[name] = incl.get(name, 0.0) + t
            by_caller[(name, caller)] = by_caller.get((name, caller), 0) + n

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def under(names, callers):
        return sum(n for (name, caller), n in by_caller.items()
                   if name in names and caller in callers)

    rref = sorted(RREF_ENTRY)
    predicates = {"operators.is_nijenhuis", "operators.is_rota_baxter",
                  "operators.is_relative_rb", "operators.relative_rb_pointwise"}
    compat_calls = count(COMPAT)
    candidates = under(predicates, SEARCHES)
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "linalg.vec_ops": count("linalg.Vec.__add__", "linalg.Vec.__sub__",
                                "linalg.Vec.__neg__", "linalg.Vec.scale"),
        "linalg.matvec_calls": count("linalg.Mat@Vec"),
        "linalg.matmat_calls": count("linalg.Mat@Mat"),
        # entry points of the row reduction; nested calls are not double counted
        "linalg.rref_calls": count(*rref) - under(set(rref), set(rref)),
        "linalg.rref_cells": rref_cells,
        "linalg.rref_s": sum(incl.get(n, 0.0) for n in rref),
        "cochains.evaluate_calls": count("cochains.evaluate"),
        "cochains.contract_calls": count("cochains.contract"),
        "cochains.compat_calls": compat_calls,
        "cochains.compat_miss": compat_miss,
        "cochains.compat_hit_ratio": (compat_calls - compat_miss) / compat_calls if compat_calls else 0.0,
        "cochains.compat_s": incl.get(COMPAT, 0.0),
        "structures.bracket_calls": count("structures.RawHomStructure.bracket",
                                          "structures.Representation.act",
                                          "structures.HomLieAction.act"),
        "differentials.calls": sum(n for name, n in calls.items()
                                   if name.startswith("differentials.") and name.count(".") == 1),
        "brackets.nr_calls": count("brackets.nr_bracket"),
        "brackets.cup_calls": count("brackets.cup_bracket"),
        "brackets.fn_calls": count("brackets.fn_bracket"),
        "brackets.derived_calls": count("brackets.derived_bracket", "brackets.derived_bracket_rel"),
        "cohomology.reports": count("cohomology.cohomology"),
        "operators.searches": count(*SEARCHES),
        "operators.candidates": candidates,
        "operators.grid_points": under({"linalg.Mat.make"}, SEARCHES),
        "operators.found": found,
        "operators.found_ratio": found / candidates if candidates else 0.0,
        "deformations.steps": count("deformations.extend"),
        "theorems.verify_calls": count("theorems.verify"),
        "io.parse_calls": sum(n for name, n in calls.items()
                              if name.startswith("io.") and name.endswith("_from_json")),
    })
    return m
