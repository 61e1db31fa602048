"""In-memory span tracing of orbicover's public functions, installed from
outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that refers to it, including by-name imports such as
``invariants.marked_graph_isomorphism`` and ``covers.euler_characteristic``,
so calls between modules are seen as well as calls from the benchmark.  The
package source is left unchanged and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, function); spans are named "<module>.<function>"
TRACED = [
    ("coxeter", "racg_presentation"),
    ("coxeter", "branch_decomposition"),
    ("coxeter", "one_endedness_check"),
    ("coxeter", "davis_orbicomplex"),
    ("orbicore", "validate_complex"),
    ("orbicore", "euler_characteristic"),
    ("orbicore", "singular_subspace"),
    ("orbicore", "topological_form"),
    ("orbicore", "marked_graph_isomorphism"),
    ("covers", "davis_double_cover"),
    ("covers", "double_cover"),
    ("covers", "enumerate_double_covers"),
    ("covers", "torsion_free_cover"),
    ("covers", "compose"),
    ("covers", "verify_covering"),
    ("invariants", "fundamental_group_presentation"),
    ("invariants", "abelianization"),
    ("invariants", "smith_normal_form"),
    ("invariants", "planar_normal_form"),
    ("invariants", "normal_forms_isomorphic"),
    ("invariants", "torsion_freeness"),
    ("pipeline", "run_demo"),
]

# methods counted without a span: they are called too often for one each
COUNTED_METHODS = [("orbicore", "Orbicomplex", "piece")]


def _snf_entries(args, _result) -> int:
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# extra per-call counters: span name -> (counter name, function of the
# positional arguments and the result)
EXTRA = {
    "invariants.smith_normal_form": ("invariants.smith_normal_form.entries", _snf_entries),
    "serialize.dump": ("serialize.bytes", lambda _args, text: len(text)),
}


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if extra is not None:
                self.counts[extra[0]] = self.counts.get(extra[0], 0) + extra[1](args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "orbicover" or mod_name.startswith("orbicover.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self, extra_targets=()) -> None:
        """Wrap every traced function; ``extra_targets`` adds (object,
        attribute, span name) triples outside the package, such as the
        benchmark's own serialize helpers."""
        for short, attr in TRACED:
            mod = sys.modules[f"orbicover.{short}"]
            orig = getattr(mod, attr)
            self._replace_everywhere(orig, self._spanned(f"{short}.{attr}", orig))
        for short, cls_name, attr in COUNTED_METHODS:
            cls = getattr(sys.modules[f"orbicover.{short}"], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._counted(f"{short}.{cls_name}.{attr}.calls", orig))
        for obj, attr, name in extra_targets:
            orig = getattr(obj, attr)
            self._undo.append((obj, attr, orig))
            setattr(obj, attr, self._spanned(name, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- analysis -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time (duration minus the time
        covered by direct child spans), summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child[i]
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
