"""Span recording around calls into each polyconcept module.

The tracer wraps the public functions in every namespace that holds them
(``cli.enumerate_concepts``, ``introducers.enumerate_concepts``, the package
itself, ...) and the public ``NContext`` methods, so a call is seen whichever
module makes it.  The program's source is not touched.  Each span records
its name, start, end, parent span, the op it belongs to, and up to two work
counts.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


def _length(args, kwargs, result):
    return len(result), 0


def _out_bytes(args, kwargs, result):
    return len(result.encode("utf-8")), 0


def _pairs(args, kwargs, result):
    k = len(args[0])
    return k * (k - 1), 0


def _diagram(args, kwargs, result):
    return len(result.nodes), len(result.edges)


class Tracer:
    """Wraps polyconcept's public calls; ``install``/``uninstall`` swap them."""

    def __init__(self, pc):
        self._restore: list = []
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.v1 = array("d")
        self.v2 = array("d")
        self._stack: list[int] = []
        mod = sys.modules
        concepts = mod["polyconcept.concepts"]
        formats = mod["polyconcept.formats"]
        intro = mod["polyconcept.introducers"]
        order = mod["polyconcept.order"]
        cli = mod["polyconcept.cli"]
        oracle_cost = concepts.oracle_cost

        def enum_name(args):
            full = args[0].provenance is None
            return "concepts.enum_full" if full else "concepts.enum_slice"

        def combos(args, kwargs, result):
            return oracle_cost(args[0]), 0

        functions = [
            (formats.parse_context, "formats.parse", None),
            (formats.serialize_concepts, "formats.serialize", _out_bytes),
            (formats.export_dot, "formats.serialize", _out_bytes),
            (concepts.enumerate_concepts, enum_name, _length),
            (concepts.brute_force_concepts, "concepts.oracle", combos),
            (intro.introducers, "introducers", _length),
            (intro.introducer_dim, "introducers", _length),
            (intro.introducer_oracle, "introducers.oracle", _length),
            (order.check_n_ordered, "order.check", _pairs),
            (order.dimension_diagram, "order.diagram", _diagram),
            (cli.main, "cli", None),
        ]
        self._wrapped = {id(f): self._wrap(f, n, v) for f, n, v in functions}
        self._modules = [
            m for name, m in list(mod.items())
            if name == "polyconcept" or name.startswith("polyconcept.")
        ]
        ctx_cls = pc.NContext
        self._methods = [
            (ctx_cls, attr, getattr(ctx_cls, attr), self._wrap(getattr(ctx_cls, attr), name, None))
            for attr, name in (
                ("__init__", "context.build"),
                ("slice", "context.slice"),
                ("is_concept", "context.is_concept"),
            )
        ]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, values):
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            k = len(self.start)
            self.name.append(fixed if fixed is not None else self._id(name(args)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_of.append(self.op)
            self.v1.append(0.0)
            self.v2.append(0.0)
            self.end.append(0.0)
            self._stack.append(k)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[k] = perf_counter()
                self._stack.pop()
            if values is not None:
                self.v1[k], self.v2[k] = values(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for m in self._modules:
            for attr, val in list(vars(m).items()):
                wrapper = self._wrapped.get(id(val))
                if wrapper is not None:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, val))
        for cls, attr, original, wrapper in self._methods:
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def layer_metrics(self, n_ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics per traced op, from self times and work counts."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        v1: dict[str, float] = {}
        v2: dict[str, float] = {}
        intro_id = self._ids.get("introducers", -2)
        slice_concepts = 0.0
        for k in range(n):
            name = self.names[self.name[k]]
            self_s[name] = self_s.get(name, 0.0) + dur[k] - child[k]
            calls[name] = calls.get(name, 0) + 1
            v1[name] = v1.get(name, 0.0) + self.v1[k]
            v2[name] = v2.get(name, 0.0) + self.v2[k]
            if name == "concepts.enum_slice":
                p = self.parent[k]
                while p >= 0 and self.name[p] != intro_id:
                    p = self.parent[p]
                if p >= 0:
                    slice_concepts += self.v1[k]
        per = 1.0 / max(n_ops, 1)

        def s(name):
            return self_s.get(name, 0.0) * per

        def c(name):
            return calls.get(name, 0) * per

        def w(name, counts=v1):
            return counts.get(name, 0.0) * per

        records = v1.get("introducers", 0.0)
        return {
            "formats.parse_s": s("formats.parse"),
            "formats.parse_calls": c("formats.parse"),
            "formats.serialize_s": s("formats.serialize"),
            "formats.out_bytes": w("formats.serialize"),
            "context.build_s": s("context.build"),
            "context.build_calls": c("context.build"),
            "context.slice_s": s("context.slice"),
            "context.slice_calls": c("context.slice"),
            "context.is_concept_s": s("context.is_concept"),
            "context.is_concept_calls": c("context.is_concept"),
            "concepts.enum_full_s": s("concepts.enum_full"),
            "concepts.enum_full_calls": c("concepts.enum_full"),
            "concepts.enum_slice_s": s("concepts.enum_slice"),
            "concepts.enum_slice_calls": c("concepts.enum_slice"),
            "concepts.concepts_out": w("concepts.enum_full") + w("concepts.enum_slice"),
            "concepts.oracle_s": s("concepts.oracle"),
            "concepts.oracle_combos": w("concepts.oracle"),
            "introducers.self_s": s("introducers"),
            "introducers.calls": c("introducers"),
            "introducers.slice_concepts": slice_concepts * per,
            "introducers.records": records * per,
            "introducers.merge_ratio": records / slice_concepts if slice_concepts else 0.0,
            "introducers.oracle_s": s("introducers.oracle"),
            "order.check_s": s("order.check"),
            "order.check_pairs": w("order.check"),
            "order.diagram_s": s("order.diagram"),
            "order.diagram_classes": w("order.diagram"),
            "order.diagram_edges": w("order.diagram", v2),
            "cli.self_s": s("cli"),
            "cli.calls": c("cli"),
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart_s\tend_s\tv1\tv2\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{k}\t{self.op_of[k]}\t{self.names[self.name[k]]}\t{self.parent[k]}\t"
                    f"{self.start[k] - t0:.7f}\t{self.end[k] - t0:.7f}\t"
                    f"{self.v1[k]:g}\t{self.v2[k]:g}\n"
                )
