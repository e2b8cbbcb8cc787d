"""Per-layer tracing of mbca from outside: wrapped public functions, spans in memory.

The mbca modules import each other's functions by name (``hierarchy`` and
``loops`` each hold their own reference to ``reachability.analysis``), so a
function is wrapped at every module-level binding that holds it, in every
loaded ``mbca`` module.  Methods are wrapped on their class.  A function a
later version no longer has is reported as absent; the run goes on.

A span is (label, parent span, op index, start, end), kept in flat arrays and
written out when the traced pass ends.  Calls from one ``Analyzer`` method
into another are not separate spans: the hierarchy layer is traced where
other layers call into it, which keeps the span count proportional to layer
crossings.  Counts that are not times (configurations, descriptors, steps)
are taken at the same boundaries.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


def _configs(tracer, args, result):
    # ReachAnalysis.__init__(self, ...): configurations in the finite reach sets
    return sum(len(sr.finite) for sr in args[0].reach_set.per_state.values())


def _probe(tracer, args, result):
    return 1 if tracer.active["reachability.min_counter_to"] else 0


def _new_descriptors(tracer, args, result):
    # loops() is cached; a result object seen before was not enumerated again
    if id(result) in tracer.seen:
        return 0
    tracer.seen[id(result)] = result
    return len(result)


def _true(tracer, args, result):
    return 1 if result else 0


def _steps(tracer, args, result):
    return len(result.configs) - 1


# (module, attribute, label, count hook).  An attribute "Class.method" is
# wrapped on the class; "Class.*" wraps the constructor and every public method.
TARGETS = [
    ("mbca.cli", "main", "cli.main", None),
    ("mbca.automaton", "parse_machine", "automaton.parse_machine", None),
    ("mbca.automaton", "validate", "automaton.validate", None),
    ("mbca.gallery", "canonical", "gallery.canonical", None),
    ("mbca.hierarchy", "Analyzer.*", "hierarchy.Analyzer", None),
    ("mbca.loops", "loops", "loops.loops", _new_descriptors),
    ("mbca.loops", "admissible", "loops.admissible", _true),
    ("mbca.reachability", "analysis", "reachability.analysis", None),
    ("mbca.reachability", "ReachAnalysis.__init__", "reachability.ReachAnalysis", _configs),
    ("mbca.reachability", "reach", "reachability.reach", _probe),
    ("mbca.reachability", "min_counter_to", "reachability.min_counter_to", None),
    ("mbca.naming", "wadge_name", "naming.wadge_name", None),
    ("mbca.naming", "derive", "naming.derive", None),
    ("mbca.naming", "compare", "naming.compare", None),
    ("mbca.semantics", "run", "semantics.run", _steps),
    ("mbca.arena", "play", "arena.play", None),
]

# Which wrapped labels each per-layer metric is computed from.
METRIC_SOURCES = {
    "reachability.analysis_s": ["reachability.ReachAnalysis"],
    "reachability.analyses": ["reachability.ReachAnalysis"],
    "reachability.configs": ["reachability.ReachAnalysis"],
    "reachability.min_counter_to_s": ["reachability.min_counter_to"],
    "reachability.min_counter_to_probes": ["reachability.min_counter_to", "reachability.reach"],
    "reachability.hit_ratio": ["reachability.analysis", "reachability.ReachAnalysis"],
    "loops.loops_s": ["loops.loops"],
    "loops.descriptors": ["loops.loops"],
    "loops.admissible_share": ["loops.admissible"],
    "hierarchy.self_s": ["hierarchy.Analyzer"],
    "hierarchy.analyzers": ["hierarchy.Analyzer"],
    "naming.wadge_name_s": ["naming.wadge_name"],
    "naming.derive_s": ["naming.derive"],
    "naming.derivations": ["naming.derive"],
    "naming.compare_s": ["naming.compare"],
    "semantics.run_s": ["semantics.run"],
    "semantics.runs": ["semantics.run"],
    "semantics.steps": ["semantics.run"],
    "semantics.step_us": ["semantics.run"],
    "arena.play_s": ["arena.play"],
    "arena.plays": ["arena.play"],
    "automaton.parse_s": ["automaton.parse_machine", "automaton.validate"],
    "gallery.canonical_s": ["gallery.canonical"],
    "cli.self_s": ["cli.main"],
}

UNITS = {"_s": "s", "_us": "us", "_ratio": "ratio", "_share": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Span store plus per-label call and count totals."""

    def __init__(self):
        self.labels: list[str] = []
        self._index: dict[str, int] = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.seen: dict[int, object] = {}
        self.absent: list[str] = []
        self.paused = False
        self.op = -1
        self._stack: list[tuple[int, int]] = []  # (span index, label index)
        self._hierarchy: set[int] = set()

    def _label(self, label: str) -> int:
        if label not in self._index:
            self._index[label] = len(self.labels)
            self.labels.append(label)
        return self._index[label]

    def wrap(self, fn, label: str, count=None):
        tracer = self
        ix = self._label(label)
        flat = label.startswith("hierarchy.")
        if flat:
            self._hierarchy.add(ix)

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[label] += 1
            stack = tracer._stack
            top = stack[-1] if stack else None
            record = top is None or (
                top[1] != ix and not (flat and top[1] in tracer._hierarchy)
            )
            if record:
                span = len(tracer.span_start)
                tracer.span_label.append(ix)
                tracer.span_parent.append(top[0] if top else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_end.append(0.0)
                tracer.span_start.append(perf_counter())
                stack.append((span, ix))
            tracer.active[label] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if record:
                    tracer.span_end[span] = perf_counter()
                    stack.pop()
                tracer.active[label] -= 1
            if count is not None:
                tracer.counts[label] += count(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded mbca modules."""
        modules = [m for name, m in sys.modules.items() if name == "mbca" or name.startswith("mbca.")]
        for module_name, attr, label, count in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module else None
            if owner is None or (method and not inspect.isclass(owner)):
                self.absent.append(label)
                continue
            if not method:
                wrapper = self.wrap(owner, label, count)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is owner:
                            setattr(m, name, wrapper)
                continue
            names = (
                [n for n, v in vars(owner).items()
                 if inspect.isfunction(v) and (n == "__init__" or not n.startswith("_"))]
                if method == "*" else [method]
            )
            if not all(inspect.isfunction(vars(owner).get(n)) for n in names):
                self.absent.append(label)
                continue
            for n in names:
                setattr(owner, n, self.wrap(vars(owner)[n], f"{label}.{n}" if method == "*" else label, count))

    # -- forked children ----------------------------------------------------------

    def reset(self, op: int) -> None:
        """Forget what the parent recorded; a forked child reports only its op."""
        for col in (self.span_label, self.span_parent, self.span_op, self.span_start, self.span_end):
            del col[:]
        self.calls.clear()
        self.counts.clear()
        self.op = op

    def export(self) -> dict:
        return {
            "labels": self.labels,
            "columns": [c.tobytes() for c in self._columns()],
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict) -> None:
        """Append a child's spans, re-indexing labels and parents."""
        remap = array("i", (self._label(label) for label in data["labels"]))
        labels, parents, ops, starts, ends = (array(c.typecode) for c in self._columns())
        for col, raw in zip((labels, parents, ops, starts, ends), data["columns"]):
            col.frombytes(raw)
        offset = len(self.span_start)
        self.span_label.extend(remap[i] for i in labels)
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.span_op.extend(ops)
        self.span_start.extend(starts)
        self.span_end.extend(ends)
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])

    def _columns(self):
        return (self.span_label, self.span_parent, self.span_op, self.span_start, self.span_end)

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures over every span and call recorded."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()
        self_time: Counter = Counter()
        layer_time: Counter = Counter()
        for i in range(n):
            label = self.labels[self.span_label[i]]
            total[label] += dur[i]
            self_time[label] += dur[i] - child[i]
            p = self.span_parent[i]
            layer = label.split(".", 1)[0]
            if p < 0 or self.labels[self.span_label[p]].split(".", 1)[0] != layer:
                layer_time[layer] += dur[i]
        calls, counts = self.calls, self.counts
        analysis_calls = calls["reachability.analysis"]
        steps = counts["semantics.run"]
        admissible = calls["loops.admissible"]
        out = {
            "reachability.analysis_s": total["reachability.ReachAnalysis"],
            "reachability.analyses": calls["reachability.ReachAnalysis"],
            "reachability.configs": counts["reachability.ReachAnalysis"],
            "reachability.min_counter_to_s": total["reachability.min_counter_to"],
            "reachability.min_counter_to_probes": counts["reachability.reach"],
            "reachability.hit_ratio": (
                1 - calls["reachability.ReachAnalysis"] / analysis_calls if analysis_calls else 0.0
            ),
            "loops.loops_s": total["loops.loops"],
            "loops.descriptors": counts["loops.loops"],
            "loops.admissible_share": counts["loops.admissible"] / admissible if admissible else 0.0,
            "hierarchy.self_s": sum(v for k, v in self_time.items() if k.startswith("hierarchy.")),
            "hierarchy.analyzers": calls["hierarchy.Analyzer.__init__"],
            "naming.wadge_name_s": total["naming.wadge_name"],
            "naming.derive_s": total["naming.derive"],
            "naming.derivations": calls["naming.derive"],
            "naming.compare_s": total["naming.compare"],
            "semantics.run_s": total["semantics.run"],
            "semantics.runs": calls["semantics.run"],
            "semantics.steps": steps,
            "semantics.step_us": total["semantics.run"] / steps * 1e6 if steps else 0.0,
            "arena.play_s": total["arena.play"],
            "arena.plays": calls["arena.play"],
            "automaton.parse_s": layer_time["automaton"],
            "gallery.canonical_s": total["gallery.canonical"],
            "cli.self_s": self_time["cli.main"],
        }
        for metric in self.absent_metrics():
            out[metric] = 0.0
        return out

    def absent_metrics(self) -> list[str]:
        return [m for m, sources in METRIC_SOURCES.items() if any(s in self.absent for s in sources)]

    def dump(self, path) -> None:
        """Write every span, with the call and count totals, as gzipped JSON."""
        doc = {
            "labels": self.labels,
            "spans": {
                "label": self.span_label.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh)
