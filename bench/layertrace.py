"""Outside-in layer trace: spans around the library's public functions.

:class:`Tracer` replaces every binding of each traced function with a
wrapper that records one span per call: layer name, start, end, parent
span and datum id.  "Every binding" matters because the library imports
its functions by name (``from .criteria import detect_structures``), calls
some as module globals and reaches the search as ``oracle_mod.decide``;
patching only the home module would miss those calls.  Reduction children
are generators, so each ``next()`` gets its own span.

Spans stay in memory until the run ends.  A layer's self time is its span
duration minus the time covered by its direct child spans.  Each span also
carries the benchmark operation (``phase``: decide, crosscheck or verify)
that was running when it opened.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _status_nodes(verdict):
    # a tuple summary gets the span's self time appended by layers(), so
    # search time can be split by outcome
    return (verdict.status, verdict.stats.nodes)


# layer name -> [(module, attribute, summary of one result or None)]
LAYERS = {
    "engine.decide": [("engine", "DecisionEngine.decide", lambda v: v.stats.cache_hits)],
    "engine.verify": [("engine", "verify", bool)],
    "oracle.decide": [("oracle", "decide", _status_nodes)],
    "oracle.check_witness": [("oracle", "check_witness", None)],
    "criteria.detect_structures": [("criteria", "detect_structures", None)],
    "criteria.filters": [("criteria", "prop1_filter", bool), ("criteria", "corollary_filter", bool)],
    "criteria.songxu": [
        ("criteria", "match_songxu_shape", lambda shape: shape is not None),
        ("criteria", "songxu_decide", None),
    ],
    "partitions.decompose": [("partitions", "decompose", len)],
    "partitions.parse": [("partitions", "parse_datum", None)],
}
GENERATORS = {
    "reduction.children": [("reduction", "children_thm1"), ("reduction", "children_thm2"),
                           ("reduction", "children_thm3")],
}
# counted, not timed: too small and too frequent for a span each
COUNTED = {"partitions.rh_defect": ("partitions", "rh_defect")}


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the library."""

    def __init__(self, package) -> None:
        self.package = package
        # [layer, start, end, parent index, datum id, summary, phase]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (phase, counter name) -> count
        self.datum = -1
        self.phase = ""
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module, attr, summary in targets:
                self._patch(module, attr, self._wrap(layer, summary))
        for layer, targets in GENERATORS.items():
            for module, attr in targets:
                self._patch(module, attr, self._wrap_generator(layer))
        for layer, (module, attr) in COUNTED.items():
            self._patch(module, attr, self._wrap_counted(layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        home = sys.modules[f"{self.package.__name__}.{module}"]
        if "." in attr:  # a method: the class is the one binding
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        prefix = self.package.__name__
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers --

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.datum, None, self.phase]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, summary):
        def make(fn):
            def traced(*args, **kwargs):
                span = self._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if summary is not None:
                    span[5] = summary(result)
                return result
            traced.__wrapped__ = fn
            return traced
        return make

    def _wrap_generator(self, layer: str):
        def make(fn):
            def traced(*args, **kwargs):
                self.counts[self.phase, layer + ".plans"] += 1
                return self._steps(layer, fn(*args, **kwargs))
            traced.__wrapped__ = fn
            return traced
        return make

    def _steps(self, layer: str, gen):
        try:
            while True:
                span = self._open(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span[5] = 1  # one step yielded
                yield item
        finally:
            gen.close()

    def _wrap_counted(self, layer: str):
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[self.phase, layer + ".calls"] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        return make

    # -- reading --

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layers(self, phases: tuple[str, ...]) -> dict[str, dict]:
        """Per layer, over spans of the given phases: calls, self seconds, result summaries."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "summaries": []})
        for s, own in zip(self.spans, self.self_times()):
            if s[6] not in phases:
                continue
            entry = out[s[0]]
            entry["calls"] += 1
            entry["self_s"] += own
            if isinstance(s[5], tuple):
                entry["summaries"].append(s[5] + (own,))
            elif s[5] is not None:
                entry["summaries"].append(s[5])
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: id, parent, phase, layer, start and end in microseconds, datum."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,phase,layer,start_us,end_us,datum\n")
            for i, (name, start, end, parent, datum, _, phase) in enumerate(self.spans):
                out.write(f"{i},{parent},{phase},{name},{(start - t0) * 1e6:.1f},"
                          f"{(end - t0) * 1e6:.1f},{datum}\n")
