"""Spans around the benchmark's calls into the package, kept in memory.

A span is (name, start, end, parent, task): `name` is "<layer>.<call>",
`parent` the index of the enclosing span (-1 for a root) and `task` the
identifier of the unit of work it belongs to.  Spans are recorded from
outside the package only, at the boundary of each public call; a layer's
self time is its spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("bench", "terms", "encoder", "solver", "algebra", "oracle",
          "orchestrator", "reporting")


class NullTracer:
    """Records nothing: the untraced runs call the package through this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.task = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.task]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def total(self, *names) -> float:
        """Summed duration of every span with one of the given names."""
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name in names)

    def layer_total(self, layer: str) -> float:
        """Summed duration of the layer's spans, children included."""
        prefix = layer + "."
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name.startswith(prefix))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time covered by children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), seconds in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, task in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "task": task}) + "\n")
