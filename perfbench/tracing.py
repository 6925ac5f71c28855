"""Spans around the program's layer boundaries, recorded from outside.

A Tracer replaces chosen module attributes (for example
``pntal.model.forward_batch``) with wrappers that record one span per call:
name, start, end, parent span, unit id, and counts read from the call's
arguments or result. The program calls its layers through these module
attributes, so its own internal calls are recorded too. Spans stay in memory
until the run writes them out.

A span's self time is its duration minus the part covered by its child
spans; calls run on one thread, so the children of a span never overlap.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Point:
    """One wrapped attribute: ``module.attr`` is recorded under ``name``."""

    module: object
    attr: str
    name: str
    count: Optional[Callable] = None  # (args, kwargs, result) -> {counter: value}


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "counts")

    def __init__(self, name, parent, unit):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the given points while installed; records spans while ``unit`` is set.

    Calls made while ``unit`` is None (warm-up, output checks) pass straight
    through and leave no span.
    """

    def __init__(self, points: Sequence[Point]):
        self.points = list(points)
        self.spans: List[Span] = []
        self.unit: Optional[int] = None
        self._stack: List[int] = []
        self._saved = []

    def __enter__(self):
        for point in self.points:
            original = getattr(point.module, point.attr)
            self._saved.append((point.module, point.attr, original))
            setattr(point.module, point.attr, self._wrap(point, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, point: Point, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            span = Span(point.name, stack[-1] if stack else -1, self.unit)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if point.count is not None:
                span.counts = point.count(args, kwargs, result)
            return result

        return traced

    def unit_spans(self, unit: int, name: str) -> List[Span]:
        return [s for s in self.spans if s.unit == unit and s.name == name]

    def layer_totals(self, units: Sequence[int]) -> Dict[str, dict]:
        """Per span name, summed over the given units: calls, seconds, self
        seconds and every count."""
        wanted = set(units)
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        totals: Dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            if span.unit not in wanted:
                continue
            row = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.seconds
            row["self_s"] += span.seconds - child_seconds[i]
            for key, value in (span.counts or {}).items():
                row[key] = row.get(key, 0) + value
        return totals

    def child_count(self, units: Sequence[int], parent_name: str, child_name: str, key: str):
        """Sum of ``key`` over ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        wanted = set(units)
        total = 0
        for span in self.spans:
            if span.unit in wanted and span.name == child_name and span.parent >= 0:
                if self.spans[span.parent].name == parent_name:
                    total += (span.counts or {}).get(key, 0)
        return total

    def write(self, path) -> None:
        """One JSON object per span; ``parent`` is the index of the parent line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "unit": span.unit, "counts": span.counts,
                }) + "\n")
