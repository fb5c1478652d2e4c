"""In-memory span recording for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around its calls into each
layer of the program; nothing inside the program is instrumented.  Each
span carries a name, start and end (``time.perf_counter`` seconds), the
id of the span open around it on the same thread, and a request id shared
by every span of one candidate or one service request.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Tracer:
    """Collects spans in memory; :meth:`write_jsonl` dumps them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: work counts recorded at the same boundaries as the spans
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: str | None = None) -> _Open:
        """``with tracer.span("layer.op"): ...`` — the request id defaults
        to that of the enclosing span."""
        return _Open(self, name, request)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class _Open:
    __slots__ = ("tracer", "name", "request", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, request: str | None):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self) -> _Open:
        stack = self.tracer._stack()
        if stack:
            self.parent, inherited = stack[-1]
            if self.request is None:
                self.request = inherited
        else:
            self.parent = None
        self.id = next(self.tracer._ids)
        stack.append((self.id, self.request))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, self.request)
        )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time (seconds)."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = totals[span.name]
        row["count"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.id]
    return dict(totals)
