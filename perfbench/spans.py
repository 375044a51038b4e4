"""In-memory span recording for the traced run.

The benchmark wraps each call it makes into a ``repro`` layer in a span:
name, start, end, parent.  Spans opened while another is open on the same
thread are its children; every span of one operation carries the id of
that operation's root span.  Spans stay in memory while the run measures
and are written out once, at the end.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (the union of the children's
intervals, clipped to the parent), so nested layers are never counted
twice.

Untraced runs use :data:`OFF`, whose spans cost one method call and
record nothing; the same operation code runs either way.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    thread: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("recorder", "name", "new_op", "span")

    def __init__(self, recorder: "Recorder", name: str, new_op: bool) -> None:
        self.recorder = recorder
        self.name = name
        self.new_op = new_op

    def __enter__(self) -> Span:
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack and not self.new_op else None
        span_id = next(recorder._ids)
        span = Span(
            span_id=span_id,
            parent=parent.span_id if parent else None,
            op=parent.op if parent else span_id,
            name=self.name,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
        )
        stack.append(span)
        self.span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self.span
        span.end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(span)


class Recorder:
    """Collects spans; :meth:`operation` opens a root span with a fresh
    operation id, :meth:`span` a child of the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def operation(self, name: str) -> _Open:
        return _Open(self, name, new_op=True)

    def span(self, name: str) -> _Open:
        return _Open(self, name, new_op=False)


class _Null:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _Off:
    """The recorder of untraced runs: no spans, no clock reads."""

    _NULL = _Null()

    def operation(self, name: str) -> _Null:
        return self._NULL

    def span(self, name: str) -> _Null:
        return self._NULL


OFF = _Off()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time in seconds."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.seconds - covered
    return result


def write_jsonl(recorders: dict[str, Recorder], path: str) -> None:
    """One JSON object per span, in start order, with its self time;
    ``source`` names the recorder (ids are unique within one)."""
    with open(path, "w", encoding="utf-8") as handle:
        for source, recorder in recorders.items():
            selfs = self_times(recorder.spans)
            for span in sorted(recorder.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "source": source, "op": span.op, "id": span.span_id,
                    "parent": span.parent, "name": span.name, "thread": span.thread,
                    "start": span.start, "end": span.end,
                    "self": selfs[span.span_id],
                }) + "\n")


def self_by_name(spans: list[Span]) -> dict[str, list[float]]:
    """Span name -> self time of each span of that name (seconds)."""
    selfs = self_times(spans)
    grouped: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(selfs[span.span_id])
    return grouped


def self_by_op(spans: list[Span], name: str) -> list[float]:
    """Per operation, the summed self time of the spans named ``name``
    (operations without such a span contribute nothing)."""
    selfs = self_times(spans)
    per_op: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name == name:
            per_op[span.op] += selfs[span.span_id]
    return list(per_op.values())


def self_by_module(spans: list[Span]) -> dict[str, float]:
    """Total self time per module (the span name's first component); the
    operations' root spans, the benchmark's own glue, count as
    ``bench``."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        module = span.name.split(".")[0] if span.parent is not None else "bench"
        totals[module] += selfs[span.span_id]
    return totals
