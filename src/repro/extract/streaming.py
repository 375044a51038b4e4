"""Streaming record assembly — extraction fused into the pruning scan.

The paper's Definition 2.7 guarantees pruning is a single bufferless
one-pass traversal; this module rides record emission on that same pass.
The projector inferred from an :class:`~repro.extract.spec.ExtractSpec`
keeps exactly the row spine and the field subtrees, so the pruned event
stream :meth:`~repro.projection.fastpath.FastPruner.events` produces *is*
the tabular workload: :func:`iter_records` folds it into record dicts
with O(row depth + field count) state — no document tree, no second
pass.

Two stages, matching the spec's split:

* **row filter** — a tag stack tracks the absolute path of open kept
  elements; a row opens when the stack equals the row path (exact match,
  so a same-named element elsewhere in the projected stream never
  triggers a row);
* **field supply** — inside a row, each field waits for the *first*
  element matching its row-relative path, then captures its attribute,
  its direct text, or its whole-subtree text, and goes dormant.

As for markup pruning, ``fast=False`` selects the event pipeline
(``parse_events`` → :class:`~repro.projection.streaming.StreamingPruner`)
instead; the differential tests hold both paths record-identical.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

from repro.dtd.grammar import Grammar
from repro.errors import EncodingError
from repro.extract.records import record_writer
from repro.extract.spec import ExtractSpec, FieldPath
from repro.extract.stats import ExtractStats
from repro.obs import get_tracer
from repro.projection.fastpath import FastPruner
from repro.projection.streaming import StreamingPruner, _GovernedSink
from repro.xmltree.events import Characters, EndElement, Event, StartElement
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE, Source
from repro.xmltree.parser import parse_events

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import Limits

__all__ = ["iter_records"]

_PENDING, _CAPTURING, _DONE = 0, 1, 2


class _FieldState:
    """Per-row capture state for one field (see module docstring)."""

    __slots__ = ("field", "phase", "depth", "subtree", "parts", "value")

    def __init__(self, field: FieldPath, row_event: StartElement) -> None:
        self.field = field
        self.depth = 0
        self.subtree = False
        self.parts: list[str] | None = None
        self.value: str | None = None
        if field.steps:
            self.phase = _PENDING
        elif field.kind == "attribute":
            # The row element's own attribute resolves immediately.
            self.value = row_event.attributes.get(field.attribute)
            self.phase = _DONE
        else:
            # "text()" on the row element: capture its direct text for
            # the whole row span (finished by the row's end tag).
            self.phase = _CAPTURING
            self.parts = []

    def on_start(self, rel: tuple[str, ...], event: StartElement) -> None:
        if self.phase is not _PENDING or self.field.steps != rel:
            return
        if self.field.kind == "attribute":
            self.value = event.attributes.get(self.field.attribute)
            self.phase = _DONE
        else:
            self.phase = _CAPTURING
            self.depth = len(rel)
            self.subtree = self.field.kind == "value"
            self.parts = []

    def on_text(self, rel_depth: int, text: str) -> None:
        if self.phase is not _CAPTURING:
            return
        if rel_depth == self.depth or (self.subtree and rel_depth > self.depth):
            self.parts.append(text)

    def on_end(self, rel_depth: int) -> None:
        # The captured element closes (depth 0 is the row itself, closed
        # by the row handler via finish()).
        if self.phase is _CAPTURING and self.depth == rel_depth and rel_depth:
            self.value = "".join(self.parts)
            self.phase = _DONE

    def finish(self) -> str | None:
        if self.phase is _DONE:
            return self.value
        if self.phase is _CAPTURING:  # row-level text() capture
            return "".join(self.parts)
        return None


def iter_records(
    events: Iterable[Event], spec: ExtractSpec
) -> Iterator[dict[str, str | None]]:
    """Fold a (pruned) event stream into record dicts, one per row
    element, fields in declared order; a missing field is ``None`` (NULL
    substitution happens in the encoder, not here)."""
    row_steps = list(spec.row_steps())
    row_depth = len(row_steps)
    fields = spec.compiled_fields()
    stack: list[str] = []
    states: list[_FieldState] | None = None
    for event in events:
        if isinstance(event, StartElement):
            stack.append(event.tag)
            if states is None:
                if len(stack) == row_depth and stack == row_steps:
                    states = [_FieldState(field, event) for field in fields]
            else:
                rel = tuple(stack[row_depth:])
                for state in states:
                    state.on_start(rel, event)
        elif isinstance(event, EndElement):
            if states is not None:
                if len(stack) == row_depth:
                    yield {
                        state.field.name: state.finish() for state in states
                    }
                    states = None
                else:
                    rel_depth = len(stack) - row_depth
                    for state in states:
                        state.on_end(rel_depth)
            stack.pop()
        elif isinstance(event, Characters):
            if states is not None:
                rel_depth = len(stack) - row_depth
                for state in states:
                    state.on_text(rel_depth, event.text)


# -- internal pipelines (used by the repro.extract facade) --------------------


def _extract_stream(
    source: "Source | Iterable[Event]",
    sink: IO[str],
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    spec: ExtractSpec,
    *,
    format: str = "jsonl",
    fast: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stats: ExtractStats | None = None,
    limits: "Limits | None" = None,
    collect: "list[dict[str, Any]] | None" = None,
    parsed: bool = False,
) -> ExtractStats:
    """Parse → prune → assemble → encode with constant memory.

    ``source`` is XML text or a text-mode file object — or, with
    ``parsed``, an already-parsed (unpruned) event iterable, for which
    ``fast`` is moot; ``sink`` receives encoded JSONL/CSV lines.
    ``collect`` (a list) additionally receives the NULL-substituted
    record dicts.  Mirrors
    :func:`repro.projection.streaming._prune_stream` for limits and
    encoding-error mapping.
    """
    if stats is None:
        stats = ExtractStats()
    guard = limits.guard() if limits is not None else None
    fused = fast and not parsed
    tracer = get_tracer()
    with tracer.span(
        "extract", mode="fast" if fused else "events", format=format
    ) as span:
        governed = _GovernedSink(sink, guard)
        try:
            if fused:
                events = FastPruner(grammar, projector, guard=guard).events(
                    source, chunk_size
                )
            elif parsed:
                # No guarded parser upstream: the pruner checks depth and
                # token sizes itself.
                events = StreamingPruner(grammar, projector, guard=guard).process(
                    source
                )
            else:
                events = StreamingPruner(grammar, projector).process(
                    parse_events(source, chunk_size, guard=guard)
                )
            writer = record_writer(format, spec, governed)
            writer.start()
            width = len(spec.fields)
            for record in iter_records(events, spec):
                row = writer.write(record)
                nulls = sum(1 for value in record.values() if value is None)
                stats.rows_out += 1
                stats.nulls_out += nulls
                stats.fields_out += width - nulls
                if collect is not None:
                    collect.append(row)
            stats.bytes_out = governed.written
        except UnicodeError as exc:
            raise EncodingError(str(exc)) from exc
        span.merge_counters(stats.as_counters())
    return stats
