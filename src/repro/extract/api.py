"""The unified public extraction API: one :func:`extract` for every source.

Mirrors :mod:`repro.api` (the ``prune`` facade) shape for shape::

    from repro import ExtractSpec, extract, load_grammar

    grammar = load_grammar("auction.dtd", root="site")
    spec = ExtractSpec(
        rows="/site/people/person",
        fields={"name": "name/text()", "city": "address/city/text()"},
        null="",
    )
    result = extract("auction.xml", grammar, spec)          # -> records+text
    extract("auction.xml", grammar, spec,
            out="people.csv", format="csv")                 # -> file

``source`` dispatch matches :func:`repro.prune`: markup string, input
path, open text stream, or an (unpruned) event iterable.  ``out=None``
collects both the encoded text and the record dicts; a path streams the
encoded records to a file (removed again on mid-stream failure); an
object with ``.write`` is streamed to.

The projector is inferred from the spec (row path ∪ absolutized field
paths) through the projector cache, keyed by the spec's content
fingerprint — repeated extractions of the same workload skip the static
analysis entirely.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ledger import Ledger

from repro.core.cache import ProjectorCache, resolve_spec_projector
from repro.dtd.grammar import Grammar
from repro.errors import ReproError, StrayDocumentError, ValidationError
from repro.extract.records import FORMATS, record_writer
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.extract.streaming import _extract_stream, _records_pass
from repro.limits import Limits, resolve_limits
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE

__all__ = ["ExtractOptions", "ExtractResult", "extract"]


@dataclass(slots=True, frozen=True)
class ExtractOptions:
    """Behavioural knobs shared by every :func:`extract` form.

    * ``format`` — output encoding, ``"jsonl"`` (default) or ``"csv"``;
    * ``fast`` — use the fused scanner-level pipeline (record assembly
      rides the bulk scan; records are identical to the event pipeline's,
      ``False`` exists for benchmarking and debugging);
    * ``chunk_size`` — read granularity for streaming sources;
    * ``limits`` — resource bounds for the pass, as in
      :class:`repro.api.PruneOptions`.
    """

    format: str = "jsonl"
    fast: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    limits: "Limits | str | None" = None

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ReproError(
                f"unknown extract format {self.format!r} "
                f"(expected one of {FORMATS})"
            )

    # -- wire form (the service protocol ships options as JSON) -----------

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form: only the fields that differ from the defaults
        (``limits`` serializes as a profile name or a bounds dict)."""
        wire: dict[str, Any] = {}
        for name in ("format", "fast", "chunk_size"):
            value = getattr(self, name)
            if value != getattr(DEFAULT_EXTRACT_OPTIONS, name):
                wire[name] = value
        if self.limits is not None:
            wire["limits"] = (
                self.limits if isinstance(self.limits, str) else self.limits.as_dict()
            )
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ExtractOptions":
        """Rebuild from :meth:`to_wire` output (unknown keys rejected so a
        client/server version skew fails loudly, not silently)."""
        fields = dict(wire)
        limits = fields.pop("limits", None)
        if isinstance(limits, dict):
            limits = Limits.from_dict(limits)
        unknown = set(fields) - {"format", "fast", "chunk_size"}
        if unknown:
            raise ValueError(f"unknown extract option(s): {sorted(unknown)}")
        return cls(limits=limits, **fields)


DEFAULT_EXTRACT_OPTIONS = ExtractOptions()


@dataclass(slots=True)
class ExtractResult:
    """What one :func:`extract` call produced.

    ``stats`` always carries the :class:`~repro.extract.stats.ExtractStats`
    counters.  With ``out=None`` both ``records`` (the NULL-substituted
    dicts, column order = declared field order) and ``text`` (the encoded
    JSONL/CSV) are populated; with a path ``out`` only ``output_path``;
    with a stream ``out`` all three stay ``None`` — the encoded records
    went to the caller's sink.
    """

    stats: ExtractStats
    records: "list[dict[str, Any]] | None" = None
    text: str | None = None
    output_path: str | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        if self.records is None:
            raise TypeError(
                "this extract() result carries no records "
                "(output went to a file or stream)"
            )
        return iter(self.records)


def _resolve_extract_options(
    options: ExtractOptions | None,
    format: str | None,
    fast: bool | None,
    chunk_size: int | None,
    *,
    limits: "Limits | str | None" = None,
) -> ExtractOptions:
    resolved = options if options is not None else DEFAULT_EXTRACT_OPTIONS
    overrides: dict[str, Any] = {}
    if format is not None:
        overrides["format"] = format
    if fast is not None:
        overrides["fast"] = fast
    if chunk_size is not None:
        overrides["chunk_size"] = chunk_size
    if limits is not None:
        overrides["limits"] = limits
    return replace(resolved, **overrides) if overrides else resolved


def _is_markup(text: str) -> bool:
    return text.lstrip()[:1] == "<"


def extract(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    spec: ExtractSpec,
    *,
    out: "str | os.PathLike[str] | IO[str] | None" = None,
    options: ExtractOptions | None = None,
    format: str | None = None,
    fast: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    cache: ProjectorCache | None = None,
    ledger: "Ledger | None" = None,
    provenance: "dict[str, Any] | None" = None,
) -> ExtractResult:
    """Extract ``spec``'s records from ``source`` in one streaming pass.

    See the module docstring for the source/out dispatch table.  Returns
    an :class:`ExtractResult`; memory stays O(row depth + field count)
    regardless of source size — no document tree is ever built.

    ``ledger=`` attests the run into a :class:`repro.ledger.Ledger`
    (keyed by grammar/spec/limits fingerprints plus the input content
    hash) and serves previously-recorded results for identical runs from
    stored bytes — by Thm 4.5 byte-identity the served records and text
    equal what a fresh extraction would produce.  ``provenance=`` merges
    extra context (e.g. the grammar's DTD path) into the recorded entry
    so ``repro-xml verify-ledger`` can replay it later.  Event-stream
    sources and open-stream inputs bypass the ledger (their bytes cannot
    be hashed without consuming them).
    """
    opts = _resolve_extract_options(
        options, format, fast, chunk_size, limits=limits
    )
    resolved_limits = resolve_limits(opts.limits)
    if getattr(grammar, "on_stray", None) is not None:
        # Inferred grammars: records from a stray document would be
        # silently wrong (Theorem 4.5 only covers accepted documents),
        # and a verbatim copy has no tabular analogue — so extraction
        # pre-validates and *refuses* strays under either policy.
        source = _prevalidate_inferred(source, grammar)
    projector = resolve_spec_projector(grammar, spec, cache=cache)

    # Event-stream source: prune the events, assemble records from them.
    if not isinstance(source, (str, os.PathLike)) and not hasattr(source, "read"):
        if not hasattr(source, "__iter__"):
            raise TypeError(f"cannot extract from source of type {type(source).__name__}")
        return _extract_from_events(
            source, grammar, projector, spec, opts, resolved_limits, out
        )

    is_path = isinstance(source, os.PathLike) or (
        isinstance(source, str) and not _is_markup(source)
    )
    out_is_path = out is not None and not hasattr(out, "write")

    # Static short-circuit: a row path the satisfiability pre-pass proves
    # empty under the DTD yields zero rows from every grammar-valid
    # document — emit the (empty) encoding without opening the source.
    from repro.static.sat import classify_query

    if not classify_query(grammar, spec.rows, language="xpath").satisfiable:
        return _short_circuit_empty(source, spec, opts, out, is_path, out_is_path)

    led = None
    if ledger is not None:
        from repro.api import _ledger_begin
        from repro.ledger.canonical import hash_canonical

        led = _ledger_begin(
            ledger, source, grammar, opts, resolved_limits, provenance,
            is_path, None,
            workload_fp=hash_canonical(
                {"format": opts.format, "spec": spec.fingerprint()}
            ),
        )
        if led is not None:
            led[1].setdefault("spec", spec.to_wire())
            led[1].setdefault("format", opts.format)
            served = _serve_extract_hit(ledger, led[0], out, out_is_path)
            if served is not None:
                return served

    stats = ExtractStats()
    if isinstance(source, str) and not is_path:
        # "replace": hostile markup may contain lone surrogates, which
        # must surface as the pipeline's structured error (if at all),
        # not as a crash in this bookkeeping line.
        stats.bytes_in = len(source.encode("utf-8", "replace"))

    def run(
        stream_source: "str | IO[str]",
        sink: IO[str],
        collect: "list[dict[str, Any]] | None",
    ) -> None:
        _extract_stream(
            stream_source, sink, grammar, projector, spec,
            format=opts.format, fast=opts.fast, chunk_size=opts.chunk_size,
            stats=stats, limits=resolved_limits, collect=collect,
        )

    def with_source(sink: IO[str], collect: "list[dict[str, Any]] | None") -> None:
        if is_path:
            path = os.fspath(source)  # type: ignore[arg-type]
            stats.bytes_in = os.path.getsize(path)
            with open(path, "r", encoding="utf-8") as handle:
                run(handle, sink, collect)
        else:
            run(source, sink, collect)  # type: ignore[arg-type]

    if out is None:
        collector = io.StringIO()
        records: list[dict[str, Any]] = []
        with_source(collector, records)
        text = collector.getvalue()
        if led is not None:
            from repro.api import _ledger_record

            _ledger_record(ledger, led, "extract", stats, text=text, records=records)
        return ExtractResult(stats=stats, records=records, text=text)
    if out_is_path:
        from repro.projection.streaming import _open_output

        # _open_output keeps the remove-partial-output contract and, when
        # the path cannot even be opened (unwritable), leaves any
        # pre-existing file there untouched.
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            with_source(sink, None)
        if led is not None:
            from repro.api import _ledger_record

            _ledger_record(ledger, led, "extract", stats, output_path=out_path)
        return ExtractResult(stats=stats, output_path=out_path)
    if led is not None:
        from repro.api import _ledger_record
        from repro.ledger.canonical import HashingSink

        tee = HashingSink(tee=out)  # type: ignore[arg-type]
        with_source(tee, None)  # type: ignore[arg-type]
        _ledger_record(ledger, led, "extract", stats, output_hash=tee.hexdigest())
        return ExtractResult(stats=stats)
    with_source(out, None)  # type: ignore[arg-type]
    return ExtractResult(stats=stats)


def _prevalidate_inferred(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
) -> "str | os.PathLike[str]":
    """The extraction half of the inferred-grammar escape hatch: a
    dedicated validation pass over the source before any record is
    assembled.  A stray document raises
    :class:`~repro.errors.StrayDocumentError` regardless of the
    grammar's ``on_stray`` policy (``"copy"`` only makes sense for
    pruning); open streams are buffered so the extraction can replay
    them, event streams are refused (they cannot be replayed)."""
    from repro.dtd.validator import EventValidator
    from repro.xmltree.parser import parse_events

    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    elif not isinstance(source, (str, os.PathLike)):
        raise ReproError(
            "extract() against an inferred grammar needs a replayable "
            "source (markup, a path, or a stream) — not an event stream"
        )
    validator = EventValidator(grammar)
    try:
        if isinstance(source, os.PathLike) or not _is_markup(source):
            with open(os.fspath(source), "r", encoding="utf-8") as handle:
                for event in parse_events(handle):
                    validator.feed(event)
        else:
            for event in parse_events(source):
                validator.feed(event)
        validator.finish()
    except StrayDocumentError:
        raise
    except ValidationError as exc:
        from repro import obs

        obs.count("schema.strays")
        raise StrayDocumentError(str(exc), exc.node_id) from exc
    return source


def _serve_extract_hit(
    ledger: "Ledger",
    key: "tuple[str, str, str, str]",
    out: "str | os.PathLike[str] | IO[str] | None",
    out_is_path: bool,
) -> ExtractResult | None:
    """Serve a recorded, hash-verified extraction instead of re-scanning
    (the extract twin of :func:`repro.api._serve_prune_hit`): the stored
    records/text are byte-identical to a fresh run's by Thm 4.5."""
    hit = ledger.fetch(key, need_records=out is None)
    if hit is None:
        return None
    entry, payload = hit
    from repro.ledger.ledger import decode_stats

    stats = decode_stats(entry.stats)
    if not isinstance(stats, ExtractStats):  # pragma: no cover - defensive
        return None
    text = payload["text"]
    if out is None:
        return ExtractResult(
            stats=stats, records=list(payload["records"]), text=text
        )
    if out_is_path:
        from repro.projection.streaming import _open_output

        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            sink.write(text)
        return ExtractResult(stats=stats, output_path=out_path)
    out.write(text)  # type: ignore[union-attr]
    return ExtractResult(stats=stats)


def _short_circuit_empty(
    source: "str | os.PathLike[str] | IO[str]",
    spec: ExtractSpec,
    opts: ExtractOptions,
    out: "str | os.PathLike[str] | IO[str] | None",
    is_path: bool,
    out_is_path: bool,
) -> ExtractResult:
    """Answer a provably-row-less workload without opening the document:
    the encoded form of zero records (nothing for JSONL, the bare header
    row for CSV), byte-identical to what the full scan emits when the
    row path matches nothing."""
    from repro import obs

    stats = ExtractStats()
    if is_path:
        stats.bytes_in = os.path.getsize(os.fspath(source))  # type: ignore[arg-type]
    elif isinstance(source, str):
        stats.bytes_in = len(source.encode("utf-8", "replace"))
    obs.count("static.short_circuits")

    def emit(sink: IO[str]) -> None:
        record_writer(opts.format, spec, sink).start()

    if out is None:
        collector = io.StringIO()
        emit(collector)
        text = collector.getvalue()
        stats.bytes_out = len(text.encode("utf-8"))
        return ExtractResult(stats=stats, records=[], text=text)
    if out_is_path:
        from repro.projection.streaming import _open_output

        out_path = os.fspath(out)  # type: ignore[arg-type]
        counter = io.StringIO()
        with _open_output(out_path) as sink:
            emit(counter)
            sink.write(counter.getvalue())
        stats.bytes_out = len(counter.getvalue().encode("utf-8"))
        return ExtractResult(stats=stats, output_path=out_path)
    counter = io.StringIO()
    emit(counter)
    out.write(counter.getvalue())  # type: ignore[union-attr]
    stats.bytes_out = len(counter.getvalue().encode("utf-8"))
    return ExtractResult(stats=stats)


def _extract_from_events(
    source: Iterable[Event],
    grammar: Grammar,
    projector: frozenset[str],
    spec: ExtractSpec,
    opts: ExtractOptions,
    resolved_limits: Limits,
    out: "str | os.PathLike[str] | IO[str] | None",
) -> ExtractResult:
    """Extraction over an already-parsed event stream (``fast`` is moot:
    event input already paid for parsing)."""
    from repro.obs import get_tracer
    from repro.projection.streaming import (
        StreamingPruner,
        _GovernedSink,
        _open_output,
    )

    stats = ExtractStats()
    guard = resolved_limits.guard()

    def run(sink: IO[str], collect: "list[dict[str, Any]] | None") -> None:
        tracer = get_tracer()
        with tracer.span("extract", mode="events", format=opts.format) as span:
            governed = _GovernedSink(sink, guard)
            pruned = StreamingPruner(grammar, projector, guard=guard).process(source)
            _records_pass(
                pruned, spec, record_writer(opts.format, spec, governed),
                stats, collect,
            )
            stats.bytes_out = governed.written
            span.merge_counters(stats.as_counters())

    if out is None:
        collector = io.StringIO()
        records: list[dict[str, Any]] = []
        run(collector, records)
        return ExtractResult(stats=stats, records=records, text=collector.getvalue())
    if not hasattr(out, "write"):
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            run(sink, None)
        return ExtractResult(stats=stats, output_path=out_path)
    run(out, None)  # type: ignore[arg-type]
    return ExtractResult(stats=stats)
