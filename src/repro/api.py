"""The unified public pruning API: one :func:`prune` for every source.

Historically the streaming pruner grew one entry point per source kind —
``prune_string``, ``prune_file``, ``prune_stream`` and ``prune_events`` —
each with its own positional-flag signature.  This module collapses them
behind a single keyword-consistent facade::

    from repro import prune

    result = prune(xml_text, grammar, projector)          # text  -> text
    result = prune("in.xml", grammar, projector,
                   out="pruned.xml", validate=True)       # file  -> file
    result = prune(handle, grammar, projector, out=sink)  # stream-> stream
    for event in prune(events, grammar, projector):       # events-> events
        ...

``source`` dispatch: a string that (after leading whitespace) starts with
``<`` is XML markup, any other string or :class:`os.PathLike` is an input
path, an object with ``.read`` is a text stream, and any other iterable is
an event stream.  ``out`` mirrors this: ``None`` collects text (or, for an
event source, returns the pruned event iterator), a path writes a file
(removed again if pruning fails mid-stream), and an object with ``.write``
is streamed to.

Options shared by every form live in :class:`PruneOptions`; the common
ones (``fast``, ``validate``) are also accepted directly as keywords and
override the options object when given.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ledger uses obs)
    from repro.ledger import Ledger

from repro import obs
from repro.dtd.grammar import Grammar
from repro.errors import ReproError, StrayDocumentError, ValidationError
from repro.limits import Limits, resolve_limits
from repro.projection.stats import PruneStats
from repro.projection.streaming import (
    _open_output,
    _prune_events,
    _prune_file,
    _prune_stream,
)
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE

__all__ = ["PruneOptions", "PruneResult", "prune"]


@dataclass(slots=True, frozen=True)
class PruneOptions:
    """Behavioural knobs shared by every :func:`prune` form.

    * ``fast`` — use the fused scanner-level pipeline (bulk tag scanning,
      bulk skipping of pruned regions).  Output is byte-identical to the
      event pipeline; ``False`` exists for benchmarking and debugging.
    * ``validate`` — run DTD validation in the same pass (forces the event
      pipeline: the validator must see every event).
    * ``prune_attributes`` — filter attributes not kept by the projector.
    * ``chunk_size`` — read granularity for streaming sources.
    * ``limits`` — resource bounds for the pass: a
      :class:`~repro.limits.Limits`, a profile name (``"strict"``,
      ``"default"``, ``"off"``), or ``None`` for the default profile.
      Violations raise :class:`~repro.errors.LimitExceeded` /
      :class:`~repro.errors.DeadlineExceeded`.  Both pipelines charge
      tokens by the same rule, so ``fast`` never changes the verdict on
      a tag.
    """

    fast: bool = True
    validate: bool = False
    prune_attributes: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    limits: "Limits | str | None" = None

    # -- wire form (the service protocol ships options as JSON) -----------

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form: only the fields that differ from the defaults
        (``limits`` serializes as a profile name or a bounds dict)."""
        wire: dict[str, Any] = {}
        for name in ("fast", "validate", "prune_attributes", "chunk_size"):
            value = getattr(self, name)
            if value != getattr(DEFAULT_OPTIONS, name):
                wire[name] = value
        if self.limits is not None:
            wire["limits"] = (
                self.limits if isinstance(self.limits, str) else self.limits.as_dict()
            )
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "PruneOptions":
        """Rebuild from :meth:`to_wire` output (unknown keys rejected so a
        client/server version skew fails loudly, not silently)."""
        fields = dict(wire)
        limits = fields.pop("limits", None)
        if isinstance(limits, dict):
            limits = Limits.from_dict(limits)
        unknown = set(fields) - {"fast", "validate", "prune_attributes", "chunk_size"}
        if unknown:
            raise ValueError(f"unknown prune option(s): {sorted(unknown)}")
        return cls(limits=limits, **fields)


DEFAULT_OPTIONS = PruneOptions()


@dataclass(slots=True)
class PruneResult:
    """What one :func:`prune` call produced.

    Exactly one of ``text`` / ``events`` / ``output_path`` is populated
    (``output_path`` also stays ``None`` when ``out`` was an open stream —
    the markup went to the caller's sink).  ``stats`` always carries the
    :class:`~repro.projection.stats.PruneStats` counters; for an event
    source they finish filling only once the iterator is exhausted.
    """

    stats: PruneStats
    text: str | None = None
    events: Iterator[Event] | None = None
    output_path: str | None = None
    #: True when the inferred-grammar escape hatch fired with
    #: ``on_stray="copy"``: the output is the source verbatim, not a
    #: prune (the document strayed from the inferred grammar).
    stray: bool = False

    def __iter__(self) -> Iterator[Event]:
        if self.events is None:
            raise TypeError("this prune() result is not an event stream")
        return self.events


def _resolve_options(
    options: PruneOptions | None,
    fast: bool | None,
    validate: bool | None,
    prune_attributes: bool | None,
    chunk_size: int | None,
    *,
    limits: "Limits | str | None" = None,
) -> PruneOptions:
    resolved = options if options is not None else DEFAULT_OPTIONS
    overrides: dict[str, Any] = {}
    if fast is not None:
        overrides["fast"] = fast
    if validate is not None:
        overrides["validate"] = validate
    if prune_attributes is not None:
        overrides["prune_attributes"] = prune_attributes
    if chunk_size is not None:
        overrides["chunk_size"] = chunk_size
    if limits is not None:
        overrides["limits"] = limits
    return replace(resolved, **overrides) if overrides else resolved


def _is_markup(text: str) -> bool:
    return text.lstrip()[:1] == "<"


def prune(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    *,
    out: "str | os.PathLike[str] | IO[str] | None" = None,
    options: PruneOptions | None = None,
    fast: bool | None = None,
    validate: bool | None = None,
    prune_attributes: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    ledger: "Ledger | None" = None,
    provenance: dict[str, Any] | None = None,
) -> PruneResult:
    """Prune ``source`` down to the nodes the ``projector`` keeps.

    See the module docstring for the source/out dispatch table.  Returns a
    :class:`PruneResult`; pruning streams throughout, so memory stays
    O(document depth) regardless of source size.

    ``ledger`` opts this run into the attestation ledger
    (:mod:`repro.ledger`): the run is keyed by content fingerprints
    (grammar, projector + attribute flag, limits, input bytes) and its
    output hash recorded (``ledger.records``).  A key already recorded
    with retained output bytes is a *dedup hit* (``ledger.hits``): the
    stored bytes — re-verified against the recorded hash — are served
    without scanning the document, and Thm 4.5 byte-identity means they
    equal what the scan would have produced.  ``provenance`` adds
    caller-known replay context to the entry (e.g. ``{"grammar":
    {"dtd_path": ..., "root": ...}}``).  Event sources and non-rewindable
    streams cannot be content-hashed and bypass the ledger; a
    ``validate=True`` run records but is never dedup-served (validation
    must see the document).

    ``projector`` also accepts a full :class:`~repro.core.pipeline.
    AnalysisResult` (what :func:`repro.analyze` returns).  That unlocks
    the static short-circuit: a workload the satisfiability pre-pass
    proved empty (:attr:`~repro.core.pipeline.AnalysisResult.
    provably_empty`) is answered with the bare root element *without
    opening the document* — for grammar-valid sources this is exactly
    what the full pass would have produced.  (Prolog-level comments, the
    one pre-root construct the streaming pruner echoes, are dropped; and
    ``validate=True``, ``prune_attributes=False`` or an event source
    disable the shortcut, because those contracts need the real pass.)

    Pruning against an :class:`~repro.schema.infer.InferredGrammar`
    always validates (full validation against a dataguide grammar *is*
    the stray check) and applies the grammar's ``on_stray`` escape-hatch
    policy when the document lies outside the inferred language:
    ``"copy"`` emits the source verbatim (``result.stray`` is set),
    ``"error"`` raises :class:`~repro.errors.StrayDocumentError`.
    Theorem 4.5 soundness only covers accepted documents, so a stray is
    never pruned.
    """
    analysis = None
    if hasattr(projector, "projector") and hasattr(projector, "provably_empty"):
        analysis = projector
        projector = analysis.projector

    opts = _resolve_options(
        options, fast, validate, prune_attributes, chunk_size,
        limits=limits,
    )
    if getattr(grammar, "on_stray", None) is not None:
        return _prune_inferred(
            source, grammar, projector,
            analysis=analysis, out=out, opts=opts,
            ledger=ledger, provenance=provenance,
        )
    return _prune_core(
        source, grammar, projector,
        analysis=analysis, out=out, opts=opts,
        ledger=ledger, provenance=provenance,
    )


def _prune_core(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    *,
    analysis: Any,
    out: "str | os.PathLike[str] | IO[str] | None",
    opts: PruneOptions,
    ledger: "Ledger | None",
    provenance: dict[str, Any] | None,
) -> PruneResult:
    """The dispatch-and-run body shared by the plain facade and the
    inferred-grammar escape hatch (which forces validation and maps
    validation failures to its policy before/after calling this)."""
    resolved_limits = resolve_limits(opts.limits)

    # Event-stream source: transform iterator to iterator.
    if not isinstance(source, (str, os.PathLike)) and not hasattr(source, "read"):
        if not hasattr(source, "__iter__"):
            raise TypeError(f"cannot prune source of type {type(source).__name__}")
        if out is not None:
            raise ReproError(
                "prune() of an event stream returns events; "
                "serialize them explicitly instead of passing out="
            )
        # (``fast`` is moot here: event input already paid for parsing.)
        stats = PruneStats()
        events = _prune_events(
            source, grammar, projector,
            validate=opts.validate, stats=stats,
            prune_attributes=opts.prune_attributes,
            guard=resolved_limits.guard(),
        )
        return PruneResult(stats=stats, events=events)

    is_path = isinstance(source, os.PathLike) or (
        isinstance(source, str) and not _is_markup(source)
    )
    out_is_path = out is not None and not hasattr(out, "write")

    if (
        analysis is not None
        and analysis.provably_empty
        and not opts.validate
        and opts.prune_attributes
    ):
        return _short_circuit_empty(source, grammar, out, is_path, out_is_path)

    led = None
    if ledger is not None:
        led = _ledger_begin(
            ledger, source, grammar, opts, resolved_limits, provenance,
            is_path, projector,
        )
        if led is not None and not opts.validate:
            served = _serve_prune_hit(ledger, led[0], out, out_is_path)
            if served is not None:
                return served

    # File -> file keeps the remove-partial-output-on-error contract.
    if is_path and out_is_path:
        stats = _prune_file(
            os.fspath(source), os.fspath(out), grammar, projector,  # type: ignore[arg-type]
            validate=opts.validate, fast=opts.fast,
            prune_attributes=opts.prune_attributes, chunk_size=opts.chunk_size,
            limits=resolved_limits,
        )
        if led is not None:
            _ledger_record(ledger, led, "prune", stats,
                           output_path=os.fspath(out))  # type: ignore[arg-type]
        return PruneResult(stats=stats, output_path=os.fspath(out))  # type: ignore[arg-type]

    # Everything else goes through the stream core, with the source
    # opened/measured and the sink collected as needed.
    stats = PruneStats()
    if isinstance(source, str) and not is_path:
        # "replace": hostile markup may contain lone surrogates, which
        # must surface as the pipeline's structured error (if at all),
        # not as a crash in this bookkeeping line.
        stats.bytes_in = len(source.encode("utf-8", "replace"))

    def run(stream_source: "str | IO[str]", sink: IO[str]) -> None:
        _prune_stream(
            stream_source, sink, grammar, projector,
            validate=opts.validate, fast=opts.fast, chunk_size=opts.chunk_size,
            prune_attributes=opts.prune_attributes, stats=stats,
            limits=resolved_limits,
        )

    def with_source(sink: IO[str]) -> None:
        if is_path:
            path = os.fspath(source)  # type: ignore[arg-type]
            stats.bytes_in = os.path.getsize(path)
            with open(path, "r", encoding="utf-8") as handle:
                run(handle, sink)
        else:
            run(source, sink)  # type: ignore[arg-type]

    if out is None:
        collector = io.StringIO()
        with_source(collector)
        text = collector.getvalue()
        if led is not None:
            _ledger_record(ledger, led, "prune", stats, text=text)
        return PruneResult(stats=stats, text=text)
    if out_is_path:
        # _open_output keeps the remove-partial-output contract and, when
        # the path cannot even be opened (unwritable), leaves any
        # pre-existing file there untouched.
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            with_source(sink)
        if led is not None:
            _ledger_record(ledger, led, "prune", stats, output_path=out_path)
        return PruneResult(stats=stats, output_path=out_path)
    if led is not None:
        # Hash the stream output as it passes; the bytes themselves go to
        # the caller's sink, so the entry attests but cannot dedup-serve.
        from repro.ledger.canonical import HashingSink

        tee = HashingSink(tee=out)
        with_source(tee)  # type: ignore[arg-type]
        _ledger_record(ledger, led, "prune", stats,
                       output_hash=tee.hexdigest())
        return PruneResult(stats=stats)
    with_source(out)  # type: ignore[arg-type]
    return PruneResult(stats=stats)


# -- the inferred-grammar escape hatch ---------------------------------------


def _prune_inferred(
    source: "str | os.PathLike[str] | IO[str] | Iterable[Event]",
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    *,
    analysis: Any,
    out: "str | os.PathLike[str] | IO[str] | None",
    opts: PruneOptions,
    ledger: "Ledger | None",
    provenance: dict[str, Any] | None,
) -> PruneResult:
    """Prune against an inferred grammar: validate-and-prune in one
    pass, and apply the grammar's ``on_stray`` policy on a violation.

    Validation is forced on because for a dataguide grammar it *is* the
    stray check: the content models are starred unions of everything
    observed in the sample, so the first event outside them (an unseen
    child, text where none was seen, an unseen attribute) is exactly the
    first point where the document strays.  Forcing validation also
    forces the event pipeline — a stray inside a bulk-skipped pruned
    region would be invisible to the fused fast path.
    """
    opts = replace(opts, validate=True)
    policy = grammar.on_stray  # type: ignore[attr-defined]

    is_stream = hasattr(source, "read")
    is_events = (
        not isinstance(source, (str, os.PathLike)) and not is_stream
    )
    if is_events:
        if policy == "copy":
            raise ReproError(
                'on_stray="copy" cannot replay an event stream; '
                "prune the markup/path/stream form instead"
            )
        result = _prune_core(
            source, grammar, projector,
            analysis=analysis, out=out, opts=opts,
            ledger=ledger, provenance=provenance,
        )
        assert result.events is not None
        result.events = _stray_guard(result.events)
        return result

    if policy == "copy":
        if is_stream:
            # Buffer so the copy fallback can replay the source.
            source = source.read()  # type: ignore[union-attr]
        out_is_stream = out is not None and hasattr(out, "write")
        # A caller-owned sink cannot be un-written, so buffer the prune
        # and only forward it once the document fully validated.
        sink = io.StringIO() if out_is_stream else out
        try:
            result = _prune_core(
                source, grammar, projector,
                analysis=analysis, out=sink, opts=opts,
                ledger=ledger, provenance=provenance,
            )
        except ValidationError:
            obs.count("schema.strays")
            return _copy_verbatim(source, out)
        if out_is_stream:
            out.write(sink.getvalue())  # type: ignore[union-attr]
        return result

    try:
        return _prune_core(
            source, grammar, projector,
            analysis=analysis, out=out, opts=opts,
            ledger=ledger, provenance=provenance,
        )
    except StrayDocumentError:
        raise
    except ValidationError as exc:
        obs.count("schema.strays")
        raise StrayDocumentError(str(exc), exc.node_id) from exc


def _stray_guard(events: Iterator[Event]) -> Iterator[Event]:
    """Re-raise lazy validation failures of an event-source prune as the
    structured stray refusal."""
    try:
        for event in events:
            yield event
    except StrayDocumentError:
        raise
    except ValidationError as exc:
        obs.count("schema.strays")
        raise StrayDocumentError(str(exc), exc.node_id) from exc


def _copy_verbatim(
    source: "str | os.PathLike[str]",
    out: "str | os.PathLike[str] | IO[str] | None",
) -> PruneResult:
    """The ``on_stray="copy"`` fallback: the source, byte for byte.  A
    verbatim copy preserves every query answer, so it is always sound —
    just not pruned.  ``result.stray`` marks it."""
    is_path = isinstance(source, os.PathLike) or not _is_markup(source)
    stats = PruneStats()
    if is_path:
        path = os.fspath(source)
        stats.bytes_in = os.path.getsize(path)
        stats.bytes_out = stats.bytes_in
        if out is not None and not hasattr(out, "write"):
            out_path = os.fspath(out)  # type: ignore[arg-type]
            with open(path, "r", encoding="utf-8") as handle:
                with _open_output(out_path) as sink:
                    while True:
                        chunk = handle.read(DEFAULT_CHUNK_SIZE)
                        if not chunk:
                            break
                        sink.write(chunk)
            return PruneResult(stats=stats, output_path=out_path, stray=True)
        with open(path, "r", encoding="utf-8") as handle:
            if out is not None:
                while True:
                    chunk = handle.read(DEFAULT_CHUNK_SIZE)
                    if not chunk:
                        break
                    out.write(chunk)  # type: ignore[union-attr]
                return PruneResult(stats=stats, stray=True)
            text = handle.read()
        return PruneResult(stats=stats, text=text, stray=True)
    text = source  # type: ignore[assignment]
    stats.bytes_in = len(text.encode("utf-8", "replace"))
    stats.bytes_out = stats.bytes_in
    if out is None:
        return PruneResult(stats=stats, text=text, stray=True)
    if not hasattr(out, "write"):
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            sink.write(text)
        return PruneResult(stats=stats, output_path=out_path, stray=True)
    out.write(text)  # type: ignore[union-attr]
    return PruneResult(stats=stats, stray=True)


def _short_circuit_empty(
    source: "str | os.PathLike[str] | IO[str]",
    grammar: Grammar,
    out: "str | os.PathLike[str] | IO[str] | None",
    is_path: bool,
    out_is_path: bool,
) -> PruneResult:
    """Answer a provably-empty workload without opening the document.

    The pre-pass established that the (filtered) union projector is the
    bare root, so for any grammar-valid source the pruned markup is
    exactly ``<root/>``.  ``bytes_in`` is still measured (by size, not by
    reading); the scan counters stay zero — nothing was scanned, which is
    the whole point.
    """
    tag = grammar.tag_of(grammar.root) or grammar.root
    text = f"<{tag}/>"
    stats = PruneStats()
    stats.elements_out = 1
    stats.distinct_tags_out.add(tag)
    stats.bytes_out = len(text.encode("utf-8"))
    if is_path:
        stats.bytes_in = os.path.getsize(os.fspath(source))  # type: ignore[arg-type]
    elif isinstance(source, str):
        stats.bytes_in = len(source.encode("utf-8", "replace"))
    obs.count("static.short_circuits")
    if out is None:
        return PruneResult(stats=stats, text=text)
    if out_is_path:
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            sink.write(text)
        return PruneResult(stats=stats, output_path=out_path)
    out.write(text)  # type: ignore[union-attr]
    return PruneResult(stats=stats)


# -- attestation-ledger plumbing (shared with the extract facade) -----------


def _ledger_begin(
    ledger: "Ledger",
    source: "str | os.PathLike[str] | IO[str]",
    grammar: Grammar,
    opts: PruneOptions,
    resolved_limits: Limits,
    provenance: dict[str, Any] | None,
    is_path: bool,
    projector: "frozenset[str] | set[str] | None",
    workload_fp: str | None = None,
) -> "tuple[tuple[str, str, str, str], dict[str, Any]] | None":
    """Fingerprint this run for the ledger: the key tuple plus the
    auto-built provenance.  ``None`` for sources that cannot be hashed
    without consuming them (open streams) — those runs bypass the ledger
    rather than recording an unverifiable entry."""
    from repro.core.cache import grammar_fingerprint, projector_fingerprint
    from repro.ledger.canonical import hash_file, hash_text, limits_fingerprint

    if is_path:
        input_hash = hash_file(os.fspath(source))  # type: ignore[arg-type]
    elif isinstance(source, str):
        input_hash = hash_text(source)
    else:
        return None
    if workload_fp is None:
        assert projector is not None
        workload_fp = projector_fingerprint(projector, opts.prune_attributes)
    key = (
        grammar_fingerprint(grammar),
        workload_fp,
        limits_fingerprint(resolved_limits),
        input_hash,
    )
    prov: dict[str, Any] = {
        "source": os.path.abspath(os.fspath(source)) if is_path else None,  # type: ignore[arg-type]
    }
    if projector is not None:
        prov["projector"] = sorted(projector)
        prov["prune_attributes"] = opts.prune_attributes
    if provenance:
        for name, value in provenance.items():
            prov.setdefault(name, value)
    return key, prov


def _serve_prune_hit(
    ledger: "Ledger",
    key: "tuple[str, str, str, str]",
    out: "str | os.PathLike[str] | IO[str] | None",
    out_is_path: bool,
) -> PruneResult | None:
    """Serve a recorded, hash-verified result instead of scanning.  The
    stats come back ``==`` to the recorded fresh run's, and the bytes are
    the recorded bytes — by Thm 4.5 byte-identity, exactly the bytes a
    fresh prune of the same (grammar, projector, input) would emit."""
    hit = ledger.fetch(key)
    if hit is None:
        return None
    entry, payload = hit
    from repro.ledger.ledger import decode_stats

    stats = decode_stats(entry.stats)
    if not isinstance(stats, PruneStats):  # pragma: no cover - defensive
        return None
    text = payload["text"]
    if out is None:
        return PruneResult(stats=stats, text=text)
    if out_is_path:
        out_path = os.fspath(out)  # type: ignore[arg-type]
        with _open_output(out_path) as sink:
            sink.write(text)
        return PruneResult(stats=stats, output_path=out_path)
    out.write(text)  # type: ignore[union-attr]
    return PruneResult(stats=stats)


def _ledger_record(
    ledger: "Ledger",
    led: "tuple[tuple[str, str, str, str], dict[str, Any]]",
    op: str,
    stats: Any,
    *,
    text: str | None = None,
    output_path: str | None = None,
    output_hash: str | None = None,
    records: "list[dict[str, Any]] | None" = None,
    extra_provenance: dict[str, Any] | None = None,
) -> None:
    """Append the attestation for a completed run (and retain the output
    bytes for dedup when they are available without a re-read cost or
    recoverable from the written file)."""
    from repro.ledger.canonical import hash_file, hash_records, hash_text
    from repro.ledger.ledger import encode_stats

    key, prov = led
    if extra_provenance:
        prov = {**prov, **extra_provenance}
    if output_hash is None:
        if text is not None:
            output_hash = hash_text(text)
        elif output_path is not None:
            output_hash = hash_file(output_path)
        else:  # pragma: no cover - callers always pass one of the three
            return
    if text is None and output_path is not None and ledger.store is not None:
        try:
            with open(output_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:  # pragma: no cover - racing deletion
            text = None
    result: dict[str, Any] | None = None
    if text is not None:
        result = {"kind": op, "text": text}
        if records is not None:
            result["records"] = records
    ledger.record(
        op=op,
        grammar_fp=key[0],
        workload_fp=key[1],
        limits_fp=key[2],
        input_hash=key[3],
        output_hash=output_hash,
        records_hash=hash_records(records) if records is not None else None,
        stats=encode_stats(stats),
        provenance=prov,
        result=result,
    )
