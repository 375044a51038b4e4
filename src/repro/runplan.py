"""The single-document run plan shared by :func:`repro.prune` and
:func:`repro.extract`.

Pruning is one bufferless pass (Def. 2.7) and extraction rides that same
pass (DESIGN.md §11), so everything *around* the pass is decided once,
here.  The two facades differ only in a :class:`_Kind` record: the pass
itself, its stats and result types, its empty-workload output, its
workload fingerprint and its stray policy.  One run (:func:`_run`):

1. classifies the source once (:class:`_Source`) as markup, a path, an
   open stream or an event iterable — a stream buffered for replay is
   markup from then on, never re-sniffed as a path;
2. applies the inferred-grammar escape hatch (the kind's stray policy);
3. takes the static short-circuit when the workload is provably empty;
4. consults the attestation ledger (:func:`_ledger_begin`,
   :func:`_ledger_serve`, :func:`_ledger_record` — the service calls the
   same steps for the requests it runs on its resident pool);
5. runs the pass and delivers its output through :func:`_emit`, the one
   ``out`` dispatch: ``None`` collects text, a path is written under the
   partial-output contract of :func:`_open_output`, an object with
   ``.write`` is streamed to.

The option dataclasses share their resolution (:func:`_resolve_options`)
and wire form (:class:`_Options`) here too.  Everything in this module is
private to the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
from dataclasses import dataclass, replace
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro import obs
from repro.errors import ReproError, StrayDocumentError, ValidationError
from repro.limits import Limits, resolve_limits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ledger uses obs)
    from repro.dtd.grammar import Grammar
    from repro.ledger import Ledger

__all__: list[str] = []


def _is_markup(text: str) -> bool:
    """The one markup sniff: a string whose first non-blank character is
    ``<`` is XML markup; any other string names a file."""
    return text.lstrip()[:1] == "<"


# -- options ------------------------------------------------------------------


class _Options:
    """Wire form shared by :class:`~repro.api.PruneOptions` and
    :class:`~repro.extract.api.ExtractOptions` — frozen dataclasses whose
    field list *is* the wire vocabulary (``_KIND`` names them in errors)."""

    __slots__ = ()
    _KIND: str

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form: only the fields that differ from the defaults
        (``limits`` serializes as a profile name or a bounds dict)."""
        wire: dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if spec.name != "limits":
                if value != spec.default:
                    wire[spec.name] = value
            elif value is not None:
                wire["limits"] = value if isinstance(value, str) else value.as_dict()
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> Any:
        """Rebuild from :meth:`to_wire` output (unknown keys rejected so a
        client/server version skew fails loudly, not silently)."""
        fields = dict(wire)
        limits = fields.pop("limits", None)
        if isinstance(limits, dict):
            limits = Limits.from_dict(limits)
        unknown = set(fields) - {spec.name for spec in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls._KIND} option(s): {sorted(unknown)}")
        return cls(limits=limits, **fields)


def _resolve_options(options: Any, default: Any, **overrides: Any) -> Any:
    """``options`` (or ``default``) with every keyword the caller actually
    passed — the non-``None`` ones — laid over it."""
    given = {name: value for name, value in overrides.items() if value is not None}
    resolved = options if options is not None else default
    return replace(resolved, **given) if given else resolved


# -- sources and sinks --------------------------------------------------------


class _Source:
    """A document source, classified once: ``form`` is ``"markup"`` (text
    to parse), ``"path"``, ``"stream"`` (an object with ``.read``) or
    ``"events"`` (any other iterable)."""

    __slots__ = ("form", "value")

    def __init__(self, form: str, value: Any) -> None:
        self.form = form
        self.value = value

    @classmethod
    def of(cls, source: Any, op: str) -> "_Source":
        if isinstance(source, os.PathLike):
            return cls("path", os.fspath(source))
        if isinstance(source, str):
            return cls("markup" if _is_markup(source) else "path", source)
        if hasattr(source, "read"):
            return cls("stream", source)
        if hasattr(source, "__iter__"):
            return cls("events", source)
        raise TypeError(f"cannot {op} source of type {type(source).__name__}")

    def size(self) -> int:
        """``bytes_in`` without consuming anything: the UTF-8 size of
        markup, the size of a file, 0 for streams and events."""
        if self.form == "markup":
            # "replace": hostile markup may contain lone surrogates, which
            # must surface as the pipeline's structured error (if at all),
            # not as a crash in this bookkeeping line.
            return len(self.value.encode("utf-8", "replace"))
        if self.form == "path":
            return os.path.getsize(self.value)
        return 0

    @contextlib.contextmanager
    def opened(self) -> Iterator[Any]:
        """What a pass reads: a path is opened (and closed after); every
        other form is handed over as is."""
        if self.form == "path":
            with open(self.value, "r", encoding="utf-8") as handle:
                yield handle
        else:
            yield self.value

    def buffered(self) -> "_Source":
        """A replayable source: an open stream is read into markup."""
        if self.form == "stream":
            return _Source("markup", self.value.read())
        return self


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[IO[str]]:
    """Open ``path`` for writing under the partial-output contract.

    If the body fails after the open succeeded, the partially written
    file is removed before the error propagates — a half-pruned document
    on disk is worse than none.  If the *open itself* fails (unwritable
    path, missing directory), nothing is removed: a pre-existing file at
    the path was never touched and must survive.
    """
    sink = open(path, "w", encoding="utf-8")
    try:
        with sink:
            yield sink
    except BaseException:
        try:
            os.remove(path)
        except OSError:
            pass
        raise


def _emit(
    out: "str | os.PathLike[str] | IO[str] | None",
    write: Callable[[IO[str]], Any],
) -> tuple[str | None, str | None]:
    """The one ``out`` dispatch: run ``write`` against the sink ``out``
    names and return ``(text, output_path)`` — the collected text for
    ``None``, the written path for a path, neither for a caller's
    stream."""
    if out is None:
        collector = io.StringIO()
        write(collector)
        return collector.getvalue(), None
    if hasattr(out, "write"):
        write(out)
        return None, None
    path = os.fspath(out)
    with _open_output(path) as sink:
        write(sink)
    return None, path


# -- the run plan -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Kind:
    """Everything that tells a prune run from an extract run."""

    #: ``"prune"`` / ``"extract"``: the ledger op and the verb in errors.
    op: str
    #: The counters one pass fills (``PruneStats`` / ``ExtractStats``).
    stats: type
    #: The result type, constructed by keyword.
    result: Callable[..., Any]
    #: The pass: ``(run, doc, sink, stats, collect, parsed)`` where ``doc``
    #: is markup text or an open handle — or, with ``parsed``, an event
    #: iterable — and ``collect`` a list for record dicts (or ``None``).
    run_pass: Callable[..., None]
    #: The static short-circuit: ``(empty output, stats)`` when the
    #: workload provably selects nothing, else ``None``.
    empty: Callable[["_Run"], "tuple[str, Any] | None"]
    #: ``(workload fingerprint, provenance)`` for the ledger key.
    workload: Callable[["_Run"], tuple[str, dict[str, Any]]]
    #: Whether results carry ``records`` (collected when ``out`` is None).
    collects: bool
    #: The stray policy under an inferred grammar: ``True`` refuses strays
    #: in a validation pass of its own before the run (either policy);
    #: ``False`` validates inside the pass and applies ``on_stray``.
    prevalidates: bool
    #: For an event-iterable source: return the lazy result instead of
    #: running the pass (``None``: the pass consumes the events).
    lazy_events: "Callable[[_Run, Iterable[Any]], Any] | None" = None


@dataclass(slots=True)
class _Run:
    """One call's resolved inputs: the kind, the grammar, the projector
    the pass prunes to, the resolved options and the kind's workload
    (the analysis for prune, the :class:`~repro.extract.spec.ExtractSpec`
    for extract)."""

    kind: _Kind
    grammar: "Grammar"
    projector: frozenset[str]
    opts: Any
    work: Any = None
    limits: Limits = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.limits = resolve_limits(self.opts.limits)


def _result(run: _Run, stats: Any, text: str | None, path: str | None,
            records: "list[dict[str, Any]] | None" = None, **extra: Any) -> Any:
    if run.kind.collects:
        extra["records"] = records
    return run.kind.result(stats=stats, text=text, output_path=path, **extra)


def _run(
    run: _Run,
    source: Any,
    out: "str | os.PathLike[str] | IO[str] | None",
    ledger: "Ledger | None" = None,
    provenance: dict[str, Any] | None = None,
) -> Any:
    """Carry out one document run (see the module docstring)."""
    src = _Source.of(source, run.kind.op)
    policy = getattr(run.grammar, "on_stray", None)
    if policy is None:
        return _run_plain(run, src, out, ledger, provenance)
    if run.kind.prevalidates:
        return _run_plain(run, _prevalidate(run, src), out, ledger, provenance)

    # Validate-and-prune in one pass: against a dataguide grammar full
    # validation *is* the stray check (its content models are starred
    # unions of everything the sample showed, so the first event outside
    # them is exactly where the document strays).  Validation also forces
    # the event pipeline — a stray inside a bulk-skipped region would be
    # invisible to the fused fast path.
    run.opts = replace(run.opts, validate=True)
    if src.form == "events":
        if policy == "copy":
            raise ReproError(
                'on_stray="copy" cannot replay an event stream; '
                f"{run.kind.op} the markup/path/stream form instead"
            )
        result = _run_plain(run, src, out, ledger, provenance)
        result.events = _stray_guard(result.events)
        return result
    if policy == "error":
        with _strays_refused():
            return _run_plain(run, src, out, ledger, provenance)
    # "copy": buffer a stream so the fallback can replay it, and stage a
    # caller-owned sink (it cannot be un-written) until the document has
    # fully validated.
    src = src.buffered()
    staged = io.StringIO() if hasattr(out, "write") else out
    try:
        result = _run_plain(run, src, staged, ledger, provenance)
    except ValidationError:
        obs.count("schema.strays")
        return _copy_verbatim(run, src, out)
    if staged is not out:
        out.write(staged.getvalue())
    return result


def _run_plain(
    run: _Run,
    src: _Source,
    out: "str | os.PathLike[str] | IO[str] | None",
    ledger: "Ledger | None",
    provenance: dict[str, Any] | None,
) -> Any:
    """The run proper: short-circuit, ledger, pass, sink."""
    kind = run.kind
    parsed = src.form == "events"
    if parsed and kind.lazy_events is not None:
        if out is not None:
            raise ReproError(
                f"{kind.op}() of an event stream returns events; "
                "serialize them explicitly instead of passing out="
            )
        return kind.lazy_events(run, src.value)
    if not parsed:
        empty = kind.empty(run)
        if empty is not None:
            return _short_circuit(run, src, out, *empty)

    led = None
    if ledger is not None and src.form in ("markup", "path"):
        # Streams and events cannot be content-hashed without consuming
        # them, so they bypass the ledger.
        led = _ledger_begin(ledger, run, src, provenance)
        served = _ledger_serve(
            ledger, run, led[0], out, need_records=out is None and kind.collects
        )
        if served is not None:
            return served

    stats = kind.stats()
    stats.bytes_in = src.size()
    collect: "list[dict[str, Any]] | None" = (
        [] if out is None and kind.collects else None
    )
    tee = None
    if led is not None and hasattr(out, "write"):
        # Hash the stream output as it passes; the bytes themselves go to
        # the caller's sink, so the entry attests but cannot dedup-serve.
        from repro.ledger.canonical import HashingSink

        out = tee = HashingSink(tee=out)
    # The source opens before the output, so an unreadable input never
    # truncates (and then removes) a file already at the output path.
    with src.opened() as doc:
        text, path = _emit(
            out, lambda sink: kind.run_pass(run, doc, sink, stats, collect, parsed)
        )
    if led is not None:
        _ledger_record(
            ledger, led, kind.op, stats, text=text, output_path=path,
            output_hash=tee.hexdigest() if tee is not None else None,
            records=collect,
        )
    return _result(run, stats, text, path, collect)


def _short_circuit(
    run: _Run,
    src: _Source,
    out: "str | os.PathLike[str] | IO[str] | None",
    text: str,
    stats: Any,
) -> Any:
    """Answer a provably-empty workload without opening the document.

    For any grammar-valid source the full pass would emit exactly
    ``text``.  ``bytes_in`` is still measured (by size, not by reading);
    the scan counters stay as the kind set them — nothing was scanned,
    which is the whole point.
    """
    stats.bytes_in = src.size()
    stats.bytes_out = len(text.encode("utf-8"))
    obs.count("static.short_circuits")
    written, path = _emit(out, lambda sink: sink.write(text))
    return _result(run, stats, written, path, [] if out is None else None)


# -- the inferred-grammar escape hatch ---------------------------------------


@contextlib.contextmanager
def _strays_refused() -> Iterator[None]:
    """Re-raise a validation failure as the structured stray refusal."""
    try:
        yield
    except StrayDocumentError:
        raise
    except ValidationError as exc:
        obs.count("schema.strays")
        raise StrayDocumentError(str(exc), exc.node_id) from exc


def _stray_guard(events: Iterator[Any]) -> Iterator[Any]:
    """Map lazy validation failures of an event-source run to strays."""
    with _strays_refused():
        yield from events


def _prevalidate(run: _Run, src: _Source) -> _Source:
    """A dedicated validation pass before the run: a stray refuses under
    either policy (``"copy"`` has no tabular analogue, and records from a
    stray would be silently wrong — Thm 4.5 covers accepted documents
    only).  Streams are buffered so the run can replay them; event
    streams cannot be replayed and are refused."""
    from repro.dtd.validator import EventValidator
    from repro.xmltree.parser import parse_events

    if src.form == "events":
        raise ReproError(
            f"{run.kind.op}() against an inferred grammar needs a replayable "
            "source (markup, a path, or a stream) — not an event stream"
        )
    src = src.buffered()
    validator = EventValidator(run.grammar)
    with _strays_refused(), src.opened() as doc:
        for event in parse_events(doc):
            validator.feed(event)
        validator.finish()
    return src


def _copy_verbatim(
    run: _Run, src: _Source, out: "str | os.PathLike[str] | IO[str] | None"
) -> Any:
    """The ``on_stray="copy"`` fallback: the source, byte for byte.  A
    verbatim copy preserves every query answer, so it is always sound —
    just not pruned.  ``result.stray`` marks it."""
    stats = run.kind.stats()
    stats.bytes_in = stats.bytes_out = src.size()

    def copy(doc: Any, sink: IO[str]) -> None:
        if isinstance(doc, str):
            sink.write(doc)
        else:
            shutil.copyfileobj(doc, sink)

    with src.opened() as doc:
        text, path = _emit(out, lambda sink: copy(doc, sink))
    return _result(run, stats, text, path, stray=True)


# -- the attestation ledger (shared with the service) -------------------------

#: A ledger key: (grammar, workload, limits, input) fingerprints.
_Key = tuple[str, str, str, str]


def _ledger_begin(
    ledger: "Ledger",
    run: _Run,
    src: _Source,
    provenance: dict[str, Any] | None,
) -> tuple[_Key, dict[str, Any]]:
    """Fingerprint a markup or path run for the ledger: the key tuple plus
    the auto-built provenance (caller ``provenance`` fills in, never
    overrides)."""
    from repro.core.cache import grammar_fingerprint
    from repro.ledger.canonical import hash_file, hash_text, limits_fingerprint

    is_path = src.form == "path"
    workload_fp, prov = run.kind.workload(run)
    key = (
        grammar_fingerprint(run.grammar),
        workload_fp,
        limits_fingerprint(run.limits),
        hash_file(src.value) if is_path else hash_text(src.value),
    )
    prov = {"source": os.path.abspath(src.value) if is_path else None, **prov}
    for name, value in (provenance or {}).items():
        prov.setdefault(name, value)
    return key, prov


def _ledger_serve(
    ledger: "Ledger",
    run: _Run,
    key: _Key,
    out: "str | os.PathLike[str] | IO[str] | None",
    *,
    need_records: bool,
) -> Any:
    """Serve a recorded, hash-verified result instead of scanning, or
    ``None`` on a miss.  The stats come back ``==`` to the recorded fresh
    run's and the bytes are the recorded bytes — by Thm 4.5 byte-identity
    exactly what a fresh run would emit.  A validating run is never
    served: validation must see the document."""
    if getattr(run.opts, "validate", False):
        return None
    hit = ledger.fetch(key, need_records=need_records)
    if hit is None:
        return None
    entry, payload = hit
    from repro.ledger.ledger import decode_stats

    stats = decode_stats(entry.stats)
    if not isinstance(stats, run.kind.stats):  # pragma: no cover - defensive
        return None
    text, path = _emit(out, lambda sink: sink.write(payload["text"]))
    records = payload.get("records") if text is not None else None
    return _result(run, stats, text, path, None if records is None else list(records))


def _ledger_record(
    ledger: "Ledger",
    led: tuple[_Key, dict[str, Any]],
    op: str,
    stats: Any,
    *,
    text: str | None = None,
    output_path: str | None = None,
    output_hash: str | None = None,
    records: "list[dict[str, Any]] | None" = None,
) -> None:
    """Append the attestation for a completed run (and retain the output
    bytes for dedup when they are available without a re-read cost or
    recoverable from the written file)."""
    from repro.ledger.canonical import hash_file, hash_records, hash_text
    from repro.ledger.ledger import encode_stats

    key, prov = led
    if output_hash is None:
        if text is not None:
            output_hash = hash_text(text)
        elif output_path is not None:
            output_hash = hash_file(output_path)
        else:  # nothing to attest (the output went to a caller's stream)
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
