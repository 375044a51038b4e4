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
object with ``.write`` is streamed to.  Both facades run through the one
plan in :mod:`repro.runplan`; this module supplies only the extraction
pass.

The projector is inferred from the spec (row path ∪ absolutized field
paths) through the projector cache, keyed by the spec's content
fingerprint — repeated extractions of the same workload skip the static
analysis entirely.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ledger import Ledger

from repro.core.cache import ProjectorCache, resolve_spec_projector
from repro.dtd.grammar import Grammar
from repro.errors import ReproError
from repro.extract.records import FORMATS, record_writer
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.extract.streaming import _extract_stream
from repro.limits import Limits
from repro.runplan import _Kind, _Options, _resolve_options, _run, _Run
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE

__all__ = ["ExtractOptions", "ExtractResult", "extract"]


@dataclass(slots=True, frozen=True)
class ExtractOptions(_Options):
    """Behavioural knobs shared by every :func:`extract` form.

    * ``format`` — output encoding, ``"jsonl"`` (default) or ``"csv"``;
    * ``fast`` — use the fused scanner-level pipeline (record assembly
      rides the bulk scan; records are identical to the event pipeline's,
      ``False`` exists for benchmarking and debugging);
    * ``chunk_size`` — read granularity for streaming sources;
    * ``limits`` — resource bounds for the pass, as in
      :class:`repro.api.PruneOptions`.

    The wire form (:meth:`to_wire` / :meth:`from_wire`, used by the
    service protocol) lists the fields that differ from these defaults.
    """

    _KIND = "extract"

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

    A row path the satisfiability pre-pass proves empty under the grammar
    yields zero rows from every grammar-valid document, so the (empty)
    encoding is emitted without opening the source.

    ``ledger=`` attests the run into a :class:`repro.ledger.Ledger`
    (keyed by grammar/spec/limits fingerprints plus the input content
    hash) and serves previously-recorded results for identical runs from
    stored bytes — by Thm 4.5 byte-identity the served records and text
    equal what a fresh extraction would produce.  ``provenance=`` merges
    extra context (e.g. the grammar's DTD path) into the recorded entry
    so ``repro-xml verify-ledger`` can replay it later.  Event-stream
    sources and open-stream inputs bypass the ledger (their bytes cannot
    be hashed without consuming them).

    Against an :class:`~repro.schema.infer.InferredGrammar` the source is
    validated first and a stray document raises
    :class:`~repro.errors.StrayDocumentError` under either ``on_stray``
    policy: records from a stray would be silently wrong, and a verbatim
    copy has no tabular analogue.
    """
    opts = _resolve_options(
        options, DEFAULT_EXTRACT_OPTIONS, format=format, fast=fast,
        chunk_size=chunk_size, limits=limits,
    )
    projector = resolve_spec_projector(grammar, spec, cache=cache)
    return _run(
        _Run(_EXTRACT, grammar, projector, opts, spec),
        source, out, ledger, provenance,
    )


# -- what makes a run an extraction (see repro.runplan._Kind) ----------------


def _extract_pass(
    run: _Run, doc: Any, sink: IO[str], stats: ExtractStats,
    collect: "list[dict[str, Any]] | None", parsed: bool,
) -> None:
    opts = run.opts
    _extract_stream(
        doc, sink, run.grammar, run.projector, run.work,
        format=opts.format, fast=opts.fast, chunk_size=opts.chunk_size,
        stats=stats, limits=run.limits, collect=collect, parsed=parsed,
    )


def _extract_empty(run: _Run) -> "tuple[str, ExtractStats] | None":
    """Zero records — nothing for JSONL, the bare header row for CSV —
    when the row path is unsatisfiable under the grammar."""
    from repro.static.sat import classify_query

    spec = run.work
    if classify_query(run.grammar, spec.rows, language="xpath").satisfiable:
        return None
    encoded = io.StringIO()
    record_writer(run.opts.format, spec, encoded).start()
    return encoded.getvalue(), ExtractStats()


def _extract_workload(run: _Run) -> tuple[str, dict[str, Any]]:
    from repro.ledger.canonical import hash_canonical

    spec, format = run.work, run.opts.format
    return hash_canonical({"format": format, "spec": spec.fingerprint()}), {
        "spec": spec.to_wire(),
        "format": format,
    }


_EXTRACT = _Kind(
    op="extract",
    stats=ExtractStats,
    result=ExtractResult,
    run_pass=_extract_pass,
    empty=_extract_empty,
    workload=_extract_workload,
    collects=True,
    prevalidates=True,
)
