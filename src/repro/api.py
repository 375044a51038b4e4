"""The unified public pruning API: one :func:`prune` for every source.

::

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
is streamed to.  The run itself — source classification, the static
short-circuit, the ledger, the inferred-grammar escape hatch and the
``out`` dispatch — is the plan :mod:`repro.runplan` shares with
:func:`repro.extract`; this module supplies only the pruning pass.

Options shared by every form live in :class:`PruneOptions`; the common
ones (``fast``, ``validate``) are also accepted directly as keywords and
override the options object when given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ledger uses obs)
    from repro.ledger import Ledger

from repro.dtd.grammar import Grammar
from repro.limits import Limits
from repro.projection.stats import PruneStats
from repro.projection.streaming import _prune_events, _prune_stream
from repro.runplan import _Kind, _Options, _resolve_options, _run, _Run
from repro.xmltree.events import Event
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE

__all__ = ["PruneOptions", "PruneResult", "prune"]


@dataclass(slots=True, frozen=True)
class PruneOptions(_Options):
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

    The wire form (:meth:`to_wire` / :meth:`from_wire`, used by the
    service protocol) lists the fields that differ from these defaults.
    """

    _KIND = "prune"

    fast: bool = True
    validate: bool = False
    prune_attributes: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    limits: "Limits | str | None" = None


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
        options, DEFAULT_OPTIONS, fast=fast, validate=validate,
        prune_attributes=prune_attributes, chunk_size=chunk_size, limits=limits,
    )
    return _run(
        _Run(_PRUNE, grammar, projector, opts, analysis),
        source, out, ledger, provenance,
    )


# -- what makes a run a prune (see repro.runplan._Kind) ----------------------


def _prune_pass(
    run: _Run, doc: Any, sink: IO[str], stats: PruneStats, collect: Any,
    parsed: bool,
) -> None:
    opts = run.opts
    _prune_stream(
        doc, sink, run.grammar, run.projector,
        validate=opts.validate, fast=opts.fast, chunk_size=opts.chunk_size,
        prune_attributes=opts.prune_attributes, stats=stats, limits=run.limits,
    )


def _prune_lazy_events(run: _Run, events: Iterable[Event]) -> PruneResult:
    """An event source prunes iterator to iterator (``fast`` is moot:
    event input already paid for parsing)."""
    stats = PruneStats()
    return PruneResult(stats=stats, events=_prune_events(
        events, run.grammar, run.projector,
        validate=run.opts.validate, stats=stats,
        prune_attributes=run.opts.prune_attributes, guard=run.limits.guard(),
    ))


def _prune_empty(run: _Run) -> "tuple[str, PruneStats] | None":
    """The pre-pass proved the (filtered) union projector is the bare
    root, so every grammar-valid source prunes to exactly ``<root/>``."""
    analysis, opts = run.work, run.opts
    if (
        analysis is None
        or not analysis.provably_empty
        or opts.validate
        or not opts.prune_attributes
    ):
        return None
    grammar = run.grammar
    tag = grammar.tag_of(grammar.root) or grammar.root
    stats = PruneStats(elements_out=1, distinct_tags_out={tag})
    return f"<{tag}/>", stats


def _prune_workload(run: _Run) -> tuple[str, dict[str, Any]]:
    from repro.core.cache import projector_fingerprint

    attributes = run.opts.prune_attributes
    return projector_fingerprint(run.projector, attributes), {
        "projector": sorted(run.projector),
        "prune_attributes": attributes,
    }


_PRUNE = _Kind(
    op="prune",
    stats=PruneStats,
    result=PruneResult,
    run_pass=_prune_pass,
    empty=_prune_empty,
    workload=_prune_workload,
    collects=False,
    prevalidates=False,
    lazy_events=_prune_lazy_events,
)
