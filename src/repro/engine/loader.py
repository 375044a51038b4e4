"""Prune-while-loading — the conclusion's engine integration, realised.

The paper's closing implementation note: interfacing the pruner with a
query engine means "the pruning overhead would be diluted in the
parsing/validation phase".  This module is that interface: the engine
loads its in-memory tree *through* the streaming pruner, so discarded
subtrees are never allocated at all — the paper's central memory argument
applied at load time rather than as a separate prune-then-reload step.

Three loading strategies are exposed for comparison (and benchmarked in
``benchmarks/bench_loading.py``):

* :func:`load_full`           — parse everything (the unpruned baseline);
* :func:`load_pruned`         — parse → prune events → build (one pass,
  pruned subtrees never materialise);
* :func:`load_pruned_validating` — ditto, with DTD validation folded into
  the same pass (the "no overhead" deployment of Section 1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dtd.grammar import Grammar
from repro.engine.metrics import DEFAULT_MODEL, MemoryModel
from repro.projection.stats import PruneStats
from repro.projection.streaming import StreamingPruner
from repro.xmltree.builder import TreeBuilder
from repro.xmltree.lexer import Source
from repro.xmltree.nodes import Document
from repro.xmltree.parser import parse_events


@dataclass(slots=True)
class LoadReport:
    """What one load cost."""

    document: Document
    seconds: float
    model_bytes: int
    nodes_built: int
    prune_stats: PruneStats | None = None

    @property
    def megabytes(self) -> float:
        return self.model_bytes / 1e6


def _build(events, strip_whitespace: bool) -> Document:
    builder = TreeBuilder(strip_whitespace=strip_whitespace)
    for event in events:
        builder.feed(event)
    return builder.document()


def _report(
    span: "obs.Span", document: Document, model: MemoryModel,
    prune_stats: PruneStats | None = None,
) -> LoadReport:
    """Fill the load span's counters and the caller's report in one go.

    Call inside the span's ``with`` block, after :meth:`~repro.obs.Span.stop`
    — the duration excludes model measurement, the counters still land in
    the emitted record.
    """
    model_bytes = model.document_bytes(document)
    nodes_built = document.size()
    span.count("model_bytes", model_bytes)
    span.count("nodes_built", nodes_built)
    return LoadReport(
        document=document,
        seconds=span.seconds,
        model_bytes=model_bytes,
        nodes_built=nodes_built,
        prune_stats=prune_stats,
    )


def load_full(
    source: Source,
    strip_whitespace: bool = True,
    model: MemoryModel = DEFAULT_MODEL,
) -> LoadReport:
    """Plain load: every node of the document is allocated."""
    with obs.timed("load", strategy="full") as span:
        document = _build(parse_events(source), strip_whitespace)
        span.stop()
        report = _report(span, document, model)
    return report


def load_pruned(
    source: Source,
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    strip_whitespace: bool = True,
    validate: bool = False,
    fast: bool = True,
    model: MemoryModel = DEFAULT_MODEL,
) -> LoadReport:
    """Load through the streaming pruner: nodes outside the projector are
    skipped *before* tree construction, so they cost neither allocation
    nor model memory.  ``fast=True`` (the default) uses the fused
    scanner-level pruner, which bulk-skips discarded regions without even
    building their events; ``validate=True`` folds DTD validation into
    the pass (forcing the event pipeline — the validator must see every
    event)."""
    stats = PruneStats()
    fused = fast and not validate
    with obs.timed(
        "load", strategy="pruned", fused=fused, validate=validate
    ) as span:
        if fused:
            from repro.projection.fastpath import FastPruner

            events = FastPruner(grammar, frozenset(projector), stats=stats).events(source)
        else:
            events = StreamingPruner(
                grammar, projector, validate=validate, stats=stats
            ).process(parse_events(source))
        document = _build(events, strip_whitespace)
        span.stop()
        span.merge_counters(stats.as_counters())
        report = _report(span, document, model, prune_stats=stats)
    return report


def load_pruned_validating(
    source: Source,
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    strip_whitespace: bool = True,
    model: MemoryModel = DEFAULT_MODEL,
) -> LoadReport:
    """Validate-and-prune-while-loading, one pass."""
    return load_pruned(
        source, grammar, projector,
        strip_whitespace=strip_whitespace, validate=True, model=model,
    )


def load_many(
    sources,
    grammar: Grammar,
    queries_or_projector,
    jobs: int | None = 1,
    strip_whitespace: bool = True,
    validate: bool = False,
    fast: bool = True,
    model: MemoryModel = DEFAULT_MODEL,
    cache: "ProjectorCache | None" = None,
):
    """Load a whole corpus pruned to one workload.

    The batch variant of :func:`load_pruned`: the projector is resolved
    once in the parent (queries — string or list — are analyzed through
    the projector cache; an already-inferred projector passes straight
    through), the corpus is pruned through :func:`repro.parallel.
    prune_many` (text mode, so workers ship back pruned markup, which is
    typically a small fraction of the input), and the in-memory trees are
    built in the parent from the already-pruned text.

    Returns ``(reports, batch)``: ``reports`` is index-aligned with the
    expanded source list (:class:`LoadReport` per success, ``None`` where
    pruning failed — see ``batch.errors``), and ``batch`` is the
    underlying :class:`~repro.parallel.BatchResult`.
    """
    from repro.core.cache import resolve_projector
    from repro.parallel import prune_many

    projector = resolve_projector(grammar, queries_or_projector, cache=cache)
    batch = prune_many(
        sources, grammar, projector,
        jobs=jobs, fast=fast, validate=validate,
    )
    reports: "list[LoadReport | None]" = []
    for result in batch.results:
        if result is None:
            reports.append(None)
            continue
        with obs.timed("load", strategy="pruned-batch") as span:
            document = _build(parse_events(result.text), strip_whitespace)
            span.stop()
            span.merge_counters(result.stats.as_counters())
            reports.append(_report(span, document, model, prune_stats=result.stats))
    return reports, batch
