"""Parallel batch pruning: one projector, many documents, many cores.

The journal version of the paper stresses that projection-based pruning is
embarrassingly parallel across documents: the static analysis is computed
once per (DTD, query-set) pair and every document is then pruned
independently.  This module is that deployment.  :func:`prune_many` shards
a corpus across a process pool:

* the projector is resolved **once in the parent** through the
  :class:`~repro.core.cache.ProjectorCache` (queries are accepted directly,
  or a pre-inferred projector is passed through);
* each worker receives the configured :class:`~repro.projection.fastpath.
  FastPruner` (pickled as ``(grammar, projector, options)``; the compiled
  prune table is rebuilt — and memoised — once per worker) together with
  the parent's grammar fingerprint, which the worker re-derives and checks
  so a grammar that does not survive transfer intact fails loudly;
* every document runs through the fused fast path (or whatever
  :class:`~repro.api.PruneOptions` selects), with results returned in
  **input order** regardless of completion order;
* a malformed document — or an unwritable output — yields a structured
  :class:`BatchError` for that item; the other items still complete, and
  a crashed worker process poisons only the items that were still pending
  (each reported as a ``worker-crash`` error) instead of hanging the pool;
* workers trace into a process-local :class:`~repro.obs.MemorySink` and
  ship their span records and counters back with each result; the parent
  absorbs them into its tracer (:func:`repro.obs.absorb`), so a single
  ``--trace-out`` file still tells the whole story, with a ``worker``
  attribute marking which process ran each document.

``jobs=1`` bypasses the pool entirely and runs the items serially in the
parent — byte-identical, by construction, to calling :func:`repro.prune`
per document (the differential tests assert it).

:func:`extract_many` is the same deployment for tabular extraction: one
:class:`~repro.extract.spec.ExtractSpec`, many documents, the same pool,
timeout, and crash-recovery machinery — workers run the fused
extract-while-scanning pass and ship back per-item
:class:`~repro.extract.api.ExtractResult` values (or record files under
``out_dir``, named after the source with a ``.jsonl``/``.csv`` suffix).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro import obs
from repro.api import DEFAULT_OPTIONS, PruneOptions, PruneResult, prune
from repro.core.cache import (
    ProjectorCache,
    grammar_fingerprint,
    resolve_projector,
    resolve_spec_projector,
)
from repro.dtd.grammar import Grammar
from repro.extract.api import (
    DEFAULT_EXTRACT_OPTIONS,
    ExtractOptions,
    ExtractResult,
    extract,
)
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.limits import Limits, resolve_limits
from repro.projection.fastpath import FastPruner
from repro.projection.stats import PruneStats
from repro.runplan import _is_markup, _resolve_options

__all__ = [
    "BatchError",
    "BatchResult",
    "expand_sources",
    "extract_many",
    "prune_many",
]

_GLOB_CHARS = frozenset("*?[")

#: Crash kind reported for items whose worker died before finishing them.
WORKER_CRASH = "worker-crash"

#: Error kind for items killed by the per-item pool ``timeout``.
TIMEOUT = "timeout"

#: Error kind a worker reports when the grammar fingerprint does not
#: survive the process boundary; the parent re-runs such items itself
#: (see :func:`_prune_in_parent`) instead of failing the batch.
FINGERPRINT_MISMATCH = "fingerprint-mismatch"

#: How often the pool loop wakes to look for stuck workers when a
#: ``timeout`` is set (completions interrupt the wait immediately).
_POLL_SECONDS = 0.05


# -- results ------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class BatchError:
    """One document that could not be pruned.

    ``kind`` is the exception type name (``XMLSyntaxError``,
    ``ValidationError``, ``LimitExceeded``, ``PermissionError``,
    ``StrayDocumentError`` for documents an inferred grammar refused
    under ``on_stray="error"``, ...), ``"worker-crash"`` when the worker
    process died before the item finished, or ``"timeout"`` when the
    item exceeded the per-item pool timeout and its worker was killed.
    """

    index: int
    source: str
    kind: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.index}] {self.source}: {self.kind}: {self.message}"


@dataclass(slots=True)
class BatchResult:
    """What one :func:`prune_many` (or :func:`extract_many`) call produced.

    ``results`` is index-aligned with the expanded source list: position
    ``i`` holds the item's :class:`~repro.api.PruneResult` (or
    :class:`~repro.extract.api.ExtractResult` for an extract batch), or
    ``None`` if it failed (the matching :class:`BatchError` is in
    ``errors``).  ``stats`` aggregates the per-item counters over the
    successes — :class:`~repro.projection.stats.PruneStats` or
    :class:`~repro.extract.stats.ExtractStats` to match the batch kind.
    ``respawns`` counts how many times the worker pool had to be torn
    down and rebuilt (stuck workers killed on timeout, crash retries).
    """

    results: "list[PruneResult | ExtractResult | None]"
    errors: list[BatchError] = field(default_factory=list)
    stats: "PruneStats | ExtractStats" = field(default_factory=PruneStats)
    jobs: int = 1
    seconds: float = 0.0
    respawns: int = 0

    @property
    def documents(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> int:
        return self.documents - len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def strays(self) -> int:
        """Documents an inferred grammar passed through verbatim
        (``on_stray="copy"``) instead of pruning — their bytes are exact
        input copies, never a wrong projection."""
        return sum(1 for r in self.results if getattr(r, "stray", False))

    def texts(self) -> list[str | None]:
        """Per-item pruned markup (None for failures or file outputs)."""
        return [result.text if result is not None else None for result in self.results]

    def output_paths(self) -> list[str | None]:
        """Per-item output paths (None for failures or text outputs)."""
        return [
            result.output_path if result is not None else None
            for result in self.results
        ]


# -- source expansion ---------------------------------------------------------


def expand_sources(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
) -> list[str]:
    """Flatten a corpus spec into an ordered list of concrete sources.

    Accepts a single item or an iterable of items, where each item is XML
    markup (kept verbatim), a directory (expanded to its files, sorted),
    a glob pattern (expanded, sorted), or a plain file path.  Expansion is
    deterministic: directory and glob matches are sorted, input order is
    otherwise preserved.
    """
    import glob as globlib

    if isinstance(sources, (str, os.PathLike)):
        sources = [sources]
    expanded: list[str] = []
    for item in sources:
        if not isinstance(item, (str, os.PathLike)):
            raise TypeError(f"cannot prune source of type {type(item).__name__}")
        text = os.fspath(item)
        if isinstance(item, str) and _is_markup(text):
            expanded.append(text)
        elif os.path.isdir(text):
            expanded.extend(
                sorted(
                    entry.path
                    for entry in os.scandir(text)
                    if entry.is_file() and not entry.name.startswith(".")
                )
            )
        elif _GLOB_CHARS & set(text):
            expanded.extend(sorted(globlib.glob(text)))
        else:
            expanded.append(text)
    return expanded


def _output_paths(
    items: list[str], out_dir: str, suffix: str | None = None
) -> list[str]:
    """Deterministic per-item output paths under ``out_dir``: path sources
    keep their basename (index-prefixed on collision), markup sources get
    ``doc<index>.xml``.  With ``suffix`` (extract batches: ``".jsonl"`` /
    ``".csv"``) path basenames swap their extension for it instead — the
    output is records, not markup."""
    paths: list[str] = []
    used: set[str] = set()
    for index, source in enumerate(items):
        if _is_markup(source):
            name = f"doc{index:05d}{suffix or '.xml'}"
        elif suffix is not None:
            stem = os.path.splitext(os.path.basename(source))[0]
            name = f"{stem}{suffix}" if stem else f"doc{index:05d}{suffix}"
        else:
            name = os.path.basename(source) or f"doc{index:05d}.xml"
        if name in used:
            name = f"{index:05d}_{name}"
        used.add(name)
        paths.append(os.path.join(out_dir, name))
    return paths


def _label(source: str) -> str:
    """How a source is named in errors and traces (markup is abbreviated)."""
    if _is_markup(source):
        return f"<inline markup, {len(source)} chars>"
    return source


# -- worker side --------------------------------------------------------------

#: Per-worker state installed by :func:`_init_worker`; ``None`` in the parent.
_WORKER_STATE: dict[str, Any] | None = None


def _init_worker(
    pruner: FastPruner,
    options: "PruneOptions | ExtractOptions",
    fingerprint: str,
    tracing: bool,
    spec: ExtractSpec | None = None,
) -> None:
    global _WORKER_STATE
    mismatch: str | None = None
    if grammar_fingerprint(pruner.grammar) != fingerprint:
        # Raising here would break the whole pool (the initializer
        # failure poisons every item the worker would have run); a flag
        # lets each item return a structured error instead, which the
        # parent degrades on by re-running the item itself.
        mismatch = (
            "grammar fingerprint changed across the process boundary; "
            "refusing to prune against a different grammar"
        )
    sink: obs.MemorySink | None = None
    if tracing:
        sink = obs.MemorySink()
        obs.configure(sink)
    _WORKER_STATE = {
        "pruner": pruner, "options": options, "sink": sink, "mismatch": mismatch,
        "spec": spec,
    }


def _drain_worker_obs(
    state: dict[str, Any],
) -> tuple[list[dict[str, Any]], dict[str, int | float]]:
    """Collect (and reset) the worker tracer's records and counters so
    each task result carries exactly its own delta."""
    sink: obs.MemorySink | None = state["sink"]
    if sink is None:
        return [], {}
    tracer = obs.get_tracer()
    records = list(sink.records)
    sink.records.clear()
    counters = tracer.counters
    tracer._counters.clear()
    return records, counters


def _execute_item(
    pruner: FastPruner,
    options: PruneOptions,
    source: str,
    out_path: str | None,
) -> PruneResult:
    """Prune one document through the facade (monkeypatch point for the
    worker-crash tests)."""
    return prune(source, pruner.grammar, pruner.projector, out=out_path, options=options)


def _execute_extract_item(
    pruner: FastPruner,
    spec: ExtractSpec,
    options: ExtractOptions,
    source: str,
    out_path: str | None,
) -> ExtractResult:
    """Extract one document through the facade.  The projector resolves
    through the worker's process-local cache — one inference per worker
    for the whole batch (the spec fingerprint hits thereafter)."""
    return extract(source, pruner.grammar, spec, out=out_path, options=options)


def _execute(
    pruner: FastPruner,
    options: "PruneOptions | ExtractOptions",
    spec: ExtractSpec | None,
    source: str,
    out_path: str | None,
) -> "PruneResult | ExtractResult":
    if spec is not None:
        return _execute_extract_item(pruner, spec, options, source, out_path)
    return _execute_item(pruner, options, source, out_path)


def _run_item(index: int, source: str, out_path: str | None):
    """Worker task: returns ``(index, error-or-None, result-or-None,
    records, counters, pid)``.  Never raises for a bad document — errors
    travel back as data so one malformed input cannot poison the pool."""
    state = _WORKER_STATE
    assert state is not None, "worker used before _init_worker ran"
    error: tuple[str, str] | None = None
    result: "PruneResult | ExtractResult | None" = None
    if state["mismatch"] is not None:
        error = (FINGERPRINT_MISMATCH, state["mismatch"])
    else:
        try:
            result = _execute(
                state["pruner"], state["options"], state["spec"], source, out_path
            )
            if getattr(result, "events", None) is not None:
                result.events = None  # iterators never cross the process boundary
        except Exception as exc:
            error = (type(exc).__name__, str(exc))
    records, counters = _drain_worker_obs(state)
    return index, error, result, records, counters, os.getpid()


# -- the engine ---------------------------------------------------------------


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def prune_many(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    grammar: Grammar,
    queries_or_projector: "frozenset[str] | set[str] | list[str] | str",
    *,
    jobs: int | None = 1,
    out_dir: "str | os.PathLike[str] | None" = None,
    options: PruneOptions | None = None,
    fast: bool | None = None,
    validate: bool | None = None,
    prune_attributes: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    timeout: float | None = None,
    retry_crashes: bool = False,
    cache: ProjectorCache | None = None,
) -> BatchResult:
    """Prune a corpus of documents with one shared projector.

    ``sources`` accepts anything :func:`expand_sources` does (paths,
    globs, directories, inline markup, or a mixed list).  The projector is
    resolved once in the parent — pass queries (string or list, mixed
    XPath/XQuery) or an already-inferred projector.  ``jobs`` selects the
    worker-pool width: ``1`` (default) runs serially in the parent,
    ``None``/``0`` uses every core.  With ``out_dir`` each item is written
    to a file there (see :func:`_output_paths` for naming); without it the
    pruned markup is collected per item.

    ``limits`` applies per item exactly as in
    :func:`repro.prune`.  ``timeout`` (seconds) bounds each item's wall
    clock from the *outside*: a worker stuck past it is killed, that item
    gets a ``BatchError(kind="timeout")``, and the pool is respawned so
    the remaining items still complete (with ``jobs=1`` the timeout folds
    into the per-item limits deadline instead — there is no worker to
    kill).  ``retry_crashes`` resubmits each crashed item once to a fresh
    pool before reporting it as ``worker-crash``.

    Returns a :class:`BatchResult`; per-item failures are reported there,
    not raised.  Parent-side configuration errors (a projector that does
    not cover the grammar root, an unknown query language, a bad
    ``jobs``) still raise immediately.
    """
    opts = _resolve_options(
        options, DEFAULT_OPTIONS, fast=fast, validate=validate,
        prune_attributes=prune_attributes, chunk_size=chunk_size, limits=limits,
    )
    projector = resolve_projector(grammar, queries_or_projector, cache=cache)
    return _run_batch(
        sources, FastPruner(grammar, projector, opts.prune_attributes), opts,
        None, jobs, out_dir, timeout, retry_crashes,
    )


def extract_many(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    grammar: Grammar,
    spec: ExtractSpec,
    *,
    jobs: int | None = 1,
    out_dir: "str | os.PathLike[str] | None" = None,
    options: ExtractOptions | None = None,
    format: str | None = None,
    fast: bool | None = None,
    chunk_size: int | None = None,
    limits: "Limits | str | None" = None,
    timeout: float | None = None,
    retry_crashes: bool = False,
    cache: ProjectorCache | None = None,
) -> BatchResult:
    """Extract one spec's records from a corpus of documents.

    The :func:`prune_many` deployment applied to tabular extraction:
    ``sources`` expands the same way, the spec's union projector is
    resolved once in the parent (keyed by the spec's content
    fingerprint), and each document runs the fused extract-while-scanning
    pass independently — same pool, per-item ``timeout``, and
    ``retry_crashes`` machinery, same in-order :class:`BatchResult`.

    With ``out_dir`` each item's records are written to a file named
    after its source with the format's suffix (``people.xml`` →
    ``people.jsonl``); without it each :class:`~repro.extract.api.
    ExtractResult` carries the records and encoded text in memory.
    ``BatchResult.stats`` aggregates
    :class:`~repro.extract.stats.ExtractStats` over the successes.
    """
    opts = _resolve_options(
        options, DEFAULT_EXTRACT_OPTIONS, format=format, fast=fast,
        chunk_size=chunk_size, limits=limits,
    )
    projector = resolve_spec_projector(grammar, spec, cache=cache)
    return _run_batch(
        sources, FastPruner(grammar, projector), opts,
        spec, jobs, out_dir, timeout, retry_crashes,
    )


#: Output-file suffix per extract format (``_output_paths`` naming).
_EXTRACT_SUFFIXES = {"jsonl": ".jsonl", "csv": ".csv"}


def _run_batch(
    sources: "str | os.PathLike[str] | Iterable[str | os.PathLike[str]]",
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    spec: ExtractSpec | None,
    jobs: int | None,
    out_dir: "str | os.PathLike[str] | None",
    timeout: float | None,
    retry_crashes: bool,
) -> BatchResult:
    """The batch set-up both entry points share: a prune batch, or with
    ``spec`` an extract batch.  Building ``pruner`` in the caller already
    validated the projector against the grammar (and pre-compiled the
    prune table) before any process is spawned: configuration errors
    surface in the parent, not N times in the pool."""
    jobs = _resolve_jobs(jobs)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if timeout is not None and jobs == 1:
        resolved = resolve_limits(opts.limits)
        deadline = (
            timeout if resolved.deadline is None else min(resolved.deadline, timeout)
        )
        opts = replace(opts, limits=resolved.replace(deadline=deadline))

    items = expand_sources(sources)
    out_paths: list[str | None] = [None] * len(items)
    if out_dir is not None:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        suffix = None if spec is None else _EXTRACT_SUFFIXES[opts.format]
        out_paths = list(_output_paths(items, out_dir, suffix))

    op = "prune" if spec is None else "extract"
    batch = BatchResult(
        results=[None] * len(items),
        stats=PruneStats() if spec is None else ExtractStats(),
        jobs=jobs,
    )
    started = time.perf_counter()
    with obs.timed(f"{op}.batch", jobs=jobs, documents=len(items)) as span:
        if not items:
            pass
        elif jobs == 1:
            _run_serial(batch, pruner, opts, items, out_paths, spec)
        else:
            _run_pool(
                batch, pruner, opts, items, out_paths, jobs, timeout,
                retry_crashes, spec,
            )
        span.stop()
        span.merge_counters(batch.stats.as_counters())
        span.count("errors", len(batch.errors))
    batch.seconds = span.seconds if span.seconds else time.perf_counter() - started
    batch.errors.sort(key=lambda error: error.index)
    return batch


def _record_success(batch: BatchResult, index: int, result: PruneResult) -> None:
    batch.results[index] = result
    batch.stats.merge(result.stats)


def _record_error(
    batch: BatchResult, index: int, source: str, kind: str, message: str
) -> None:
    batch.errors.append(
        BatchError(index=index, source=_label(source), kind=kind, message=message)
    )


def _run_serial(
    batch: BatchResult,
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    items: list[str],
    out_paths: list[str | None],
    spec: ExtractSpec | None = None,
) -> None:
    for index, (source, out_path) in enumerate(zip(items, out_paths)):
        try:
            _record_success(
                batch, index, _execute(pruner, opts, spec, source, out_path)
            )
        except Exception as exc:
            _record_error(batch, index, source, type(exc).__name__, str(exc))


def _prune_in_parent(
    batch: BatchResult,
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    items: list[str],
    out_paths: list[str | None],
    index: int,
    tracer,
    spec: ExtractSpec | None = None,
) -> None:
    """Degraded path for fingerprint-mismatch items: the worker's copy of
    the grammar cannot be trusted, the parent's can — re-run the item
    here through the event pipeline instead of failing the batch."""
    if tracer.enabled:
        tracer.count("parallel.fingerprint_fallbacks")
    try:
        result = _execute(
            pruner, replace(opts, fast=False), spec, items[index], out_paths[index]
        )
    except Exception as exc:
        _record_error(batch, index, items[index], type(exc).__name__, str(exc))
    else:
        _record_success(batch, index, result)


def _absorb_payload(
    batch: BatchResult,
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    items: list[str],
    out_paths: list[str | None],
    tracer,
    workers: set[int],
    payload,
    spec: ExtractSpec | None = None,
) -> None:
    """Fold one worker task's return value into the batch."""
    index, error, result, records, counters, pid = payload
    workers.add(pid)
    if tracer.enabled and (records or counters):
        for record in records:
            record.setdefault("attrs", {})["worker"] = pid
        tracer.absorb(records, counters)
    if error is None:
        assert result is not None
        _record_success(batch, index, result)
    elif error[0] == FINGERPRINT_MISMATCH:
        _prune_in_parent(batch, pruner, opts, items, out_paths, index, tracer, spec)
    else:
        _record_error(batch, index, items[index], error[0], error[1])


def _kill_processes(executor: ProcessPoolExecutor) -> None:
    """Forcibly terminate every worker of ``executor`` (stuck workers
    cannot be cancelled: a running future ignores ``cancel()``)."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        process.kill()


def _run_pool(
    batch: BatchResult,
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    items: list[str],
    out_paths: list[str | None],
    jobs: int,
    timeout: float | None,
    retry_crashes: bool,
    spec: ExtractSpec | None = None,
) -> None:
    """Run the items through worker pools in rounds: a round ends early
    when stuck workers are killed (per-item ``timeout``) or the pool
    breaks with ``retry_crashes`` set, and the surviving items go to a
    fresh pool.  Each extra round is one recorded respawn."""
    tracer = obs.get_tracer()
    workers: set[int] = set()
    crash_retried: set[int] = set()
    todo = list(range(len(items)))
    rounds = 0
    while todo:
        rounds += 1
        todo = _pool_round(
            batch, pruner, opts, items, out_paths, jobs, timeout,
            retry_crashes, tracer, workers, crash_retried, todo, spec,
        )
    batch.respawns = max(0, rounds - 1)
    if tracer.enabled and workers:
        tracer.count("parallel.workers_used", len(workers))
        if batch.respawns:
            tracer.count("parallel.respawns", batch.respawns)


def _pool_round(
    batch: BatchResult,
    pruner: FastPruner,
    opts: "PruneOptions | ExtractOptions",
    items: list[str],
    out_paths: list[str | None],
    jobs: int,
    timeout: float | None,
    retry_crashes: bool,
    tracer,
    workers: set[int],
    crash_retried: set[int],
    indices: list[int],
    spec: ExtractSpec | None = None,
) -> list[int]:
    """One executor lifetime over ``indices``; returns the indices that
    must be resubmitted to a fresh pool.

    The loop always terminates: a broken pool resolves every remaining
    future immediately, and a kill round records at least one timeout
    error, so every round either shrinks the outstanding item count or
    consumes per-index crash-retry budget (bounded by ``crash_retried``,
    see :func:`_resolve_crashed`)."""
    max_workers = min(jobs, len(indices))
    executor = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(
            pruner, opts, grammar_fingerprint(pruner.grammar), tracer.enabled, spec,
        ),
    )
    redo: list[int] = []
    crashed: list[tuple[int, str]] = []
    progressed = False
    try:
        futures = {
            executor.submit(_run_item, index, items[index], out_paths[index]): index
            for index in indices
        }
        pending = set(futures)
        first_running: dict[Any, float] = {}
        while pending:
            done, not_done = wait(
                pending,
                timeout=None if timeout is None else _POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                pending.discard(future)
                index = futures[future]
                try:
                    payload = future.result()
                except (BrokenProcessPool, OSError, RuntimeError) as exc:
                    # The worker died (or the pool broke) before this
                    # item finished.  Every remaining future resolves
                    # the same way, so the loop never hangs.  Blame is
                    # assigned at round end (_resolve_crashed): a broken
                    # pool fails *every* pending item, innocent or not.
                    crashed.append((index, str(exc) or type(exc).__name__))
                    continue
                progressed = True
                _absorb_payload(
                    batch, pruner, opts, items, out_paths, tracer, workers,
                    payload, spec,
                )
            if timeout is None or not not_done:
                continue
            now = time.monotonic()
            overdue = []
            for future in not_done:
                if future.running():
                    seen = first_running.setdefault(future, now)
                    if now - seen > timeout:
                        overdue.append(future)
            if not overdue:
                continue
            # The executor marks an item "running" once it enters the
            # call queue, which holds slightly more items than there are
            # workers — so at most ``max_workers`` of the overdue futures
            # can truly be executing.  Oldest first (ties by submission
            # order) are the stuck ones; the rest were merely queued
            # behind a stuck worker and are rerun, not failed.
            overdue.sort(key=lambda f: (first_running[f], futures[f]))
            stuck = set(overdue[:max_workers])
            _kill_processes(executor)
            executor.shutdown(wait=True, cancel_futures=True)
            for future in pending:
                index = futures[future]
                if future in stuck:
                    _record_error(
                        batch, index, items[index], TIMEOUT,
                        f"worker exceeded the {timeout:g}s per-item timeout",
                    )
                    continue
                if future.done() and not future.cancelled():
                    # Completed between the wait() and the kill.
                    try:
                        payload = future.result()
                    except Exception:
                        redo.append(index)
                    else:
                        _absorb_payload(
                            batch, pruner, opts, items, out_paths,
                            tracer, workers, payload, spec,
                        )
                    continue
                redo.append(index)
            break
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    _resolve_crashed(
        batch, items, crashed, progressed, retry_crashes, crash_retried, redo
    )
    return redo


def _resolve_crashed(
    batch: BatchResult,
    items: list[str],
    crashed: list[tuple[int, str]],
    progressed: bool,
    retry_crashes: bool,
    crash_retried: set[int],
    redo: list[int],
) -> None:
    """Decide, at round end, what happens to items whose futures resolved
    as crashes.

    A broken pool fails every pending future, so most "crashes" in a
    round are collateral damage from one bad item.  With
    ``retry_crashes``: if the round made progress the crashed items are
    simply rerun (their crash is unattributable); in a round with *no*
    progress each index gets one personal retry before being recorded —
    which converges on blaming exactly the item that keeps crashing
    alone.  Without ``retry_crashes`` every crash is recorded as-is."""
    for index, message in crashed:
        if retry_crashes and progressed:
            redo.append(index)
        elif retry_crashes and index not in crash_retried:
            crash_retried.add(index)
            redo.append(index)
        else:
            _record_error(batch, index, items[index], WORKER_CRASH, message)
