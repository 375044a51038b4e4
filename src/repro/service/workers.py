"""The resident worker pool: pruning capacity that survives requests.

:mod:`repro.parallel` spins a pool up per batch and tears it down after;
the service keeps one :class:`ResidentPool` alive for its whole lifetime
so the per-request cost is a queue hop, not a pool spawn.  The pieces:

* every (grammar, projector, attribute-flag) pair a request uses is
  **pinned**: the parent compiles the :class:`~repro.projection.fastpath.
  FastPruner` once (validating the projector before any worker sees it),
  pickles it once, and workers rebuild + memoize it on first touch, keyed
  by the grammar fingerprint — the same handshake ``prune_many`` uses, so
  a grammar that does not survive the process boundary intact is refused
  per item (``fingerprint-mismatch``), never silently pruned wrong;
* pool respawns preserve the pinned set: the initializer pre-loads every
  previously pinned pair into the fresh workers, so a crash costs one
  spawn, not a cold cache;
* worker execution funnels through :func:`repro.parallel._execute_item`,
  keeping the fork-inheritance crash-injection pattern of the PR 3 tests
  working against the service too;
* forks are wrapped in :func:`_fork_quiet` — the server forks from its
  event-loop thread on respawn, which Python 3.12+ flags with a
  fork-in-multithreaded-process :class:`DeprecationWarning`; the pruning
  workers share no locks with the parent (they only read the inherited
  module state), so the warning is noise here.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator

from repro import obs
from repro.api import PruneOptions, PruneResult
from repro.core.cache import grammar_fingerprint
from repro.dtd.grammar import Grammar
from repro.extract.api import ExtractOptions, ExtractResult
from repro.extract.spec import ExtractSpec
from repro.parallel import (
    FINGERPRINT_MISMATCH,
    _drain_worker_obs,
    _execute_extract_item,
    _execute_item,
    _kill_processes,
    _resolve_jobs,
)
from repro.projection.fastpath import FastPruner

__all__ = ["PinKey", "ResidentPool", "WorkerFailure"]

#: What pins a compiled pruner: (grammar fingerprint, projector, flag).
PinKey = tuple[str, frozenset, bool]


class WorkerFailure(Exception):
    """A worker-side failure travelling back as data: ``kind`` is the
    worker's exception class name (or ``worker-crash`` /
    ``fingerprint-mismatch``), ``message`` its text."""

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        super().__init__(message)


@contextmanager
def _fork_quiet() -> Iterator[None]:
    """Silence the 3.12+ fork-in-multithreaded-process deprecation for
    one pool spawn (see the module docstring for why it is safe here)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*fork", category=DeprecationWarning)
        yield


# -- worker side --------------------------------------------------------------

#: Per-worker state installed by :func:`_init_resident_worker`.
_RESIDENT_STATE: dict[str, Any] | None = None


def _pin_in_worker(pruners: dict, key: PinKey, payload: bytes) -> FastPruner | None:
    """Rebuild a shipped pruner, verify the fingerprint handshake, and
    memoize it; ``None`` when the grammar did not survive the transfer."""
    pruner: FastPruner = pickle.loads(payload)
    if grammar_fingerprint(pruner.grammar) != key[0]:
        return None
    pruners[key] = pruner
    return pruner


def _init_resident_worker(payloads: list[tuple[PinKey, bytes]], tracing: bool) -> None:
    global _RESIDENT_STATE
    pruners: dict[PinKey, FastPruner] = {}
    for key, payload in payloads:
        # A pair that fails the handshake here is simply not pinned; the
        # per-item path re-ships it and reports the mismatch as data
        # (raising would poison the whole pool, as in repro.parallel).
        _pin_in_worker(pruners, key, payload)
    sink: obs.MemorySink | None = None
    if tracing:
        sink = obs.MemorySink()
        obs.configure(sink)
    _RESIDENT_STATE = {"pruners": pruners, "sink": sink}


def _resident_item(
    key: PinKey,
    payload: bytes,
    source: str,
    out_path: str | None,
    options: "PruneOptions | ExtractOptions",
    spec: ExtractSpec | None = None,
):
    """One request's work inside a resident worker (a prune, or — with
    ``spec`` — a tabular extraction against the same pinned pruner).

    Returns ``(error-or-None, result-or-None, records, counters, pid)``;
    like the batch pool, a bad document travels back as data so one
    hostile request cannot poison the resident pool.
    """
    state = _RESIDENT_STATE
    assert state is not None, "resident worker used before its initializer ran"
    error: tuple[str, str] | None = None
    result: "PruneResult | ExtractResult | None" = None
    pruner = state["pruners"].get(key)
    if pruner is None:
        pruner = _pin_in_worker(state["pruners"], key, payload)
    if pruner is None:
        error = (
            FINGERPRINT_MISMATCH,
            "grammar fingerprint changed across the process boundary; "
            "refusing to prune against a different grammar",
        )
    else:
        try:
            # Dispatch through this module's names (not parallel._execute)
            # so the fork-inheritance monkeypatch point stays here.
            if spec is not None:
                result = _execute_extract_item(pruner, spec, options, source, out_path)
            else:
                result = _execute_item(pruner, options, source, out_path)
            if getattr(result, "events", None) is not None:
                result.events = None  # iterators never cross the process boundary
        except Exception as exc:
            error = (type(exc).__name__, str(exc))
    records, counters = _drain_worker_obs(state)
    return error, result, records, counters, os.getpid()


# -- parent side --------------------------------------------------------------


class ResidentPool:
    """A process pool that outlives any one request.

    Not thread-safe by itself: the server drives it from one event-loop
    thread (``respawn`` is serialized behind an asyncio lock there).
    """

    def __init__(self, jobs: int | None = None, tracing: bool = False) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.tracing = tracing
        self.respawns = 0
        #: Bumped on every respawn so concurrent requests that all saw the
        #: same broken pool trigger exactly one rebuild.
        self.generation = 0
        self._payloads: dict[PinKey, bytes] = {}
        self._pruners: dict[PinKey, FastPruner] = {}
        self._executor: ProcessPoolExecutor | None = None
        self._spawn()

    def _spawn(self) -> None:
        # Forked children inherit unflushed sink buffers and would write
        # those lines again; flush the parent's sinks first.
        for sink in getattr(obs.get_tracer(), "sinks", ()):
            sink.flush()
        with _fork_quiet():
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_resident_worker,
                initargs=(list(self._payloads.items()), self.tracing),
            )

    # -- pinning ---------------------------------------------------------

    def pin(
        self,
        grammar: Grammar,
        projector: "frozenset[str] | set[str]",
        prune_attributes: bool = True,
    ) -> PinKey:
        """Compile (once) and register a (grammar, projector) pair;
        returns the key requests are submitted under.  Raises in the
        parent if the projector does not cover the grammar."""
        key: PinKey = (
            grammar_fingerprint(grammar),
            frozenset(projector),
            bool(prune_attributes),
        )
        if key not in self._payloads:
            pruner = FastPruner(grammar, frozenset(projector), bool(prune_attributes))
            self._pruners[key] = pruner
            self._payloads[key] = pickle.dumps(pruner)
        return key

    def pruner(self, key: PinKey) -> FastPruner:
        """The parent-side compiled pruner for a pinned key (used for the
        fingerprint-mismatch inline fallback)."""
        return self._pruners[key]

    @property
    def pinned(self) -> int:
        return len(self._payloads)

    def pinned_for(self, fingerprint: str) -> int:
        """How many pinned pairs belong to one grammar fingerprint."""
        return sum(1 for key in self._payloads if key[0] == fingerprint)

    def unpin_grammar(self, fingerprint: str) -> int:
        """Drop every pinned pair for one grammar fingerprint; returns the
        number removed.  The next request against that grammar re-compiles
        and re-ships — this is how a dependent update invalidates resident
        state, while a proven-independent one leaves the pins alone."""
        keys = [key for key in self._payloads if key[0] == fingerprint]
        for key in keys:
            del self._payloads[key]
            self._pruners.pop(key, None)
        return len(keys)

    # -- execution -------------------------------------------------------

    def submit(
        self,
        key: PinKey,
        source: str,
        out_path: str | None,
        options: "PruneOptions | ExtractOptions",
        spec: ExtractSpec | None = None,
    ) -> Future:
        """Queue one prune (or, with ``spec``, one extraction) on the
        resident workers.  The pinned payload rides along so a worker that
        has not seen the pair yet (spawned after the pin, or freshly
        respawned) can rebuild it."""
        assert self._executor is not None
        return self._executor.submit(
            _resident_item, key, self._payloads[key], source, out_path,
            options, spec,
        )

    def respawn(self, generation: int) -> bool:
        """Tear down a broken pool and build a fresh one pre-loaded with
        every pinned pair.  No-op (returns False) when ``generation`` is
        stale — someone already respawned past the pool the caller saw."""
        if generation != self.generation:
            return False
        self.generation += 1
        self.respawns += 1
        old = self._executor
        if old is not None:
            _kill_processes(old)
            old.shutdown(wait=False, cancel_futures=True)
        self._spawn()
        return True

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
