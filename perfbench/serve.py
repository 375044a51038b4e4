"""``serve``: a resident ``repro serve`` (2 workers, ledger on) under a
closed loop of 2 client connections; each client sends its next request
when the previous reply arrives.  The mix puts projector-cache hits
beside server-side analyses and ledger records beside ledger hits, so it
loads the service's admission, queue, worker and write stages."""

from __future__ import annotations

import sys
import threading
import time
import traceback

import repro
from repro.service import ServiceClient

import inputs
import server
from common import Context, Op, Phase, work_path
from measure import Sampler, median
from oracle import TreeReference, digest

POOL = 16
#: Factors 0.003-0.007 (about 220-510 KB, 370 KB on average): a spread
#: of sizes keeps the latency distribution free of the steps one size
#: would put between "other connection idle" and "both pruning".
FACTORS = [0.003 + 0.004 * i / (POOL - 1) for i in range(POOL)]
CLIENTS = 2
WARMUP = 16  # (document, hot workload) pairs recorded before timing

#: Hot workloads: repeated, so the server's projector cache answers them.
HOT = (
    ["//person/name"],
    ["/site/open_auctions/open_auction/bidder/increase", inputs.QUERIES["QP19"]],
    [inputs.QUERIES["QP09"], inputs.QUERIES["QM05"]],
)

#: Request shares: 1/4 re-send a pair recorded in warm-up (projector
#: cache hit, ledger hit), 1/8 carry a fresh query set (analysis on the
#: server, ledger record), the other 5/8 a hot workload on new bytes
#: (cache hit, ledger record).
DEDUP, FRESH = 0.25, 0.125

_WARM_BASE = 1 << 23  # stamp numbers of warm-up requests


def request(seed: int, client: int, number: int) -> tuple[str, int, list[str], int]:
    """Request ``number`` of ``client``: (kind, document, queries, stamp)."""
    stream = inputs.rng(seed, f"serve/{client}/{number}")
    draw = stream.random()
    if draw < DEDUP:
        pair = stream.randrange(WARMUP)
        return "dedup", pair % POOL, HOT[pair % len(HOT)], _WARM_BASE + pair
    stamp = (client << 20) | number
    document = stream.randrange(POOL)
    if draw < DEDUP + FRESH:
        return "fresh", document, inputs.fresh_query_set(stream), stamp
    return "hot", document, HOT[stream.randrange(len(HOT))], stamp


class Serve:
    name = "serve"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        stream = inputs.rng(ctx.seed, "serve")
        factors = list(FACTORS)
        stream.shuffle(factors)
        self.pool = [
            (work_path(ctx, "serve", "pool", f"doc{i:02d}.xml"), factor,
             inputs.document_seed(stream))
            for i, factor in enumerate(factors)
        ]
        self.process = None

    def prepare(self) -> None:
        for path, factor, seed in self.pool:
            inputs.xmark(path, factor, seed)
        self.markup = [inputs.read(path) for path, _, _ in self.pool]

    def setup_queries(self) -> list[str]:
        return HOT[0]

    def query_sets(self) -> list[list[str]]:
        return [list(queries) for queries in HOT]

    def probe_document(self) -> str:
        return self.pool[0][0]

    def probe_corpus(self) -> list[str]:
        return [path for path, _, _ in self.pool[:8]]

    # -- timed phase ---------------------------------------------------
    def _start(self) -> None:
        """A fresh server and ledger, then warm-up: every hot workload
        analyzed and ``WARMUP`` pairs recorded, so the shares of cache
        and ledger hits are the same throughout the timed phase."""
        ledger = work_path(self.ctx, "serve", f"ledger-{time.monotonic_ns()}", "ledger.jsonl")
        self.process, self.port = server.start(self.ctx.src, self.ctx.work, ledger=ledger)
        with ServiceClient("127.0.0.1", self.port, timeout=60) as client:
            for pair in range(WARMUP):
                client.prune(inputs.stamp(self.markup[pair % POOL], _WARM_BASE + pair),
                             queries=HOT[pair % len(HOT)], xmark=True)

    def _stop(self) -> None:
        if self.process is not None:
            server.stop(self.process)
            self.process = None

    def _client(self, client: int, deadline: float, ops: list, rec,
                server_seconds: list) -> None:
        try:
            with ServiceClient("127.0.0.1", self.port, timeout=60) as connection:
                number = 0
                while time.perf_counter() < deadline:
                    _, document, queries, stamp = request(self.ctx.seed, client, number)
                    markup = inputs.stamp(self.markup[document], stamp)
                    size = len(markup.encode("utf-8"))
                    key = (document, tuple(queries))
                    started = time.perf_counter()
                    try:
                        with rec.operation("serve.op"):
                            with rec.span("service.request"):
                                outcome = connection.prune(markup, queries=queries, xmark=True)
                        seconds = time.perf_counter() - started
                        text = outcome.text
                        ops.append(Op(seconds, size, len(text.encode("utf-8")),
                                      start=started, key=key, digest=digest(text)))
                        server_seconds.append((seconds, outcome.seconds))
                    except Exception as exc:  # a failed request is counted
                        ops.append(Op(time.perf_counter() - started, size, 0,
                                      start=started, key=key,
                                      error=f"{type(exc).__name__}: {exc}"))
                    number += 1
        except Exception as exc:  # a lost connection fails the run
            traceback.print_exc(file=sys.stderr)
            ops.append(Op(0.0, 0, 0, error=f"client {client}: {type(exc).__name__}: {exc}"))

    def run(self, seconds: float, rec) -> Phase:
        try:
            self._start()
            with ServiceClient("127.0.0.1", self.port, timeout=60) as probe:
                before = probe.stats()
            ops: list[Op] = []
            server_seconds: list = []
            with Sampler() as speed:
                started = time.perf_counter()
                deadline = started + seconds
                threads = [
                    threading.Thread(target=self._client, name=f"client-{c}",
                                     args=(c, deadline, ops, rec, server_seconds))
                    for c in range(CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - started
            with ServiceClient("127.0.0.1", self.port, timeout=60) as probe:
                after = probe.stats()
        finally:
            self._stop()
        return Phase(ops, speed, wall=wall, layers=self.layers(before, after, server_seconds))

    @staticmethod
    def layers(before: dict, after: dict, server_seconds: list) -> dict:
        """Per-layer readings from two ``stats`` snapshots and the
        (round trip, server-reported) seconds of each reply.  The
        server's latency histogram cannot be reset, so its p50 includes
        the warm-up requests."""
        def delta(section: str, field: str) -> int:
            return after[section][field] - before[section][field]

        lookups = delta("cache", "hits") + delta("cache", "misses")
        served = delta("ledger", "hits") + delta("ledger", "records")
        return {
            "core.cache_hit_ratio": delta("cache", "hits") / max(1, lookups),
            "ledger.hit_ratio": delta("ledger", "hits") / max(1, served),
            "service.server_p50_ms": after["latency"]["p50"] * 1000.0,
            "service.transport_ms":
                median([rtt - own for rtt, own in server_seconds]) * 1000.0,
            "service.queue_high_water": after["queue"]["high_water"],
            "service.refusals": after["refusals"],
        }

    # -- oracle --------------------------------------------------------
    def expected(self, keys) -> dict:
        grammar = self.ctx.grammar
        projectors: dict[tuple, frozenset] = {}
        by_document: dict[int, list[tuple]] = {}
        for key in set(keys):
            if key is None:
                continue
            document, queries = key
            if queries not in projectors:
                projectors[queries] = repro.analyze(grammar, list(queries)).projector
            by_document.setdefault(document, []).append(key)
        expected = {}
        for document, doc_keys in by_document.items():
            _, factor, seed = self.pool[document]
            reference = TreeReference(grammar, factor, seed, digest(self.markup[document]))
            for key in doc_keys:
                expected[key] = reference.pruned_digest(projectors[key[1]])
        return expected
