"""``scan``: one large XMark document pruned path to path by selective
Table-1 workloads with the analysis warm.  Tokenizing and subtree
skipping do nearly all the work; the analysis does none."""

from __future__ import annotations

import time

import repro
from repro.core.cache import ProjectorCache

import inputs
from common import Context, Op, attempt, hit_ratio, sequential, work_path
from oracle import TreeReference, digest, file_digest

FACTOR = 0.1  # about 7.3 MB

#: Selective workloads (Table 1) that keep about 1-5% of the bytes.
QUERY_SETS = (
    ["//person/name"],
    ["/site/open_auctions/open_auction/bidder/increase"],
    [inputs.QUERIES["QP19"]],
    [inputs.QUERIES["QP20"]],
)


class Scan:
    name = "scan"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.cache = ProjectorCache()
        self.doc_seed = inputs.document_seed(inputs.rng(ctx.seed, "scan"))
        self.doc = work_path(ctx, "scan", "auction.xml")
        self.out = work_path(ctx, "scan", "pruned.xml")

    def prepare(self) -> None:
        self.size = inputs.xmark(self.doc, FACTOR, self.doc_seed)
        for queries in QUERY_SETS:  # the analysis is warm before timing
            self.cache.analyze(self.ctx.grammar, queries)

    # -- what the setup probe and the layer probes use -----------------
    def setup_queries(self) -> list[str]:
        return QUERY_SETS[0]

    def query_sets(self) -> list[list[str]]:
        return [list(queries) for queries in QUERY_SETS]

    def probe_document(self) -> str:
        return self.doc

    # -- timed phase ---------------------------------------------------
    def _step(self, index: int, rec):
        queries = QUERY_SETS[index]

        def call() -> Op:
            started = time.perf_counter()
            with rec.operation("scan.op"):
                with rec.span("core.cache_analyze"):
                    analysis = self.cache.analyze(self.ctx.grammar, queries)
                with rec.span("api.prune"):
                    repro.prune(self.doc, self.ctx.grammar, analysis, out=self.out)
            seconds = time.perf_counter() - started
            observed, size_out = file_digest(self.out)
            return Op(seconds, self.size, size_out, start=started, key=index,
                      digest=observed)

        return lambda: attempt(call, self.size, index)

    def run(self, seconds: float, rec):
        cycle = [self._step(index, rec) for index in range(len(QUERY_SETS))]
        before = self.cache.stats
        phase = sequential(cycle, seconds, {})
        phase.layers["core.cache_hit_ratio"] = hit_ratio(before, self.cache.stats)
        return phase

    # -- oracle --------------------------------------------------------
    def expected(self, keys) -> dict:
        reference = TreeReference(
            self.ctx.grammar, FACTOR, self.doc_seed, digest(inputs.read(self.doc))
        )
        return {
            index: reference.pruned_digest(
                self.cache.analyze(self.ctx.grammar, QUERY_SETS[index]).projector
            )
            for index in set(keys)
        }
