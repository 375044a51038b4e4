"""``adhoc``: every operation is a fresh ``repro.analyze`` (no cache) of
a seeded subset of 3-8 queries from QM01-QM20 and QP01-QP33, whose
result then prunes a small document.  The analysis layers do most of the
work and scanning little: the counter-workload to ``scan``.

A pass over the subsets analyzes every query the same number of times
(``inputs.balanced_subsets``), and operations rotate over several
witness documents, so a seed changes groupings and content, not the
amount of work."""

from __future__ import annotations

import sys
import time

import repro

import inputs
from common import Context, Op, attempt, sequential, work_path
from oracle import TreeReference, answer, digest

FACTOR = 0.00055  # about 40 KB
WITNESSES = 8
ROUNDS, PER_ROUND = 8, 10  # 80 subsets, each query in 8 of them
MIN_QUERIES, MAX_QUERIES = 3, 8


class Adhoc:
    name = "adhoc"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        stream = inputs.rng(ctx.seed, "adhoc")
        self.witnesses = [
            (work_path(ctx, "adhoc", f"witness{i}.xml"), inputs.document_seed(stream))
            for i in range(WITNESSES)
        ]
        self.subsets = inputs.balanced_subsets(
            stream, ROUNDS, PER_ROUND, MIN_QUERIES, MAX_QUERIES)

    def prepare(self) -> None:
        self.markup = []
        for path, seed in self.witnesses:
            inputs.xmark(path, FACTOR, seed)
            self.markup.append(inputs.read(path))

    def setup_queries(self) -> list[str]:
        return self.subsets[0]

    def query_sets(self) -> list[list[str]]:
        return self.subsets

    def probe_document(self) -> str:
        return self.witnesses[0][0]

    # -- timed phase ---------------------------------------------------
    def _step(self, index: int, rec):
        """Subset ``index`` pruning witness ``index % WITNESSES``."""
        queries = self.subsets[index]
        markup = self.markup[index % WITNESSES]
        size = len(markup.encode("utf-8"))

        def call() -> Op:
            started = time.perf_counter()
            with rec.operation("adhoc.op"):
                with rec.span("core.analyze"):
                    analysis = repro.analyze(self.ctx.grammar, queries)
                with rec.span("api.prune"):
                    text = repro.prune(markup, self.ctx.grammar, analysis).text
            seconds = time.perf_counter() - started
            return Op(seconds, size, len(text.encode("utf-8")), start=started,
                      key=index, digest=digest(text))

        return lambda: attempt(call, size, index)

    def run(self, seconds: float, rec):
        cycle = [self._step(index, rec) for index in range(len(self.subsets))]
        # No projector cache: every analysis is fresh by construction.
        return sequential(cycle, seconds, {"core.cache_hit_ratio": 0.0})

    # -- oracle --------------------------------------------------------
    def expected(self, keys) -> dict:
        """Tree-reference bytes per query set; a set whose pruned
        document changes any query's answer (Thm 4.5) expects nothing,
        so its operations all fail."""
        grammar = self.ctx.grammar
        expected = {}
        for witness, (_, seed) in enumerate(self.witnesses):
            indexes = [index for index in set(keys) if index % WITNESSES == witness]
            if not indexes:
                continue
            reference = TreeReference(grammar, FACTOR, seed, digest(self.markup[witness]))
            original: dict[str, object] = {}
            for index in indexes:
                queries = self.subsets[index]
                projector = repro.analyze(grammar, queries).projector
                pruned = reference.pruned_document(projector)
                sound = True
                for query in queries:
                    if query not in original:
                        original[query] = answer(reference.document, query)
                    if answer(pruned, query) != original[query]:
                        print(f"adhoc: Thm 4.5 violated for {query!r}", file=sys.stderr)
                        sound = False
                expected[index] = reference.pruned_digest(projector) if sound else None
        return expected
