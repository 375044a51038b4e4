"""``batch``: a corpus of skewed-size XMark documents pruned by dense
projectors with ``prune_many(jobs=2)`` (every other pass validating)
and flattened with ``extract_many(jobs=2)``.  Keep+emit, validation,
record extraction and the worker pool do most of the work; the largest
documents set each pass's wall time."""

from __future__ import annotations

import os
import time

import repro
from repro.core.cache import ProjectorCache

import inputs
from common import Context, Op, attempt, hit_ratio, sequential, work_path
from oracle import TreeReference, digest, jsonl_records_digest, reference_records_digests

DOCUMENTS = 24
JOBS = 2

#: Dense workloads: they keep about 35%, 50% and 100% of the bytes.
QUERY_SETS = (["//keyword"], ["/site/regions"], ["/site"])

SPECS = {
    "persons": repro.ExtractSpec(
        rows="/site/people/person",
        fields={
            "id": "@id", "name": "name/text()", "email": "emailaddress/text()",
            "city": "address/city/text()", "age": "profile/age/text()",
        },
    ),
    "items": repro.ExtractSpec(
        rows="/site/regions/namerica/item",
        fields={
            "id": "@id", "name": "name/text()", "quantity": "quantity/text()",
            "location": "location/text()", "payment": "payment/text()",
        },
    ),
}


def factors() -> list[float]:
    """Skewed sizes from factor 0.003 (about 220 KB) to 0.015 (about
    1.1 MB): most documents are small, a few are five times larger."""
    return [0.003 * 5 ** ((i / (DOCUMENTS - 1)) ** 4) for i in range(DOCUMENTS)]


class Batch:
    name = "batch"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.cache = ProjectorCache()
        stream = inputs.rng(ctx.seed, "batch")
        sizes = factors()
        stream.shuffle(sizes)
        self.corpus = [
            (work_path(ctx, "batch", "corpus", f"doc{i:02d}.xml"), factor,
             inputs.document_seed(stream))
            for i, factor in enumerate(sizes)
        ]
        self.paths = [path for path, _, _ in self.corpus]
        self.out = os.path.join(ctx.work, "batch", "out")

    def prepare(self) -> None:
        self.total = sum(inputs.xmark(path, f, s) for path, f, s in self.corpus)
        for queries in QUERY_SETS:
            self.cache.analyze(self.ctx.grammar, queries)
        for spec in SPECS.values():
            self.cache.projector_for_spec(self.ctx.grammar, spec)

    def setup_queries(self) -> list[str]:
        return QUERY_SETS[0]

    def query_sets(self) -> list[list[str]]:
        return [list(queries) for queries in QUERY_SETS]

    def probe_document(self) -> str:
        return max(self.paths, key=os.path.getsize)

    def probe_corpus(self) -> list[str]:
        return self.paths

    # -- timed phase ---------------------------------------------------
    def _prune(self, index: int, validate: bool, rec):
        queries = QUERY_SETS[index]

        def call() -> Op:
            started = time.perf_counter()
            with rec.operation("batch.op"):
                with rec.span("parallel.prune_many"):
                    result = repro.prune_many(
                        self.paths, self.ctx.grammar, queries, jobs=JOBS,
                        out_dir=self.out, validate=validate, cache=self.cache,
                    )
            seconds = time.perf_counter() - started
            if not result.ok:
                raise RuntimeError(f"prune_many failed: {result.errors[:3]}")
            observed = [digest(inputs.read(path)) for path in result.output_paths()]
            return Op(seconds, self.total, result.stats.bytes_out, start=started,
                      units=DOCUMENTS, key=("prune", index), digest=tuple(observed))

        return lambda: attempt(call, self.total, ("prune", index))

    def _extract(self, name: str, rec):
        spec = SPECS[name]

        def call() -> Op:
            started = time.perf_counter()
            with rec.operation("batch.op"):
                with rec.span("parallel.extract_many"):
                    result = repro.extract_many(
                        self.paths, self.ctx.grammar, spec, jobs=JOBS,
                        out_dir=self.out, cache=self.cache,
                    )
            seconds = time.perf_counter() - started
            if not result.ok:
                raise RuntimeError(f"extract_many failed: {result.errors[:3]}")
            texts = [inputs.read(path) for path in result.output_paths()]
            observed = tuple(jsonl_records_digest(text) for text in texts)
            size_out = sum(len(text.encode("utf-8")) for text in texts)
            return Op(seconds, self.total, size_out, start=started, units=DOCUMENTS,
                      key=("extract", name), digest=observed)

        return lambda: attempt(call, self.total, ("extract", name))

    def run(self, seconds: float, rec):
        # Three projectors, each once without and once with validation
        # (every other pass validates), an extract pass after every third.
        cycle = [
            self._prune(0, False, rec), self._prune(1, True, rec),
            self._prune(2, False, rec), self._extract("persons", rec),
            self._prune(0, True, rec), self._prune(1, False, rec),
            self._prune(2, True, rec), self._extract("items", rec),
        ]
        before = self.cache.stats
        phase = sequential(cycle, seconds, {})
        phase.layers["core.cache_hit_ratio"] = hit_ratio(before, self.cache.stats)
        return phase

    # -- oracle --------------------------------------------------------
    def expected(self, keys) -> dict:
        keys = set(keys)
        prunes = sorted(which for kind, which in keys if kind == "prune")
        extracts = sorted(which for kind, which in keys if kind == "extract")
        projectors = {which: self.cache.analyze(self.ctx.grammar, QUERY_SETS[which]).projector
                      for which in prunes}
        per_doc: dict = {key: [] for key in keys}
        for path, factor, seed in self.corpus:
            reference = TreeReference(self.ctx.grammar, factor, seed,
                                      digest(inputs.read(path)))
            for which in prunes:
                per_doc["prune", which].append(reference.pruned_digest(projectors[which]))
            records = reference_records_digests(path, [SPECS[name] for name in extracts])
            for name, observed in zip(extracts, records):
                per_doc["extract", name].append(observed)
        return {key: tuple(value) for key, value in per_doc.items()}
