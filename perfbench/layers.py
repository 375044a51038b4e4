"""Layer probes of the traced run.

Each probe calls one layer's public functions directly, on the
workload's own inputs, inside a span named after the metric it feeds;
every metric below is computed from span self times, so a layer's time
never includes the layers it calls that have spans of their own.  The
analysis probe is the exception: it calls ``repro.analyze`` itself, with
the stage functions that call makes wrapped in spans for the duration.

The scanning probes run on the workload's probe document (the whole
``scan`` document for ``scan``) beside three speed-of-light floors
measured on the same bytes in the same run: reading the file,
``str.count('<')`` and a bare ``re.finditer`` tag scan.  Each scanning
layer is reported in ms per MB and as a multiple of the regex floor;
the multiples are the steadier read on a noisy host.
"""

from __future__ import annotations

import io
import math
import os
import re
import threading
from collections import Counter, deque

import repro
from repro.core.projector import ProjectorInference
from repro.ledger import Ledger
from repro.projection.fastpath import FastPruner
from repro.projection.stats import PruneStats
from repro.querylang import looks_like_xquery
from repro.service import ServiceClient
from repro.workloads.xmark.dtd import XMARK_DTD
from repro.xmltree.parser import parse_events

import inputs
import server
from batch import SPECS
from common import work_path
from measure import median
from serve import Serve
from spans import Recorder, self_by_name, self_by_op

#: Each scanning probe reads at least this many bytes (at least one pass).
PROBE_BYTES = 3_000_000
MAX_PASSES = 40
#: The analysis probe times at least this many query sets.
ANALYSIS_SETS = 24
GRAMMAR_LOADS = 20
PARALLEL_PASSES = 2
SERVICE_REQUESTS = 12  # per client connection
PROBE_CORPUS = 8
PROBE_FACTOR = 0.003

TAG = re.compile(r"<[^>]*>")


def _passes(size: int) -> int:
    return max(1, min(MAX_PASSES, math.ceil(PROBE_BYTES / size)))


def _drain(iterator) -> None:
    deque(iterator, maxlen=0)


class Probes:
    def __init__(self, workload, ctx) -> None:
        self.workload = workload
        self.ctx = ctx
        self.grammar = ctx.grammar
        self.rec = Recorder()
        #: metric -> (value, number of samples behind it)
        self.metrics: dict[str, tuple[float, int]] = {}
        self.projectors = [
            repro.analyze(self.grammar, queries).projector
            for queries in workload.query_sets()
        ]

    def _timed(self, name: str, passes: int, call) -> None:
        self._rounds(passes, [(name, call)])

    def _rounds(self, passes: int, probes: list) -> None:
        for index in range(passes):
            for name, call in probes:
                with self.rec.operation(f"probe.{name}"):
                    with self.rec.span(name):
                        call(index)

    def run(self, phase_layers: dict, phase_ops: int) -> dict[str, tuple[float, int]]:
        self.scanning()
        self.analysis()
        self._grammar()
        corpus = self._corpus()
        self.extraction(corpus)
        self.parallel(corpus)
        self.ledger(corpus)
        for name, value in phase_layers.items():
            self.metrics[name] = (value, phase_ops)
        if "service.server_p50_ms" not in self.metrics:
            self.service(corpus)
        return self.metrics

    # -- floors, tokenizer, pruner, validator, facade, limits -----------
    def scanning(self) -> None:
        path = self.workload.probe_document()
        size = os.path.getsize(path)
        mb = size / 1e6
        passes = _passes(size)
        grammar = self.grammar
        projectors = self.projectors
        text = inputs.read(path)
        everything = grammar.names()
        root_only = frozenset((grammar.root,))

        def own(index):
            return projectors[index % len(projectors)]

        def pruner(choose):
            def call(index):
                with open(path, encoding="utf-8") as handle:
                    FastPruner(grammar, choose(index)).write(handle, io.StringIO())
            return call

        def facade(**options):
            def call(index):
                repro.prune(path, grammar, own(index), out=io.StringIO(), **options)
            return call

        def events(index):
            with open(path, encoding="utf-8") as handle:
                _drain(parse_events(handle))

        # Round-robin, so every layer and its floor or baseline see the
        # same host: a slow spell cannot land on one side of a ratio.
        self._rounds(passes, [
            ("floor.read", lambda i: inputs.read(path)),
            ("floor.count_lt", lambda i: text.count("<")),
            ("floor.regex_tags", lambda i: _drain(TAG.finditer(text))),
            ("xmltree.events", events),
            ("projection.skip", pruner(lambda index: root_only)),
            ("projection.keep_emit", pruner(lambda index: everything)),
            ("projection.fast", pruner(own)),
            ("projection.event", facade(fast=False)),
            ("dtd.validate", facade(validate=True)),
            ("api.facade", facade()),
            ("limits.off", facade(limits="off")),
        ])

        stats = PruneStats()
        sink = io.StringIO()
        with open(path, encoding="utf-8") as handle:
            FastPruner(grammar, projectors[0], stats=stats).write(handle, sink)
        selfs = {name: median(values) for name, values in self_by_name(self.rec.spans).items()}
        per_mb = {name: selfs[name] * 1000.0 / mb for name in selfs}
        floor = per_mb["floor.regex_tags"]
        m = self.metrics
        m["floor.read_ms_per_mb"] = (per_mb["floor.read"], passes)
        m["floor.count_lt_ms_per_mb"] = (per_mb["floor.count_lt"], passes)
        m["floor.regex_tags_ms_per_mb"] = (floor, passes)
        for layer in ("xmltree.events", "projection.skip", "projection.keep_emit",
                      "projection.fast", "projection.event"):
            m[f"{layer}_ms_per_mb"] = (per_mb[layer], passes)
            m[f"{layer}_over_floor"] = (per_mb[layer] / floor, passes)
        validate = per_mb["dtd.validate"] - per_mb["projection.event"]
        m["dtd.validate_ms_per_mb"] = (validate, passes)
        m["dtd.validate_over_floor"] = (validate / floor, passes)
        m["api.overhead_ratio"] = (selfs["api.facade"] / selfs["projection.fast"], passes)
        m["limits.guard_overhead_ratio"] = (selfs["api.facade"] / selfs["limits.off"], passes)
        m["projection.elements_kept"] = (stats.elements_out, 1)
        m["projection.elements_skipped"] = (stats.elements_in - stats.elements_out, 1)
        m["projection.bytes_out"] = (len(sink.getvalue().encode("utf-8")), 1)

    def _grammar(self) -> None:
        self._timed("dtd.grammar", GRAMMAR_LOADS, lambda i: repro.load_grammar(XMARK_DTD))
        self.metrics["dtd.grammar_ms"] = (
            median(self_by_name(self.rec.spans)["dtd.grammar"]) * 1000.0, GRAMMAR_LOADS)

    # -- query front ends and the static analysis ----------------------
    def _stage_wrappers(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for each function ``repro.analyze``
        calls by name: the same function, inside a span named after the
        stage metric it feeds."""
        import repro.core.pipeline as pipeline
        import repro.xquery.extraction as extraction
        import repro.xquery.parser as xquery_parser
        import repro.xquery.rewrite as rewrite

        rec = self.rec

        def spanned(name, function):
            def call(*args, **kwargs):
                with rec.span(name):
                    return function(*args, **kwargs)
            return call

        stages = [
            (pipeline, "parse_xpath", "xpath.parse"),
            (pipeline, "approximate_query", "xpath.approximate"),
            (xquery_parser, "parse_xquery", "xquery.parse"),
            (rewrite, "rewrite_query", "xquery.extract_paths"),
            (extraction, "extract_paths", "xquery.extract_paths"),
            (pipeline, "infer_type", "core.infer"),
            (ProjectorInference, "infer_path", "core.projector"),
            (pipeline, "classify_path", "static.sat"),
            (pipeline, "classify_paths", "static.sat"),
            (pipeline, "filter_projector", "static.sat"),
        ]
        return [(owner, attribute, spanned(name, getattr(owner, attribute)))
                for owner, attribute, name in stages]

    def analysis(self) -> None:
        """``repro.analyze`` itself, with the functions it calls for each
        stage wrapped in spans while the probe runs.  Each query must
        reach its front end's parser once, and the projector must be the
        one the unwrapped call gave, or the probe fails the run."""
        sets = self.workload.query_sets()
        rounds = max(1, math.ceil(ANALYSIS_SETS / len(sets)))
        wrappers = self._stage_wrappers()
        originals = [(owner, attribute, getattr(owner, attribute))
                     for owner, attribute, _ in wrappers]
        sizes = []
        for owner, attribute, wrapper in wrappers:
            setattr(owner, attribute, wrapper)
        try:
            for _ in range(rounds):
                for queries, expected in zip(sets, self.projectors):
                    first = len(self.rec.spans)
                    with self.rec.operation("probe.analysis"):
                        projector = repro.analyze(self.grammar, queries).projector
                    parsed = Counter(span.name for span in self.rec.spans[first:]
                                     if span.name in ("xpath.parse", "xquery.parse"))
                    xquery = sum(1 for query in queries if looks_like_xquery(query))
                    if (parsed["xquery.parse"], parsed["xpath.parse"]) != (
                            xquery, len(queries) - xquery):
                        raise RuntimeError(
                            f"analysis probe: the parser spans {dict(parsed)} do not "
                            f"match the {len(queries)} queries of {queries!r}; "
                            "repro.analyze no longer calls the wrapped functions")
                    if projector != expected:
                        raise RuntimeError(
                            f"analysis probe: the wrapped repro.analyze gave another "
                            f"projector for {queries!r}")
                    sizes.append(len(projector))
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)
        spans = self.rec.spans
        for name in ("xpath.parse", "xpath.approximate", "xquery.parse",
                     "xquery.extract_paths", "core.infer", "core.projector", "static.sat"):
            per_op = self_by_op(spans, name)
            self.metrics[f"{name}_ms"] = (median(per_op) * 1000.0 if per_op else 0.0,
                                          len(per_op))
        self.metrics["core.projector_size"] = (median(sizes), len(sizes))

    # -- extraction, the worker pool, the ledger, the service ----------
    def _corpus(self) -> list[str]:
        corpus = getattr(self.workload, "probe_corpus", None)
        if corpus is not None:
            return corpus()
        stream = inputs.rng(self.ctx.seed, "probe-corpus")
        paths = []
        for index in range(PROBE_CORPUS):
            path = work_path(self.ctx, "probe", f"doc{index}.xml")
            inputs.xmark(path, PROBE_FACTOR, inputs.document_seed(stream))
            paths.append(path)
        return paths

    def extraction(self, corpus: list[str]) -> None:
        records = 0
        for path in corpus:
            with self.rec.operation("probe.extract"):
                with self.rec.span("extract.run"):
                    result = repro.extract(path, self.grammar, SPECS["persons"])
            records += len(result.records)
        seconds = sum(self_by_name(self.rec.spans)["extract.run"])
        mb = sum(os.path.getsize(path) for path in corpus) / 1e6
        self.metrics["extract.ms_per_mb"] = (seconds * 1000.0 / mb, len(corpus))
        self.metrics["extract.records_per_s"] = (records / seconds, len(corpus))

    def parallel(self, corpus: list[str]) -> None:
        out = os.path.join(self.ctx.work, "probe-out")
        self._rounds(PARALLEL_PASSES, [
            (f"parallel.jobs{jobs}", lambda i, jobs=jobs: repro.prune_many(
                corpus, self.grammar, self.projectors[0], jobs=jobs, out_dir=out))
            for jobs in (1, 2)
        ])
        selfs = self_by_name(self.rec.spans)
        one, two = median(selfs["parallel.jobs1"]), median(selfs["parallel.jobs2"])
        # Per-document overhead: worker time beyond the serial run
        # (2 workers x the parallel wall time, minus the serial time).
        for name, value in (("parallel.jobs1_s", one), ("parallel.jobs2_s", two),
                            ("parallel.speedup", one / two),
                            ("parallel.per_doc_overhead_ms",
                             (2 * two - one) * 1000.0 / len(corpus))):
            self.metrics[name] = (value, PARALLEL_PASSES)

    def ledger(self, corpus: list[str]) -> None:
        path = work_path(self.ctx, "probe-ledger", "ledger.jsonl")
        with Ledger(path) as ledger:
            for name in ("ledger.record", "ledger.hit"):
                for doc in corpus:
                    with self.rec.operation("probe.ledger"):
                        with self.rec.span(name):
                            # Text output: a caller's stream bypasses dedup.
                            repro.prune(doc, self.grammar, self.projectors[0], ledger=ledger)
            if ledger.hits != len(corpus):
                # The hit spans would time records, not hits.
                raise RuntimeError(f"ledger probe: {ledger.hits} ledger hits, "
                                   f"expected {len(corpus)}")
        selfs = self_by_name(self.rec.spans)
        self.metrics["ledger.record_ms"] = (median(selfs["ledger.record"]) * 1000.0, len(corpus))
        self.metrics["ledger.hit_ms"] = (median(selfs["ledger.hit"]) * 1000.0, len(corpus))

    def service(self, corpus: list[str]) -> None:
        """A short closed loop of 2 connections against a fresh server:
        each document twice with the same bytes (a ledger record, then a
        hit), the workload's first query set throughout.  A failed
        request fails the run."""
        markup = [inputs.read(path) for path in corpus]
        queries = self.workload.query_sets()[0]
        ledger = work_path(self.ctx, "probe-serve", "ledger.jsonl")
        process, port = server.start(self.ctx.src, self.ctx.work, ledger=ledger)
        timings: list = []
        errors: list[str] = []
        try:
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                before = client.stats()

            def loop(offset: int) -> None:
                try:
                    with ServiceClient("127.0.0.1", port, timeout=60) as client:
                        for number in range(SERVICE_REQUESTS):
                            doc = markup[(offset + number // 2) % len(markup)]
                            with self.rec.operation("probe.service"):
                                with self.rec.span("service.request") as span:
                                    outcome = client.prune(doc, queries=queries, xmark=True)
                            timings.append((span.seconds, outcome.seconds))
                except Exception as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=loop, args=(offset,))
                       for offset in (0, len(markup) // 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                after = client.stats()
        finally:
            server.stop(process)
        if errors:
            raise RuntimeError(f"service probe: {len(errors)} connection(s) failed: {errors[0]}")
        layers = Serve.layers(before, after, timings)
        layers.pop("core.cache_hit_ratio")  # the workload's own cache reports it
        for name, value in layers.items():
            self.metrics[name] = (value, len(timings))
