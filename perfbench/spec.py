"""What each workload is and what each per-layer metric should move.

``BENCHMARK.json`` holds the names, units and bounds; this module holds
the longer record the report prints beside them.  Before measuring, each
per-layer metric names the end-to-end metric and workload it should move
and those it should not: a change that moves one layer must show its
saving there and nowhere it was predicted not to appear.

These are not the metrics of the older ``benchmarks/bench_*.py``
scripts or their ``benchmarks/results/BENCH_*`` reports, which measure
other things on other inputs (``BENCH_parallel.json``'s 0.81x speedup,
for one, was recorded on a 1-CPU host).
"""

from __future__ import annotations

WORKLOADS = {
    "scan": {
        "load": "closed loop, 1 client (sequential operations)",
        "documents": "one XMark document, factor 0.1 (about 7.3 MB)",
        "queries": "//person/name, /site/open_auctions/open_auction/bidder/increase, "
                   "QP19, QP20 in rotation; each keeps about 1-5% of the bytes; "
                   "projectors resolved through a warm projector cache",
        "why": "the paper's main deployment: tokenizing and subtree skipping do "
               "nearly all the work, the analysis none",
    },
    "batch": {
        "load": "closed loop, 1 client driving prune_many/extract_many with jobs=2",
        "documents": "24 XMark documents, factors 0.003-0.015 (about 0.22-1.1 MB, "
                     "about 8 MB in all), most small, a few five times larger",
        "queries": "//keyword, /site/regions, /site (keep about 35%, 50%, 100%), each "
                   "once plain and once with validate=True per cycle; extract_many of "
                   "a persons spec and an items spec",
        "why": "keep+emit, DTD validation, record extraction and the worker pool do "
               "most of the work; the largest documents set each pass's wall time",
    },
    "serve": {
        "load": "closed loop, 2 client connections to one repro serve (jobs=2, ledger on)",
        "documents": "16 XMark documents, factors 0.003-0.007 (about 220-510 KB, "
                     "370 KB on average), each request made byte-unique by trailing "
                     "whitespace that encodes its number",
        "queries": "1/4 re-send a (document, workload) pair recorded in warm-up "
                   "(ledger hit), 1/8 a fresh seeded query set (server-side analysis), "
                   "5/8 one of 3 hot workloads on new bytes (projector cache hit)",
        "why": "admission, queue, worker and write stages, ledger writes beside ledger "
               "reads, cache hits beside misses",
    },
    "adhoc": {
        "load": "closed loop, 1 client (sequential operations)",
        "documents": "8 XMark documents, factor 0.00055 (about 40 KB), in rotation",
        "queries": "80 seeded subsets of 3-8 queries from QM01-QM20 and QP01-QP33, "
                   "each with XQuery and XPath, every query in 8 of them; a fresh "
                   "repro.analyze per operation",
        "why": "the analysis layers do most of the work, scanning little: the "
               "counter-workload to scan",
    },
}

_SCAN_LAYER = "nothing on adhoc"
SHOULD_MOVE = {
    "floor.": ("nothing: the speed-of-light reference for scan", "-"),
    "xmltree.": ("throughput_mb_s on scan and batch", _SCAN_LAYER),
    "projection.skip": ("throughput_mb_s on scan; latency_p50_ms on serve", _SCAN_LAYER),
    "projection.keep_emit": ("throughput_mb_s on batch; latency_p50_ms on serve", _SCAN_LAYER),
    "projection.fast": ("throughput_mb_s on scan; latency_p50_ms on serve", _SCAN_LAYER),
    "projection.event": ("throughput_mb_s on batch (validating passes)", _SCAN_LAYER),
    "projection.elements": ("output_ratio on scan, batch and serve", _SCAN_LAYER),
    "projection.bytes_out": ("output_ratio on scan, batch and serve", _SCAN_LAYER),
    "dtd.validate": ("throughput_mb_s on batch", "nothing on scan"),
    "dtd.grammar": ("setup_s on every workload", "nothing on scan"),
    "api.": ("latency_p50_ms on adhoc; ops_per_s on batch",
             "nothing on scan (per-call costs are small next to 7 MB)"),
    "limits.": ("latency_p50_ms on adhoc; ops_per_s on batch",
                "nothing on scan (per-call costs are small next to 7 MB)"),
    "xpath.": ("latency_p50_ms and latency_p90_ms on adhoc; latency_p90_ms on serve",
               "nothing on scan or batch"),
    "xquery.": ("latency_p50_ms and latency_p90_ms on adhoc; latency_p90_ms on serve",
                "nothing on scan or batch"),
    "core.projector_size": ("output_ratio on every workload", "-"),
    "core.": ("latency_p50_ms and latency_p90_ms on adhoc; latency_p90_ms on serve",
              "nothing on scan or batch"),
    "static.": ("latency_p50_ms and latency_p90_ms on adhoc; latency_p90_ms on serve",
                "nothing on scan or batch"),
    "extract.": ("throughput_mb_s on batch", "nothing on scan or adhoc"),
    "parallel.": ("throughput_mb_s and ops_per_s on batch", "nothing on the others"),
    "service.": ("latency_p50_ms and ops_per_s on serve", "nothing on the others"),
    "ledger.record": ("latency_p50_ms on serve", "nothing on the others"),
    "ledger.": ("ops_per_s on serve", "nothing on the others"),
    "obs.": ("nothing: the cost of the benchmark's own spans", "-"),
    "phase.": ("this workload's own latency_p50_ms (self time per operation, "
               "split by the module called)", "-"),
}


def should_move(metric: str) -> tuple[str, str]:
    """(moves, does not move) for a per-layer metric: the entry with the
    longest matching prefix."""
    matches = [prefix for prefix in SHOULD_MOVE if metric.startswith(prefix)]
    if not matches:
        raise KeyError(f"no should-move entry for per-layer metric {metric!r}")
    return SHOULD_MOVE[max(matches, key=len)]
