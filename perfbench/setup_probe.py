"""Set-up time of one fresh process, printed as one JSON line.

Times ``import repro``, ``load_grammar`` of the XMark DTD text and the
first analysis; with ``--serve-doc`` also ``repro serve`` from process
start until the first reply (workers pinned).  Run as a child of
``run.py``, several times per run, so ``setup_s`` is a median of cold
starts rather than one.  The host-speed reference loop
(``measure.calibration_seconds``) is timed just before and just after
the timed region, and its median is printed as ``reference_s`` for the
parent to scale ``seconds`` by.

    python3 perfbench/setup_probe.py --src SRC --work DIR --queries JSON [--serve-doc PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Reference-loop samples on each side of the timed region.
CALIBRATIONS = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--serve-doc")
    args = parser.parse_args()
    queries = json.loads(args.queries)
    sys.path.insert(0, args.src)
    from measure import calibration_seconds, median

    calibration_seconds()  # warm the loop; not a sample
    reference = [calibration_seconds() for _ in range(CALIBRATIONS)]

    started = time.perf_counter()
    import repro
    from repro.workloads.xmark.dtd import XMARK_DTD

    imported = time.perf_counter()
    grammar = repro.load_grammar(XMARK_DTD)
    loaded = time.perf_counter()
    repro.analyze(grammar, queries)
    analyzed = time.perf_counter()
    result = {
        "import_s": imported - started,
        "grammar_s": loaded - imported,
        "analysis_s": analyzed - loaded,
    }
    if args.serve_doc:
        import server
        from repro.service import ServiceClient

        with open(args.serve_doc, encoding="utf-8") as handle:
            markup = handle.read()
        begun = time.perf_counter()
        process, port = server.start(
            args.src, args.work, ledger=os.path.join(args.work, "ledger.jsonl"))
        try:
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                client.prune(markup, queries=queries, xmark=True)
            result["server_s"] = time.perf_counter() - begun
        finally:
            server.stop(process)
    result["seconds"] = sum(result.values())
    reference += [calibration_seconds() for _ in range(CALIBRATIONS)]
    result["reference_s"] = median(reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
