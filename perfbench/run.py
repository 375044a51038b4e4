"""One seeded benchmark for the projection pipeline.

    python3 perfbench/run.py --workload {scan,batch,serve,adhoc} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program under test is the
checkout's ``src/repro``, imported from source.  ``--seed`` fixes every
input; ``--seconds`` is how long the timed phase measures (for the
sequential workloads, the whole number of cycles of the operation mix
that comes closest).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(the median of several cold starts in child processes), then the timed
phase.  Timings are reported at a reference host speed, with the
wall-clock figures beside them (``measure.py`` says why).  ``--trace 1`` runs the phase twice, untraced then traced, for
the tracing overhead, then the layer probes (``layers.py``), and
reports the per-layer metrics.  The program's own ``repro.obs`` tracing
stays off in both; the spans are the benchmark's own.

Every output is checked against its reference after the timed phase
(``oracle.py``), and the checker must reject a correct output when one
character of its reference is changed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the readable report.  The run writes the report and the
spans under ``.perfbench_out/`` and works in a ``.perfbench_work/``
directory it removes.  Exit status: 0 when every check passed, 1 when
one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scan", "batch", "serve", "adhoc")
SETUP_RUNS = 11


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload, ctx) -> tuple[list[float], list[float]]:
    """``SETUP_RUNS`` cold starts, each in a fresh child process: their
    times at the reference host speed (sampled by each child around its
    own timed region), and on the wall clock."""
    from measure import REFERENCE_SECONDS

    timed, raw = [], []
    for run in range(SETUP_RUNS):
        work = os.path.join(ctx.work, f"setup-{run}")
        os.makedirs(work)
        command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                   "--src", SRC, "--work", work,
                   "--queries", json.dumps(workload.setup_queries())]
        if workload.name == "serve":
            command += ["--serve-doc", workload.probe_document()]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=120, check=False, cwd=work)
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed: {completed.stderr[-2000:]}")
        probe = json.loads(completed.stdout.splitlines()[-1])
        timed.append(probe["seconds"] * REFERENCE_SECONDS / probe["reference_s"])
        raw.append(probe["seconds"])
    return timed, raw


def _verify(ops, expected) -> int:
    return sum(1 for op in ops
               if op.error is not None or op.digest is None
               or op.digest != expected.get(op.key))


def _self_check(ops, expected) -> bool:
    """The checker must flag a correct output against a reference whose
    text has one character changed: the last operation that passed is
    checked again with the expected digest of its (first) reference text
    replaced by that of the changed text (``oracle.TAMPERED``)."""
    from oracle import TAMPERED

    for op in reversed(ops):
        if _verify([op], expected) == 0:
            value = expected[op.key]
            first = value[0] if isinstance(value, tuple) else value
            if first not in TAMPERED:
                return False  # not a digest of a reference text
            tampered = ((TAMPERED[first],) + value[1:] if isinstance(value, tuple)
                        else TAMPERED[first])
            return _verify([op], {op.key: tampered}) == 1
    return False


def _untraced(workload, ctx, seconds: float, stage):
    """End-to-end metrics with tracing off: set-up, then the timed phase."""
    from common import end_to_end
    from measure import median, peak_rss_mb
    from spans import OFF

    setup, setup_wall = _setup_seconds(workload, ctx)
    stage("setup_probes_s")
    phase = workload.run(seconds, OFF)
    values = end_to_end(phase)
    values["setup_s"] = (median(setup), len(setup))
    values["peak_rss_mb"] = (peak_rss_mb(), 1)
    wall = {name: value for name, (value, _) in end_to_end(phase, scaled=False).items()}
    wall["setup_s"] = median(setup_wall)
    return values, phase.ops, {}, wall, phase.speed


def _traced(workload, ctx, seconds: float, stage):
    """Per-layer metrics: the phase untraced, then traced (for the
    tracing overhead and each module's self time per operation), then
    the layer probes."""
    from common import end_to_end
    from layers import Probes
    from spans import OFF, Recorder, self_by_module

    untraced = workload.run(seconds / 2, OFF)
    recorder = Recorder()
    phase = workload.run(seconds / 2, recorder)
    n = len(phase.ops)
    probes = Probes(workload, ctx)
    values = probes.run(phase.layers, n)
    values["obs.trace_overhead_ratio"] = (
        end_to_end(phase)["latency_p50_ms"][0] / end_to_end(untraced)["latency_p50_ms"][0], n)
    per_module = self_by_module(recorder.spans)
    for module in ("bench", "core", "api", "parallel", "service"):
        values[f"phase.{module}_self_ms"] = (per_module.get(module, 0.0) * 1000.0 / n, n)
    recorders = {"phase": recorder, "probes": probes.rec}
    return values, untraced.ops + phase.ops, recorders, {}, phase.speed


def _measure(args, declared) -> dict:
    import repro
    from repro.workloads.xmark.dtd import XMARK_DTD

    from adhoc import Adhoc
    from batch import Batch
    from common import Context
    from scan import Scan
    from serve import Serve

    kinds = {"scan": Scan, "batch": Batch, "serve": Serve, "adhoc": Adhoc}
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    ctx = Context(src=SRC, work=work, seed=args.seed, grammar=repro.load_grammar(XMARK_DTD))
    workload = kinds[args.workload](ctx)
    stages: dict[str, float] = {}
    clock = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stages[name] = round(now - clock, 3)
        clock = now

    try:
        workload.prepare()
        stage("inputs_s")
        measure = _untraced if args.trace == 0 else _traced
        values, checked, recorders, wall, speed = measure(workload, ctx, args.seconds, stage)
        stage("measured_s")
        expected = workload.expected([op.key for op in checked])
        failed = _verify(checked, expected)
        caught = _self_check(checked, expected)
        stage("checks_s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still works there

    section = "end_to_end" if args.trace == 0 else "per_layer"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares "
                           f"{sorted(units)} under {section}")
    return {
        "rows": [(name, values[name][0], units[name], values[name][1], wall.get(name))
                 for name in sorted(values)],
        "reference_loop_ms": [round(seconds * 1000.0, 4) for _, seconds in speed.samples],
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
        "attempted": len(checked),
        "failed": failed,
        "corruption_caught": caught,
        "recorders": recorders,
        "stages": stages,
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from measure import median, provenance
    from spec import WORKLOADS as DESCRIPTIONS
    from spec import should_move

    started = time.time()
    result = _measure(args, declared)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result["corruption_caught"]
    stamp = provenance(ROOT, SRC)
    loop = result["reference_loop_ms"]
    stamp["reference_loop_ms"] = {"samples": len(loop), "min": min(loop),
                                  "median": median(loop), "max": max(loop)}
    stamp["stages"] = result["stages"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for key, text in DESCRIPTIONS[args.workload].items():
        print(f"  {key}: {text}")
    if args.trace == 0:
        print("timings at the reference host speed (see perfbench/measure.py); "
              "wall-clock figures beside them")
    print(f"{'metric':34} {'value':>14} {'unit':8} {'samples':>7} {'wall-clock':>14}")
    for name, value, unit, samples, wall in result["rows"]:
        note = f" {wall:14.6g}" if wall is not None else ""
        if args.trace == 1:
            moves, stays = should_move(name)
            note = f"  moves: {moves}; not: {stays}"
        print(f"{name:34} {value:14.6g} {unit:8} {samples:7d}{note}")
    print(f"{'failed_ratio':34} {failed / attempted:14.6g} {'ratio':8} {attempted:7d}"
          f"  (failed {failed} of {attempted} attempted)")
    print(f"corrupted-reference self-check: "
          f"{'caught' if result['corruption_caught'] else 'MISSED'}")

    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, name + ".json"), "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started": started, "provenance": stamp,
            "description": DESCRIPTIONS[args.workload],
            "metrics": {n: {"value": v, "unit": u, "samples": s, "wall_clock": w}
                        for n, v, u, s, w in result["rows"]},
            "attempted": attempted, "failed": failed,
            "corruption_caught": result["corruption_caught"],
        }, handle, indent=2)
    if result["recorders"]:
        from spans import write_jsonl

        write_jsonl(result["recorders"], os.path.join(out, name + ".spans.jsonl"))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
