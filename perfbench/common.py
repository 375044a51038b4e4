"""What every workload shares: the run context, the operation record,
the cycle runner and the end-to-end metrics computed from one timed
phase."""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from measure import HostSpeed, median, quantile


@dataclass(slots=True)
class Context:
    src: str  # the checkout's src/ directory (the program under test)
    work: str  # scratch directory inside the checkout, removed after the run
    seed: int
    grammar: object = None


@dataclass(slots=True)
class Op:
    """One timed operation and what the oracle needs to check it."""

    seconds: float  # wall time
    bytes_in: int
    bytes_out: int
    start: float = 0.0  # perf_counter at the start
    units: int = 1  # documents for batch passes, else 1
    key: object = None  # what the expected output is looked up by
    digest: str | None = None  # digest of the output actually produced
    error: str | None = None


@dataclass(slots=True)
class Phase:
    ops: list[Op]
    speed: HostSpeed
    #: Wall time of the concurrent ``serve`` loop; ``None`` for the
    #: sequential workloads, which count only time inside operations
    #: (the checks between them are excluded).
    wall: float | None = None
    #: Per-layer readings the phase itself yields (cache, server and
    #: ledger statistics), reported by the traced run.
    layers: dict = field(default_factory=dict)


_reported = False


def attempt(call: Callable[[], Op], bytes_in: int, key: object) -> Op:
    """Run one operation; an exception is a failed operation, never an
    aborted run (the first traceback goes to stderr)."""
    global _reported
    started = time.perf_counter()
    try:
        return call()
    except Exception as exc:  # a failed operation is counted, not fatal
        if not _reported:
            _reported = True
            traceback.print_exc(file=sys.stderr)
        return Op(time.perf_counter() - started, bytes_in, 0, start=started, key=key,
                  error=f"{type(exc).__name__}: {exc}")


def run_cycles(cycle: list[Callable[[], Op]], seconds: float) -> tuple[list[Op], HostSpeed]:
    """Run the whole number of cycles (at least one) whose length comes
    closest to ``seconds``, judged by the first cycle, sampling the host
    speed between operations.  Only whole cycles run, so every run
    weighs the cycle's operation kinds equally however the time falls."""
    speed = HostSpeed()
    ops: list[Op] = []

    def one_cycle() -> None:
        for step in cycle:
            speed.tick()
            ops.append(step())

    started = time.perf_counter()
    one_cycle()
    for _ in range(max(1, round(seconds / (time.perf_counter() - started))) - 1):
        one_cycle()
    speed.tick()
    return ops, speed


def sequential(cycle: list[Callable[[], Op]], seconds: float, layers: dict) -> Phase:
    ops, speed = run_cycles(cycle, seconds)
    return Phase(ops, speed, layers=layers)


def hit_ratio(before, after) -> float:
    """Projector-cache hit ratio between two ``CacheStats`` snapshots."""
    return (after.hits - before.hits) / max(1, after.lookups - before.lookups)


def end_to_end(phase: Phase, scaled: bool = True) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count).  Timings are at the reference
    host speed (``measure.HostSpeed``) unless ``scaled`` is false, which
    gives the plain wall-clock figures."""
    ops = phase.ops
    speed = phase.speed
    if scaled:
        seconds = [op.seconds * speed.factor(op.start, op.start + op.seconds) for op in ops]
    else:
        seconds = [op.seconds for op in ops]
    if phase.wall is None:
        total = sum(seconds)
    else:
        total = phase.wall * (speed.overall() if scaled else 1.0)
    latencies = [value * 1000.0 for value in seconds]
    bytes_in = sum(op.bytes_in for op in ops)
    units = sum(op.units for op in ops)
    n = len(ops)
    return {
        "throughput_mb_s": (bytes_in / 1e6 / total, n),
        "ops_per_s": (units / total, n),
        "latency_p50_ms": (median(latencies), n),
        "latency_p90_ms": (quantile(latencies, 0.9), n),
        "output_ratio": (sum(op.bytes_out for op in ops) / bytes_in, n),
    }


def work_path(ctx: Context, *parts: str) -> str:
    path = os.path.join(ctx.work, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path
