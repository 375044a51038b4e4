"""Statistics, host speed, resource readings and provenance for one
benchmark run.

Deliberately independent of the program under test: quantiles, the host
speed reference, peak RSS and the source fingerprint are computed here,
so a change to ``repro`` cannot change how it is measured.

**Host speed.**  The CPU speed of a shared host drifts, and not a
little: on a shared 2-vCPU virtual machine (Linux, CPython 3.11), a
fixed pure-Python loop ran anywhere from 7 to 18 ms over a quarter of
an hour, in spells of minutes, and wall-clock timings of the same run
moved with it by up to 2x.  No run length averages that away, so every end-to-end
timing is reported at a *reference host speed*: while a run measures,
a fixed pure-Python loop is timed in thread CPU time every quarter
second, and each operation's wall time is scaled by
``REFERENCE_SECONDS`` over the loop's median CPU time around that
operation.  The sequential workloads sample between operations, never
inside one (:meth:`HostSpeed.tick`); the concurrent ``serve`` clients
sample nothing themselves, a :class:`Sampler` child process does it for
them, so no sample holds their interpreter lock while a reply waits;
set-up probes time the loop in their own process just before and after
what they time.  Thread CPU time does not count time spent waiting for
a CPU, but load still reaches the loop: on the machine above it read
about a quarter faster while two other processes kept both vCPUs busy
than on an idle machine.  ``serve`` samples under its own load, so more
CPU use by the program makes its scaled timings read slower, never
faster.  A slower program still reads slower; a slower host reads the
same.  The unscaled wall-clock figures are printed and saved beside the
scaled ones.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import select
import subprocess
import sys
import time
from typing import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile (the "inclusive" method of
    ``statistics.quantiles``): exact at the sample points, defined for a
    single sample."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


#: The reference loop, and the CPU time one pass is taken to need at
#: the reference host speed (about its fastest on the machine above).
CALIBRATION_ITERATIONS = 30_000
REFERENCE_SECONDS = 0.001
#: Sample the host no more often than this, and look this far either
#: side of an operation for samples to scale it by.
SAMPLE_INTERVAL = 0.25
SAMPLE_WINDOW = 1.0


def calibration_seconds() -> float:
    """Thread CPU time of the reference loop: the median of three passes,
    so one interrupt does not make a sample."""
    passes = []
    for _ in range(3):
        started = time.thread_time()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value
        passes.append(time.thread_time() - started)
    return median(passes)


class HostSpeed:
    """Reference-loop samples over a timed phase."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)

    def tick(self) -> None:
        """Take a sample unless one was taken in the last interval; call
        between operations."""
        if self.samples and time.perf_counter() - self.samples[-1][0] < SAMPLE_INTERVAL:
            return
        seconds = calibration_seconds()
        self.samples.append((time.perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        """Scale for wall time spent between ``start`` and ``end``: the
        reference over the median sample within ``SAMPLE_WINDOW`` of
        that interval (the nearest sample if none is that close)."""
        near = [seconds for at, seconds in self.samples
                if start - SAMPLE_WINDOW <= at <= end + SAMPLE_WINDOW]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                        abs(s[0] - end)))[1]]
        return REFERENCE_SECONDS / median(near)

    def overall(self) -> float:
        """Scale for the phase as a whole."""
        return REFERENCE_SECONDS / median([seconds for _, seconds in self.samples])


class Sampler:
    """Samples the host speed from a child process while a concurrent
    phase runs: a sample at start (before :meth:`__enter__` returns),
    one every ``SAMPLE_INTERVAL`` and one at stop.  ``perf_counter`` is
    the system-wide monotonic clock on Linux, so the child's sample
    times line up with the parent's operation times."""

    def __enter__(self) -> HostSpeed:
        self.speed = HostSpeed()
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._add(self.process.stdout.readline())
        return self.speed

    def _add(self, line: str) -> None:
        at, seconds = line.split()
        self.speed.samples.append((float(at), float(seconds)))

    def __exit__(self, exc_type, exc, tb) -> None:
        self.process.stdin.close()  # the child takes a last sample and ends
        for line in self.process.stdout:
            self._add(line)
        if self.process.wait(timeout=30) != 0:
            raise RuntimeError("host-speed sampler failed")


def _sample_until_stdin_closes() -> None:
    while True:
        seconds = calibration_seconds()
        print(time.perf_counter(), seconds, flush=True)
        if select.select([sys.stdin], [], [], SAMPLE_INTERVAL)[0]:
            seconds = calibration_seconds()  # stdin reached its end
            print(time.perf_counter(), seconds, flush=True)
            return


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among its
    waited-for children (and their waited-for descendants), in MiB.

    ``ru_maxrss`` is a high-water mark in KiB on Linux; the children
    figure is the maximum over all reaped descendants, so the sum bounds
    the footprint of the process and its heaviest helper running side by
    side.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def source_fingerprint(src: str) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (sorted relative
    paths and contents): identifies the code measured even where the
    checkout is not a git repository."""
    hasher = hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            hasher.update(os.path.relpath(path, src).encode())
            hasher.update(b"\0")
            with open(path, "rb") as handle:
                hasher.update(handle.read())
            hasher.update(b"\0")
    return hasher.hexdigest()


def provenance(root: str, src: str) -> dict:
    return {
        "commit": _commit(root),
        "src_sha256": source_fingerprint(src),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--sample"]:
        sys.exit("usage: measure.py --sample  (samples the host speed until stdin closes)")
    _sample_until_stdin_closes()
