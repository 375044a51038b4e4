"""Start and stop ``repro serve`` as a child process, as a deployment
runs it.  The server's stdout goes to a file (never a pipe that could
fill); the bound port is read from its ``serving on HOST:PORT`` line."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

JOBS = 2
_BANNER = re.compile(r"serving on [^:\s]+:(\d+)")


def start(src: str, work: str, ledger: str | None = None,
          timeout: float = 60.0) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=src)
    log = os.path.join(work, f"server-{time.monotonic_ns()}.log")
    command = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
               "--port", "0", "--jobs", str(JOBS)]
    if ledger is not None:
        command += ["--ledger", ledger]
    with open(log, "w", encoding="utf-8") as handle:
        process = subprocess.Popen(command, stdout=handle, stderr=subprocess.STDOUT,
                                   env=env, cwd=work)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(log, encoding="utf-8") as handle:
            match = _BANNER.search(handle.read())
        if match:
            return process, int(match.group(1))
        if process.poll() is not None:
            break
        time.sleep(0.005)
    stop(process)
    with open(log, encoding="utf-8") as handle:
        raise RuntimeError(f"repro serve did not start: {handle.read()[-2000:]}")


def stop(process: subprocess.Popen) -> int:
    """Drain gracefully (SIGTERM), kill if that hangs; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode
