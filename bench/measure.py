"""Timing, child processes, percentiles and the environment record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The installed `orbheat` console script is `from orbheat.cli import main; main()`.
CLI = (sys.executable, "-c", "from orbheat.cli import main; main()")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float
    timed_out: bool


def run_child(cmd, timeout: float) -> Child:
    """Run cmd to completion or until timeout; time it and read its peak RSS.

    The child is waited for with waitid(WNOWAIT) first, so the timeout's
    kill can never hit a reaped and reused pid, and then reaped with wait4
    for its rusage. On Linux a child's ru_maxrss is at least this process's
    RSS when it spawned the child, so callers spawn while this process is small.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        lock = threading.Lock()
        state = {"done": False, "killed": False}
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["done"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            seconds = time.perf_counter() - start
            with lock:
                state["done"] = True
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            seconds=seconds,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            timed_out=state["killed"],
        )


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its timeout")


def timed_call(fn, timeout: float) -> dict:
    """Call fn() under a SIGALRM timeout: {"out" or "error", "seconds"}.

    An op that raises or times out is a failed op, not a failed run.
    """
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        record = {"out": fn()}
    except OpTimeout:
        record = {"error": f"timed out after {timeout} s", "timeout": True}
    except Exception as exc:
        record = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["seconds"] = time.perf_counter() - t0
    return record


def percentile(values, q: float):
    """Nearest-rank q-quantile and how many samples lie strictly beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond


def tail_percentile(values, q: float = 0.9):
    """The q-quantile when at least ten samples lie beyond it, else None."""
    if not values:
        return None
    value, beyond = percentile(values, q)
    return value if beyond >= 10 else None


def median(values) -> float:
    return statistics.median(values)


def python_probe(code: str, repeats: int, timeout: float = 60.0) -> list:
    """Wall seconds of `repeats` fresh interpreters running `code`."""
    samples = []
    for _ in range(repeats):
        child = run_child((sys.executable, "-c", code), timeout)
        if child.code != 0:
            raise RuntimeError(f"probe {code!r} failed: {child.stderr.strip()}")
        samples.append(child.seconds)
    return samples


# Packages whose top two levels the import-time breakdown keeps.
_IMPORTTIME_PACKAGES = ("orbheat", "numpy", "fractions", "argparse", "json")


def importtime(module: str = "orbheat.cli") -> dict:
    """Cumulative `-X importtime` seconds of the packages behind `import module`."""
    child = run_child((sys.executable, "-X", "importtime", "-c", f"import {module}"), 60.0)
    if child.code != 0:
        raise RuntimeError(f"import {module} failed: {child.stderr.strip()}")
    out = {}
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.split(".")[0] in _IMPORTTIME_PACKAGES and name.count(".") <= 1:
            out[name] = int(cumulative) / 1e6
    return out


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ("git", "rev-parse", "HEAD"), cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbheat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    # numpy is asked for its version in a child: importing it here would
    # raise this process's RSS, the floor of every child's ru_maxrss.
    numpy_version = run_child((sys.executable, "-c", "import numpy; print(numpy.__version__)"), 60.0)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version.stdout.strip() or "unavailable",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "importtime_s": importtime(),
    }


def write_result(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
