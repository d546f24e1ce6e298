"""Helpers shared by the workload modules: paths, child processes, stats."""

from __future__ import annotations

import heapq
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
#: reported in place of a latency percentile that lands on a failed
#: operation (failures count as slower than every success)
FAILED_LATENCY = 1e9


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    sources first on the path, a fixed string-hash seed (a per-process
    random one changes dict layouts and with them the timings), and
    single-threaded numeric libraries."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(*args: str, importtime: bool = False) -> list[str]:
    """argv for a child interpreter."""
    return [sys.executable, *(["-X", "importtime"] if importtime else []), *args]


def run_timed(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (inclusive linear interpolation); a failed
    operation's latency is ``inf`` and reads as :data:`FAILED_LATENCY`."""
    values = [min(v, FAILED_LATENCY) for v in values]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: lower quartile of :func:`reference_work` on the machine the bounds were
#: set on (2 vCPUs of an Intel Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0115
#: reference timings taken at each deck or cycle boundary
REFERENCE_REPEATS = 3


def reference_work() -> float:
    """Time a fixed computation in the program's style (a heap-driven
    event loop over seeded floats, then vectorised numpy), in seconds.

    The host's speed drifts by tens of percent over minutes, the same for
    the reference as for the program; latencies are reported scaled by
    ``REFERENCE_S`` over the run's lower-quartile reference time, so they
    read as seconds on the machine the bounds were set on.  The code
    under test never runs here, so a change to it shows in full.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng, heap, acc = random.Random(7), [], 0.0
    for i in range(20000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 50:
            t, j = heapq.heappop(heap)
            acc += t * j
    x = np.random.default_rng(1).random(50000)
    acc += float(np.sort(x)[::7].sum() + np.cumsum(x)[-1])
    return time.perf_counter() - t0


def host_scale(reference: list[float]) -> float:
    """Nominal over measured host speed for a run's reference timings."""
    return REFERENCE_S / percentile(reference, 25)


def typical_latencies(groups: dict[object, list[float]]) -> list[float]:
    """Each group's lower quartile: the latency of one kind of operation.

    The shared host's neighbours slow a run down in phases of seconds
    to minutes (the same point's CPU time moves by up to 2x), and they
    only ever add time.  Every kind of operation recurs a dozen times or
    more, spread over the run, so the lower quartile of its timings
    tracks the program and not the neighbours, where the median moved
    by 25% and more between runs of the same code.
    """
    return [percentile(values, 25) for values in groups.values()]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``proc`` to end, killing it after ``timeout`` seconds."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
