"""mc-sweep: one warm process issuing seeded run_sweep/run_scenario points.

The process (``child.py mc``) imports repro, discovers the packs and runs
one replication of every deck entry (set-up), then runs whole seeded
decks (:data:`workloads.MC_DECK`) with no store until the time is up.
Set-up is measured from launch to its "ready" line, three times; the
last process runs the timed phase.  Each deck entry's latency is the
lower quartile of its timings (:func:`common.typical_latencies`); the
percentiles are taken over entries, and the rate is a deck's
replications over the sum of its entries' latencies.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any

import spans
import workloads
from common import CHILD, ROOT, child_env, python, stop, typical_latencies

#: metrics reported at the nominal host speed (all timed work is compute)
HOST_SCALED = ("latency_p50_s", "latency_p90_s", "replications_per_s")


def _launch(seed: int, seconds: float, trace: bool, out: Path,
            err: Path) -> tuple[subprocess.Popen, float]:
    """Start a warm process and wait for it to be ready: (process, seconds)."""
    argv = python(str(CHILD), "mc", str(seed), str(seconds),
                  "1" if trace else "0", str(out), importtime=trace)
    t0 = time.perf_counter()
    with open(err, "wb") as err_fh:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err_fh)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        stop(proc)
        raise RuntimeError(f"mc process failed to start: {err.read_text()[-2000:]}")
    return proc, elapsed


def _finish(proc: subprocess.Popen, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.close()
    stop(proc, timeout=170)
    proc.stdout.close()


def phase(seed: int, seconds: float, tmp: Path, *, traced: bool,
          setups: int) -> dict[str, Any]:
    """Set up ``setups`` warm processes (median time), time the last one."""
    times = []
    out, err = tmp / f"mc-{traced}.json", tmp / f"mc-{traced}.err"
    for i in range(setups):
        proc, elapsed = _launch(seed, seconds, traced, out, err)
        times.append(elapsed)
        if i < setups - 1:
            _finish(proc, "quit")
    _finish(proc, "go")
    if proc.returncode != 0:
        raise RuntimeError(f"mc process exited {proc.returncode}: "
                           f"{err.read_text()[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["latencies"] = [math.inf if v is None else v for v in result["latencies"]]
    result["setup_s"] = statistics.median(times)
    result["setups"] = setups
    groups: dict[str, list[float]] = {}
    for entry, latency in zip(result["entries"], result["latencies"]):
        groups.setdefault(entry, []).append(latency)
    # one kind of operation per deck entry; a deck at typical speed
    result["typical"] = typical_latencies(groups)
    deck_replications = sum(entry[1] for entry in workloads.MC_DECK)
    result["replications_per_s"] = deck_replications / sum(result["typical"])
    if traced:
        result["imports"] = [spans.parse_importtime(err.read_text())]
    return result


def trace_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of a traced phase (one warm process)."""
    span_list = result["spans"]
    n = len(result["latencies"])
    metrics = spans.layer_metrics([span_list], n_ops=n, n_procs=1,
                                  imports=result["imports"])
    ops = sum(s[2] - s[1] for s in span_list if s[0] == "op") / 1e9
    in_ops = sum(sec for span, sec in zip(span_list, spans.self_times(span_list))
                 if span[0] == "op")
    metrics["trace.coverage"] = (ops - in_ops) / ops if ops else 0.0
    return metrics
