"""serve-mixed: a repro-serve daemon under two closed-loop client threads.

The daemon runs as its own process with an on-disk store and one
worker.  Each client repeats: submit, follow ``/events`` to ``end``,
fetch the document, over its seeded plan (:func:`workloads.serve_plan`),
in whole twelve-operation cycles until the time is up.  Set-up is daemon
launch to a healthy ``/v1/health``, three times; the last daemon serves
the timed phase.  A kind of operation is one client's slot in the cycle;
its latency is the lower quartile of its timings
(:func:`common.typical_latencies`), and the rate is a cycle's
replications over the sum of its slots' lower-quartile durations.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Any

import spans
import workloads
from common import (
    CHILD,
    REFERENCE_REPEATS,
    ROOT,
    child_env,
    python,
    reference_work,
    stop,
    typical_latencies,
    vm_hwm_mb,
)
from digests import Checker, sweep_digest

#: served documents compared byte for byte with a one-shot run, per phase
BYTE_CHECKS = ("fresh", "adaptive")
#: metrics reported at the nominal host speed.  Not the median: it is a
#: dedup round trip that mostly waits for the daemon's GIL hand-off (a
#: fixed 5 ms switch interval while the worker simulates), which does
#: not follow the host's speed; scaled, its spread over ten runs grew
#: from 0.155 to 0.205 of its median
HOST_SCALED = ("latency_p90_s", "replications_per_s")


def _start(tmp: Path, name: str, traced: bool):
    """Launch a daemon and wait until it is healthy:
    (process, client, seconds, spans path)."""
    from repro.serve.client import ServeClient

    args = ["start", "--dir", str(tmp / name), "--port", "0", "--workers", "1"]
    span_path = tmp / f"{name}.spans"
    if traced:
        argv = python(str(CHILD), "traced", "serve", str(span_path), *args,
                      importtime=True)
    else:
        argv = python("-m", "repro.serve.cli", *args)
    err = tmp / f"{name}.err"
    t0 = time.perf_counter()
    with open(err, "wb") as err_fh:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err_fh)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        stop(proc)
        raise RuntimeError(f"daemon failed to start: {err.read_text()[-2000:]}")
    client = ServeClient(line.rsplit(" ", 1)[-1].strip(), timeout=120)
    while client.health().get("status") != "ok":
        time.sleep(0.01)
    return proc, client, time.perf_counter() - t0, span_path


def _shutdown(proc: subprocess.Popen, client) -> None:
    client.shutdown()
    stop(proc)
    proc.stdout.close()


def _client_loop(url: str, plan: list[dict], barrier: threading.Barrier,
                 go: list[bool], records: list[tuple]) -> None:
    """One closed-loop client.  Both clients start every operation
    together (``barrier``), so their concurrency is the same on every run;
    the barrier's action decides, at cycle starts, whether to go on."""
    from repro.serve.client import ServeClient

    client = ServeClient(url, timeout=120)
    for i, op in enumerate(plan):
        barrier.wait(timeout=170)
        if i % workloads.SERVE_CYCLE == 0 and not go[0]:
            return
        t0 = time.perf_counter_ns()
        try:
            job_id = client.submit(op["submission"])["job_id"]
            for _ in client.events(job_id):
                pass
            document = client.fetch(job_id)
        except Exception as exc:  # a failed operation counts, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
            records.append((op, math.inf, None, error, t0, time.perf_counter_ns()))
            continue
        t1 = time.perf_counter_ns()
        records.append((op, (t1 - t0) / 1e9, document, None, t0, t1))


def phase(seed: int, seconds: float, tmp: Path, *, traced: bool,
          setups: int) -> dict[str, Any]:
    """Set up ``setups`` daemons (median time), drive the last one."""
    from child import one_shot_document

    times, proc = [], None
    try:
        for i in range(setups):
            proc, client, elapsed, span_path = _start(tmp, f"serve-{traced}-{i}", traced)
            times.append(elapsed)
            if i < setups - 1:
                _shutdown(proc, client)
        for submission in workloads.serve_warmup():
            client.fetch(client.submit(submission)["job_id"], wait=True, timeout=120)
        plans = workloads.serve_plan(seed)
        records: list[list[tuple]] = [[] for _ in plans]
        start = time.perf_counter()
        go, slot, reference = [True], [0], []

        def decide() -> None:
            # between operations, with the daemon idle: at each cycle
            # start, time the reference and decide whether to go on
            if slot[0] % workloads.SERVE_CYCLE == 0:
                reference.extend(reference_work() for _ in range(REFERENCE_REPEATS))
            slot[0] += 1
            go[0] = time.perf_counter() - start < seconds

        barrier = threading.Barrier(len(plans), action=decide)
        threads = [threading.Thread(target=_client_loop,
                                    args=(client.url, plan, barrier, go, out))
                   for plan, out in zip(plans, records)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rss = vm_hwm_mb(proc.pid)
        _shutdown(proc, client)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            stop(proc)

    checker = Checker()
    errors: list[str] = []
    failed, replications, latencies = 0, 0, []
    # a kind of operation is a client's slot in the cycle
    groups: dict[tuple[int, int], list[float]] = {}
    byte_checks = set(BYTE_CHECKS)
    for c, client_records in enumerate(records):
        for i, (op, latency, document, error, _, _) in enumerate(client_records):
            ok = error is None
            if error:
                errors.append(f"{op['kind']}: {error}")
            else:
                parsed = json.loads(document)
                ok = checker.check(workloads.serve_pin_key(op["submission"]),
                                   sweep_digest(parsed))
                if ok and op["kind"] in byte_checks:
                    byte_checks.discard(op["kind"])
                    if one_shot_document(op["submission"]) != document:
                        ok = False
                        errors.append(f"{op['kind']}: served bytes differ from one-shot")
                replications += parsed["total_replications"]
            failed += not ok
            latencies.append(latency if ok else math.inf)
            groups.setdefault((c, i % workloads.SERVE_CYCLE), []).append(latencies[-1])
    # the clients run slot by slot, so a cycle lasts the sum of its slots,
    # each from the earlier start to the later end of the two operations
    slots: dict[int, list[float]] = {}
    for i, pair in enumerate(zip(*records)):
        slots.setdefault(i % workloads.SERVE_CYCLE, []).append(
            (max(r[5] for r in pair) - min(r[4] for r in pair)) / 1e9)
    cycles = len(records[0]) / workloads.SERVE_CYCLE
    flat = [r for client_records in records for r in client_records]
    result = {
        "latencies": latencies, "typical": typical_latencies(groups),
        "reference": reference,
        "replications_per_s": replications / cycles / sum(typical_latencies(slots)),
        "setup_s": statistics.median(times), "setups": setups,
        "failed": failed, "rss_mb": rss,
        "errors": errors + checker.mismatches,
        "byte_checks": len(BYTE_CHECKS) - len(byte_checks),
        "op_intervals": [(r[4], r[5]) for r in flat],
    }
    if traced:
        result["spans"] = json.loads(span_path.read_text())
        result["imports"] = [spans.parse_importtime(
            (tmp / f"serve-{traced}-{setups - 1}.err").read_text())]
    return result


def trace_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of a traced phase (one daemon process)."""
    n = len(result["latencies"])
    metrics = spans.layer_metrics([result["spans"]], n_ops=n, n_procs=1,
                                  imports=result["imports"])
    metrics["trace.coverage"] = spans.serve_coverage(result["spans"],
                                                     result["op_intervals"])
    return metrics
