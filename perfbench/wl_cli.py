"""cli-oneshot: one client running cold CLI subprocesses in sequence.

Alternates ``python -m repro.experiments.cli run <panel> --json
--markdown`` with ``python -m repro.experiments.sweep_cli run <grid>
--canonical --json`` against a sample store warmed during set-up.
Set-up is that warm-up (a cold process that imports repro, discovers the
packs and fills the store), repeated three times into fresh stores; the
last store serves the timed phase.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Any

import spans
import workloads
from common import CHILD, REFERENCE_REPEATS, python, reference_work, run_timed
from digests import Checker, results_digest, sweep_digest

_MODULES = {"run": "repro.experiments.cli", "sweep": "repro.experiments.sweep_cli"}
#: metrics reported at the nominal host speed (all timed work is compute)
HOST_SCALED = ("latency_p50_s", "latency_p90_s", "replications_per_s")


def setup(tmp: Path, setups: int) -> tuple[float, Path]:
    """Warm fresh stores: (median seconds, the last store)."""
    times = []
    for i in range(setups):
        store = tmp / f"store{i}"
        elapsed, code, _ = run_timed(
            python(str(CHILD), "warm", str(store)), tmp / "warm.err")
        if code != 0:
            raise RuntimeError(f"store warm-up exited {code}: "
                               f"{(tmp / 'warm.err').read_text()[-2000:]}")
        times.append(elapsed)
    return statistics.median(times), store


def phase(seed: int, seconds: float, tmp: Path, *, traced: bool,
          setups: int) -> dict[str, Any]:
    """Warm ``setups`` stores (median time), then run alternating
    commands against the last one for ``seconds`` (whole run/sweep
    pairs)."""
    tmp = tmp / f"phase-{traced}"
    tmp.mkdir()
    setup_s, store = setup(tmp, setups)
    checker = Checker()
    latencies, rss, replications, failed = [], 0.0, 0, 0
    span_lists, imports, errors, reference = [], [], [], []
    start = time.perf_counter()
    for i, op in enumerate(workloads.cli_ops(seed)):
        if op["kind"] == "run" and time.perf_counter() - start >= seconds:
            break
        reference += [reference_work() for _ in range(REFERENCE_REPEATS)]
        out, md, err = tmp / f"op{i}.json", tmp / f"op{i}.md", tmp / f"op{i}.err"
        args = workloads.cli_argv(op, str(out), str(md), str(store))
        if traced:
            trace_out = tmp / f"op{i}.spans"
            kind = "cli" if op["kind"] == "run" else "sweep"
            argv = python(str(CHILD), "traced", kind, str(trace_out), *args,
                          importtime=True)
        else:
            argv = python("-m", _MODULES[op["kind"]], *args)
        elapsed, code, peak = run_timed(argv, err)
        rss = max(rss, peak)
        ok = code == 0
        if ok:
            document = json.loads(out.read_text(encoding="utf-8"))
            if op["kind"] == "run":
                produced = results_digest(document["results"])
                replications += sum(r["n_replications"] for r in document["results"])
            else:
                produced = sweep_digest(document)
                replications += document["total_replications"]
            ok = checker.check(workloads.cli_pin_key(op), produced)
        else:
            errors.append(f"{op}: exit {code}: {err.read_text()[-500:]}")
        if not ok:
            failed += 1
        latencies.append(elapsed if ok else math.inf)
        if traced:
            span_list = json.loads(trace_out.read_text())
            span_lists.append(span_list)
            imports.append(spans.parse_importtime(err.read_text()))
    elapsed = time.perf_counter() - start
    return {
        # every cold process is its own kind of operation
        "latencies": latencies, "typical": latencies, "reference": reference,
        "replications_per_s": replications / elapsed,
        "failed": failed, "rss_mb": rss,
        "errors": errors + checker.mismatches,
        "span_lists": span_lists, "imports": imports,
        "setup_s": setup_s, "setups": setups,
    }


def trace_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of a traced phase (one process per operation)."""
    n = len(result["latencies"])
    metrics = spans.layer_metrics(result["span_lists"], n_ops=n, n_procs=n,
                                  imports=result["imports"])
    covered = sum(spans.layer_seconds(s) + imp["total"]
                  for s, imp in zip(result["span_lists"], result["imports"]))
    metrics["trace.coverage"] = covered / sum(result["latencies"])
    return metrics
