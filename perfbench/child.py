"""Child-process entry points of the benchmark.

Started by the workload modules with the checkout's ``src`` first on
``PYTHONPATH``::

    python3 perfbench/child.py warm STORE
        pre-warm the cli-oneshot sample store (every pinned grid seed)
    python3 perfbench/child.py mc SEED SECONDS TRACE OUT
        the mc-sweep warm process: set up, print "ready", read "go" (or
        "quit") from stdin, run seeded decks for SECONDS, write OUT
    python3 perfbench/child.py traced (cli|sweep|serve) SPANS ARGS...
        run repro-experiments / repro-sweep / repro-serve with ARGS under
        the span tracer and write the spans to SPANS at exit
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import resource
import sys
import time
from typing import Any

import workloads
from common import REFERENCE_REPEATS, reference_work
from digests import Checker, results_digest, sweep_digest


def run_point(point: dict[str, Any]):
    """Run one mc-sweep point through ``run_scenario`` or ``run_sweep``."""
    from repro.experiments import SweepSpec, run_scenario, run_sweep

    kwargs = {"replications": point["replications"], "seed": point["seed"],
              "workers": 1, "backend": point["backend"]}
    if point["call"] == "scenario":
        return run_scenario(point["scenario"], params=point["params"], **kwargs)
    spec = SweepSpec(point["scenario"], mode="list", points=[point["params"]])
    return run_sweep(spec, **kwargs)


def point_digest(point: dict[str, Any], result) -> str:
    """Digest of an mc-sweep point's output (see :mod:`digests`)."""
    from repro.experiments.report import (
        canonical_sweep_document,
        results_to_document,
        sweep_to_json,
    )
    from repro.experiments.sweeps import sweep_run_config

    if point["call"] == "scenario":
        return results_digest(results_to_document([result])["results"])
    config = sweep_run_config(
        replications=point["replications"], seed=point["seed"], workers=1,
        backend=point["backend"],
        resolved_backends=[r.backend for r in result.results], level=0.95,
        target_precision=None, min_reps=None, max_reps=None, cache_dir=None)
    document = canonical_sweep_document(result.to_document(config=config))
    return sweep_digest(json.loads(sweep_to_json(document)))


def one_shot_document(submission: dict[str, Any]) -> bytes:
    """The bytes ``repro-sweep run --canonical --json`` writes for a
    serve submission (the daemon must serve exactly these)."""
    from repro.experiments.report import canonical_sweep_document, sweep_to_json
    from repro.experiments.sweeps import SweepSpec, run_sweep, sweep_run_config
    from repro.serve.jobs import RUN_DEFAULTS

    spec = SweepSpec.from_dict(submission["spec"])
    run = {**RUN_DEFAULTS, **submission["run"]}
    sweep = run_sweep(spec, **run)
    config = sweep_run_config(
        **{k: run[k] for k in ("replications", "seed", "workers", "backend",
                               "level", "target_precision", "min_reps",
                               "max_reps")},
        resolved_backends=[r.backend for r in sweep.results], cache_dir=None)
    document = canonical_sweep_document(sweep.to_document(config=config))
    return (sweep_to_json(document) + "\n").encode("utf-8")


def _warm(store: str) -> int:
    from repro.experiments import SweepSpec, run_sweep

    name, values = workloads.CLI_GRID_AXIS
    spec = SweepSpec(workloads.CLI_GRID_SCENARIO, axes={name: values})
    for seed in workloads.CLI_SEEDS:
        run_sweep(spec, replications=workloads.CLI_GRID_REPS, seed=seed,
                  cache_dir=store)
    return 0


def _mc(seed: int, seconds: float, trace: bool, out: str) -> int:
    import repro.experiments  # noqa: F401  (import is part of set-up)

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    # lazy set-up (pack discovery, first-call imports inside kernels):
    # one replication of every deck entry
    for entry in workloads.MC_DECK:
        run_point({**workloads.mc_point(entry, 0), "replications": 1})
    if tracer is not None:
        # keep set-up's discovery spans (a per-process layer), drop warm-up
        tracer.spans = [[s[0], s[1], s[2], -1, s[4]] for s in tracer.spans
                        if s[0] == "packs.discover"]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    latencies: list[float] = []
    entries: list[str] = []
    reference: list[float] = []
    done: list[tuple[dict, Any, int]] = []
    errors: list[str] = []
    start = time.perf_counter()
    for deck in workloads.mc_decks(seed):
        reference += [reference_work() for _ in range(REFERENCE_REPEATS)]
        for point in deck:
            entries.append(workloads.mc_entry(point))
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if tracer else contextlib.nullcontext():
                    result = run_point(point)
            except Exception as exc:  # a failed point counts, the run goes on
                latencies.append(math.inf)
                errors.append(f"{point['scenario']}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            done.append((point, result, len(latencies) - 1))
        if time.perf_counter() - start >= seconds:
            break
    traced = list(tracer.spans) if tracer else []
    checker = Checker()
    wrong = 0
    for p, r, i in done:
        if not checker.check(workloads.mc_pin_key(p), point_digest(p, r)):
            wrong += 1
            latencies[i] = math.inf  # a wrong answer counts as a failure
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "latencies": [v if math.isfinite(v) else None for v in latencies],
            "entries": entries,
            "reference": reference,
            "failed": len(errors) + wrong,
            "errors": errors + checker.mismatches,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": traced,
        }, fh)
    return 0


_CLIS = {"cli": "repro.experiments.cli", "sweep": "repro.experiments.sweep_cli",
         "serve": "repro.serve.cli"}


def _traced(kind: str, spans_out: str, args: list[str]) -> int:
    import spans

    module = importlib.import_module(_CLIS[kind])
    tracer = spans.Tracer()
    spans.install(tracer, serve=kind == "serve")
    try:
        return module.main(args)
    finally:
        tracer.dump(spans_out)


def main(argv: list[str]) -> int:
    """Dispatch one child command."""
    command, rest = argv[0], argv[1:]
    if command == "warm":
        return _warm(rest[0])
    if command == "mc":
        return _mc(int(rest[0]), float(rest[1]), rest[2] == "1", rest[3])
    if command == "traced":
        return _traced(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
