"""The repository benchmark: three workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen and which layers
it does and does not exercise):

``cli-oneshot``  cold ``repro-experiments run`` / ``repro-sweep run``
                 subprocesses, alternating, against a pre-warmed store
``mc-sweep``     a warm process issuing seeded ``run_sweep`` /
                 ``run_scenario`` points over all five packs, no store
``serve-mixed``  a ``repro-serve`` daemon under two closed-loop clients

``BENCHMARK.json`` gates on mc-sweep and serve-mixed only.  cli-oneshot
runs about 20 cold processes in 30 s, and on a 2-core VM its medians
moved by up to 30% between runs of the same code, more than any bound
allows; run it by hand to measure import and start-up work.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``latency_p50_s``, ``latency_p90_s``,
``replications_per_s``, ``peak_rss_mb``).  On the gated workloads every
kind of operation recurs many times in a run; the latency percentiles
are taken over the kinds, each at the lower quartile of its timings,
and the rate is at those latencies (see ``common.typical_latencies``
for why: the host's neighbours only ever add time).  The ones each
workload lists in ``HOST_SCALED`` are scaled to a nominal host speed by
a fixed reference computation timed through the run
(``common.reference_work``; ``host_scale`` in the detail line is the
factor).  With ``--trace 1`` the run is
split into an untraced and a traced half and the line carries the
per-layer metrics, including the tracing overhead and coverage.  Names
and units come from ``BENCHMARK.json``.  The line before it (``perfbench
detail:``) gives sample counts, ``failed_frac``, the environment
fingerprint and the first errors.  Every operation's output is checked
against the digests pinned in ``pins.json``; a mismatch counts as a
failed operation.

Self-test: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path

from common import ROOT, SRC, host_scale, percentile

WORKLOAD_MODULES = {"cli-oneshot": "wl_cli", "mc-sweep": "wl_mc",
                    "serve-mixed": "wl_serve"}
#: set-ups per untraced run; setup_s is their median
SETUPS = 3


def fingerprint(load_before: tuple[float, ...]) -> dict[str, object]:
    """``repro.bench.record``'s fingerprint plus CPU, load and versions."""
    import tomllib

    import repro
    from repro.bench.record import environment_fingerprint

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {
        **environment_fingerprint(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "scipy": metadata.version("scipy"),
        "repro_version": repro.__version__,
        "pyproject_version": pyproject["project"]["version"],
    }


def end_to_end(result: dict, scaled: tuple[str, ...]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run: latency percentiles
    over the workload's typical latency of each kind of operation, and
    the rate; those named in ``scaled`` at the nominal host speed
    (:func:`common.host_scale`)."""
    typical, scale = result["typical"], host_scale(result["reference"])

    def nominal(name: str, value: float, power: int = 1) -> float:
        return value * scale ** power if name in scaled else value

    return {
        "setup_s": result["setup_s"],
        "latency_p50_s": nominal("latency_p50_s", percentile(typical, 50)),
        "latency_p90_s": nominal("latency_p90_s", percentile(typical, 90)),
        "replications_per_s": nominal("replications_per_s",
                                      result["replications_per_s"], -1),
        "peak_rss_mb": result["rss_mb"],
    }


def run_workload(module, seed: int, seconds: float, tmp: Path,
                 trace: bool) -> dict:
    """One untraced phase; or, traced, an untraced and a traced half
    whose median latencies give the tracing overhead."""
    if not trace:
        return module.phase(seed, seconds, tmp, traced=False, setups=SETUPS)
    plain = module.phase(seed, seconds / 2, tmp, traced=False, setups=1)
    traced = module.phase(seed, seconds / 2, tmp, traced=True, setups=1)
    metrics = module.trace_metrics(traced)
    metrics["trace.overhead_frac"] = (statistics.median(traced["latencies"])
                                      / statistics.median(plain["latencies"]) - 1)
    return {**traced, "trace_metrics": metrics,
            "failed": plain["failed"] + traced["failed"],
            "latencies": plain["latencies"] + traced["latencies"],
            "errors": plain["errors"] + traced["errors"]}


def main(argv: list[str] | None = None) -> int:
    """Run one workload once and print its result line."""
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    load_before = os.getloadavg()
    module = __import__(WORKLOAD_MODULES[args.workload])
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = run_workload(module, args.seed, args.seconds, tmp, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(result["latencies"]), result["failed"]
    values = (result["trace_metrics"] if args.trace
              else end_to_end(result, module.HOST_SCALED))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": {"operations": attempted, "setups": result["setups"],
                    "kinds": len(result["typical"]),
                    "reference": len(result["reference"])},
        "host_scale": host_scale(result["reference"]),
        "failed_frac": failed / max(attempted, 1),
        "byte_checks": result.get("byte_checks"),
        "errors": result["errors"][:5],
        "fingerprint": fingerprint(load_before),
    }
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
