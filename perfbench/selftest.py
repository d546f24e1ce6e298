"""Fast self-test of the benchmark (about two minutes)::

    python3 perfbench/selftest.py

Checks that

* every input the workload generators can produce has a pinned digest;
* the correctness check accepts a real output and rejects it once its
  pinned digest is perturbed;
* each workload (also cli-oneshot, which ``BENCHMARK.json`` does not
  gate on), run once at minimal size with and without tracing,
  prints a well-formed result line naming every metric declared in
  ``BENCHMARK.json`` with its unit, reports no failed operation, and a
  detail line with sample counts and ``failed_frac``;
* every end-to-end metric the benchmark is meant to report is either declared or listed
  in :data:`DROPPED` with a reason;
* the benchmark exits non-zero, without a result line, in a directory
  holding only ``BENCHMARK.json`` and the benchmark itself.

Exits 0 when all hold; prints the first failure and exits 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads
from common import HERE, ROOT, SRC
from digests import Checker, load_pins, pin_id, results_digest

#: metrics named for the benchmark but deliberately not declared
DROPPED = {
    "failed_frac": "0 whenever the program is correct, and end-to-end "
    "metrics must never be 0; printed in the detail line and carried by "
    "the result's attempted/failed counts instead",
}
NAMED_END_TO_END = ("setup_s", "latency_p50_s", "latency_p90_s",
                    "replications_per_s", "failed_frac", "peak_rss_mb")


def check_pins() -> None:
    pins = load_pins()
    keys = ([workloads.cli_pin_key(op) for op in workloads.cli_pool()]
            + [workloads.mc_pin_key(p) for p in workloads.mc_pool()]
            + [workloads.serve_pin_key(s) for s in workloads.serve_pool()])
    missing = [k for k in keys if pin_id(k) not in pins]
    assert not missing, f"{len(missing)} unpinned inputs, e.g. {missing[0]}"


def check_perturbed_digest() -> None:
    sys.path.insert(0, str(SRC))
    from repro.experiments import cli

    op = {"kind": "run", "seed": 0}
    tmp = ROOT / ".perfbench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        out = tmp / "out.json"
        argv = workloads.cli_argv(op, str(out), str(tmp / "out.md"), str(tmp / "store"))
        assert cli.main(argv) == 0
        produced = results_digest(json.loads(out.read_text())["results"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    key = workloads.cli_pin_key(op)
    pins = load_pins()
    assert Checker(pins).check(key, produced), "real output rejected"
    pinned = pins[pin_id(key)]
    pins[pin_id(key)] = pinned[:-1] + ("0" if pinned[-1] != "0" else "1")
    assert not Checker(pins).check(key, produced), "perturbed digest accepted"


def check_declared(spec: dict) -> None:
    declared = {m["name"] for m in spec["end_to_end"]}
    for name in NAMED_END_TO_END:
        assert name in declared or name in DROPPED, f"{name} neither declared nor dropped"


def check_runs(spec: dict) -> None:
    from run import WORKLOAD_MODULES

    for workload in WORKLOAD_MODULES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(workloads.HELD_OUT_SEED + 1), "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2].split(": ", 1)[1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, f"{where}: {detail['errors']}"
            assert result["attempted"] >= 1 and detail["samples"]["operations"] >= 1, where
            assert "failed_frac" in detail, where
            names = [m["name"] for m in spec[group]]
            assert list(result["metrics"]) == names, where
            for m in spec[group]:
                value = result["metrics"][m["name"]]
                assert value["unit"] == m["unit"], f"{where}: {m['name']} unit"
                assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"
            print(f"ok  {where}: {result['attempted']} operations")


def check_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in proc.stdout, "printed a result without sources"


def main() -> int:
    """Run every check; exit 1 on the first failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = (check_pins, check_perturbed_digest, lambda: check_declared(spec),
              lambda: check_without_sources(spec), lambda: check_runs(spec))
    try:
        for check in checks:
            check()
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
