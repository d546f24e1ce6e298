"""Regenerate ``pins.json``: the digest of every output a workload can
request, computed in-process through the same public entry points the
workloads call.  Run from the repository root (a few minutes)::

    python3 perfbench/pin.py

Re-pin only when an output is meant to change, and say why in the
change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from common import ROOT, SRC
from digests import PINS_PATH, pin_id, results_digest, sweep_digest


def main() -> int:
    """Compute and write every pinned digest."""
    sys.path.insert(0, str(SRC))
    from child import one_shot_document, point_digest, run_point
    from repro.experiments import cli, sweep_cli

    digests: dict[str, str] = {}
    tmp = ROOT / ".perfbench_tmp" / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        out, md, store = tmp / "out.json", tmp / "out.md", tmp / "store"
        for op in workloads.cli_pool():
            module = cli if op["kind"] == "run" else sweep_cli
            if module.main(workloads.cli_argv(op, str(out), str(md), str(store))) != 0:
                raise SystemExit(f"{op} did not exit 0")
            document = json.loads(out.read_text(encoding="utf-8"))
            digests[pin_id(workloads.cli_pin_key(op))] = (
                results_digest(document["results"]) if op["kind"] == "run"
                else sweep_digest(document))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for point in workloads.mc_pool():
        digests[pin_id(workloads.mc_pin_key(point))] = point_digest(
            point, run_point(point))
    for submission in workloads.serve_pool():
        digests[pin_id(workloads.serve_pin_key(submission))] = sweep_digest(
            json.loads(one_shot_document(submission)))
    PINS_PATH.write_text(json.dumps({
        "about": "perfbench output digests; regenerate with "
                 "python3 perfbench/pin.py",
        "digests": dict(sorted(digests.items())),
    }, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests to {PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
