"""Ablation A8 — cold start of the ``repro-experiments`` CLI.

A 4-replication E1 run simulates for ~10 ms, so a one-shot CLI call is
dominated by interpreter start and imports.  This script times whole
processes, from ``exec`` to exit, for two source trees — a *before* tree
extracted from a git revision and the *after* tree of this checkout —
interleaving the runs and alternating which side goes first, so drift
on a shared host hits both sides alike.  It times two commands: the E1
run, which computes level-0.95 intervals (their t-quantiles come from
``repro/utils/stdtrit_0.95.f8``, so it loads no scipy module), and
``repro-experiments packs``, which computes none::

    python benchmarks/bench_a08_cold_start.py \\
        --before-rev HEAD~1 --repeats 7 --record BENCH_a0x.json

Each side gets one untimed run first (it compiles the tree's bytecode
caches, which an installed package already has), then ``--repeats``
timed runs of each command.  The record (``a08_cold_start``, schema
``repro.bench/v1``) carries each side's median and quartiles and the
ratio of the medians per command, the ``packs`` ones prefixed
``packs_``; none is gated, because both sides' absolute times follow
the host.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench import append_record, make_record  # noqa: E402

#: metric prefix -> timed command; E1's metrics keep their unprefixed
#: names so records from before ``packs`` was timed still compare
COMMANDS = {
    "": ["-m", "repro.experiments.cli", "run", "E1", "--replications", "4",
         "--workers", "1", "--no-cache", "--quiet"],
    "packs_": ["-m", "repro.experiments.cli", "packs"],
}


def extract_src(rev: str, dest: Path) -> Path:
    """Write ``src/`` of git revision ``rev`` under ``dest``, with the
    ``pyproject.toml`` that ``repro.__version__`` is read from."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src",
                          "pyproject.toml"],
                         cwd=REPO, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def cold_run(src: Path, cwd: Path, command: list[str]) -> float:
    """Wall seconds of one ``python <command>`` process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *command], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    return elapsed


def measure(sides: dict[str, Path], repeats: int,
            cwd: Path) -> dict[str, dict[str, list[float]]]:
    """``repeats`` interleaved timings per command and side, after one
    warm-up each."""
    for src in sides.values():
        for command in COMMANDS.values():
            cold_run(src, cwd, command)
    times = {prefix: {label: [] for label in sides} for prefix in COMMANDS}
    order = list(sides)
    for i in range(repeats):
        for label in order if i % 2 == 0 else order[::-1]:
            for prefix, command in COMMANDS.items():
                times[prefix][label].append(cold_run(sides[label], cwd, command))
    return times


def summary(xs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before-rev", required=True,
                        help="git revision whose src/ is the 'before' side")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs per side (default 7, at least 5)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="append a repro.bench/v1 record to PATH")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"before": extract_src(args.before_rev, tmp / "before"),
                 "after": REPO / "src"}
        (tmp / "cwd").mkdir()
        times = measure(sides, args.repeats, tmp / "cwd")

    metrics: dict[str, dict] = {}
    meta: dict[str, object] = {"before_rev": args.before_rev,
                               "repeats": args.repeats}
    for prefix, command in COMMANDS.items():
        shown = "repro-experiments " + " ".join(command[2:])
        print(shown)
        stats = {label: summary(xs) for label, xs in times[prefix].items()}
        for label, s in stats.items():
            print(f"{label:>6}: median {s['median']:.3f} s  "
                  f"[q1 {s['q1']:.3f}, q3 {s['q3']:.3f}]  "
                  f"runs {' '.join(f'{x:.3f}' for x in times[prefix][label])}")
        ratio = stats["before"]["median"] / stats["after"]["median"]
        print(f"before/after median ratio: {ratio:.2f}")
        metrics.update({f"{prefix}{label}_{key}_s": {"value": value, "unit": "s"}
                        for label, s in stats.items() for key, value in s.items()})
        metrics[f"{prefix}before_over_after"] = {"value": ratio}
        meta[f"{prefix}command"] = shown
        meta[f"{prefix}runs_s"] = times[prefix]

    if args.record:
        append_record(args.record, make_record("a08_cold_start", metrics,
                                               meta=meta))
        print(f"[bench-record] a08_cold_start -> {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
