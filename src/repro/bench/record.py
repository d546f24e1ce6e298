"""The ``repro.bench/v1`` benchmark record and its trajectory file.

A *record* is one benchmark run: an identifier, a config label
(``"full"`` for the default sizes, ``"smoke"`` for the reduced CI set),
the package version, an environment fingerprint, and a flat mapping of
named metrics.  Each metric is a dict with at least ``value``; it may
declare how the regression gate should treat it:

``direction``
    ``"higher"`` (e.g. a speedup) or ``"lower"`` (e.g. a wall time).
    Metrics without a direction are recorded but never gated.
``tolerance``
    Relative slack for the baseline comparison, overriding the gate's
    default (a *tolerance floor*: the gate uses the larger of the two).
``floor``
    Absolute minimum for ``direction="higher"`` metrics, enforced even
    when no baseline exists.

The *trajectory* is an append-only JSON-Lines file: one canonical-JSON
record per line (via :func:`repro.utils.serialization.canonical_json`),
newest last.  Appends rewrite the file through
:func:`repro.utils.serialization.atomic_write`, so a crash can never
leave a torn line behind;
:func:`load_trajectory` still degrades corrupt content into a clean
:class:`BenchRecordError` naming the offending line rather than an
arbitrary ``json`` traceback.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.utils.serialization import atomic_write, canonical_json

__all__ = [
    "SCHEMA",
    "DEFAULT_TRAJECTORY",
    "BenchRecordError",
    "environment_fingerprint",
    "make_record",
    "append_record",
    "load_trajectory",
    "latest_record",
]

SCHEMA = "repro.bench/v1"

# repo-root trajectory file name (the a0x ablation benches feed it)
DEFAULT_TRAJECTORY = "BENCH_a0x.json"

_DIRECTIONS = ("higher", "lower")


class BenchRecordError(ValueError):
    """A benchmark record or trajectory file is malformed."""


def environment_fingerprint() -> dict[str, str]:
    """Identify the machine/toolchain a record was produced on.

    Interpreter and numpy versions plus the platform string — enough to
    tell whether two records are comparable, deliberately free of
    anything volatile (hostnames, pids, timestamps).
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": os.path.basename(sys.executable),
    }


def _validate_metrics(metrics: Mapping[str, Any]) -> dict[str, dict]:
    """Normalise and validate the per-metric dicts of a record."""
    if not metrics:
        raise BenchRecordError("a bench record needs at least one metric")
    out: dict[str, dict] = {}
    for name, spec in metrics.items():
        if not isinstance(spec, Mapping):
            # bare numbers are accepted as ungated values
            spec = {"value": spec}
        if "value" not in spec:
            raise BenchRecordError(f"metric {name!r} has no 'value'")
        value = float(spec["value"])
        entry: dict[str, Any] = {"value": value}
        direction = spec.get("direction")
        if direction is not None:
            if direction not in _DIRECTIONS:
                raise BenchRecordError(
                    f"metric {name!r}: direction must be one of {_DIRECTIONS}, "
                    f"got {direction!r}"
                )
            entry["direction"] = direction
        for key in ("tolerance", "floor"):
            if key in spec and spec[key] is not None:
                entry[key] = float(spec[key])
        if "unit" in spec:
            entry["unit"] = str(spec["unit"])
        out[str(name)] = entry
    return out


def make_record(
    benchmark_id: str,
    metrics: Mapping[str, Any],
    *,
    config: str = "full",
    version: str | None = None,
    meta: Mapping[str, Any] | None = None,
    timestamp: str | None = None,
) -> dict:
    """Build a validated ``repro.bench/v1`` record.

    ``metrics`` maps metric names to either bare numbers (recorded,
    never gated) or dicts with ``value`` and the optional gate fields
    described in the module docstring.  ``version`` defaults to the
    installed :mod:`repro` version and ``timestamp`` to the current UTC
    time; ``meta`` is free-form run context (replication counts,
    parameter trims) that the gate ignores, except ``meta["method"]``:
    the gate compares only records measured by the same method.
    """
    if version is None:
        from repro import __version__

        version = __version__
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    record = {
        "schema": SCHEMA,
        "benchmark_id": str(benchmark_id),
        "config": str(config),
        "created": str(timestamp),
        "version": str(version),
        "environment": environment_fingerprint(),
        "metrics": _validate_metrics(metrics),
    }
    if meta:
        record["meta"] = dict(meta)
    return record


def append_record(path: str | Path, record: Mapping[str, Any]) -> Path:
    """Append one record to the trajectory at ``path`` (atomically).

    The record is validated by round-tripping through
    :func:`make_record`'s metric checks, serialised as one canonical
    JSON line, and written after the existing content through
    :func:`~repro.utils.serialization.atomic_write` — the trajectory is
    at every instant either the old file or the new one, never a torn
    intermediate.  Returns the path written.
    """
    path = Path(path)
    if record.get("schema") != SCHEMA:
        raise BenchRecordError(
            f"record schema {record.get('schema')!r} is not {SCHEMA!r}"
        )
    _validate_metrics(record.get("metrics", {}))
    line = canonical_json(record)
    existing = path.read_bytes() if path.exists() else b""
    if existing and not existing.endswith(b"\n"):
        existing += b"\n"
    with atomic_write(path) as fh:
        fh.write(existing)
        fh.write(line.encode("utf-8"))
        fh.write(b"\n")
    return path


def load_trajectory(path: str | Path) -> list[dict]:
    """Parse a trajectory file into its records, oldest first.

    Raises :class:`BenchRecordError` naming the line number when a line
    is not valid JSON or not a ``repro.bench/v1`` record — a trajectory
    with a corrupt (e.g. truncated) trailing record fails cleanly
    instead of leaking a decoder traceback.
    """
    path = Path(path)
    records: list[dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BenchRecordError(
                f"{path}:{lineno}: corrupt bench record ({exc.msg})"
            ) from exc
        if not isinstance(rec, dict) or rec.get("schema") != SCHEMA:
            raise BenchRecordError(
                f"{path}:{lineno}: not a {SCHEMA} record"
            )
        if "benchmark_id" not in rec or "metrics" not in rec:
            raise BenchRecordError(
                f"{path}:{lineno}: record missing benchmark_id/metrics"
            )
        records.append(rec)
    return records


def latest_record(
    records: list[dict], benchmark_id: str, config: str | None = None
) -> dict | None:
    """Newest record for ``benchmark_id`` (optionally a specific config).

    "Newest" is file order — trajectories are append-only, so the last
    matching line is the most recent run.
    """
    for rec in reversed(records):
        if rec.get("benchmark_id") != benchmark_id:
            continue
        if config is not None and rec.get("config") != config:
            continue
        return rec
    return None
