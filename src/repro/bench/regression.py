"""Regression gating over ``repro.bench/v1`` trajectories.

:func:`compare_metrics` checks one candidate record against one baseline
record metric by metric; :func:`check_regression` matches the newest
candidate per ``(benchmark_id, config)`` with its baseline — either the
newest matching record of a separate baseline trajectory, or the
previous matching record of the candidate's own file — and aggregates
the verdicts.  Semantics:

* only metrics with a ``direction`` are gated; a ``"higher"`` metric
  regresses when ``value < baseline * (1 - tol)``, a ``"lower"`` metric
  when ``value > baseline * (1 + tol)``;
* ``tol`` is the larger of the gate's default tolerance and the
  metric's own ``tolerance`` field (per-metric tolerance *floors* —
  a metric can demand more slack than the default, never less);
* a ``floor`` on a ``"higher"`` metric is an absolute minimum enforced
  even without a baseline;
* a benchmark or metric with no baseline counterpart is *skipped*, not
  failed — new benchmarks land green and start gating on the next run;
* only a record measured the same way is a baseline: equal
  ``meta["method"]`` (absent counts as one method).  A bench that changes
  how it measures names the new method, and its first record starts a
  new baseline instead of failing against numbers it cannot be compared
  with.

Exit-code contract of the CLI (``scripts/check_bench_regression.py``):
0 when everything passes or is skipped, 2 on any regression, 1 on
malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["MetricCheck", "GateEntry", "compare_metrics", "check_regression"]


@dataclass(frozen=True)
class MetricCheck:
    """Verdict for one gated metric of one benchmark."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    value: float
    baseline: float | None
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class GateEntry:
    """Aggregate verdict for one ``(benchmark_id, config)`` pair."""

    benchmark_id: str
    config: str
    status: str  # "pass" | "fail" | "skip"
    checks: list[MetricCheck] = field(default_factory=list)
    detail: str = ""


def compare_metrics(
    candidate: Mapping,
    baseline: Mapping | None,
    *,
    default_tolerance: float = 0.25,
) -> list[MetricCheck]:
    """Gate every directed metric of ``candidate`` against ``baseline``.

    ``baseline`` may be ``None`` (new benchmark): floors still apply,
    baseline comparisons are skipped.  Metrics present only in the
    baseline are ignored — removing a metric is a schema change for
    review, not a perf regression.
    """
    base_metrics = (baseline or {}).get("metrics", {})
    checks: list[MetricCheck] = []
    for name, spec in candidate.get("metrics", {}).items():
        direction = spec.get("direction")
        if direction is None:
            continue
        value = float(spec["value"])
        tol = max(float(default_tolerance), float(spec.get("tolerance", 0.0)))
        floor = spec.get("floor")
        if floor is not None and direction == "higher" and value < float(floor):
            checks.append(
                MetricCheck(
                    name,
                    "fail",
                    value,
                    None,
                    tol,
                    f"value {value:.4g} below absolute floor {float(floor):.4g}",
                )
            )
            continue
        base_spec = base_metrics.get(name)
        if base_spec is None:
            checks.append(
                MetricCheck(name, "skip", value, None, tol, "no baseline metric")
            )
            continue
        base = float(base_spec["value"])
        if direction == "higher":
            bound = base * (1.0 - tol)
            ok = value >= bound
            detail = f"{value:.4g} vs baseline {base:.4g} (min {bound:.4g})"
        else:
            bound = base * (1.0 + tol)
            ok = value <= bound
            detail = f"{value:.4g} vs baseline {base:.4g} (max {bound:.4g})"
        checks.append(
            MetricCheck(name, "pass" if ok else "fail", value, base, tol, detail)
        )
    return checks


def check_regression(
    candidates: list[dict],
    baselines: list[dict] | None = None,
    *,
    default_tolerance: float = 0.25,
    benchmark_id: str | None = None,
    config: str | None = None,
) -> list[GateEntry]:
    """Gate the newest candidate record per ``(benchmark_id, config)``.

    With ``baselines`` given, each candidate is compared against the
    newest matching record there; without, against the *previous*
    matching record of ``candidates`` itself (the committed-trajectory
    workflow: CI appends a fresh record and gates it against the line
    that was committed).  A matching record has the same benchmark id,
    config and ``meta["method"]``.  ``benchmark_id``/``config`` filter
    which candidates are gated.
    """
    from repro.bench.record import latest_record

    seen: set[tuple[str, str]] = set()
    entries: list[GateEntry] = []
    for idx in range(len(candidates) - 1, -1, -1):
        rec = candidates[idx]
        key = (rec["benchmark_id"], rec.get("config", "full"))
        if key in seen:
            continue
        seen.add(key)
        if benchmark_id is not None and key[0] != benchmark_id:
            continue
        if config is not None and key[1] != config:
            continue
        pool = candidates[:idx] if baselines is None else baselines
        method = rec.get("meta", {}).get("method")
        base = latest_record(
            [r for r in pool if r.get("meta", {}).get("method") == method],
            key[0],
            key[1],
        )
        checks = compare_metrics(
            rec, base, default_tolerance=default_tolerance
        )
        if base is None and not any(c.status == "fail" for c in checks):
            entries.append(
                GateEntry(key[0], key[1], "skip", checks, "no baseline record")
            )
            continue
        if any(c.status == "fail" for c in checks):
            status = "fail"
        elif any(c.status == "pass" for c in checks):
            status = "pass"
        else:
            status = "skip"
        entries.append(GateEntry(key[0], key[1], status, checks))
    entries.reverse()
    return entries
