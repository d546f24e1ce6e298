"""Shared fixtures for the ``bench_a0*.py`` ablation benches.

Each bench measures one design choice of the reproduction (index
algorithms, the event engines, the achievable-region LP, the vectorized
backend, adaptive precision, the sweep cache, the serving daemon), prints
its table through the ``report`` fixture (visible even without ``-s``)
and emits a structured ``repro.bench/v1`` record through
``record_bench``. Recording is opt-in: set ``REPRO_BENCH_RECORD=1`` to
append to the repo-root ``BENCH_a0x.json`` trajectory (or set it to an
explicit path), and ``REPRO_BENCH_SMOKE=1`` to run the reduced CI sizes,
which are recorded under the ``smoke`` config label so the regression
gate always compares like against like. ``bench_a08_cold_start.py`` is a
script, not a pytest bench, and writes its own record.

The survey's claims are asserted in ``tests/test_survey_claims.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_config() -> str:
    """Config label for this run: ``smoke`` under REPRO_BENCH_SMOKE."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    return "smoke" if smoke else "full"


@pytest.fixture
def report(capsys):
    """Print a result table bypassing pytest capture."""

    def _print(title: str, rows: list[tuple], header: tuple | None = None) -> None:
        with capsys.disabled():
            print()
            print("=" * 78)
            print(title)
            print("=" * 78)
            if header:
                print("  ".join(f"{h:>18}" for h in header))
            for row in rows:
                print("  ".join(f"{v:>18.6g}" if isinstance(v, float) else f"{str(v):>18}" for v in row))
            print("=" * 78)

    return _print


@pytest.fixture
def record_bench(capsys):
    """Append a ``repro.bench/v1`` record for this bench run (opt-in).

    Call as ``record_bench("a04_vectorized_speedup", metrics, meta=...)``.
    No-op unless ``REPRO_BENCH_RECORD`` is set; the config label follows
    ``REPRO_BENCH_SMOKE``.
    """

    def _record(benchmark_id: str, metrics: dict, *, meta: dict | None = None) -> None:
        flag = os.environ.get("REPRO_BENCH_RECORD", "")
        if flag in ("", "0"):
            return
        from repro.bench import append_record, make_record

        path = REPO_ROOT / "BENCH_a0x.json" if flag == "1" else Path(flag)
        record = make_record(benchmark_id, metrics, config=bench_config(), meta=meta)
        append_record(path, record)
        with capsys.disabled():
            print(f"\n[bench-record] {benchmark_id} ({record['config']}) -> {path}")

    return _record
