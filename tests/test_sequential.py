"""Tests for the adaptive sequential replication controller.

The load-bearing property is determinism: stopping at ``n`` must yield
samples bit-identical to a fixed ``n``-replication run, for any worker
count, either backend, and whether replications were simulated fresh or
restored from a cached prefix.
"""

import math

import numpy as np
import pytest

from repro.experiments import run_scenario
from repro.sim.sequential import (
    DEFAULT_MIN_REPS,
    PrecisionTarget,
    run_sequential_replications,
)
from repro.utils.rng import spawn_seed_sequences


def _noisy_chunk(seeds):
    return [
        {"x": float(np.random.default_rng(ss).normal(10.0, 1.0))} for ss in seeds
    ]


def _zero_chunk(seeds):
    return [{"z": 0.0} for _ in seeds]


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


def test_stops_when_target_met_within_bounds():
    out = run_sequential_replications(
        _noisy_chunk, seed=0, target=0.05, min_reps=4, max_reps=256
    )
    assert out.met
    assert out.unmet_metrics == ()
    assert 4 <= out.n <= 256
    assert len(out.rows) == out.n == out.simulated


def test_stopping_at_n_is_bit_identical_to_fixed_n():
    out = run_sequential_replications(
        _noisy_chunk, seed=7, target=0.05, min_reps=4, max_reps=256
    )
    fixed = _noisy_chunk(spawn_seed_sequences(7, out.n))
    assert out.rows == fixed


def test_resume_from_cached_prefix_matches_cold_run():
    cold = run_sequential_replications(
        _noisy_chunk, seed=3, target=0.05, min_reps=4, max_reps=256
    )
    assert cold.n > 7  # the prefix below must be proper
    warm = run_sequential_replications(
        _noisy_chunk,
        seed=3,
        target=0.05,
        min_reps=4,
        max_reps=256,
        initial_rows=cold.rows[:7],
    )
    assert warm.n == cold.n
    assert warm.rows == cold.rows
    assert warm.simulated == cold.n - 7


def test_cached_rows_beyond_stopping_point_are_ignored():
    cold = run_sequential_replications(
        _noisy_chunk, seed=3, target=0.05, min_reps=4, max_reps=256
    )
    # hand the controller more rows than it needs: same stopping point,
    # nothing simulated
    extra = _noisy_chunk(spawn_seed_sequences(3, cold.n + 50))
    warm = run_sequential_replications(
        _noisy_chunk,
        seed=3,
        target=0.05,
        min_reps=4,
        max_reps=256,
        initial_rows=extra,
    )
    assert warm.n == cold.n
    assert warm.rows == cold.rows
    assert warm.simulated == 0


def test_unreachable_target_stops_at_max_reps():
    out = run_sequential_replications(
        _noisy_chunk, seed=0, target=1e-9, min_reps=4, max_reps=16
    )
    assert not out.met
    assert out.n == 16
    assert out.unmet_metrics == ("x",)


def test_deterministic_zero_metric_meets_relative_target():
    # relative half-width of a 0 ± 0 interval is defined as 0, so a
    # deterministic zero-valued metric stops at min_reps
    out = run_sequential_replications(
        _zero_chunk, seed=0, target=0.01, min_reps=3, max_reps=64
    )
    assert out.met
    assert out.n == 3


def test_absolute_target():
    out = run_sequential_replications(
        _noisy_chunk,
        seed=0,
        target=PrecisionTarget(absolute=0.2),
        min_reps=4,
        max_reps=512,
    )
    assert out.met
    fixed = _noisy_chunk(spawn_seed_sequences(0, out.n))
    assert out.rows == fixed


def _two_metric_chunk(seeds):
    out = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        out.append(
            {"tight": float(rng.normal(10.0, 0.1)), "loose": float(rng.normal(10.0, 5.0))}
        )
    return out


def test_metric_subset_restricts_the_stopping_rule():
    subset = run_sequential_replications(
        _two_metric_chunk,
        seed=1,
        target=PrecisionTarget(relative=0.02, metrics=("tight",)),
        min_reps=4,
        max_reps=512,
    )
    both = run_sequential_replications(
        _two_metric_chunk,
        seed=1,
        target=PrecisionTarget(relative=0.02),
        min_reps=4,
        max_reps=512,
    )
    assert subset.met
    assert subset.n < both.n


def test_requested_metric_never_reported_runs_to_cap():
    out = run_sequential_replications(
        _noisy_chunk,
        seed=0,
        target=PrecisionTarget(relative=0.5, metrics=("nope",)),
        min_reps=3,
        max_reps=8,
    )
    assert not out.met
    assert out.n == 8
    assert out.unmet_metrics == ("nope",)


def test_precision_target_validation():
    with pytest.raises(ValueError, match="relative and/or absolute"):
        PrecisionTarget()
    with pytest.raises(ValueError, match="must be > 0"):
        PrecisionTarget(relative=-0.1)
    with pytest.raises(ValueError, match="must be > 0"):
        PrecisionTarget(absolute=0.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            PrecisionTarget(relative=value)
    with pytest.raises(ValueError, match="non-empty"):
        PrecisionTarget(relative=0.1, metrics=())
    assert PrecisionTarget.coerce(0.05).relative == 0.05
    tgt = PrecisionTarget(relative=0.1)
    assert PrecisionTarget.coerce(tgt) is tgt


def test_controller_bound_validation():
    with pytest.raises(ValueError, match="min_reps"):
        run_sequential_replications(_noisy_chunk, seed=0, target=0.1, min_reps=1)
    with pytest.raises(ValueError, match="max_reps"):
        run_sequential_replications(
            _noisy_chunk, seed=0, target=0.1, min_reps=10, max_reps=5
        )
    with pytest.raises(ValueError, match="level"):
        run_sequential_replications(_noisy_chunk, seed=0, target=0.1, level=1.0)


def test_chunk_size_mismatch_is_an_error():
    with pytest.raises(RuntimeError, match="rows"):
        run_sequential_replications(
            lambda seeds: [], seed=0, target=0.1, min_reps=2, max_reps=4
        )


# ---------------------------------------------------------------------------
# runner integration (the determinism acceptance criterion)
# ---------------------------------------------------------------------------


def test_adaptive_run_scenario_bit_identical_to_fixed_n():
    adaptive = run_scenario(
        "E1", seed=11, workers=1, target_precision=0.08, min_reps=4, max_reps=64
    )
    assert adaptive.precision is not None and adaptive.precision["met"]
    n = adaptive.n_replications
    fixed = run_scenario("E1", replications=n, seed=11, workers=1)
    assert adaptive.samples == fixed.samples
    assert adaptive.means() == fixed.means()


def test_adaptive_run_scenario_identical_across_worker_counts():
    serial = run_scenario(
        "E1", seed=11, workers=1, target_precision=0.08, min_reps=4, max_reps=64
    )
    fanned = run_scenario(
        "E1", seed=11, workers=2, target_precision=0.08, min_reps=4, max_reps=64
    )
    assert fanned.n_replications == serial.n_replications
    assert fanned.samples == serial.samples


def test_adaptive_run_scenario_identical_across_backends():
    # E1 has a vectorized kernel, so auto resolves to it; the event path
    # must stop at the same n with the same samples
    vec = run_scenario(
        "E1",
        seed=11,
        workers=1,
        backend="vectorized",
        target_precision=0.08,
        min_reps=4,
        max_reps=64,
    )
    event = run_scenario(
        "E1",
        seed=11,
        workers=1,
        backend="event",
        target_precision=0.08,
        min_reps=4,
        max_reps=64,
    )
    assert vec.backend == "vectorized" and event.backend == "event"
    assert event.n_replications == vec.n_replications
    assert event.samples == vec.samples


def test_adaptive_result_records_target_and_achieved_n():
    res = run_scenario(
        "E5", seed=0, workers=1, target_precision=0.1, min_reps=2, max_reps=8
    )
    # E5 is deterministic: every interval degenerates, met at min_reps
    assert res.n_replications == 2
    assert res.precision == {
        "target": {"relative": 0.1, "absolute": None, "metrics": None},
        "min_reps": 2,
        "max_reps": 8,
        "met": True,
        "unmet_metrics": [],
        "rounds": 1,
    }
    doc = res.to_dict()
    assert doc["precision"]["met"] is True
    assert doc["n_replications"] == 2


def test_adaptive_uses_controller_defaults():
    res = run_scenario("E5", seed=0, workers=1, target_precision=0.1)
    assert res.n_replications == DEFAULT_MIN_REPS
    assert res.precision["min_reps"] == DEFAULT_MIN_REPS


def test_bounds_require_target_precision():
    with pytest.raises(ValueError, match="target_precision"):
        run_scenario("E5", seed=0, workers=1, min_reps=4)
    with pytest.raises(ValueError, match="target_precision"):
        run_scenario("E5", seed=0, workers=1, max_reps=4)


def test_unmet_target_reported_not_raised():
    res = run_scenario(
        "E1", seed=0, workers=1, target_precision=1e-9, min_reps=2, max_reps=4
    )
    assert res.n_replications == 4
    assert res.precision["met"] is False
    assert res.precision["unmet_metrics"]
    assert math.isfinite(res.metrics["wsept"].half_width)
