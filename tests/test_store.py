"""Tests for the content-addressed, resumable sample store — including the
acceptance property: a re-run with a tighter precision target reuses the
cached replications (the simulate call count drops) while producing
samples bit-identical to a cold fixed-``n`` run."""

import math
import shutil

import numpy as np
import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import Scenario, SampleStore, run_scenario
from repro.experiments.store import STORE_SCHEMA, store_key, store_payload


ROWS = [
    {"a": 1.0, "b": 2.5},
    {"a": math.nan},
    {"b": -3.0},
]


def _rows_equal(xs, ys):
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if set(x) != set(y):
            return False
        for k in x:
            if not (x[k] == y[k] or (math.isnan(x[k]) and math.isnan(y[k]))):
                return False
    return True


# ---------------------------------------------------------------------------
# store round-trip and keying
# ---------------------------------------------------------------------------


def test_round_trip_preserves_partial_rows_and_nan(tmp_path):
    store = SampleStore(tmp_path)
    assert store.save("E1", {"p": 1}, 0, ROWS)
    loaded = store.load("E1", {"p": 1}, 0)
    assert _rows_equal(loaded, ROWS)


def test_missing_entry_is_none(tmp_path):
    assert SampleStore(tmp_path / "never-created").load("E1", {}, 0) is None


def test_key_depends_on_scenario_params_and_seed(tmp_path):
    store = SampleStore(tmp_path)
    base = store.key("E1", {"p": 1, "q": [2.0, 3.0]}, 0)
    assert store.key("E1", {"q": [2.0, 3.0], "p": 1}, 0) == base  # order-free
    assert store.key("E1", {"p": 1, "q": (2.0, 3.0)}, 0) == base  # tuple==list
    assert store.key("E1", {"p": 1, "q": np.float64(2.0)}, 0) != base
    assert store.key("E2", {"p": 1, "q": [2.0, 3.0]}, 0) != base
    assert store.key("E1", {"p": 2, "q": [2.0, 3.0]}, 0) != base
    assert store.key("E1", {"p": 1, "q": [2.0, 3.0]}, 1) != base


def test_numpy_scalars_normalise_to_python_scalars(tmp_path):
    store = SampleStore(tmp_path)
    assert store.key("E1", {"p": np.int64(3)}, 0) == store.key("E1", {"p": 3}, 0)


def test_schema_version_and_pack_are_part_of_the_key():
    payload = store_payload("E1", {"p": 1}, 0)
    assert payload["store_schema"] == STORE_SCHEMA
    assert payload["pack"] == {"name": "flowshop-batch", "version": "1.0.0"}


def test_saves_are_monotone(tmp_path):
    store = SampleStore(tmp_path)
    assert store.save("E1", {}, 0, ROWS)
    assert not store.save("E1", {}, 0, ROWS[:2])  # shorter: kept
    assert _rows_equal(store.load("E1", {}, 0), ROWS)
    longer = ROWS + [{"a": 9.0}]
    assert store.save("E1", {}, 0, longer)
    assert _rows_equal(store.load("E1", {}, 0), longer)


def test_empty_rows_are_not_saved(tmp_path):
    store = SampleStore(tmp_path)
    assert not store.save("E1", {}, 0, [])
    assert store.load("E1", {}, 0) is None


def test_corrupt_file_is_a_miss(tmp_path):
    store = SampleStore(tmp_path)
    store.save("E1", {}, 0, ROWS)
    path = store.path("E1", {}, 0)
    path.write_bytes(b"not a zip archive")
    assert store.load("E1", {}, 0) is None


def test_payload_mismatch_is_a_miss(tmp_path):
    # a file parked under another identity's address (collision/tamper)
    # must not be served
    store = SampleStore(tmp_path)
    store.save("E1", {"p": 1}, 0, ROWS)
    shutil.copy(store.path("E1", {"p": 1}, 0), store.path("E1", {"p": 2}, 0))
    assert store.load("E1", {"p": 2}, 0) is None


def test_seed_none_has_no_identity(tmp_path):
    store = SampleStore(tmp_path)
    with pytest.raises(ValueError, match="seed=None"):
        store.key("E1", {}, None)


def test_spawned_seed_sequence_is_rejected(tmp_path):
    # spawn() mutates a SeedSequence: its future children depend on how
    # many were already spawned, so keying on entropy/spawn-key alone
    # would mix cached rows with rows from the wrong children — the store
    # must refuse rather than serve silently wrong samples
    store = SampleStore(tmp_path)
    ss = np.random.SeedSequence(7)
    assert store.key("E1", {}, ss)  # fresh: fine
    ss.spawn(3)
    with pytest.raises(ValueError, match="already spawned"):
        store.key("E1", {}, ss)
    with pytest.raises(ValueError, match="already spawned"):
        run_scenario("E5", replications=2, seed=ss, workers=1, cache_dir=tmp_path)


def test_unserialisable_params_fail_loudly(tmp_path):
    store = SampleStore(tmp_path)
    with pytest.raises(TypeError):
        store.key("E1", {"fn": object()}, 0)


# ---------------------------------------------------------------------------
# runner integration: prefix reuse
# ---------------------------------------------------------------------------


@pytest.fixture
def count_simulated(monkeypatch):
    """Count replications actually simulated (not restored from cache)."""
    calls = {"n": 0}
    orig = runner_mod._simulate_chunk

    def counting(payload, seeds):
        calls["n"] += len(seeds)
        return orig(payload, seeds)

    monkeypatch.setattr(runner_mod, "_simulate_chunk", counting)
    return calls


def test_fixed_n_runs_reuse_the_cached_prefix(tmp_path, count_simulated):
    first = run_scenario("E5", replications=6, seed=0, workers=1, cache_dir=tmp_path)
    assert count_simulated["n"] == 6
    assert first.cached_replications == 0

    count_simulated["n"] = 0
    shorter = run_scenario("E5", replications=4, seed=0, workers=1, cache_dir=tmp_path)
    assert count_simulated["n"] == 0  # fully served from the store
    assert shorter.cached_replications == 4
    assert shorter.samples == {k: v[:4] for k, v in first.samples.items()}

    count_simulated["n"] = 0
    longer = run_scenario("E5", replications=9, seed=0, workers=1, cache_dir=tmp_path)
    assert count_simulated["n"] == 3  # only the remainder
    assert longer.cached_replications == 6
    cold = run_scenario("E5", replications=9, seed=0, workers=1)
    assert longer.samples == cold.samples


def test_tighter_precision_target_resumes_from_cache(tmp_path, count_simulated):
    cold = run_scenario(
        "E1",
        seed=3,
        workers=1,
        target_precision=0.05,
        min_reps=4,
        max_reps=128,
        cache_dir=tmp_path,
    )
    assert cold.precision["met"]
    assert count_simulated["n"] == cold.n_replications

    count_simulated["n"] = 0
    warm = run_scenario(
        "E1",
        seed=3,
        workers=1,
        target_precision=0.02,
        min_reps=4,
        max_reps=512,
        cache_dir=tmp_path,
    )
    assert warm.precision["met"]
    assert warm.n_replications > cold.n_replications
    # the simulate call count drops: only the new suffix is simulated
    assert warm.cached_replications == cold.n_replications
    assert count_simulated["n"] == warm.n_replications - cold.n_replications
    # …and the result is bit-identical to a cold fixed-n run
    fixed = run_scenario("E1", replications=warm.n_replications, seed=3, workers=1)
    assert warm.samples == fixed.samples
    assert warm.means() == fixed.means()


def test_cache_entries_are_parameter_specific(tmp_path, count_simulated):
    run_scenario("E5", replications=3, seed=0, workers=1, cache_dir=tmp_path)
    count_simulated["n"] = 0
    res = run_scenario(
        "E5",
        replications=3,
        seed=0,
        workers=1,
        cache_dir=tmp_path,
        params={"m": 3},
    )
    assert count_simulated["n"] == 3  # different identity: nothing reused
    assert res.cached_replications == 0


def _adhoc_simulate(ss, params):
    return {"v": float(np.random.default_rng(ss).uniform())}


def test_cache_rejects_adhoc_scenarios(tmp_path):
    sc = Scenario(
        scenario_id="ZZCACHE",
        title="ad-hoc",
        claim="-",
        verdict="-",
        simulate=_adhoc_simulate,
    )
    with pytest.raises(ValueError, match="ad-hoc"):
        run_scenario(sc, replications=2, seed=0, workers=1, cache_dir=tmp_path)


def test_cache_rejects_seed_none(tmp_path):
    with pytest.raises(ValueError, match="seed=None"):
        run_scenario("E5", replications=2, seed=None, workers=1, cache_dir=tmp_path)


def test_runner_accepts_a_store_instance(tmp_path, count_simulated):
    store = SampleStore(tmp_path)
    run_scenario("E5", replications=3, seed=0, workers=1, cache_dir=store)
    count_simulated["n"] = 0
    res = run_scenario("E5", replications=3, seed=0, workers=1, cache_dir=store)
    assert count_simulated["n"] == 0
    assert res.cached_replications == 3


# ---------------------------------------------------------------------------
# store conformance: the prefix / monotone / degrade-to-miss rules
# ---------------------------------------------------------------------------


@pytest.fixture(params=["sample"])
def backend(tmp_path):
    # a store whose directory does not exist yet (created on first save)
    return SampleStore(tmp_path / "disk")


def test_backend_keying_matches_the_module_functions(backend):
    # the store addresses entries by the module-level identity
    assert backend.key("E1", {"p": 1}, 0) == store_key("E1", {"p": 1}, 0)
    assert backend.path("E1", {"p": 1}, 0).stem == store_key("E1", {"p": 1}, 0)


def test_backend_round_trip(backend):
    assert backend.save("E1", {"p": 1}, 0, ROWS)
    assert _rows_equal(backend.load("E1", {"p": 1}, 0), ROWS)
    assert backend.length("E1", {"p": 1}, 0) == len(ROWS)


def test_backend_miss_is_none_and_length_zero(backend):
    assert backend.load("E1", {"p": 99}, 0) is None
    assert backend.length("E1", {"p": 99}, 0) == 0


def test_backend_saves_are_monotone(backend):
    assert backend.save("E1", {}, 0, ROWS)
    assert not backend.save("E1", {}, 0, ROWS[:2])  # shorter: kept
    assert _rows_equal(backend.load("E1", {}, 0), ROWS)
    longer = ROWS + [{"a": 9.0}]
    assert backend.save("E1", {}, 0, longer)
    assert _rows_equal(backend.load("E1", {}, 0), longer)


def test_backend_rejects_empty_rows(backend):
    assert not backend.save("E1", {}, 0, [])
    assert backend.load("E1", {}, 0) is None


def test_backend_load_copies_are_isolated(backend):
    backend.save("E1", {}, 0, [{"a": 1.0}])
    loaded = backend.load("E1", {}, 0)
    loaded[0]["a"] = 777.0
    assert backend.load("E1", {}, 0)[0]["a"] == 1.0


def test_backend_corrupt_entry_degrades_to_miss(backend):
    backend.save("E1", {}, 0, ROWS)
    backend.path("E1", {}, 0).write_bytes(b"not a zip archive")
    assert backend.load("E1", {}, 0) is None
    assert backend.length("E1", {}, 0) == 0


def test_backend_runner_integration_reuses_prefix(backend, count_simulated):
    first = run_scenario("E5", replications=4, seed=0, workers=1, cache_dir=backend)
    assert count_simulated["n"] == 4
    count_simulated["n"] = 0
    again = run_scenario("E5", replications=6, seed=0, workers=1, cache_dir=backend)
    assert count_simulated["n"] == 2  # only the suffix
    assert again.cached_replications == 4
    cold = run_scenario("E5", replications=6, seed=0, workers=1)
    assert again.samples == cold.samples
    assert first.samples == {k: v[:4] for k, v in cold.samples.items()}
