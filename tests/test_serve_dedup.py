"""Concurrency properties of the sweep-serving daemon.

The dedup property: however many clients concurrently submit overlapping
sweep grids, each distinct ``(scenario, params, seed)`` identity is
simulated at most once — with mixed replication counts, the total
simulated work per identity is exactly ``max(replications)`` (prefix
resume covers every smaller request).  Checked by counting actual
simulate calls under hypothesis-generated submission batches.

The determinism property: the documents the daemon serves are
byte-identical across submission orders, worker counts, and cache
states — and byte-identical to what one-shot
``repro-sweep run --canonical`` writes for the same request.
"""

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_mod
from repro.experiments.sweep_cli import main as sweep_main
from repro.serve import ServerHarness, parse_submission


def submission(m_values, *, reps=3, seed=0):
    """A wire-form E5 submission sweeping the ``m`` axis."""
    return {
        "schema": "repro.serve/v1",
        "spec": {
            "scenario_id": "E5",
            "axes": {"m": sorted(m_values)},
            "mode": "grid",
        },
        "run": {"replications": reps, "seed": seed},
    }


def oneshot_bytes(tmp_path, m_values, *, reps=3, seed=0):
    """Bytes of the one-shot CLI document for the same request."""
    out = tmp_path / "oneshot.json"
    rc = sweep_main(
        ["run", "E5", "--axis", f"m={','.join(map(str, sorted(m_values)))}",
         "--replications", str(reps), "--seed", str(seed),
         "--canonical", "--quiet", "--json", str(out)]
    )
    assert rc in (0, 1)  # 1 = a shape check failed; still a valid document
    return out.read_bytes()


class _SimulateCounter:
    """Thread-safe simulate-call counter, patched in around a block."""

    def __init__(self):
        self.lock = threading.Lock()
        self.n = 0
        self._orig = None

    def __enter__(self):
        self._orig = runner_mod._simulate_chunk

        def counting(payload, seeds):
            with self.lock:
                self.n += len(seeds)
            return self._orig(payload, seeds)

        runner_mod._simulate_chunk = counting
        return self

    def __exit__(self, *exc_info):
        runner_mod._simulate_chunk = self._orig


# ---------------------------------------------------------------------------
# the dedup property
# ---------------------------------------------------------------------------


@given(
    batches=st.lists(
        st.tuples(
            st.frozensets(st.sampled_from([2, 3, 4, 5]), min_size=1),
            st.sampled_from([2, 3, 5]),  # replications per submission
        ),
        min_size=2,
        max_size=4,
    )
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_concurrent_overlapping_submissions_simulate_each_point_once(batches):
    # expected simulated work: per distinct m, the largest replication
    # count any submission asks of it (prefix resume covers the rest)
    expected = sum(
        max(reps for ms, reps in batches if m in ms)
        for m in {m for ms, _ in batches for m in ms}
    )
    with _SimulateCounter() as counter:
        # fresh store per example: examples must not share cache (tmp_path
        # is shared by every example of one hypothesis test)
        with tempfile.TemporaryDirectory() as store, ServerHarness(
            store=store, workers=4
        ) as harness:
            results: list[dict] = [None] * len(batches)

            def submit(i, sub):
                results[i] = harness.client().submit(sub)

            threads = [
                threading.Thread(
                    target=submit, args=(i, submission(ms, reps=reps))
                )
                for i, (ms, reps) in enumerate(batches)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            client = harness.client()
            for accepted in results:
                client.fetch(accepted["job_id"], wait=True, timeout=120)
    assert counter.n == expected


def test_identical_resubmission_simulates_nothing(tmp_path):
    sub = submission([2, 3])
    with _SimulateCounter() as counter:
        with ServerHarness(store=tmp_path / "store") as harness:
            client = harness.client()
            first = client.submit(sub)
            assert first["created"] is True
            doc1 = client.fetch(first["job_id"], wait=True, timeout=60)
            after_first = counter.n
            second = client.submit(sub)
            assert second["created"] is False  # collapsed onto the same job
            assert second["job_id"] == first["job_id"]
            doc2 = client.fetch(second["job_id"])
    assert counter.n == after_first  # the resubmission simulated nothing
    assert doc1 == doc2


def test_done_job_releases_its_results_and_keeps_its_status_counts(tmp_path):
    # the status counts of a done job must equal those summed over every
    # per-point result, which the hook sees before the job lets them go
    recorded: dict[str, list] = {}

    def keep(job, point, result):
        recorded.setdefault(job.job_id, []).append(result)

    with ServerHarness(store=tmp_path / "store", point_hook=keep) as harness:
        client = harness.client()
        first = client.submit(submission([2, 3], reps=2))
        client.fetch(first["job_id"], wait=True, timeout=60)
        # overlaps the first grid with more replications: partly cached
        second = client.submit(submission([2, 3, 4], reps=3))
        client.fetch(second["job_id"], wait=True, timeout=60)
        for job_id in (first["job_id"], second["job_id"]):
            job = harness.server._jobs[job_id]
            results = recorded[job_id]
            status = client.status(job_id)
            assert job.results == {}
            assert status["completed_points"] == len(results) == len(job.points)
            assert status["simulated_replications"] == sum(
                r.n_replications - r.cached_replications for r in results
            )
            assert status["cached_replications"] == sum(
                r.cached_replications for r in results
            )
    assert status["simulated_replications"] == 3 + 1 + 1
    assert status["cached_replications"] == 2 + 2


# ---------------------------------------------------------------------------
# the determinism property
# ---------------------------------------------------------------------------


def test_documents_byte_identical_across_submission_orders(tmp_path):
    subs = [submission([2, 3]), submission([3, 4]), submission([2, 4, 5])]
    job_ids = [parse_submission(s).job_id for s in subs]
    served: dict[str, set[bytes]] = {job_id: set() for job_id in job_ids}

    orders = (list(zip(job_ids, subs)), list(zip(job_ids, subs))[::-1])
    for i, order in enumerate(orders):
        # a fresh daemon and store per order: cold cache vs execution
        # order must not be distinguishable from the served bytes
        with ServerHarness(store=tmp_path / f"store{i}", workers=3) as harness:
            client = harness.client()
            for job_id, sub in order:
                assert client.submit(sub)["job_id"] == job_id
            for job_id, _ in order:
                served[job_id].add(client.fetch(job_id, wait=True, timeout=60))

    for job_id, sub in zip(job_ids, subs):
        # one set member: both orders served identical bytes …
        assert len(served[job_id]) == 1
        # … equal to the one-shot repro-sweep document for the request
        assert served[job_id] == {
            oneshot_bytes(tmp_path, sub["spec"]["axes"]["m"])
        }


def test_documents_byte_identical_across_worker_counts_and_cache_state(
    tmp_path,
):
    sub = submission([2, 3, 4])
    job_id = parse_submission(sub).job_id
    store = tmp_path / "store"  # shared on-disk store: second run is warm
    docs = []
    for workers in (1, 4):
        with ServerHarness(store=store, workers=workers) as harness:
            client = harness.client()
            client.submit(sub)
            docs.append(client.fetch(job_id, wait=True, timeout=60))
            status = client.status(job_id)
        if workers == 4:  # warm run: everything came from the store
            assert status["simulated_replications"] == 0
            assert status["cached_replications"] > 0
    assert docs[0] == docs[1]
    assert docs[0] == oneshot_bytes(tmp_path, [2, 3, 4])


def test_api_doc_serve_snippet_executes():
    # the docs/API.md serving example must stay runnable verbatim
    text = (Path(__file__).resolve().parent.parent / "docs" / "API.md").read_text()
    section = text.split("## Sweep serving (`repro.serve`)")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "API.md", "exec"), {})
