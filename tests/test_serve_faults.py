"""Fault-injection suite for the sweep-serving daemon.

Each test drives a real daemon (in-process harness, real sockets) through
one failure mode and checks the serving contract survives it:

* a worker killed mid-job resumes from the sample store after a restart
  — completed points are **not** re-simulated;
* a corrupt store entry under a pending job degrades to a cache miss and
  is silently re-simulated;
* a client disconnecting mid-event-stream never affects the job — the
  document remains fetchable;
* malformed or schema-invalid submissions are refused with a structured
  error, and ``repro-serve submit`` exits 2 on them;
* a client that stalls mid-request is answered 408 and closed.

Every fetched document is checked byte-identical to the one-shot
``repro-sweep run --canonical`` output for the same request — faults may
cost duplicate work at most, never change served bytes.
"""

import json
import math
import threading
import time

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.sweep_cli import main as sweep_main
from repro.serve import (
    ServeError,
    ServerHarness,
    SubmissionError,
    parse_submission,
)
from repro.serve.cli import main as serve_main
from repro.serve.daemon import SweepServer


REPS = 3


def submission(axes, *, scenario="E5", reps=REPS, seed=0):
    """A wire-form submission for a small grid sweep."""
    return {
        "schema": "repro.serve/v1",
        "spec": {"scenario_id": scenario, "axes": axes, "mode": "grid"},
        "run": {"replications": reps, "seed": seed},
    }


def oneshot_bytes(tmp_path, axes, *, scenario="E5", reps=REPS, seed=0):
    """Byte output of ``repro-sweep run --canonical --json`` for the same
    request the daemon will serve."""
    out = tmp_path / "oneshot.json"
    args = ["run", scenario, "--replications", str(reps), "--seed", str(seed),
            "--canonical", "--quiet", "--json", str(out)]
    for name, values in axes.items():
        args += ["--axis", f"{name}={','.join(map(str, values))}"]
    assert sweep_main(args) in (0, 1)  # 1 = a shape check failed, still a doc
    return out.read_bytes()


@pytest.fixture
def count_simulated(monkeypatch):
    """Thread-safe count of replications actually simulated (the daemon
    runs points on executor threads; cache loads don't count)."""
    lock = threading.Lock()
    calls = {"n": 0}
    orig = runner_mod._simulate_chunk

    def counting(payload, seeds):
        with lock:
            calls["n"] += len(seeds)
        return orig(payload, seeds)

    monkeypatch.setattr(runner_mod, "_simulate_chunk", counting)
    return calls


# ---------------------------------------------------------------------------
# worker killed mid-job: restart resumes from the store
# ---------------------------------------------------------------------------


def test_worker_crash_then_restart_resumes_without_resimulating(
    tmp_path, count_simulated
):
    store = tmp_path / "store"
    spool = tmp_path / "spool"
    axes = {"m": [2, 3, 4]}

    def crash_after_first_point(job, point, result):
        raise RuntimeError("injected crash at a point boundary")

    # first daemon: the (only) worker dies right after the first point
    with ServerHarness(
        store=store, spool_dir=spool, point_hook=crash_after_first_point
    ) as h:
        client = h.client()
        job_id = client.submit(submission(axes))["job_id"]
        # the first point completes (and is persisted) before the crash
        status = None
        for _ in range(400):
            status = client.status(job_id)
            if status["completed_points"] >= 1:
                break
            time.sleep(0.01)
        assert status["completed_points"] == 1
        assert status["state"] == "running"  # stuck: the only worker is dead
        with pytest.raises(ServeError) as exc_info:
            client.fetch(job_id)
        assert exc_info.value.code == "not-finished"
    simulated_before = count_simulated["n"]
    assert simulated_before == REPS  # exactly one point's worth

    # second daemon over the same spool + store: job re-enqueues, the
    # completed point loads from the store, only the rest is simulated
    with ServerHarness(store=store, spool_dir=spool) as h2:
        client = h2.client()
        document = client.fetch(job_id, wait=True, timeout=60)
        status = client.status(job_id)
    assert status["state"] == "done"
    assert count_simulated["n"] - simulated_before == 2 * REPS  # not 3*REPS
    assert document == oneshot_bytes(tmp_path, axes)


# ---------------------------------------------------------------------------
# corrupt store entry under a pending job: degrade to miss, re-simulate
# ---------------------------------------------------------------------------


def test_corrupt_store_entry_is_resimulated(tmp_path, count_simulated):
    from repro.experiments import SampleStore, get_scenario, run_scenario

    store_dir = tmp_path / "store"
    store = SampleStore(store_dir)
    axes = {"m": [2, 3]}

    # warm the store with both points, then corrupt one entry in place
    for m in (2, 3):
        run_scenario("E5", replications=REPS, seed=0, workers=1,
                     params={"m": m}, cache_dir=store)
    warm = count_simulated["n"]
    assert warm == 2 * REPS
    sc = get_scenario("E5")
    store.path("E5", sc.params({"m": 3}), 0).write_bytes(b"garbage")

    with ServerHarness(store=store_dir) as h:
        client = h.client()
        job_id = client.submit(submission(axes))["job_id"]
        document = client.fetch(job_id, wait=True, timeout=60)
        status = client.status(job_id)
    # the intact entry was served from cache; the corrupt one re-simulated
    assert count_simulated["n"] - warm == REPS
    assert status["cached_replications"] == REPS
    assert status["simulated_replications"] == REPS
    # …and corruption never leaks into served bytes
    assert document == oneshot_bytes(tmp_path, axes)


# ---------------------------------------------------------------------------
# client disconnect mid-stream: the job is unaffected
# ---------------------------------------------------------------------------


def test_client_disconnect_mid_stream_does_not_kill_the_job(tmp_path):
    import http.client

    axes = {"m": [2, 3, 4]}
    with ServerHarness(store=tmp_path / "store") as h:
        client = h.client()
        job_id = client.submit(submission(axes))["job_id"]

        # open the event stream, read a single line, then hang up
        conn = http.client.HTTPConnection(
            h.server.host, h.server.port, timeout=30
        )
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        first = response.readline()
        assert first  # headers + at least one NDJSON line arrived
        conn.close()  # mid-stream disconnect

        # the job still runs to completion and the document is servable
        document = client.fetch(job_id, wait=True, timeout=60)
        # a fresh subscriber replays the full history after the fact
        events = list(client.events(job_id))
    assert [e["event"] for e in events] == ["point"] * 3 + ["done", "end"]
    assert document == oneshot_bytes(tmp_path, axes)


# ---------------------------------------------------------------------------
# malformed submissions: structured errors, exit 2 from the CLI
# ---------------------------------------------------------------------------


def test_invalid_submissions_get_structured_errors(tmp_path):
    with ServerHarness(store=tmp_path / "store") as h:
        client = h.client()
        cases = [
            ({"schema": "repro.serve/v2", "spec": {}}, "invalid-submission"),
            ({"spec": {"scenario_id": "NOPE", "axes": {"x": [1]}}},
             "invalid-spec"),
            ({"spec": {"scenario_id": "E5", "axes": {"bogus_param": [1]}}},
             "invalid-spec"),
            ({"spec": {"scenario_id": "E5", "axes": {"m": [2]}},
              "run": {"replications": 0}}, "invalid-submission"),
            ({"spec": {"scenario_id": "E5", "axes": {"m": [2]}},
              "run": {"seed": None}}, "invalid-submission"),
            ({"spec": {"scenario_id": "E5", "axes": {"m": [2]}},
              "run": {"frobnicate": 1}}, "invalid-submission"),
            # JSON has no inf or NaN, but Python's json reads Infinity,
            # NaN and 1e999; an infinite horizon once wedged the worker
            ({"spec": {"scenario_id": "E10", "axes": {"horizon": [math.inf]}}},
             "invalid-params"),
            ({"spec": {"scenario_id": "E13",
                       "axes": {"fluid_horizon": [-math.inf]}}}, "invalid-params"),
            ({"spec": {"scenario_id": "E10", "axes": {"horizon": [math.nan]}}},
             "invalid-params"),
            # a parameter past the one that bounds it once crashed the run
            ({"spec": {"scenario_id": "E19", "axes": {"m": [5]},
                       "base": {"n_projects": 2}}}, "invalid-params"),
            ({"spec": {"scenario_id": "E8", "axes": {"warmup": [60]},
                       "base": {"horizon": 50}}}, "invalid-params"),
        ]
        for payload, expected_code in cases:
            with pytest.raises(ServeError) as exc_info:
                client.submit(payload)
            assert exc_info.value.status == 400
            assert exc_info.value.code == expected_code, payload
        # a non-JSON body is refused at the HTTP layer, not a crash
        import http.client

        conn = http.client.HTTPConnection(h.server.host, h.server.port,
                                          timeout=30)
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid-json"
        # nothing above left a job behind
        assert client.jobs() == []


_MALFORMED_REQUESTS = {
    "non-numeric-length": (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}"
    ),
    "header-over-stream-limit": (
        b"GET /v1/health HTTP/1.1\r\nX-Junk: " + b"a" * 70_000 + b"\r\n\r\n"
    ),
    "negative-length": (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    ),
    "garbage-request-line": b"GARBAGE\r\n\r\n",
    "body-over-limit": (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n"
    ),
}


def _raw_exchange(host, port, request, timeout=30):
    """Send ``request`` on a fresh socket; return everything the daemon
    writes back before it closes the connection (a daemon that neither
    answers nor closes within ``timeout`` seconds raises ``TimeoutError``)."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("case", sorted(_MALFORMED_REQUESTS))
def test_malformed_http_requests_get_a_structured_400(tmp_path, caplog, case):
    with caplog.at_level("ERROR"), ServerHarness(store=tmp_path / "store") as h:
        reply = _raw_exchange(h.server.host, h.server.port,
                              _MALFORMED_REQUESTS[case])
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
        error = json.loads(body)["error"]
        assert error["code"] == "bad-request"
        assert error["message"]
        assert h.client().health()["status"] == "ok"  # daemon still serves
    assert not caplog.records, [r.getMessage() for r in caplog.records]


_STALLED_REQUESTS = {
    "silent": b"",
    "request-line-only": b"GET /v1/health HTTP/1.1\r\n",
    "short-body": (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"spec\":"
    ),
}


@pytest.mark.parametrize("case", sorted(_STALLED_REQUESTS))
def test_stalled_http_requests_get_a_408(tmp_path, caplog, monkeypatch, case):
    # a client that stops mid-request must not hold its handler forever;
    # the client-side timeout turns a daemon that never answers into a
    # failure rather than a hang
    import repro.serve.daemon as daemon_mod

    monkeypatch.setattr(daemon_mod, "_REQUEST_TIMEOUT", 0.2)
    with caplog.at_level("ERROR"), ServerHarness(store=tmp_path / "store") as h:
        started = time.monotonic()
        reply = _raw_exchange(h.server.host, h.server.port,
                              _STALLED_REQUESTS[case], timeout=10)
        assert time.monotonic() - started < 5
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), reply[:200]
        error = json.loads(body)["error"]
        assert error["code"] == "request-timeout"
        assert error["message"]
        assert h.client().health()["status"] == "ok"  # daemon still serves
    assert not caplog.records, [r.getMessage() for r in caplog.records]


def test_serve_submit_cli_exits_2_on_invalid_submission(tmp_path, capsys):
    with ServerHarness(store=tmp_path / "store") as h:
        rc = serve_main(
            ["submit", "NOPE", "--axis", "x=1", "--url", h.url]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid-spec" in err
        assert "unknown scenario" in err

        # usage errors are caught before any network round-trip too
        rc = serve_main(["submit", "E5", "--url", h.url])
        err = capsys.readouterr().err
        assert rc == 2
        assert "needs at least one --axis" in err


def test_serve_submit_cli_rejects_repeated_axis_before_the_network(capsys):
    # port 9 has no daemon: a check that ran after the request would
    # report "cannot reach daemon" instead
    rc = serve_main(["submit", "E1", "--axis", "n_jobs=10", "--axis",
                     "n_jobs=20", "--url", "http://127.0.0.1:9"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "repeated" in err and "n_jobs" in err
    assert "cannot reach daemon" not in err


@pytest.mark.parametrize(
    "run, option",
    [
        ({"target_precision": 0.1, "min_reps": 1}, "run.min_reps"),
        ({"target_precision": 0.1, "min_reps": 8, "max_reps": 4},
         "run.max_reps"),
        ({"replications": True}, "run.replications"),
        ({"seed": -1}, "run.seed"),
        ({"workers": -1}, "run.workers"),
    ],
)
def test_parse_submission_rejects_what_the_runner_would(run, option):
    # each of these used to be accepted, then fail the job at run time
    payload = {"spec": {"scenario_id": "E5", "axes": {"m": [2]}}, "run": run}
    with pytest.raises(SubmissionError) as exc_info:
        parse_submission(payload)
    assert exc_info.value.code == "invalid-submission"
    assert str(exc_info.value).startswith(option)


def test_serve_cli_exits_2_when_daemon_is_unreachable(capsys):
    rc = serve_main(["status", "--url", "http://127.0.0.1:9", "--timeout", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot reach daemon" in err


# ---------------------------------------------------------------------------
# daemon-side failure: a broken simulation fails the job, not the daemon
# ---------------------------------------------------------------------------


def test_simulation_error_fails_the_job_but_daemon_survives(
    tmp_path, monkeypatch
):
    def explode(payload, seeds):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "_simulate_chunk", explode)
    with ServerHarness(store=tmp_path / "store") as h:
        client = h.client()
        job_id = client.submit(submission({"m": [2]}))["job_id"]
        events = list(client.events(job_id))
        assert events[-2]["event"] == "error"
        assert "boom" in events[-2]["message"]
        status = client.status(job_id)
        assert status["state"] == "failed"
        with pytest.raises(ServeError) as exc_info:
            client.fetch(job_id)
        assert exc_info.value.code == "job-failed"
        assert client.health()["status"] == "ok"  # daemon survives
