"""The sweep-serving daemon: an asyncio job queue over the sample store.

:class:`SweepServer` turns the one-shot sweep machinery into a
long-running service.  Clients POST ``repro.serve/v1`` submissions (a
``repro.sweeps/v1`` spec plus run configuration) over HTTP — spoken
directly on asyncio streams, no ``http.server`` — and the daemon:

* **expands** the spec to points and **schedules** them on a global
  priority queue ordered by expected simulation cost (SEPT — shortest
  expected processing time first, the index policy of the reproduced
  survey), with expectations supplied by :class:`~repro.serve.jobs.CostModel`
  from observed per-replication wall times and adaptive-precision history;
* **dedupes** identical ``(pack@version, scenario, params, seed)`` work
  across concurrent clients: an in-flight table serialises simulations of
  the same store identity, and the shared :class:`SampleStore` serves
  every later request for that identity from cache — each distinct point
  is simulated exactly once, ever;
* **streams** per-point results as they complete (NDJSON over
  ``GET /v1/jobs/<id>/events``), with event payloads produced by the same
  ``(point, result)`` callback shape as ``run_sweep(progress=…)``;
* **serves** the finished JSON report document, byte-for-byte.

Determinism contract
--------------------
Every document the daemon serves is the **canonical projection**
(:func:`~repro.experiments.report.canonical_sweep_document`) of the
sweep document: a pure function of ``(spec, run configuration)``.  It is
byte-identical to ``repro-sweep run … --canonical --json`` for the same
request, and byte-identical across client concurrency, submission order,
cache state, and daemon restarts — per-point samples are bit-exact
whatever backend, worker count, or resume path produced them, and the
volatile fields (timings, cache-hit counts, store location) are
neutralised.

Restart/resume
--------------
With a ``spool_dir``, submissions are persisted (atomically) on accept
and finished documents on completion.  A restarted daemon reloads both:
finished jobs serve their stored document, unfinished jobs re-enqueue —
and because every completed point's samples are already in the store,
resuming re-simulates **nothing** that finished before the crash.  A
corrupt store entry degrades to a cache miss (the store verifies
payloads on load), so the affected point is simply re-simulated.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import repro
from repro.experiments.registry import get_scenario
from repro.experiments.report import canonical_sweep_document, sweep_to_json
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.experiments.store import SampleStore
from repro.experiments.sweeps import SweepPoint, SweepResult, sweep_run_config
from repro.serve.jobs import (
    SUBMIT_SCHEMA,
    CostModel,
    Submission,
    SubmissionError,
    parse_submission,
)
from repro.utils.serialization import atomic_write, canonical_json, jsonable

__all__ = ["Job", "SweepServer"]

_FINAL_STATES = ("done", "failed")

# request-size guards: a submission is a small JSON document (a request
# or header line longer than the stream's 64 KiB limit is refused too)
_MAX_HEADERS = 100
_MAX_BODY = 16 * 1024 * 1024
# seconds a client gets to send its whole request (line, headers, body); a
# stalled client is answered 408 and closed instead of holding its handler
_REQUEST_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """A request the HTTP parser cannot accept; answered with a 400."""


class Job:
    """Runtime state of one accepted submission.

    ``results`` maps point index → :class:`ScenarioResult` as points
    complete (in *scheduling* order, which cost-based dispatch may
    permute freely — the finished document is assembled in point order,
    so execution order can never leak into served bytes).  It is emptied
    once the document is built, so the ``simulated`` and ``cached``
    replication counts that :meth:`status` serves are kept as points are
    recorded.  ``events`` is the append-only NDJSON stream replayed to
    every subscriber.
    """

    def __init__(
        self, submission: Submission, points: tuple[SweepPoint, ...], seq: int
    ) -> None:
        self.submission = submission
        self.points = points
        self.seq = seq
        self.state = "queued"
        self.results: dict[int, ScenarioResult] = {}
        self.simulated = 0
        self.cached = 0
        self.events: list[dict[str, Any]] = []
        self.error: str | None = None
        self.document: bytes | None = None
        #: True for jobs restored from a spooled document after a restart
        #: (their per-point bookkeeping died with the old process)
        self.restored = False

    @property
    def job_id(self) -> str:
        """The submission's content-addressed identity."""
        return self.submission.job_id

    @property
    def finished(self) -> bool:
        """Whether the job reached a final state (``done``/``failed``)."""
        return self.state in _FINAL_STATES

    def status(self) -> dict[str, Any]:
        """The JSON status document served for this job."""
        # a job with a document (finished, or restored from the spool)
        # has completed every point, whatever its results still hold
        completed = (
            len(self.points) if self.document is not None else len(self.results)
        )
        return {
            "job_id": self.job_id,
            "state": self.state,
            "scenario_id": self.submission.spec.scenario_id,
            "n_points": len(self.points),
            "completed_points": completed,
            "simulated_replications": self.simulated,
            "cached_replications": self.cached,
            "restored": self.restored,
            "error": self.error,
        }


class SweepServer:
    """The asyncio sweep-serving daemon.

    Parameters
    ----------
    store:
        The shared sample cache: a directory path or a
        :class:`SampleStore` — many workers, one cache.
    spool_dir:
        Where submissions, finished documents, and the cost-model history
        persist; ``None`` disables persistence (a purely in-memory
        daemon, e.g. for benchmarks).
    host, port:
        Listen address; ``port=0`` binds an ephemeral port, readable from
        :attr:`port` once serving.
    workers:
        Concurrent point-simulation slots (one worker coroutine + one
        executor thread each).  Results are identical for every value —
        the dedup table and the store make point execution idempotent and
        order-free.
    point_hook:
        Test seam for fault injection: called as ``hook(job, point,
        result)`` in the worker coroutine after each point's result is
        recorded.  An exception raised here crashes that worker exactly
        at a point boundary — the fault-injection suite uses this to
        model a mid-job daemon kill deterministically.
    """

    def __init__(
        self,
        *,
        store: str | os.PathLike | SampleStore,
        spool_dir: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        point_hook: Callable[[Job, SweepPoint, ScenarioResult], None] | None = None,
    ) -> None:
        self.store = store if isinstance(store, SampleStore) else SampleStore(store)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.host = host
        self.port = port if port else None  # bound port, set once serving
        self._port_arg = port
        self._n_workers = max(1, int(workers))
        self._point_hook = point_hook
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._cost = CostModel()
        # in-flight dedup table: store key -> completion future
        self._inflight: dict[str, asyncio.Future] = {}
        # created inside serve(), on the serving loop
        self._queue: asyncio.PriorityQueue | None = None
        self._cond: asyncio.Condition | None = None
        self._stop_event: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None

    # -- lifecycle -------------------------------------------------------

    async def serve(
        self, *, ready: Callable[["SweepServer"], None] | None = None
    ) -> None:
        """Run the daemon until :meth:`request_stop` (or ``POST
        /v1/shutdown``).

        Binds the listen socket, restores the spool (cost history,
        unfinished jobs re-enqueued, finished jobs served from their
        stored documents), starts the worker pool, and then serves until
        stopped; ``ready`` is called once the port is bound (the CLI and
        the test harness use it to learn an ephemeral port).
        """
        self._queue = asyncio.PriorityQueue()
        self._cond = asyncio.Condition()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._n_workers, thread_name_prefix="repro-serve"
        )
        self._load_spool()
        server = await asyncio.start_server(
            self._handle_client, self.host, self._port_arg
        )
        self.port = server.sockets[0].getsockname()[1]
        workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self._n_workers)
        ]
        if ready is not None:
            ready(self)
        try:
            await self._stop_event.wait()
        finally:
            for task in workers:
                task.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            server.close()
            await server.wait_closed()
            # running simulations finish (their store writes make resume
            # cheap); queued-but-unstarted executor work is dropped
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._save_cost()

    def request_stop(self) -> None:
        """Ask the serving loop to shut down (idempotent; loop-safe only —
        cross-thread callers go through ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    # -- submission ------------------------------------------------------

    def submit(self, payload: Any) -> tuple[Job, bool]:
        """Accept one wire-form submission; returns ``(job, created)``.

        Validation happens entirely in :func:`parse_submission`
        (:class:`SubmissionError` propagates to the HTTP 400 path).  A
        submission whose content-addressed job id is already known — in
        any state — is *deduplicated*: the existing job is returned with
        ``created=False`` and nothing is enqueued.
        """
        submission = parse_submission(payload)
        existing = self._jobs.get(submission.job_id)
        if existing is not None:
            return existing, False
        job = Job(submission, tuple(submission.expand()), self._seq)
        self._seq += 1
        self._jobs[job.job_id] = job
        self._persist_submission(job)
        self._enqueue(job)
        return job, True

    def _enqueue(self, job: Job) -> None:
        """Queue a job's outstanding points, cheapest expected first."""
        run = job.submission.run
        adaptive = run["target_precision"] is not None
        for point in job.points:
            if point.index in job.results:
                continue
            cost = self._cost.predict(
                point.scenario_id,
                replications=run["replications"],
                adaptive=adaptive,
            )
            # (cost, seq, index): SEPT order, ties broken by submission
            # order then point order — fully deterministic
            self._queue.put_nowait((cost, job.seq, point.index, job.job_id))

    # -- the worker pool -------------------------------------------------

    async def _worker(self) -> None:
        """One scheduling slot: pop the cheapest point, simulate, repeat."""
        while True:
            _cost, _seq, index, job_id = await self._queue.get()
            job = self._jobs[job_id]
            if job.finished:
                continue  # a failed job's remaining points are dropped
            if job.state == "queued":
                job.state = "running"
            point = job.points[index]
            try:
                result = await self._run_point(job, point)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # simulation bug: fail the job, live on
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                await self._notify(job, {"event": "error", "job_id": job_id,
                                         "message": job.error})
                continue
            await self._record_point(job, point, result)
            if self._point_hook is not None:
                # fault-injection seam: an exception here kills this
                # worker task mid-job, exactly at a point boundary
                self._point_hook(job, point, result)

    async def _run_point(self, job: Job, point: SweepPoint) -> ScenarioResult:
        """Simulate one point, deduped against concurrent identical work.

        The point's store identity is computed up front; while another
        worker is simulating the same identity we await its in-flight
        future instead of starting a duplicate, and afterwards our own
        ``run_scenario`` call is served (fully or as a prefix) from the
        shared store.  The simulation itself runs on an executor thread
        so the event loop keeps serving status and streams.
        """
        run = job.submission.run
        sc = get_scenario(point.scenario_id)
        merged = sc.params(point.overrides)
        key = self.store.key(point.scenario_id, merged, run["seed"])
        loop = asyncio.get_running_loop()
        while (fut := self._inflight.get(key)) is not None:
            await fut
        self._inflight[key] = done = loop.create_future()
        try:
            return await loop.run_in_executor(
                self._executor,
                partial(
                    run_scenario,
                    point.scenario_id,
                    **run,
                    params=point.overrides,
                    cache_dir=self.store,
                ),
            )
        finally:
            self._inflight.pop(key, None)
            if not done.done():
                done.set_result(None)

    async def _record_point(
        self, job: Job, point: SweepPoint, result: ScenarioResult
    ) -> None:
        """Fold a completed point into the job: cost history, the event
        stream (same ``(point, result)`` shape as ``run_sweep``'s
        ``progress`` hook), and — on the last point — the document, after
        which the per-point results are released."""
        run = job.submission.run
        self._cost.observe(
            point.scenario_id,
            simulated=result.n_replications - result.cached_replications,
            seconds=result.elapsed_seconds,
            achieved=(
                result.n_replications
                if run["target_precision"] is not None
                else None
            ),
        )
        job.results[point.index] = result
        job.simulated += result.n_replications - result.cached_replications
        job.cached += result.cached_replications
        await self._notify(job, self._point_event(job, point, result))
        if len(job.results) == len(job.points):
            job.document = self._document(job)
            all_pass = all(r.all_checks_pass for r in job.results.values())
            job.results.clear()
            self._persist_document(job)
            job.state = "done"
            self._save_cost()
            await self._notify(
                job,
                {
                    "event": "done",
                    "job_id": job.job_id,
                    "n_points": len(job.points),
                    "all_checks_pass": all_pass,
                },
            )

    @staticmethod
    def _point_event(
        job: Job, point: SweepPoint, result: ScenarioResult
    ) -> dict[str, Any]:
        """One per-point stream event from the progress-callback pair."""
        return {
            "event": "point",
            "job_id": job.job_id,
            "index": point.index,
            "scenario_id": result.scenario_id,
            "axes": jsonable(dict(point.axis_values)),
            "n_replications": result.n_replications,
            "cached_replications": result.cached_replications,
            "backend": result.backend,
            "all_checks_pass": result.all_checks_pass,
            "means": {
                name: result.metrics[name].mean for name in sorted(result.metrics)
            },
        }

    async def _notify(self, job: Job, event: dict[str, Any]) -> None:
        """Append a stream event and wake every subscriber/waiter."""
        job.events.append(event)
        async with self._cond:
            self._cond.notify_all()

    # -- document assembly ----------------------------------------------

    def _document(self, job: Job) -> bytes:
        """The canonical finished document, as served bytes.

        Results are assembled in **point order** regardless of the order
        scheduling completed them, the config block comes from the same
        :func:`sweep_run_config` constructor the CLI uses, and the
        canonical projection neutralises the volatile fields — so these
        bytes equal ``repro-sweep run … --canonical --json FILE`` for the
        same request, byte for byte.
        """
        results = tuple(job.results[p.index] for p in job.points)
        sweep = SweepResult(
            spec=job.submission.spec,
            points=job.points,
            results=results,
            elapsed_seconds=0.0,
            where={},
        )
        config = sweep_run_config(
            **job.submission.run,
            resolved_backends=[r.backend for r in results],
            cache_dir=self.store,
        )
        document = canonical_sweep_document(sweep.to_document(config=config))
        return (sweep_to_json(document) + "\n").encode("utf-8")

    # -- spool persistence ----------------------------------------------

    def _submission_path(self, job_id: str) -> Path:
        """Spool location of a persisted submission."""
        return self.spool_dir / "jobs" / f"{job_id}.json"

    def _document_path(self, job_id: str) -> Path:
        """Spool location of a persisted finished document."""
        return self.spool_dir / "docs" / f"{job_id}.json"

    def _persist_submission(self, job: Job) -> None:
        if self.spool_dir is None:
            return
        with atomic_write(self._submission_path(job.job_id)) as fh:
            fh.write(canonical_json(job.submission.to_dict()).encode("utf-8"))

    def _persist_document(self, job: Job) -> None:
        if self.spool_dir is None or job.document is None:
            return
        with atomic_write(self._document_path(job.job_id)) as fh:
            fh.write(job.document)

    def _save_cost(self) -> None:
        if self.spool_dir is None:
            return
        with atomic_write(self.spool_dir / "cost.json") as fh:
            fh.write(canonical_json(self._cost.to_dict()).encode("utf-8"))

    def _load_spool(self) -> None:
        """Restore cost history and jobs from the spool directory.

        Finished jobs come back as served documents; unfinished ones
        re-enqueue (their completed points resume from the store).  An
        unreadable spool entry is skipped with a warning — a corrupt file
        must never stop the daemon from serving everything else.
        """
        if self.spool_dir is None:
            return
        cost_path = self.spool_dir / "cost.json"
        if cost_path.exists():
            try:
                self._cost = CostModel.from_dict(
                    json.loads(cost_path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError):
                self._cost = CostModel()
        jobs_dir = self.spool_dir / "jobs"
        if not jobs_dir.is_dir():
            return
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                submission = parse_submission(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError, SubmissionError) as exc:
                print(
                    f"repro-serve: skipping unreadable spooled job "
                    f"{path.name}: {exc}",
                    file=sys.stderr,
                )
                continue
            job = Job(submission, tuple(submission.expand()), self._seq)
            self._seq += 1
            self._jobs[job.job_id] = job
            doc_path = self._document_path(job.job_id)
            if doc_path.exists():
                try:
                    job.document = doc_path.read_bytes()
                    job.state = "done"
                    job.restored = True
                    continue
                except OSError:
                    pass  # fall through: re-run the job
            self._enqueue(job)

    # -- HTTP ------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: parse a single request, route it, close.

        Reading the request is bounded by ``_REQUEST_TIMEOUT``; routing
        (and so an event stream) is not."""
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), _REQUEST_TIMEOUT
                )
            except _BadRequest as exc:
                await self._send_error(writer, 400, "bad-request", str(exc))
                return
            except asyncio.TimeoutError:
                await self._send_error(
                    writer, 408, "request-timeout",
                    f"request not received within {_REQUEST_TIMEOUT:g} s",
                )
                return
            if request is not None:
                await self._route(*request, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; jobs are unaffected
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.x request: (method, path, headers, body).

        Returns ``None`` when the client closes before sending a request
        line, and raises :class:`_BadRequest` for anything malformed or
        over the size guards.
        """
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _BadRequest("request line too long") from None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except asyncio.LimitOverrunError:
                raise _BadRequest("header line too long") from None
            text = line.decode("latin-1").strip()
            if not text:
                break
            if len(headers) >= _MAX_HEADERS:
                raise _BadRequest(f"more than {_MAX_HEADERS} header lines")
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = headers.get("content-length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        length = int(raw)
        if length > _MAX_BODY:
            raise _BadRequest(f"body of {length} bytes exceeds {_MAX_BODY}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _route(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch one parsed request to its endpoint."""
        path = path.split("?", 1)[0]
        if path == "/v1/health" and method == "GET":
            await self._send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "schema": SUBMIT_SCHEMA,
                    "version": repro.__version__,
                    "jobs": len(self._jobs),
                },
            )
            return
        if path == "/v1/shutdown" and method == "POST":
            await self._send_json(writer, 200, {"status": "stopping"})
            self.request_stop()
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._handle_submit(body, writer)
            elif method == "GET":
                await self._send_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            job.status()
                            for job in sorted(
                                self._jobs.values(), key=lambda j: j.seq
                            )
                        ]
                    },
                )
            else:
                await self._send_error(writer, 405, "method-not-allowed",
                                       f"{method} not allowed on {path}")
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, endpoint = rest.partition("/")
            job = self._jobs.get(job_id)
            if job is None:
                await self._send_error(
                    writer, 404, "unknown-job", f"no such job {job_id!r}"
                )
                return
            if endpoint == "" and method == "GET":
                await self._send_json(writer, 200, job.status())
            elif endpoint == "document" and method == "GET":
                await self._handle_document(job, writer)
            elif endpoint == "events" and method == "GET":
                await self._stream_events(job, writer)
            else:
                await self._send_error(
                    writer, 404, "unknown-endpoint",
                    f"unknown endpoint {endpoint!r} for {method}",
                )
            return
        await self._send_error(
            writer, 404, "unknown-path", f"unknown path {path!r}"
        )

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """POST /v1/jobs: validate, dedup, enqueue, answer."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._send_error(
                writer, 400, "invalid-json", f"request body is not JSON: {exc}"
            )
            return
        try:
            job, created = self.submit(payload)
        except SubmissionError as exc:
            await self._send_json(writer, 400, exc.to_dict())
            return
        await self._send_json(
            writer,
            200,
            {
                "job_id": job.job_id,
                "created": created,
                "state": job.state,
                "n_points": len(job.points),
            },
        )

    async def _handle_document(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """GET /v1/jobs/<id>/document: the canonical finished bytes."""
        if job.state == "failed":
            await self._send_error(
                writer, 409, "job-failed", job.error or "job failed"
            )
        elif job.document is None:
            await self._send_error(
                writer, 409, "not-finished",
                f"job is {job.state}; stream /events or poll status",
            )
        else:
            await self._send(writer, 200, job.document, "application/json")

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """GET /v1/jobs/<id>/events: replay-then-follow NDJSON stream.

        Subscribers joining late replay the full event history first; the
        stream ends with an ``end`` event once the job reaches a final
        state.  A disconnecting client raises into
        :meth:`_handle_client`, which drops the subscription — the job
        itself is never affected.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        i = 0
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: i < len(job.events) or job.finished
                )
                batch = job.events[i:]
                i = len(job.events)
                finished = job.finished and i == len(job.events)
            for event in batch:
                writer.write((json.dumps(event) + "\n").encode("utf-8"))
                await writer.drain()
            if finished:
                break
        writer.write(
            (json.dumps({"event": "end", "state": job.state}) + "\n").encode(
                "utf-8"
            )
        )
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, obj: Mapping[str, Any]
    ) -> None:
        """Send a JSON object response."""
        await self._send(
            writer,
            status,
            (json.dumps(obj, indent=2) + "\n").encode("utf-8"),
            "application/json",
        )

    async def _send_error(
        self, writer: asyncio.StreamWriter, status: int, code: str, message: str
    ) -> None:
        """Send a structured ``{"error": {code, message}}`` response."""
        await self._send_json(
            writer, status, {"error": {"code": code, "message": message}}
        )

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        """Send one complete HTTP/1.1 response (connection: close)."""
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
