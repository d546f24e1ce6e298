"""Sweep serving: the daemon, its job model, client, and test harness.

This package turns the one-shot sweep machinery of
:mod:`repro.experiments` into a long-running service:

* :mod:`repro.serve.jobs` — wire-format submissions, content-addressed
  job identity, structured validation errors, and the SEPT cost model;
* :mod:`repro.serve.daemon` — the asyncio daemon: queue, scheduler,
  cross-client dedup, NDJSON event streams, spool persistence;
* :mod:`repro.serve.client` — the blocking stdlib-``http.client``
  client used by the CLI and the test suites;
* :mod:`repro.serve.testing` — an in-process harness running a real
  daemon on a background thread;
* :mod:`repro.serve.cli` — the ``repro-serve`` console script
  (``start`` / ``submit`` / ``status`` / ``fetch`` / ``stop``).

The core guarantee is the determinism contract: any document the
service serves is byte-identical to ``repro-sweep run … --canonical``
for the same request, regardless of concurrency, submission order,
cache state, or daemon restarts.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import Job, SweepServer
from repro.serve.jobs import (
    SUBMIT_SCHEMA,
    CostModel,
    Submission,
    SubmissionError,
    parse_submission,
)
from repro.serve.testing import ServerHarness

__all__ = [
    "CostModel",
    "Job",
    "SUBMIT_SCHEMA",
    "ServeClient",
    "ServeError",
    "ServerHarness",
    "Submission",
    "SubmissionError",
    "SweepServer",
    "parse_submission",
]
