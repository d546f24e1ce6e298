"""Job model for the sweep-serving daemon: submissions, ids, and costs.

A *submission* is the wire form of one sweep request: a
``repro.sweeps/v1``-shaped spec dict plus a normalised run configuration
(replications, root seed, backend, adaptive-precision target, …).
:func:`parse_submission` validates everything **before** the job is
accepted — unknown scenarios, unknown axis names, schema-invalid
parameter values, and malformed run options all raise
:class:`SubmissionError` with a structured payload the daemon returns as
an HTTP 400 body — so a queued job can only fail by crashing, never by
being nonsense.

Job identity is *content-addressed*: :attr:`Submission.job_id` is a
digest of the canonical-JSON submission, so submitting the identical
sweep twice — from one client or two — resolves to the same job.  That
is the first dedup layer; the per-point layer (the sample store plus the
daemon's in-flight table) handles *overlapping but distinct* grids.

:class:`CostModel` is the scheduler's cost oracle.  The daemon orders
queued points by expected simulation cost — shortest expected processing
time first, the SEPT index policy the reproduced survey proves optimal
for minimising mean flowtime — and the expectations come from observed
history: an exponentially weighted per-replication wall-time per
scenario, and (for adaptive-precision runs) the achieved replication
count ``n``, which the adaptive controller's history predicts far better
than the requested cap does.  The model persists across daemon restarts
so a warm daemon schedules well from its first job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.experiments.registry import ParamValidationError
from repro.experiments.runner import MissingKernelError, resolve_backend
from repro.experiments.sweeps import (
    RUN_DEFAULTS,
    SweepPoint,
    SweepSpec,
    check_run_options,
)
from repro.utils.serialization import canonical_json

__all__ = [
    "SUBMIT_SCHEMA",
    "SubmissionError",
    "Submission",
    "parse_submission",
    "CostModel",
]

#: schema tag accepted (and emitted) for submission documents
SUBMIT_SCHEMA = "repro.serve/v1"


class SubmissionError(ValueError):
    """An invalid submission, carrying a structured, serialisable error.

    ``to_dict()`` is the HTTP 400 response body: a stable ``code`` for
    machines plus a human-readable ``message`` naming the offending
    field, matching the exit-2 usage-error convention of the other CLIs.
    """

    def __init__(self, message: str, *, code: str = "invalid-submission") -> None:
        super().__init__(message)
        self.code = code

    def to_dict(self) -> dict[str, Any]:
        """The structured error payload served to the client."""
        return {"error": {"code": self.code, "message": str(self)}}


@dataclass(frozen=True)
class Submission:
    """One validated sweep request: the spec plus its run configuration.

    ``run`` is always the fully normalised mapping (every
    :data:`~repro.experiments.sweeps.RUN_DEFAULTS` key present), so two
    submissions that differ only in whether a default was spelled out are
    the *same* submission and share a :attr:`job_id`.
    """

    spec: SweepSpec
    run: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        run = {**RUN_DEFAULTS, **dict(self.run)}
        object.__setattr__(self, "run", run)

    @property
    def job_id(self) -> str:
        """Content-addressed job identity.

        A digest over the canonical-JSON submission document: identical
        submissions — whatever their field order, axis container types,
        or submitting client — map to one job, which is what lets the
        daemon serve a repeated request from the finished document
        without re-running anything.
        """
        text = canonical_json(
            {"spec": self.spec.to_dict(), "run": dict(self.run)}
        )
        return "job-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        """The wire form (round-trips through :func:`parse_submission`)."""
        return {
            "schema": SUBMIT_SCHEMA,
            "spec": self.spec.to_dict(),
            "run": dict(self.run),
        }

    def expand(self) -> list[SweepPoint]:
        """The submission's concrete sweep points, in point order."""
        return self.spec.expand()


def parse_submission(obj: Any) -> Submission:
    """Validate a wire-form submission into a :class:`Submission`.

    Checks, in order: the document shape and schema tag, the sweep spec
    (via :meth:`SweepSpec.from_dict` and ``resolve()`` — unknown
    scenarios and axis names fail here), the run block
    (:func:`~repro.experiments.sweeps.check_run_options`, the check the
    CLIs run too), backend availability (a ``vectorized`` request
    for a kernel-less scenario fails at submit, not mid-job), and every
    expanded point's parameter values against the scenario's declared
    JSON schema.  Anything wrong raises :class:`SubmissionError`.
    """
    if not isinstance(obj, Mapping):
        raise SubmissionError(
            f"submission must be a JSON object, got {type(obj).__name__}"
        )
    unknown = sorted(set(obj) - {"schema", "spec", "run"})
    if unknown:
        raise SubmissionError(f"submission has unknown key(s) {unknown}")
    schema = obj.get("schema", SUBMIT_SCHEMA)
    if schema != SUBMIT_SCHEMA:
        raise SubmissionError(
            f"unsupported submission schema {schema!r} "
            f"(this daemon speaks {SUBMIT_SCHEMA!r})"
        )
    if "spec" not in obj:
        raise SubmissionError("submission needs a spec")
    try:
        spec = SweepSpec.from_dict(obj["spec"])
        sc = spec.resolve()
        points = spec.expand()
    except (KeyError, ValueError) as exc:
        raise SubmissionError(
            str(exc.args[0]) if exc.args else str(exc), code="invalid-spec"
        ) from exc
    try:
        run = check_run_options(obj.get("run") or {})
    except ValueError as exc:
        raise SubmissionError(str(exc)) from exc
    if run["backend"] == "vectorized":
        try:
            resolve_backend(sc.scenario_id, "vectorized")
        except MissingKernelError as exc:
            raise SubmissionError(str(exc), code="missing-kernel") from exc
    for point in points:
        try:
            sc.params(point.overrides)
        except ParamValidationError as exc:
            raise SubmissionError(
                f"point {point.index} ({point.label()}): {exc}",
                code="invalid-params",
            ) from exc
    return Submission(spec=spec, run=run)


class CostModel:
    """Expected-cost oracle for the daemon's SEPT point scheduler.

    Tracks, per scenario, an exponentially weighted mean of observed
    seconds-per-replication, and — separately — the achieved replication
    count of adaptive-precision runs (their real cost driver; the
    requested ``max_reps`` cap can be off by orders of magnitude).  A
    point's predicted cost is ``seconds_per_rep x expected_reps``;
    scenarios never seen before fall back to a neutral default, so the
    queue degrades to submission order until history accumulates.
    The state round-trips through :meth:`to_dict`/:meth:`from_dict` so a
    restarted daemon keeps its history.
    """

    #: EMA weight of the newest observation
    ALPHA = 0.5

    def __init__(self, *, default_seconds_per_rep: float = 1e-3) -> None:
        self._default = float(default_seconds_per_rep)
        self._per_rep: dict[str, float] = {}
        self._achieved: dict[str, float] = {}

    def predict(
        self, scenario_id: str, *, replications: int, adaptive: bool
    ) -> float:
        """Expected wall-seconds to simulate one point of ``scenario_id``."""
        per_rep = self._per_rep.get(scenario_id, self._default)
        expected_n = float(replications)
        if adaptive and scenario_id in self._achieved:
            expected_n = self._achieved[scenario_id]
        return per_rep * expected_n

    def observe(
        self,
        scenario_id: str,
        *,
        simulated: int,
        seconds: float,
        achieved: int | None = None,
    ) -> None:
        """Fold one completed point into the history.

        ``simulated`` counts freshly simulated replications (cache hits
        cost nothing and must not dilute the rate); ``achieved`` is the
        adaptive controller's stopping ``n`` when the point ran in
        adaptive mode.
        """
        if simulated > 0 and seconds >= 0:
            rate = seconds / simulated
            old = self._per_rep.get(scenario_id)
            self._per_rep[scenario_id] = (
                rate if old is None else self.ALPHA * rate + (1 - self.ALPHA) * old
            )
        if achieved is not None:
            old = self._achieved.get(scenario_id)
            self._achieved[scenario_id] = (
                float(achieved)
                if old is None
                else self.ALPHA * achieved + (1 - self.ALPHA) * old
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialisable snapshot (persisted in the daemon's spool)."""
        return {
            "default_seconds_per_rep": self._default,
            "seconds_per_rep": dict(sorted(self._per_rep.items())),
            "achieved_reps": dict(sorted(self._achieved.items())),
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "CostModel":
        """Rebuild a model from :meth:`to_dict` output (bad fields are
        dropped rather than crashing a daemon restart)."""
        model = cls()
        try:
            model._default = float(obj.get("default_seconds_per_rep", model._default))
            for name, value in dict(obj.get("seconds_per_rep") or {}).items():
                model._per_rep[str(name)] = float(value)
            for name, value in dict(obj.get("achieved_reps") or {}).items():
                model._achieved[str(name)] = float(value)
        except (TypeError, ValueError):
            return cls()
        return model
