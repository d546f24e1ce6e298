"""Simulation backends for registered scenarios.

Every scenario has a trusted *event-driven* backend: its ``simulate``
function, run one replication at a time.  Scenarios listed in the kernel
registry additionally have a *vectorized* backend: a batched-numpy kernel
(declared by the scenario's pack, on top of the primitives in
:mod:`repro.sim.vectorized`) that simulates **all replications at once**
while consuming identical randomness per replication — so the two
backends return bit-for-bit the same per-replication metrics for the
same spawned seeds.

Backend selection::

    "event"       always the per-replication simulate function
    "vectorized"  the kernel; a scenario without one is an error
                  (:class:`MissingKernelError` naming the scenario)
    "auto"        the kernel when one exists (results are identical, so
                  auto is safe), else silently fall back to event

The seed-handling contract every kernel must obey:

1. the kernel receives the exact child :class:`~numpy.random.SeedSequence`
   list the runner spawned — one per replication, never re-spawned;
2. whatever generators/children the event path derives from a
   replication's seed (``default_rng(ss)``, ``ss.spawn(k)``,
   ``crn_generators(ss, k)``), the kernel derives in the same order;
3. every draw the event path makes from those generators, the kernel
   makes with an equivalent call at the same position in the stream
   (batching draws only where the consumed bit-stream is provably
   unchanged, e.g. ``rng.random(2n)`` for ``2n`` successive uniforms).

Kernels come in four modes (see
:class:`repro.sim.vectorized.VectorizedKernel`): ``batched`` kernels
vectorize the replication computation itself; ``lockstep`` kernels drive
the epoch-driven scenarios through the lockstep fleet rollouts in
:mod:`repro.sim.vectorized`; ``cached`` kernels hoist the
replication-invariant part (for fully deterministic scenarios like
E5/E18 that is the entire replication); ``direct`` kernels call the
scenario's own ``simulate`` per replication.

The kernel *implementations* used to live in this module; they now ship
with their scenarios in the built-in packs under
:mod:`repro.experiments.packs`.  The historical ``batch_*`` names (and
the private helpers a few kernels resolve at call time) are re-exported
below so existing imports keep working.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.packs._shared import _crn_batches, _float_rows
from repro.experiments.packs.bandits import (
    _policy_values_batch,
    _sequential_argmax,
    batch_a1,
    batch_e7,
    batch_e9,
)
from repro.experiments.packs.flowshop import (
    _broadcast_deterministic,
    _uniform_rates,
    batch_e1,
    batch_e2,
    batch_e3,
    batch_e4,
    batch_e5,
    batch_e6,
    batch_e16,
    batch_e17,
    batch_e18,
)
from repro.experiments.packs.polling import batch_e15
from repro.experiments.packs.queueing import (
    batch_a2,
    batch_a3,
    batch_e10,
    batch_e11,
    batch_e12,
    batch_e13,
    batch_e14,
)
from repro.experiments.packs.restless import batch_e8, batch_e19
from repro.sim.vectorized import get_kernel, has_kernel, kernel_ids

__all__ = [
    "BACKENDS",
    "MissingKernelError",
    "resolve_backend",
    "simulate_scenario_batch",
    "kernel_ids",
    "has_kernel",
    "get_kernel",
]

Params = Mapping[str, Any]
Seeds = Sequence[np.random.SeedSequence]

BACKENDS = ("event", "vectorized", "auto")


class MissingKernelError(ValueError):
    """An explicit ``backend="vectorized"`` request for a scenario that has
    no registered vectorized kernel.

    Raised instead of silently running the event engine, so that
    ``--backend vectorized`` always means what it says; request ``auto``
    for the per-scenario fallback behaviour.
    """


def resolve_backend(scenario_id: str, backend: str) -> str:
    """Resolve a requested backend to the one that will actually run.

    ``"auto"`` resolves to ``"vectorized"`` exactly when a kernel is
    registered for ``scenario_id`` and to ``"event"`` otherwise (the
    per-scenario fallback).  ``"vectorized"`` demands a kernel: a scenario
    without one raises :class:`MissingKernelError` naming the scenario
    rather than silently falling back.  ``"event"`` is always honoured
    verbatim.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "event":
        return "event"
    if has_kernel(scenario_id):
        return "vectorized"
    if backend == "vectorized":
        raise MissingKernelError(
            f"scenario {scenario_id!r} has no vectorized kernel; registered "
            f"kernels: {kernel_ids()}. Use backend='auto' to fall back to "
            f"the event engine for uncovered scenarios."
        )
    return "event"


def simulate_scenario_batch(
    scenario_id: str, seeds: Seeds, params: Params
) -> list[dict[str, float]]:
    """Run all replications of ``scenario_id`` through its vectorized
    kernel.  Raises ``KeyError`` when no kernel is registered."""
    rows = get_kernel(scenario_id).fn(seeds, params)
    if len(rows) != len(seeds):
        raise RuntimeError(
            f"kernel for {scenario_id} returned {len(rows)} rows for "
            f"{len(seeds)} seeds"
        )
    return rows
