"""Simulation substrate: replication runners and batched primitives.

The survey observes that "computer simulation remains the most widely used
tool in applications of these models". No simulation package is assumed; this
subpackage implements the substrate from scratch: serial-or-parallel and
paired replication runners producing confidence intervals, the adaptive
sequential-stopping controller, and the batched primitives the vectorized
kernels share (:mod:`repro.sim.vectorized`).  The kernels themselves are
registered beside their scenarios in :mod:`repro.experiments.registry`.
"""

from repro.sim.replication import (
    PairedReplicationResult,
    ReplicationResult,
    run_paired_replications,
    run_replications,
)
from repro.sim.sequential import (
    PrecisionTarget,
    SequentialOutcome,
    run_sequential_replications,
)

__all__ = [
    "ReplicationResult",
    "PairedReplicationResult",
    "run_replications",
    "run_paired_replications",
    "PrecisionTarget",
    "SequentialOutcome",
    "run_sequential_replications",
]
