"""Simulation substrate: replication runners and the kernel registry.

The survey observes that "computer simulation remains the most widely used
tool in applications of these models". No simulation package is assumed; this
subpackage implements the substrate from scratch: serial, parallel and paired
replication runners producing confidence intervals, the adaptive
sequential-stopping controller, and the vectorized-kernel registry with its
batched primitives.
"""

from repro.sim.replication import (
    PairedReplicationResult,
    ReplicationResult,
    run_paired_replications,
    run_replications,
    run_replications_parallel,
)
from repro.sim.sequential import (
    PrecisionTarget,
    SequentialOutcome,
    run_sequential_replications,
)
from repro.sim.vectorized import (
    VectorizedKernel,
    get_kernel,
    has_kernel,
    kernel_ids,
    register_kernel,
    vectorized_kernel,
)

__all__ = [
    "ReplicationResult",
    "PairedReplicationResult",
    "run_replications",
    "run_replications_parallel",
    "run_paired_replications",
    "PrecisionTarget",
    "SequentialOutcome",
    "run_sequential_replications",
    "VectorizedKernel",
    "vectorized_kernel",
    "register_kernel",
    "get_kernel",
    "has_kernel",
    "kernel_ids",
]
