"""Queueing scheduling control models (survey §3).

* :mod:`repro.queueing.mg1` — multiclass M/G/1 analytics: Pollaczek–
  Khinchine, Cobham priority waiting times, the cµ rule [15] and its exact
  optimal cost.
* :mod:`repro.queueing.klimov` — Klimov's model [24]: M/G/1 with Markovian
  feedback and the N-step index algorithm (a branching-bandit Gittins
  computation that reduces to cµ without feedback).
* :mod:`repro.queueing.network` — a multiclass queueing-network simulator
  (multiple stations, probabilistic routing, preemptive/nonpreemptive
  priority, FIFO, LCFS) with its own flat min-scan event loop.
* :mod:`repro.queueing.stability` — the stability problem [9]: the
  Rybko–Stolyar network and the virtual-station load criterion.
* :mod:`repro.queueing.fluid` — fluid approximations [11, 3]: trajectory
  integration, drain times, fluid-stability checks.
* :mod:`repro.queueing.heavy_traffic` — parallel-server scheduling
  (Glazebrook–Niño-Mora [22]): cµ heuristic on M/M/m vs the pooled-server
  lower bound as traffic intensifies.
* :mod:`repro.queueing.polling` — polling systems with switchover times
  (Levy–Sidi [25]): exhaustive / gated / limited service.
"""

from repro.queueing.mg1 import (
    cmu_indices,
    cmu_order,
    mg1_waiting_time,
    mm1_metrics,
    optimal_average_cost,
    order_average_cost,
)
from repro.queueing.klimov import (
    KlimovModel,
    effective_arrival_rates,
    klimov_indices,
    klimov_order,
)
from repro.queueing.network import (
    ClassConfig,
    NetworkResult,
    QueueingNetwork,
    StationConfig,
    simulate_network,
)
from repro.queueing.stability import (
    rybko_stolyar_network,
    virtual_station_load,
)
from repro.queueing.fluid import (
    FluidModel,
    fluid_drain_time,
    fluid_trajectory,
    is_fluid_stable,
)
from repro.queueing.heavy_traffic import (
    parallel_server_experiment,
    pooled_lower_bound,
)
from repro.queueing.polling import (
    PollingResult,
    PollingSystem,
    pseudo_conservation_rhs,
)

__all__ = [
    "mm1_metrics",
    "mg1_waiting_time",
    "cmu_indices",
    "cmu_order",
    "order_average_cost",
    "optimal_average_cost",
    "KlimovModel",
    "klimov_indices",
    "klimov_order",
    "effective_arrival_rates",
    "ClassConfig",
    "StationConfig",
    "QueueingNetwork",
    "NetworkResult",
    "simulate_network",
    "rybko_stolyar_network",
    "virtual_station_load",
    "FluidModel",
    "fluid_trajectory",
    "fluid_drain_time",
    "is_fluid_stable",
    "pooled_lower_bound",
    "parallel_server_experiment",
    "PollingSystem",
    "PollingResult",
    "pseudo_conservation_rhs",
]
