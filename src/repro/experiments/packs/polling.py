"""Polling-system scenario pack (E15).

Exhaustive / gated / limited service under changeover times, pinned by
the pseudo-conservation law — the survey's polling claim.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.experiments.packs import ScenarioPack
from repro.experiments.packs._shared import _HORIZON
from repro.utils.rng import crn_generators

Params = Mapping[str, Any]

_SCHEMAS = {
    "E15": {
        "type": "object",
        "properties": {
            "horizon": _HORIZON,
            "switchover_means": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "additionalProperties": False,
    },
}

PACK = ScenarioPack(
    name="polling",
    version="1.0.0",
    docs="docs/ARCHITECTURE.md#scenario-packs",
    schemas=_SCHEMAS,
)


_E15_LAM = (0.3, 0.2)


@PACK.kernel(
    "E15",
    note="each replication's six CRN (policy, switchover) polling "
    "simulations dominate the run; the pseudo-conservation right-hand "
    "sides are too small a share to hoist",
)
@PACK.scenario(
    "E15",
    title="Polling with changeovers: exhaustive <= gated <= limited",
    claim=(
        "Changeover/setup times change optimal control (polling systems, "
        "Levy–Sidi [25]): local policies rank exhaustive <= gated <= "
        "limited in weighted waits; the pseudo-conservation law pins the "
        "simulator; longer setups hurt every policy."
    ),
    verdict=(
        "Reproduced: the policy ordering holds at both switchover levels, "
        "the pseudo-conservation law matches simulation, and longer setups "
        "hurt every policy."
    ),
    defaults={"horizon": 12000.0, "switchover_means": (0.1, 0.4)},
    checks={
        "exhaustive_best": lambda m: m["exhaustive_short"] <= m["gated_short"] * 1.05
        and m["exhaustive_long"] <= m["gated_long"] * 1.05,
        "gated_beats_limited": lambda m: m["gated_short"] <= m["limited_short"] * 1.05
        and m["gated_long"] <= m["limited_long"] * 1.05,
        "pseudo_conservation": lambda m: m["max_conservation_err"] < 0.15,
        "setups_hurt": lambda m: m["exhaustive_long"] > m["exhaustive_short"]
        and m["gated_long"] > m["gated_short"]
        and m["limited_long"] > m["limited_short"],
    },
    tags=("queueing", "simulation", "polling"),
)
def simulate_e15(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E15: Polling with changeovers: exhaustive <= gated <= limited.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.distributions import Deterministic, Exponential
    from repro.queueing import PollingSystem, pseudo_conservation_rhs

    svc = [Exponential(2.0), Exponential(1.5)]
    lam = list(_E15_LAM)
    horizon = float(params["horizon"])
    short, long_ = params["switchover_means"]

    metrics: dict[str, float] = {}
    cons_errs = []
    cases = [
        (pol, sw_mean, label)
        for sw_mean, label in ((float(short), "short"), (float(long_), "long"))
        for pol in ("exhaustive", "gated", "limited")
    ]
    # CRN: all six (policy, switchover) cases replay the same streams.
    for (pol, sw_mean, label), rng in zip(cases, crn_generators(ss, len(cases))):
        sw = [Deterministic(sw_mean), Deterministic(sw_mean)]
        res = PollingSystem(lam, svc, sw, pol).simulate(horizon, rng)
        metrics[f"{pol}_{label}"] = float(res.weighted_wait_sum)
        if pol in ("exhaustive", "gated"):
            rhs = pseudo_conservation_rhs(lam, svc, sw, pol)
            cons_errs.append(abs(res.weighted_wait_sum / rhs - 1.0))
    metrics["max_conservation_err"] = float(max(cons_errs))
    return metrics
