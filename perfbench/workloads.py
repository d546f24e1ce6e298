"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the workload seed: the same seed
gives the same operations in the same order, and the program under test
receives only the generated inputs.  Each workload draws from a fixed,
finite pool (scenario composition fixed, simulation seeds drawn from a
small range), so every document the benchmark can ever request has a
digest pinned in ``pins.json`` (regenerate with ``python3
perfbench/pin.py``).

Held-out seed
-------------
``HELD_OUT_SEED`` was never run while the benchmark and its bounds were
tuned.  A later performance claim should be re-checked on it
(``--seed 424242``) as well as on the seeds it was developed with.

Why each workload, and which layers it does and does not exercise, is
recorded in :data:`WORKLOADS`.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator

HELD_OUT_SEED = 424242

WORKLOADS: dict[str, dict[str, Any]] = {
    "cli-oneshot": {
        "why": "what a CLI user waits for: cold interpreter, import, pack "
        "discovery, store reads and rendering dominate; simulation is "
        "under a tenth of each call",
        "exercises": ["import", "packs", "registry", "rng", "store",
                      "aggregate", "checks", "render"],
        "bypasses": ["simulate (barely moves it)", "sequential", "serve"],
    },
    "mc-sweep": {
        "why": "a warm in-process Monte-Carlo sweep over all five packs with "
        "no store: simulation is over 95% of each point, so engine and "
        "kernel changes show here and nowhere else as strongly",
        "exercises": ["simulate", "rng", "aggregate", "checks", "registry"],
        "bypasses": ["import (setup only)", "store", "render", "serve"],
    },
    "serve-mixed": {
        "why": "the repro-serve daemon under two closed-loop clients: HTTP, "
        "SEPT queueing, job-id dedup, store reads next to writes and "
        "document rebuilds carry the latency (one worker, so in-flight "
        "dedup never triggers)",
        "exercises": ["serve", "store", "simulate", "sequential", "render",
                      "registry"],
        "bypasses": ["import (setup only)"],
    },
}

# -- cli-oneshot ------------------------------------------------------------

#: a cheap multi-scenario panel for `repro-experiments run`
CLI_PANEL = ("E5", "E9", "E17", "E18")
CLI_PANEL_REPS = 16
#: the small grid `repro-sweep run` serves from the pre-warmed store
CLI_GRID_SCENARIO = "E1"
CLI_GRID_AXIS = ("n_jobs", (10, 20, 40))
CLI_GRID_REPS = 16
#: simulation seeds both commands draw from (all pinned, all pre-warmed)
CLI_SEEDS = tuple(range(8))


def cli_ops(seed: int) -> Iterator[dict[str, Any]]:
    """Endless alternating ``run`` / ``sweep`` commands with seeded
    simulation seeds."""
    rng = random.Random(seed)
    while True:
        for kind in ("run", "sweep"):
            yield {"kind": kind, "seed": rng.choice(CLI_SEEDS)}


def cli_argv(op: dict[str, Any], out: str, markdown: str, store: str) -> list[str]:
    """The CLI arguments (after ``python -m <module>``) for one operation."""
    if op["kind"] == "run":
        return ["run", *CLI_PANEL, "--replications", str(CLI_PANEL_REPS),
                "--seed", str(op["seed"]), "--json", out,
                "--markdown", markdown, "--quiet"]
    name, values = CLI_GRID_AXIS
    return ["run", CLI_GRID_SCENARIO,
            "--axis", f"{name}={','.join(map(str, values))}",
            "--replications", str(CLI_GRID_REPS), "--seed", str(op["seed"]),
            "--cache-dir", store, "--canonical", "--json", out, "--quiet"]


def cli_pin_key(op: dict[str, Any]) -> dict[str, Any]:
    """What an operation's output is a pure function of."""
    if op["kind"] == "run":
        return {"workload": "cli-oneshot", "kind": "run", "panel": CLI_PANEL,
                "replications": CLI_PANEL_REPS, "seed": op["seed"]}
    return {"workload": "cli-oneshot", "kind": "sweep",
            "scenario": CLI_GRID_SCENARIO, "axis": CLI_GRID_AXIS,
            "replications": CLI_GRID_REPS, "seed": op["seed"]}


def cli_pool() -> list[dict[str, Any]]:
    """Every operation :func:`cli_ops` can produce."""
    return [{"kind": k, "seed": s} for k in ("run", "sweep") for s in CLI_SEEDS]


# -- mc-sweep ---------------------------------------------------------------

#: one deck: (scenario, replications, overrides, backend, call).  Sized
#: like benchmarks/bench_a04 so points take 0.01-0.8 s each and a deck
#: about 3 s, so every entry runs a dozen times or more in a run.  The
#: composition is fixed; the seed only orders it and picks the
#: simulation seeds, so throughput is comparable across seeds.
MC_DECK: tuple[tuple[str, int, dict[str, Any], str, str], ...] = (
    # batched kernels
    ("E1", 32, {"n_jobs": 50}, "auto", "sweep"),
    ("E3", 32, {}, "auto", "scenario"),
    ("E4", 32, {"n_jobs": 8}, "auto", "sweep"),
    ("E8", 4, {"horizon": 300, "warmup": 50, "fleet_sizes": (10, 40)}, "auto", "scenario"),
    ("E9", 24, {"beta": 0.9}, "auto", "sweep"),
    # flat queueing and polling engines
    ("E10", 3, {"horizon": 800.0}, "auto", "scenario"),
    ("E11", 3, {"horizon": 600.0}, "auto", "sweep"),
    ("E12", 2, {"horizon": 1000.0, "rhos": (0.6, 0.9)}, "auto", "scenario"),
    ("E13", 3, {"horizon": 400.0, "fluid_horizon": 40.0}, "auto", "sweep"),
    ("E14", 3, {"horizon": 600.0}, "auto", "scenario"),
    ("A2", 4, {"horizon": 8000.0}, "auto", "sweep"),
    ("E15", 4, {"horizon": 4000.0}, "auto", "scenario"),
    # laggard kernels
    ("E6", 2, {"ns": (4, 8, 11)}, "auto", "scenario"),
    ("E7", 8, {"beta": 0.9}, "auto", "sweep"),
    ("E16", 12, {}, "auto", "scenario"),
    ("E19", 2, {"n_projects": 4, "horizon": 400, "warmup": 40}, "auto", "sweep"),
    # the event engine, requested the way examples and goldens call it
    ("E1", 8, {"n_jobs": 50}, "event", "scenario"),
    ("E10", 3, {"horizon": 800.0}, "event", "sweep"),
    ("E12", 2, {"horizon": 500.0, "rhos": (0.6, 0.9)}, "event", "scenario"),
    ("E15", 2, {"horizon": 4000.0}, "event", "sweep"),
    ("E16", 12, {}, "event", "scenario"),
)
MC_SEEDS = tuple(range(4))


def mc_point(entry: tuple, sim_seed: int) -> dict[str, Any]:
    """One deck entry with its simulation seed, as plain data."""
    sid, reps, overrides, backend, call = entry
    return {"scenario": sid, "replications": reps, "params": overrides,
            "backend": backend, "call": call, "seed": sim_seed}


def mc_decks(seed: int) -> Iterator[list[dict[str, Any]]]:
    """Endless decks: each a seeded permutation of :data:`MC_DECK`.

    Simulation seeds are balanced: each entry draws a seeded order of
    :data:`MC_SEEDS` and deck ``d`` uses its ``d % len(MC_SEEDS)``-th
    seed, so every entry meets every seed equally often and a point's
    seed-dependent cost (up to 30%) does not move one run against
    another.
    """
    rng = random.Random(seed)
    orders = [rng.sample(MC_SEEDS, len(MC_SEEDS)) for _ in MC_DECK]
    for d in itertools.count():
        deck = [mc_point(e, order[d % len(MC_SEEDS)])
                for e, order in zip(MC_DECK, orders)]
        rng.shuffle(deck)
        yield deck


def mc_entry(point: dict[str, Any]) -> str:
    """The deck entry a point comes from (unique per :data:`MC_DECK` row)."""
    return f"{point['scenario']}/{point['backend']}"


def mc_pin_key(point: dict[str, Any]) -> dict[str, Any]:
    """What a point's output is a pure function of."""
    return {"workload": "mc-sweep", **point}


def mc_pool() -> list[dict[str, Any]]:
    """Every point :func:`mc_decks` can produce."""
    return [mc_point(e, s) for e in MC_DECK for s in MC_SEEDS]


# -- serve-mixed ------------------------------------------------------------

#: fresh grids: two polling points per job
SERVE_GRID = ("E15", "horizon", (2000.0, 4000.0))
#: overlapping grid: shares 4000.0 with another client's fresh grid
SERVE_OVERLAP = (4000.0, 6000.0)
SERVE_REPS = 6
SERVE_FEWER_REPS = 3
#: adaptive-precision share (sequential controller + cost-model history)
SERVE_ADAPTIVE = ("E1", "n_jobs", (10, 20), 0.05, 8, 64)
#: simulation seeds for fresh work; a run stops early if it uses them up
SERVE_POOL = tuple(range(1000, 1096))
#: simulation seed of the job submitted during set-up
SERVE_WARM_SEED = 999
SERVE_CLIENTS = 2
#: operations per client cycle (see :func:`serve_plan`)
SERVE_CYCLE = 12


def _submission(scenario: str, axis: str, values, run: dict[str, Any]) -> dict[str, Any]:
    spec = {"scenario_id": scenario, "mode": "grid",
            "axes": {axis: list(values)}, "points": None, "base": {}}
    return {"schema": "repro.serve/v1", "spec": spec, "run": run}


def serve_submissions(k: int) -> dict[str, dict[str, Any]]:
    """Every submission derived from simulation seed ``k``, by kind."""
    scenario, axis, values = SERVE_GRID
    a_sid, a_axis, a_values, target, lo, hi = SERVE_ADAPTIVE
    return {
        "fresh": _submission(scenario, axis, values,
                             {"replications": SERVE_REPS, "seed": k}),
        "fewer": _submission(scenario, axis, values,
                             {"replications": SERVE_FEWER_REPS, "seed": k}),
        "subgrid": _submission(scenario, axis, values[:1],
                               {"replications": SERVE_REPS, "seed": k}),
        "overlap": _submission(scenario, axis, SERVE_OVERLAP,
                               {"replications": SERVE_REPS, "seed": k}),
        "adaptive": _submission(a_sid, a_axis, a_values,
                                {"seed": k, "target_precision": target,
                                 "min_reps": lo, "max_reps": hi}),
    }


def serve_plan(seed: int) -> list[list[dict[str, Any]]]:
    """Per-client operation lists, run in lockstep (slot ``i`` of both
    clients starts together).

    Cycle ``j`` gives each client a fresh seed ``k`` (the other's is
    ``k'``).  Client A runs, slot by slot::

        fresh(k) R fewer(k) R subgrid(k) R overlap(k') R adaptive(k) R R R

    where ``R`` resubmits a job from the same cycle (job-id dedup; no
    queued work).  Client B runs the same cycle one slot later, so every
    operation that queues work on the daemon's single worker runs next
    to a resubmission, never next to other queued work.  The mix is then
    the same on every run: resubmissions (7 of 12) set the median, store
    reads (fewer, subgrid), the adaptive share and fresh simulations
    (fresh, overlap: 2 of 12) the 90th percentile.
    """
    # shuffled only within blocks of four cycles, so a run of any length
    # draws nearly the same fresh seeds as any other (a fresh grid's cost
    # and an adaptive job's sample size depend on the seed)
    pool, rng = list(SERVE_POOL), random.Random(seed)
    block = 4 * SERVE_CLIENTS
    for b in range(0, len(pool), block):
        chunk = pool[b:b + block]
        rng.shuffle(chunk)
        pool[b:b + block] = chunk
    plans: list[list[dict[str, Any]]] = [[] for _ in range(SERVE_CLIENTS)]
    previous = [SERVE_WARM_SEED] * SERVE_CLIENTS
    for j in range(len(pool) // SERVE_CLIENTS):
        keys = pool[j * SERVE_CLIENTS:(j + 1) * SERVE_CLIENTS]
        for c in range(SERVE_CLIENTS):
            k, other = keys[c], keys[(c + 1) % SERVE_CLIENTS]
            own, theirs = serve_submissions(k), serve_submissions(other)

            def op(kind: str, key: int, sub: dict, resubmit: bool = False) -> dict:
                return {"kind": "resubmit" if resubmit else kind, "seed": key,
                        "submission": sub}

            cycle = [
                op("fresh", k, own["fresh"]),
                op("fresh", k, own["fresh"], True),
                op("fewer", k, own["fewer"]),
                op("fewer", k, own["fewer"], True),
                op("subgrid", k, own["subgrid"]),
                op("subgrid", k, own["subgrid"], True),
                op("overlap", other, theirs["overlap"]),
                op("overlap", other, theirs["overlap"], True),
                op("adaptive", k, own["adaptive"]),
                op("adaptive", k, own["adaptive"], True),
                op("fresh", k, own["fresh"], True),
                op("overlap", other, theirs["overlap"], True),
            ]
            if c % 2:
                # one slot later: open with a resubmission of the previous
                # cycle's adaptive job and drop the last resubmission
                last = serve_submissions(previous[c])["adaptive"]
                cycle = [op("adaptive", previous[c], last, True)] + cycle[:-1]
            previous[c] = k
            plans[c] += cycle
    return plans


def serve_warmup() -> list[dict[str, Any]]:
    """Submissions completed before timing (the first resubmission of
    the one-slot-later client refers to it)."""
    return [serve_submissions(SERVE_WARM_SEED)["adaptive"]]


def serve_pin_key(submission: dict[str, Any]) -> dict[str, Any]:
    """A served document is a pure function of its submission."""
    return {"workload": "serve-mixed", "submission": submission}


def serve_pool() -> list[dict[str, Any]]:
    """Every submission :func:`serve_plan` can produce."""
    return [s for k in (SERVE_WARM_SEED, *SERVE_POOL)
            for s in serve_submissions(k).values()]
