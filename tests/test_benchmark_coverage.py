"""Coverage guards: every built-in scenario must have a claim consumer
*and* a vectorized kernel.

The claims table in ``tests/test_survey_claims.py`` and the record
benches ``benchmarks/bench_a0*.py`` are the human-facing checks of the
survey's claims; the registry is the machine-facing catalogue. The first
pair of tests keeps them in lock: a scenario added to a built-in pack
with neither a claims-table row nor a bench that consumes it
(``get_scenario("<id>")``) fails here, as does a row or bench referencing
an id the registry no longer knows.

The kernel-coverage guard enforces the other half of the backend
contract: ``--backend vectorized`` hard-errors on scenarios without a
kernel, so a scenario registered without one silently shrinks what the
vectorized backend can run — this test fails instead, and
``benchmarks/bench_a04_vectorized_speedup.py`` must gain a row for the
new kernel (its BATCH table is asserted in sync with the registry).

Both requirements are scoped to *built-in* packs: an entry-point pack on
``PYTHONPATH`` (e.g. ``examples/demo_pack``) ships its own checks,
if any, and may legitimately be event-only.  The pack-level guards at
the bottom instead hold for every discovered pack, third-party included.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.experiments import discovered_packs, kernel_ids, pack_info, scenario_ids
from repro.experiments.registry import get_kernel, is_direct_kernel
from test_survey_claims import CLAIMS

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
_GET_SCENARIO = re.compile(r"""get_scenario\(\s*["']([A-Za-z]+\d+)["']\s*\)""")


def _builtin_ids() -> list[str]:
    """Scenario ids owned by the built-in packs, in registry order."""
    builtin = {
        sid
        for pack, source in discovered_packs()
        if source == "builtin"
        for sid in pack.scenarios
    }
    return [sid for sid in scenario_ids() if sid.upper() in builtin]


def _consumed_ids() -> dict[str, list[str]]:
    consumers: dict[str, list[str]] = {}
    for claim in CLAIMS:
        consumers.setdefault(claim.scenario.upper(), []).append(
            f"test_survey_claims.py::{claim.holds.__name__}"
        )
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        for sid in _GET_SCENARIO.findall(path.read_text()):
            consumers.setdefault(sid.upper(), []).append(path.name)
    return consumers


def test_every_builtin_scenario_has_a_benchmark_consumer():
    consumers = _consumed_ids()
    missing = [sid for sid in _builtin_ids() if sid not in consumers]
    assert not missing, (
        f"built-in scenarios without a claim: {missing}; add a row to "
        f"CLAIMS in tests/test_survey_claims.py"
    )


def test_no_benchmark_references_an_unknown_scenario():
    known = set(scenario_ids())
    unknown = {
        sid: where for sid, where in _consumed_ids().items() if sid not in known
    }
    assert not unknown, f"claims reference unregistered scenarios: {unknown}"


def test_every_builtin_scenario_has_a_vectorized_kernel():
    missing = sorted(set(_builtin_ids()) - set(kernel_ids()))
    assert not missing, (
        f"built-in scenarios without a vectorized kernel: {missing}; "
        f"--backend vectorized would hard-error on them — add a kernel to "
        f"the scenario's pack module under src/repro/experiments/packs/ "
        f"(see the lockstep queueing kernels for the event-driven pattern)"
    )


def test_every_kernel_declares_a_note():
    for sid in kernel_ids():
        assert get_kernel(sid).note, f"kernel {sid} should document its strategy"


def test_bench_a04_covers_every_batched_kernel():
    text = (BENCH_DIR / "bench_a04_vectorized_speedup.py").read_text()
    quoted = set(re.findall(r"""["']([AE]\d+)["']""", text))
    batched = {sid for sid in kernel_ids() if not is_direct_kernel(sid)}
    missing = sorted(set(_builtin_ids()) & batched - quoted)
    assert not missing, (
        f"bench_a04_vectorized_speedup.py BATCH table lacks batched kernels: "
        f"{missing}"
    )


# ---------------------------------------------------------------------------
# pack-level guards: hold for every discovered pack, third-party included
# ---------------------------------------------------------------------------


def test_every_discovered_pack_manifest_validates():
    packs = discovered_packs()
    assert packs, "no scenario packs discovered"
    for pack, _source in packs:
        pack.validate()  # raises PackError on a malformed manifest


def test_every_registered_scenario_belongs_to_a_discovered_pack():
    owned = {
        sid.upper()
        for pack, _source in discovered_packs()
        for sid in pack.scenarios
    }
    orphans = [sid for sid in scenario_ids() if sid.upper() not in owned]
    assert not orphans, f"scenarios registered outside any pack: {orphans}"
    for sid in scenario_ids():
        name, version = pack_info(sid)
        assert name != "unpackaged", f"{sid} has no pack provenance"
        assert version
