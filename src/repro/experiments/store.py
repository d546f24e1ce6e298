"""Content-addressed, resumable sample store for replication runs.

The replication contract makes cached samples safe to reuse: replication
``i`` of a scenario is a pure function of ``(scenario_id, params, root
seed)`` — the seed list is spawned in order from the root seed and each
replication consumes only its own seed's streams.  The store therefore
keys a per-replication sample matrix on exactly that triple; re-running
the same experiment with *more* replications (or a tighter precision
target) loads the cached prefix and simulates only the remainder, and the
result is bit-identical to a cold run.

Key scheme
----------
``sha256(canonical_json(payload))`` where the payload holds the store
schema version, the owning scenario pack's ``(name, version)`` (see
:func:`repro.experiments.registry.pack_info`), the scenario id, the
canonically serialised parameter mapping (sorted keys, numpy scalars
normalised — see :func:`repro.utils.serialization.canonical_json`) and
the root seed's entropy/spawn-key.  The simulation *backend* is deliberately absent: the
event and vectorized backends are bit-for-bit equivalent, so their
samples are interchangeable.  The confidence level and replication count
are also absent — they do not affect the samples, only statistics derived
from them.

Invalidation
------------
Changing any key component — including bumping the owning pack's
version, since a scenario's ``simulate`` may legitimately change between
pack releases — simply addresses a different entry; stale entries are
never silently reused.  Keying on the *pack* version rather than the
package version means bumping one pack invalidates exactly that pack's
entries and leaves every other pack's cache intact.  The full payload is
stored alongside the matrix and compared on load, so a hash collision or
a tampered file degrades to a cache miss, as does any unreadable or
corrupt file.

Each entry is one ``.npz`` file holding the ``(n, n_metrics)`` float
matrix, a boolean presence mask (metrics reported by only some
replications), and a JSON metadata blob.  Writes are atomic
(:func:`~repro.utils.serialization.atomic_write`) and monotone: an entry
is only replaced by one with strictly more replications.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.utils.rng import as_seed_sequence
from repro.utils.serialization import atomic_write, canonical_json, jsonable

__all__ = [
    "SampleStore",
    "STORE_SCHEMA",
    "store_key",
    "store_payload",
]

STORE_SCHEMA = 2


def _seed_fingerprint(seed: int | np.random.SeedSequence) -> dict[str, Any]:
    """Canonical form of a root seed: the SeedSequence entropy/spawn-key."""
    ss = as_seed_sequence(seed)
    if ss.n_children_spawned:
        # spawn() mutates the sequence: its *future* children depend on how
        # many were already spawned, so runs keyed on entropy/spawn-key
        # alone would mix cached rows with rows from the wrong children.
        # Refuse loudly instead of serving silently wrong samples.
        raise ValueError(
            f"SeedSequence has already spawned {ss.n_children_spawned} "
            f"children; its replication streams depend on that mutable "
            f"state, so cached samples could not be reused consistently — "
            f"pass an integer seed or a fresh SeedSequence"
        )
    return {
        "entropy": jsonable(ss.entropy),
        "spawn_key": jsonable(list(ss.spawn_key)),
    }


def store_payload(
    scenario_id: str,
    params: Mapping[str, Any],
    seed: int | np.random.SeedSequence,
) -> dict[str, Any]:
    """The identity a cache entry is keyed on (and verified against)."""
    if seed is None:
        raise ValueError(
            "seed=None draws fresh OS entropy and has no stable cache "
            "identity; pass an integer root seed to use the sample store"
        )
    from repro.experiments.registry import pack_info

    pack_name, pack_version = pack_info(scenario_id)
    return {
        "store_schema": STORE_SCHEMA,
        "pack": {"name": pack_name, "version": pack_version},
        "scenario_id": scenario_id,
        "params": jsonable(params),
        "seed": _seed_fingerprint(seed),
    }


def store_key(
    scenario_id: str,
    params: Mapping[str, Any],
    seed: int | np.random.SeedSequence,
) -> str:
    """Content address (hex digest) for one experiment identity."""
    text = canonical_json(store_payload(scenario_id, params, seed))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class SampleStore:
    """A directory of per-replication sample matrices, content-addressed
    by ``(scenario_id, canonical params, root seed)``.

    The directory is created lazily on the first write; loads from a
    missing directory are plain cache misses.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # -- keying ----------------------------------------------------------

    def key(
        self,
        scenario_id: str,
        params: Mapping[str, Any],
        seed: int | np.random.SeedSequence,
    ) -> str:
        """Content address (hex digest) for one experiment identity."""
        return store_key(scenario_id, params, seed)

    def path(
        self,
        scenario_id: str,
        params: Mapping[str, Any],
        seed: int | np.random.SeedSequence,
    ) -> Path:
        """Filesystem location of the entry for one experiment identity."""
        return self.root / f"{self.key(scenario_id, params, seed)}.npz"

    # -- IO --------------------------------------------------------------

    def load(
        self,
        scenario_id: str,
        params: Mapping[str, Any],
        seed: int | np.random.SeedSequence,
    ) -> list[dict[str, float]] | None:
        """All cached replication rows for this identity, or ``None``.

        Rows come back in replication order; callers needing ``n``
        replications use the first ``n`` (the prefix property) and
        simulate any remainder.  Unreadable, corrupt, or
        payload-mismatched files are treated as misses.
        """
        path = self.path(scenario_id, params, seed)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                matrix = np.asarray(data["matrix"], dtype=float)
                mask = np.asarray(data["mask"], dtype=bool)
        except Exception:
            # missing file, truncated zip, bad JSON, wrong dtypes … —
            # every unreadable entry is just a cache miss
            return None
        if meta.get("payload") != store_payload(scenario_id, params, seed):
            return None
        names = meta.get("names", [])
        if matrix.shape != mask.shape or matrix.ndim != 2 or matrix.shape[1] != len(
            names
        ):
            return None
        return [
            {
                name: float(matrix[i, j])
                for j, name in enumerate(names)
                if mask[i, j]
            }
            for i in range(matrix.shape[0])
        ]

    def length(
        self,
        scenario_id: str,
        params: Mapping[str, Any],
        seed: int | np.random.SeedSequence,
    ) -> int:
        """Cached replication count for this identity (0 when absent).

        Reads only the entry's metadata member — no matrix decode — so
        sweep tooling can cheaply report how much of a parameter grid is
        already served by the store."""
        payload = store_payload(scenario_id, params, seed)
        return self._entry_length(self.path(scenario_id, params, seed), payload)

    @staticmethod
    def _entry_length(path: Path, payload: Mapping[str, Any]) -> int:
        """Replication count of the entry at ``path``, reading only the
        metadata member (no matrix decode or row building); 0 for
        missing/corrupt/payload-mismatched entries (all overwritable)."""
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
        except Exception:
            return 0
        if meta.get("payload") != payload:
            return 0
        return int(meta.get("n", 0))

    def save(
        self,
        scenario_id: str,
        params: Mapping[str, Any],
        seed: int | np.random.SeedSequence,
        rows: Sequence[Mapping[str, float]],
    ) -> bool:
        """Persist ``rows`` (the *full* replication list, in order).

        Returns whether a write happened: an existing entry with at least
        as many replications is kept (writes are monotone — the store
        only ever grows an identity's prefix).
        """
        if not rows:
            return False
        payload = store_payload(scenario_id, params, seed)
        path = self.path(scenario_id, params, seed)
        if self._entry_length(path, payload) >= len(rows):
            return False
        names = sorted({k for row in rows for k in row})
        matrix = np.full((len(rows), len(names)), np.nan)
        mask = np.zeros((len(rows), len(names)), dtype=bool)
        for i, row in enumerate(rows):
            for j, name in enumerate(names):
                if name in row:
                    matrix[i, j] = row[name]
                    mask[i, j] = True
        meta = {
            "payload": payload,
            "names": names,
            "n": len(rows),
        }
        with atomic_write(path) as fh:
            np.savez(fh, matrix=matrix, mask=mask, meta=np.array(json.dumps(meta)))
        return True

