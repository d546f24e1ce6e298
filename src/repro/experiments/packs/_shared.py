"""Helpers shared by the built-in scenario packs."""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["_float_rows", "_HORIZON"]

#: param schema of a simulated-time horizon: one replication's run time
#: grows with it, so it is capped 10x past the largest horizon a default,
#: test or benchmark uses (A2's 20000)
_HORIZON = {"type": "number", "exclusiveMinimum": 0, "maximum": 2e5}


def _float_rows(columns: Mapping[str, np.ndarray], n: int) -> list[dict[str, float]]:
    """Transpose column vectors (or scalars) into per-replication dicts of
    plain floats — the event path's return type."""
    out: list[dict[str, float]] = []
    for r in range(n):
        out.append(
            {
                k: float(v) if np.ndim(v) == 0 else float(v[r])
                for k, v in columns.items()
            }
        )
    return out

