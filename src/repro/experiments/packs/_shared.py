"""Helpers shared by the built-in scenario-pack kernel implementations."""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["_float_rows"]


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

