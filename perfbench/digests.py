"""Output digests and the pinned-digest table the correctness check uses.

A digest is a SHA-256 over canonical JSON.  Floats are rounded to 12
significant digits first, so a last-bit difference in a numpy reduction
between CPUs does not read as a wrong answer while any real change to a
statistic does.  Sweep documents drop ``generated_by`` (it carries the
package version string, which is expected to change); CLI run documents
keep only each scenario's ``metrics``, ``checks`` and ``n_replications``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

PINS_PATH = Path(__file__).with_name("pins.json")


def _round(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Mapping):
        return {str(k): _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def _canonical(value: Any) -> str:
    return json.dumps(_round(value), sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``value`` in rounded canonical JSON."""
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


def pin_id(key: Mapping[str, Any]) -> str:
    """The table key for an operation's input description."""
    return digest(key)[:24]


def sweep_digest(document: Mapping[str, Any]) -> str:
    """Digest of a canonical sweep document without ``generated_by``."""
    return digest({k: v for k, v in document.items() if k != "generated_by"})


def results_digest(results: list[Mapping[str, Any]]) -> str:
    """Digest of scenario results: metrics, checks and replication count."""
    return digest([
        {k: r[k] for k in ("scenario_id", "metrics", "checks", "n_replications")}
        for r in results
    ])


def load_pins() -> dict[str, str]:
    """The pinned ``pin_id -> digest`` table (empty when absent)."""
    try:
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))["digests"]
    except FileNotFoundError:
        return {}


class Checker:
    """Compares produced digests with the pinned table and counts misses."""

    def __init__(self, pins: Mapping[str, str] | None = None) -> None:
        self.pins = dict(load_pins() if pins is None else pins)
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, key: Mapping[str, Any], produced: str) -> bool:
        """Whether ``produced`` is the digest pinned for ``key``."""
        self.checked += 1
        ok = self.pins.get(pin_id(key)) == produced
        if not ok:
            self.mismatches.append(_canonical(key)[:200])
        return ok
