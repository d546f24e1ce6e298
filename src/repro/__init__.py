"""repro — a stochastic-scheduling library.

A production-quality reproduction of the systems surveyed in
J. Niño-Mora, *Stochastic Scheduling* (Encyclopedia of Optimization, 2001):

* :mod:`repro.batch` — scheduling a batch of stochastic jobs (WSEPT, SEPT,
  LEPT, Sevcik's preemptive index, parallel/uniform machines, flow shops,
  in-tree precedence, turnpike analysis);
* :mod:`repro.bandits` — multi-armed bandits (Gittins index, restless
  bandits and the Whittle index, LP relaxations, switching costs);
* :mod:`repro.queueing` — queueing scheduling control (cµ rule, Klimov's
  model, conservation laws / achievable region, multiclass networks,
  stability, fluid models, heavy traffic, polling);
* :mod:`repro.core` — the unifying priority-index policy framework;
* substrates: :mod:`repro.distributions`, :mod:`repro.markov`,
  :mod:`repro.mdp`, :mod:`repro.sim`, :mod:`repro.utils`.
"""



def _distribution_version() -> str:
    """The version declared in ``pyproject.toml``, its one source: read
    from the file in a source checkout, from the installed distribution's
    metadata otherwise."""
    import os
    import re

    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "pyproject.toml")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        text = ""
    if 'name = "repro-stochastic-scheduling"' in text:
        return re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    from importlib.metadata import version

    return version("repro-stochastic-scheduling")


# Results documents and bench records carry it; sample-store keys use the
# owning pack's version instead (repro/experiments/store.py).
__version__ = _distribution_version()

from repro import batch, core, distributions, markov, mdp, sim, utils  # noqa: F401

__all__ = [
    "batch",
    "bandits",
    "queueing",
    "core",
    "distributions",
    "markov",
    "mdp",
    "sim",
    "utils",
    "experiments",
    "__version__",
]


def __getattr__(name):
    # bandits, queueing and experiments are imported lazily so a partial
    # checkout of the light subpackages stays importable (experiments pulls
    # in every subsystem through its scenario catalogue).
    if name in ("bandits", "queueing", "experiments"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
