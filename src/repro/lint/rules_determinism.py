"""Determinism rules: the RNG-stream and clock discipline, machine-checked.

The repo's equivalence contract (bit-identical results across backends,
worker counts, and cache resumes — see ARCHITECTURE "Randomness
discipline") holds only while every source of randomness is an explicit
``np.random.Generator`` derived from a threaded ``SeedSequence`` and no
simulation path reads ambient state.  These rules pin that convention:

* ``REP001`` — no global-RNG-state calls (``np.random.seed``, the legacy
  ``np.random.*`` module functions, the stdlib ``random`` module);
* ``REP002`` — ``default_rng()`` must receive an explicit seed or
  ``SeedSequence`` (a bare or ``None`` argument re-seeds from the OS);
* ``REP003`` — no wall clocks or nondeterministic sources (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid``) inside ``repro.sim``,
  ``repro.experiments``, or scenario-pack modules;
* ``REP004`` — no iteration over bare set literals/constructors inside
  ``simulate_*``/``batch_*``/``direct_*`` functions (set order follows
  the process hash seed, not the code).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Diagnostic, ModuleContext, register_rule

__all__: list[str] = []

# np.random attributes that construct explicit generators/bit streams —
# everything else on the module touches or reads the global legacy state
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

# call targets REP003 bans inside simulation-facing modules
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
    }
)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule(
    "REP001",
    "no global-RNG-state calls (np.random.<fn>, np.random.seed, stdlib random)",
)
def check_global_rng(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag every call that reads or mutates a process-global RNG."""
    for call in _calls(ctx.tree):
        resolved = ctx.resolve(call.func)
        if resolved is None:
            continue
        if resolved.startswith("numpy.random."):
            fn = resolved.split(".", 2)[2]
            if "." not in fn and fn not in _NP_RANDOM_OK:
                yield ctx.diag(
                    call,
                    "REP001",
                    f"call to the global NumPy RNG ({resolved}); thread an "
                    f"explicit np.random.Generator from a SeedSequence "
                    f"(see repro.utils.rng) instead",
                )
        elif resolved == "random" or resolved.startswith("random."):
            yield ctx.diag(
                call,
                "REP001",
                f"call into the stdlib global RNG ({resolved}); derive "
                f"randomness from a threaded np.random.Generator instead",
            )


@register_rule(
    "REP002", "default_rng() must receive an explicit seed or SeedSequence"
)
def check_unseeded_default_rng(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag ``default_rng()`` calls with no argument (or ``None``)."""
    for call in _calls(ctx.tree):
        if ctx.resolve(call.func) != "numpy.random.default_rng":
            continue
        unseeded = not call.args and not call.keywords
        if (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is None
        ):
            unseeded = True
        if unseeded:
            yield ctx.diag(
                call,
                "REP002",
                "default_rng() without an explicit seed draws OS entropy; "
                "pass a seed or a spawned SeedSequence "
                "(repro.utils.rng.spawn_seed_sequences)",
            )


@register_rule(
    "REP003",
    "no wall-clock/nondeterministic sources in repro.sim, repro.experiments, "
    "or pack modules",
)
def check_clock_sources(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag wall-clock and entropy reads inside simulation-facing code."""
    if not (
        ctx.in_package("repro.sim", "repro.experiments") or ctx.is_pack_module
    ):
        return
    for call in _calls(ctx.tree):
        resolved = ctx.resolve(call.func)
        if resolved in _CLOCK_CALLS:
            yield ctx.diag(
                call,
                "REP003",
                f"nondeterministic source {resolved} inside a simulation-"
                f"facing module; results must be a pure function of the "
                f"seed and parameters",
            )


def _is_bare_set(node: ast.AST) -> bool:
    """A set literal, set comprehension, or direct ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_rule(
    "REP004",
    "no iteration over bare set literals in simulate_*/batch_*/direct_* functions",
)
def check_set_iteration(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag ``for ... in {...}`` (and comprehension equivalents) inside
    kernel/simulate functions, where order must not depend on hashing."""
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not fn.name.startswith(("simulate_", "batch_", "direct_")):
            continue
        for node in ast.walk(fn):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_bare_set(it):
                    yield ctx.diag(
                        it,
                        "REP004",
                        f"iteration over an unordered set inside {fn.name}(); "
                        f"set order follows the process hash seed — iterate a "
                        f"sorted() or tuple form instead",
                    )
