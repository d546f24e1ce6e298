"""The ``repro-experiments`` command-line interface.

Runs any subset of the registered scenarios with parallel replications and
emits structured JSON and/or a Markdown claim-vs-measured report::

    repro-experiments --list
    repro-experiments packs
    repro-experiments run E1 E2 --replications 200 --workers 4
    repro-experiments run all --replications 20 --json results.json \\
        --markdown EXPERIMENTS.md
    repro-experiments run E10 E11 --param horizon=2000 --seed 7
    repro-experiments run E1 E12 --target-precision 0.05 --cache-dir .cache

The last form is adaptive: each scenario's replication count grows until
every metric's relative CI half-width meets the target (within
``--min-reps``/``--max-reps`` bounds), and the sample store under
``--cache-dir`` lets a re-run with a tighter target reuse the cached
replications and simulate only the remainder.

Without an installed entry point the module form works identically::

    python -m repro.experiments.cli --list

Results are deterministic in the root ``--seed``: for a fixed seed the
point estimates are bit-identical for every ``--workers`` value.

To run one scenario over a *grid* of parameter points (rather than one
point per scenario), use the companion ``repro-sweep`` CLI
(:mod:`repro.experiments.sweep_cli`).

The runner flags (:func:`run_flags`) and the sample-store and report
flags (:func:`output_flags`) are built here once, as argparse parent
parsers: ``repro-sweep run`` takes both, ``repro-serve submit`` the
runner flags.  :func:`run_options` checks the parsed runner flags with
the check the daemon applies to submissions, so every entry point
accepts and refuses the same values.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Sequence

from repro.experiments.registry import (
    ParamValidationError,
    get_scenario,
    is_direct_kernel,
    list_scenarios,
    pack_info,
    scenario_ids,
)
from repro.experiments.report import generate_markdown, results_to_json
from repro.experiments.runner import (
    BACKENDS,
    MissingKernelError,
    ScenarioResult,
    resolve_backend,
    run_scenario,
)
from repro.experiments.sweeps import RUN_DEFAULTS, check_run_options
from repro.sim.sequential import DEFAULT_MAX_REPS, DEFAULT_MIN_REPS

__all__ = [
    "main",
    "build_parser",
    "CliError",
    "run_flags",
    "output_flags",
    "run_options",
    "unique_keys",
]


class CliError(Exception):
    """A user-facing CLI error (printed without a traceback, exit 2)."""


def _literal(raw: str) -> Any:
    """A Python literal when possible, else the bare string."""
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def _parse_param(text: str) -> tuple[str, Any]:
    """Parse a ``key=value`` override; the value is a Python literal when
    possible, else kept as a string."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"parameter override {text!r} is not of the form key=value"
        )
    key, raw = text.split("=", 1)
    return key.strip(), _literal(raw)


def unique_keys(pairs: Sequence[tuple[str, Any]], what: str) -> dict[str, Any]:
    """The ``(key, value)`` pairs of a repeatable flag as a dict; a key
    given twice is a :class:`CliError` (``what`` names the key, e.g.
    ``"--param key"``) rather than a silent last-one-wins."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise CliError(f"{what}(s) repeated: {', '.join(repeated)}")
    return dict(pairs)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run registered stochastic-scheduling experiments.",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_only",
        help="list registered scenarios and exit",
    )
    sub = parser.add_subparsers(dest="command")

    lst = sub.add_parser("list", help="list registered scenarios")
    lst.add_argument("--tag", action="append", default=[], help="filter by tag")

    sub.add_parser(
        "packs",
        help="list discovered scenario packs (built-in and entry-point)",
    )

    run = sub.add_parser(
        "run",
        parents=[run_flags(), output_flags()],
        help="run a subset of scenarios",
    )
    run.add_argument(
        "scenarios",
        nargs="+",
        help="scenario ids (e.g. E1 E2), or 'all'",
    )
    run.add_argument(
        "--param",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="parameter override, applied to scenarios declaring KEY "
        "(repeatable)",
    )
    return parser


def run_flags() -> argparse.ArgumentParser:
    """Parent parser of the runner flags, shared by ``repro-experiments
    run``, ``repro-sweep run`` and ``repro-serve submit``.

    Defaults come from :data:`~repro.experiments.sweeps.RUN_DEFAULTS`;
    :func:`run_options` checks the parsed values.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--replications",
        type=int,
        default=RUN_DEFAULTS["replications"],
        help="replications per scenario (per point in a sweep)",
    )
    flags.add_argument(
        "--workers",
        type=int,
        default=RUN_DEFAULTS["workers"],
        help="worker processes (0 = all cores); results are identical "
        "for every worker count",
    )
    flags.add_argument(
        "--seed",
        type=int,
        default=RUN_DEFAULTS["seed"],
        help="root seed (a sweep's points share it: common random numbers "
        "across the grid)",
    )
    flags.add_argument(
        "--backend",
        choices=BACKENDS,
        default=RUN_DEFAULTS["backend"],
        help="simulation backend: the per-replication event engine, the "
        "batched vectorized kernels (an error for scenarios without a "
        "kernel), or auto (kernel when one exists, event otherwise); "
        "backends are bit-for-bit equivalent, so this only changes speed",
    )
    flags.add_argument(
        "--level",
        type=float,
        default=RUN_DEFAULTS["level"],
        help="confidence level",
    )
    flags.add_argument(
        "--target-precision",
        type=float,
        default=RUN_DEFAULTS["target_precision"],
        metavar="REL",
        help="adaptive mode: grow the replication count (of each sweep "
        "point) until every metric's relative CI half-width is <= REL (a "
        "deterministic metric counts as met); --replications is ignored, "
        "the achieved n is reported",
    )
    flags.add_argument(
        "--min-reps",
        type=int,
        default=RUN_DEFAULTS["min_reps"],
        help="adaptive mode: first evaluation point (default "
        f"{DEFAULT_MIN_REPS}); requires --target-precision",
    )
    flags.add_argument(
        "--max-reps",
        type=int,
        default=RUN_DEFAULTS["max_reps"],
        help="adaptive mode: hard replication cap (default "
        f"{DEFAULT_MAX_REPS}); requires --target-precision",
    )
    flags.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return flags


def output_flags() -> argparse.ArgumentParser:
    """Parent parser of the sample-store and report flags, shared by
    ``repro-experiments run`` and ``repro-sweep run``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed sample store: replications cached for the "
        "same (scenario, params, seed) are reused and only the remainder "
        "is simulated; the grown prefix is written back",
    )
    flags.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir (neither read nor write the sample store)",
    )
    flags.add_argument(
        "--json",
        metavar="PATH",
        help="write the JSON document to PATH ('-' for stdout)",
    )
    flags.add_argument(
        "--markdown",
        metavar="PATH",
        help="write the Markdown report to PATH ('-' for stdout)",
    )
    flags.add_argument(
        "--include-samples",
        action="store_true",
        help="embed raw per-replication samples in the JSON output",
    )
    return flags


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def run_options(args: argparse.Namespace) -> dict[str, Any]:
    """The runner options parsed from :func:`run_flags`, checked by
    :func:`~repro.experiments.sweeps.check_run_options` (the daemon's check
    too); a bad value is a :class:`CliError` naming the flag."""
    try:
        return check_run_options(
            {key: getattr(args, key) for key in RUN_DEFAULTS}, name=_flag
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_list(tags: Sequence[str]) -> int:
    scenarios = list_scenarios(tuple(tags) or None)
    width = max((len(sc.scenario_id) for sc in scenarios), default=2)
    packs = {sc.scenario_id: pack_info(sc.scenario_id) for sc in scenarios}
    pack_width = max(
        (len(f"{n}@{v}") for n, v in packs.values()), default=4
    )
    for sc in scenarios:
        tag_str = f"  [{', '.join(sc.tags)}]" if sc.tags else ""
        name, version = packs[sc.scenario_id]
        print(
            f"{sc.scenario_id:<{width}}  {f'{name}@{version}':<{pack_width}}  "
            f"{sc.title}{tag_str}"
        )
    return 0


def _cmd_packs() -> int:
    from repro.experiments.packs import discovered_packs

    for pack, source in discovered_packs():
        print(f"{pack.name} {pack.version}  [{source}]")
        if pack.docs:
            print(f"  docs: {pack.docs}")
        ids = sorted(sc.scenario_id for sc in pack.scenarios.values())
        kernels = [
            f"{sid} [{'direct' if is_direct_kernel(sid) else 'batched'}]"
            for sid in sorted(pack.kernels)
        ]
        print(f"  scenarios ({len(ids)}): {', '.join(ids)}")
        if kernels:
            print(f"  kernels ({len(kernels)}): {', '.join(kernels)}")
    return 0


def _resolve_ids(requested: Sequence[str]) -> list[str]:
    if any(r.lower() == "all" for r in requested):
        return scenario_ids()
    # validate early so typos fail before any work is done
    try:
        return [get_scenario(r).scenario_id for r in requested]
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    ids = _resolve_ids(args.scenarios)
    params = unique_keys(args.param, "--param key")
    run = run_options(args)
    cache_dir = None if args.no_cache else args.cache_dir
    # every override must be meaningful for at least one selected
    # scenario, and reaches only the scenarios declaring it
    declared = {sid: get_scenario(sid).defaults for sid in ids}
    known = set().union(*declared.values())
    unknown = sorted(set(params) - known)
    if unknown:
        raise CliError(
            f"--param key(s) {', '.join(unknown)} not declared by any "
            f"selected scenario; known parameters: {sorted(known)}"
        )
    # an explicit vectorized request must fail fast, before any scenario
    # burns simulation time whose results would then be discarded
    if run["backend"] == "vectorized":
        try:
            for sid in ids:
                resolve_backend(sid, "vectorized")
        except MissingKernelError as exc:
            raise CliError(str(exc)) from exc
    results = []
    for sid in ids:
        try:
            res = run_scenario(
                sid,
                **run,
                params={k: v for k, v in params.items() if k in declared[sid]},
                cache_dir=cache_dir,
            )
        except (MissingKernelError, ParamValidationError) as exc:
            raise CliError(str(exc)) from exc
        results.append(res)
        if not args.quiet:
            failing = [k for k, ok in res.checks.items() if not ok]
            extra = f"  failing: {', '.join(failing)}" if failing else ""
            print(
                f"{res.scenario_id:>4}  "
                f"{_progress(res, 'target NOT met at max-reps')}{extra}",
                file=sys.stderr,
            )

    config = {
        "replications": run["replications"],
        "seed": run["seed"],
        "workers": run["workers"],
        # what the user asked for; each result entry additionally records
        # the backend that actually ran (`"backend"` in the result dict),
        # and the summary below makes an `auto` run reproducible from the
        # report alone
        "backend_requested": run["backend"],
        "resolved_backends": {res.scenario_id: res.backend for res in results},
        "level": run["level"],
        "params": {k: repr(v) for k, v in params.items()},
        # adaptive mode: each result entry records the achieved n
        # (`"n_replications"`) and the outcome (`"precision"`)
        "target_precision": run["target_precision"],
        "min_reps": run["min_reps"],
        "max_reps": run["max_reps"],
        "cache_dir": cache_dir,
    }
    if args.json:
        text = results_to_json(
            results, config=config, include_samples=args.include_samples
        )
        _emit(args.json, text)
    if args.markdown:
        _emit(args.markdown, generate_markdown(results))
    return 0 if all(r.all_checks_pass for r in results) else 1


def _progress(res: ScenarioResult, unmet: str) -> str:
    """One run's progress text: PASS/FAIL, replications, time and
    backend, with notes on cached replications and the precision target
    (``unmet`` is the note for a missed target)."""
    status = "PASS" if res.all_checks_pass else "FAIL"
    notes = []
    if res.cached_replications:
        notes.append(f"{res.cached_replications} cached")
    if res.precision is not None:
        notes.append("target met" if res.precision["met"] else unmet)
    note = f" ({', '.join(notes)})" if notes else ""
    return (
        f"{status}  {res.n_replications} reps in "
        f"{res.elapsed_seconds:.2f}s [{res.backend}]{note}"
    )


def _emit(path: str, text: str) -> None:
    """Write a report to ``path`` ('-' = stdout); unwritable paths are a
    :class:`CliError`, not a traceback."""
    if path == "-":
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write report to {path!r}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_only or args.command == "list":
            return _cmd_list(getattr(args, "tag", []))
        if args.command == "packs":
            return _cmd_packs()
        if args.command == "run":
            return _cmd_run(args)
        parser.print_help()
        return 2
    except CliError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. `repro-experiments --list | head`);
        # suppress the traceback and exit like a well-behaved filter.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
