"""The ``repro-sweep`` command-line interface.

Expands a declarative parameter sweep over one registered scenario and
runs every point through the replication runner::

    repro-sweep list                       # scenarios + sweepable params
    repro-sweep list E12                   # one scenario's param schema
    repro-sweep run E1 --axis n_jobs=20,40,80 --axis n_brute=5,6 \\
        --replications 20 --seed 0 --json sweep.json --markdown SWEEP.md
    repro-sweep run E12 --axis "rhos=(0.6,),(0.8,),(0.95,)" \\
        --base horizon=8000 --target-precision 0.1 --cache-dir .cache
    repro-sweep run E1 --axis n_jobs=20,40 --axis n_brute=5,6 \\
        --where n_brute=5                  # point filtering
    repro-sweep run E1 --mode zip --axis n_jobs=20,40 --axis n_brute=5,6
    repro-sweep run E1 --point n_jobs=20,n_brute=5 --point n_jobs=80,n_brute=6

``--axis NAME=V1,V2,…`` declares one swept parameter (values are Python
literals, split on top-level commas so tuple/list values work); ``--mode``
chooses how axes combine (``grid`` cartesian product — the default — or
``zip`` lockstep); repeated ``--point k=v,…`` flags give an explicit point
list instead.  All runner flags of ``repro-experiments run`` apply per
point: ``--backend``, ``--target-precision``/``--min-reps``/``--max-reps``
(each point stops at its own achieved n) and ``--cache-dir`` (each point
addresses its own sample-store entry, so re-running the same sweep loads
every point from cache).

Without an installed entry point the module form works identically::

    python -m repro.experiments.sweep_cli run E1 --axis n_jobs=20,40

Exit status: 0 when every point passes its scenario's shape checks, 1 when
any check fails, 2 on usage errors.  Results are deterministic in the root
``--seed``; all points share it, so points are common-random-number
comparable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.experiments.cli import (
    CliError,
    _emit,
    _literal,
    _parse_param,
    output_flags,
    run_flags,
    run_options,
)
from repro.experiments.registry import get_scenario, list_scenarios, pack_info
from repro.experiments.report import (
    canonical_sweep_document,
    generate_sweep_markdown,
    sweep_to_json,
)
from repro.experiments.runner import MissingKernelError, resolve_backend
from repro.experiments.sweeps import (
    SWEEP_MODES,
    SweepSpec,
    run_sweep,
    sweep_run_config,
)

__all__ = ["main", "build_parser", "spec_flags", "build_spec"]


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside ``()``/``[]``/``{}`` or quotes,
    so ``(0.6,),(0.9,)`` yields the two tuple literals."""
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    current: list[str] = []
    for ch in text:
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch in "([{":
            depth += 1
            current.append(ch)
        elif ch in ")]}":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_axis(text: str) -> tuple[str, list[Any]]:
    """Parse ``--axis NAME=V1,V2,…`` into the axis name and value list."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"axis {text!r} is not of the form NAME=V1,V2,..."
        )
    name, raw = text.split("=", 1)
    values = [_literal(v) for v in _split_top_level(raw)]
    if not values:
        raise argparse.ArgumentTypeError(f"axis {text!r} lists no values")
    return name.strip(), values


def _parse_point(text: str) -> dict[str, Any]:
    """Parse ``--point k1=v1,k2=v2,…`` into one explicit sweep point."""
    point: dict[str, Any] = {}
    for item in _split_top_level(text):
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"point entry {item!r} is not of the form key=value"
            )
        key, raw = item.split("=", 1)
        point[key.strip()] = _literal(raw)
    if not point:
        raise argparse.ArgumentTypeError(f"point {text!r} lists no parameters")
    return point


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run declarative parameter sweeps over registered "
        "scenarios.",
    )
    sub = parser.add_subparsers(dest="command")

    lst = sub.add_parser(
        "list", help="list scenarios and their sweepable parameters"
    )
    lst.add_argument(
        "scenario",
        nargs="?",
        help="show one scenario's full parameter schema (name + default)",
    )

    run = sub.add_parser(
        "run",
        parents=[spec_flags(), run_flags(), output_flags()],
        help="expand and run one sweep",
    )
    run.add_argument(
        "--where",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="run only points whose axis values match (repeatable; "
        "filtering never changes a surviving point's samples)",
    )
    run.add_argument(
        "--canonical",
        action="store_true",
        help="emit the run-independent document projection (timings, "
        "cache-hit counts and store location neutralised) — byte-identical "
        "across re-runs and to documents served by repro-serve",
    )
    return parser


def spec_flags() -> argparse.ArgumentParser:
    """Parent parser of the sweep-spec arguments (the scenario plus
    ``--axis``/``--mode``/``--point``/``--base``), shared by ``repro-sweep
    run`` and ``repro-serve submit``; :func:`build_spec` turns them into a
    :class:`~repro.experiments.sweeps.SweepSpec`."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("scenario", help="registered scenario id (e.g. E12)")
    flags.add_argument(
        "--axis",
        action="append",
        default=[],
        type=_parse_axis,
        metavar="NAME=V1,V2,...",
        help="one swept parameter and its values (repeatable; values are "
        "Python literals, commas inside (...)/[...] nest)",
    )
    flags.add_argument(
        "--mode",
        choices=[m for m in SWEEP_MODES if m != "list"],
        default="grid",
        help="how axes combine: grid = cartesian product (default), "
        "zip = equal-length axes advanced in lockstep",
    )
    flags.add_argument(
        "--point",
        action="append",
        default=[],
        type=_parse_point,
        metavar="K1=V1,K2=V2",
        help="one explicit sweep point (repeatable); mutually exclusive "
        "with --axis/--mode",
    )
    flags.add_argument(
        "--base",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="fixed parameter override applied to every point (repeatable)",
    )
    return flags


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """The sweep :func:`spec_flags` describe, not yet resolved against the
    scenario registry; misuse of the flags is a :class:`CliError`."""
    if args.point and (args.axis or args.mode != "grid"):
        raise CliError(
            "--point gives an explicit point list; it cannot be combined "
            "with --axis or --mode"
        )
    if not args.point and not args.axis:
        raise CliError("a sweep needs at least one --axis (or --point)")
    names = [name for name, _ in args.axis]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliError(f"axis name(s) repeated: {', '.join(repeated)}")
    base = dict(args.base)
    try:
        if args.point:
            return SweepSpec(
                args.scenario, mode="list", points=args.point, base=base
            )
        return SweepSpec(
            args.scenario, axes=dict(args.axis), mode=args.mode, base=base
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_list(scenario_id: str | None) -> int:
    if scenario_id is not None:
        try:
            sc = get_scenario(scenario_id)
        except KeyError as exc:
            raise CliError(exc.args[0]) from exc
        pack_name, pack_version = pack_info(sc.scenario_id)
        print(f"{sc.scenario_id}  {sc.title}  [{pack_name}@{pack_version}]")
        if not sc.defaults:
            print("  (no sweepable parameters)")
        for name, default in sc.defaults.items():
            print(f"  {name} = {default!r}")
        return 0
    for sc in list_scenarios():
        names = ", ".join(sc.defaults) if sc.defaults else "—"
        pack_name, pack_version = pack_info(sc.scenario_id)
        print(f"{sc.scenario_id:<4} {sc.title}  [{pack_name}@{pack_version}]")
        print(f"     params: {names}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    run = run_options(args)
    cache_dir = None if args.no_cache else args.cache_dir
    # fail on unknown scenario / axis names and a missing kernel before
    # any point burns simulation time
    try:
        spec.resolve()
        if run["backend"] == "vectorized":
            resolve_backend(spec.scenario_id, "vectorized")
    except (KeyError, MissingKernelError) as exc:
        raise CliError(exc.args[0]) from exc

    def progress(point, res) -> None:
        if args.quiet:
            return
        status = "PASS" if res.all_checks_pass else "FAIL"
        notes = []
        if res.cached_replications:
            notes.append(f"{res.cached_replications} cached")
        if res.precision is not None:
            notes.append(
                "target met" if res.precision["met"] else "target NOT met"
            )
        note = f" ({', '.join(notes)})" if notes else ""
        print(
            f"[{point.index:>3}] {point.label()}  {status}  "
            f"{res.n_replications} reps in {res.elapsed_seconds:.2f}s "
            f"[{res.backend}]{note}",
            file=sys.stderr,
        )

    try:
        sweep = run_sweep(
            spec,
            **run,
            cache_dir=cache_dir,
            where=dict(args.where) or None,
            progress=progress,
        )
    except (MissingKernelError, KeyError, ValueError) as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc)) from exc

    config = sweep_run_config(
        **run,
        resolved_backends=[r.backend for r in sweep.results],
        cache_dir=cache_dir,
    )
    if args.json or args.markdown:
        # built once; the Markdown renderer ignores embedded samples
        document = sweep.to_document(
            config=config, include_samples=args.include_samples
        )
        if args.canonical:
            document = canonical_sweep_document(document)
        if args.json:
            _emit(args.json, sweep_to_json(document))
        if args.markdown:
            _emit(args.markdown, generate_sweep_markdown(document))
    if not args.quiet:
        cached = sweep.cached_replications
        cache_note = (
            f", {cached}/{sweep.total_replications} replications from the "
            f"sample store"
            if cached
            else ""
        )
        passed = sum(1 for r in sweep.results if r.all_checks_pass)
        print(
            f"sweep: {passed}/{len(sweep.points)} points pass all checks "
            f"in {sweep.elapsed_seconds:.2f}s{cache_note}",
            file=sys.stderr,
        )
    return 0 if sweep.all_checks_pass else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-sweep`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.scenario)
        if args.command == "run":
            return _cmd_run(args)
        parser.print_help()
        return 2
    except CliError as exc:
        print(f"repro-sweep: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
