"""The ``repro-serve`` command-line interface.

Drive the sweep-serving daemon from the shell::

    repro-serve start --dir .repro-serve --port 8631 &
    repro-serve submit E1 --axis n_jobs=20,40 --replications 20 \\
        --url http://127.0.0.1:8631 --wait --json sweep.json
    repro-serve status --url http://127.0.0.1:8631
    repro-serve fetch job-0123456789abcdef --url http://127.0.0.1:8631 \\
        --wait --json sweep.json
    repro-serve stop --url http://127.0.0.1:8631

``submit`` takes the same sweep flags as ``repro-sweep run`` (``--axis``
/ ``--mode`` / ``--point`` / ``--base`` plus all the runner flags; one
definition and one check serve both, and the check runs before any
network call) and turns them into one ``repro.serve/v1`` submission;
the daemon answers with the content-addressed job id — re-submitting an
identical sweep returns the same job without re-running anything.
Fetched documents are written **byte-for-byte** as served, so they are
byte-identical to ``repro-sweep run … --canonical --json`` output for
the same request.

Exit status follows the house convention: 0 on success (for ``--wait``
fetches: every point passes its scenario checks), 1 when a fetched
document reports a failing check, 2 on usage errors — including
schema-invalid submissions, which print the daemon's structured error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.experiments.cli import CliError, run_flags, run_options
from repro.experiments.sweep_cli import build_spec, spec_flags
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import SweepServer
from repro.serve.jobs import SUBMIT_SCHEMA

__all__ = ["main", "build_parser"]

_DEFAULT_URL = "http://127.0.0.1:8631"


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default=_DEFAULT_URL,
        help=f"daemon endpoint (default {_DEFAULT_URL})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="overall client timeout in seconds (default 300)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Submit sweeps to, and fetch results from, the "
        "sweep-serving daemon.",
    )
    sub = parser.add_subparsers(dest="command")

    start = sub.add_parser("start", help="run the daemon in the foreground")
    start.add_argument(
        "--dir",
        default=".repro-serve",
        metavar="DIR",
        help="daemon state root: the sample store lives in DIR/store and "
        "the job spool in DIR/spool (default .repro-serve)",
    )
    start.add_argument("--host", default="127.0.0.1", help="listen address")
    start.add_argument(
        "--port",
        type=int,
        default=8631,
        help="listen port (0 = ephemeral; the bound URL is printed either "
        "way; default 8631)",
    )
    start.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent point-simulation slots (served documents are "
        "identical for every value)",
    )

    submit = sub.add_parser(
        "submit",
        parents=[spec_flags(), run_flags()],
        help="submit one sweep (same sweep flags as repro-sweep run)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="follow the event stream and fetch the finished document",
    )
    submit.add_argument(
        "--json",
        metavar="PATH",
        help="with --wait: write the fetched document to PATH ('-' for "
        "stdout), byte-for-byte as served",
    )
    _add_url(submit)

    status = sub.add_parser("status", help="show job status (all or one)")
    status.add_argument("job_id", nargs="?", help="job id (omit for all jobs)")
    _add_url(status)

    fetch = sub.add_parser("fetch", help="fetch a finished job's document")
    fetch.add_argument("job_id", help="job id (as printed by submit)")
    fetch.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes instead of failing on 409",
    )
    fetch.add_argument(
        "--json",
        metavar="PATH",
        default="-",
        help="where to write the document ('-' for stdout, the default), "
        "byte-for-byte as served",
    )
    _add_url(fetch)

    stop = sub.add_parser("stop", help="ask the daemon to shut down")
    _add_url(stop)

    return parser


def _write_document(path: str, document: bytes) -> None:
    """Write served document bytes verbatim (preserving byte-identity
    with ``repro-sweep run --canonical --json``)."""
    if path == "-":
        sys.stdout.buffer.write(document)
        sys.stdout.flush()
    else:
        Path(path).write_bytes(document)


def _document_exit(document: bytes) -> int:
    """0 when every point passes its scenario checks, 1 otherwise."""
    return 0 if json.loads(document.decode("utf-8"))["all_checks_pass"] else 1


def _cmd_start(args: argparse.Namespace) -> int:
    import asyncio

    root = Path(args.dir)
    server = SweepServer(
        store=root / "store",
        spool_dir=root / "spool",
        host=args.host,
        port=args.port,
        workers=args.workers,
    )

    def ready(srv: SweepServer) -> None:
        print(f"repro-serve: listening on http://{srv.host}:{srv.port}",
              flush=True)

    try:
        asyncio.run(server.serve(ready=ready))
    except OSError as exc:  # port in use, bad address, …
        raise CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    # checked here, before any network round trip, by the same rules the
    # daemon (and repro-sweep run) apply
    submission = {
        "schema": SUBMIT_SCHEMA,
        "spec": build_spec(args).to_dict(),
        "run": run_options(args),
    }
    client = ServeClient(args.url, timeout=args.timeout)
    accepted = client.submit(submission)
    print(json.dumps(accepted, indent=2))
    if not args.wait:
        return 0
    job_id = accepted["job_id"]
    for event in client.events(job_id):
        if args.quiet:
            continue
        if event.get("event") == "point":
            status = "PASS" if event["all_checks_pass"] else "FAIL"
            cached = event["cached_replications"]
            note = f" ({cached} cached)" if cached else ""
            print(
                f"[{event['index']:>3}] {event['scenario_id']} "
                f"{event['axes']}  {status}  "
                f"{event['n_replications']} reps [{event['backend']}]{note}",
                file=sys.stderr,
            )
        elif event.get("event") == "error":
            print(f"repro-serve: job error: {event['message']}",
                  file=sys.stderr)
    document = client.fetch(job_id, wait=True, timeout=args.timeout)
    if args.json:
        _write_document(args.json, document)
    return _document_exit(document)


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServeClient(args.url, timeout=args.timeout)
    if args.job_id:
        print(json.dumps(client.status(args.job_id), indent=2))
    else:
        print(json.dumps({"jobs": client.jobs()}, indent=2))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = ServeClient(args.url, timeout=args.timeout)
    document = client.fetch(
        args.job_id, wait=args.wait, timeout=args.timeout if args.wait else None
    )
    _write_document(args.json, document)
    return _document_exit(document)


def _cmd_stop(args: argparse.Namespace) -> int:
    client = ServeClient(args.url, timeout=args.timeout)
    print(json.dumps(client.shutdown(), indent=2))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "start": _cmd_start,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "stop": _cmd_stop,
    }
    try:
        if args.command in commands:
            return commands[args.command](args)
        parser.print_help()
        return 2
    except ServeError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
