"""``repro-serve`` — run and talk to the campaign service.

Subcommands::

    repro-serve run --store campaigns.db --port 0 --port-file PORT
    repro-serve submit --url http://127.0.0.1:8123 --family gcc \
        --pool-size 200 --wait --output campaign.json
    repro-serve status  --url ... [JOB]
    repro-serve artifact --url ... JOB --output campaign.json
    repro-serve health  --url ...

``run`` serves until SIGTERM/SIGINT, then drains gracefully: admission
stops (new submissions are shed with 503), in-flight units finish,
the store is flushed, and the process exits 0.  Unfinished jobs stay
in the ledger; the next ``run`` over the same store resumes them at
zero recompiles for every already-stored seed.  Artifacts written by
``submit --wait``/``artifact`` are byte-identical to
``repro-campaign --output`` over the same seed range.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Optional, Sequence

from ..debugger.specs import DEBUGGER_REGISTRY
from ..faults import FaultPlan, install_sigterm_interrupt
from .client import ClientError, ServiceClient, ServiceUnavailable
from .http import build_server
from .jobs import JOB_SCHEMA
from .service import CampaignService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run a long-lived campaign service (or submit "
                    "jobs to one) over a persistent store.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="serve jobs over a store until SIGTERM/SIGINT")
    run.add_argument("--store", required=True, metavar="PATH",
                     help="persistent campaign store file (repro-db/2)")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0,
                     help="TCP port (0 picks a free one)")
    run.add_argument("--port-file", metavar="PATH",
                     help="write the bound port here once listening")
    run.add_argument("--workers", type=int, default=2,
                     help="worker threads (default: 2)")
    run.add_argument("--window", type=int, default=8,
                     help="bounded in-flight unit window (default: 8)")
    run.add_argument("--max-jobs", type=int, default=8,
                     help="job backlog bound; beyond it submissions "
                          "are shed with 503 (default: 8)")
    run.add_argument("--unit-seeds", type=int, default=2,
                     help="seeds per scheduled work unit (default: 2)")
    run.add_argument("--stall-timeout", type=float, default=60.0,
                     help="seconds without a worker heartbeat before "
                          "it is abandoned and respawned (default: 60)")
    run.add_argument("--faults", metavar="PLAN.json",
                     help="repro-faults/1 chaos plan (campaign-stage "
                          "and service-stage specs)")
    run.add_argument("--hard-kill", action="store_true",
                     help="honour 'service'/'kill' fault specs with a "
                          "real os._exit (chaos subprocess runs only)")
    run.add_argument("--quiet", action="store_true")

    for name, help_text in (
            ("submit", "submit a job (optionally wait for it)"),
            ("status", "show one job or the whole ledger"),
            ("artifact", "fetch a finished job's artifact"),
            ("health", "show the service health snapshot")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--url", metavar="URL",
                         help="service base URL")
        sub.add_argument("--port-file", metavar="PATH",
                         help="read the port repro-serve run wrote "
                              "(host 127.0.0.1)")
        sub.add_argument("--timeout", type=float, default=30.0,
                         help="per-request timeout seconds")
        if name == "submit":
            sub.add_argument("--family", choices=("gcc", "clang"),
                             default="gcc")
            sub.add_argument("--version", default="trunk")
            sub.add_argument(
                "--debugger", default="",
                choices=("",) + tuple(sorted(DEBUGGER_REGISTRY)),
                help="debugger (default: the family's native one)")
            sub.add_argument("--seed-base", type=int, default=0)
            sub.add_argument("--pool-size", type=int, default=100)
            sub.add_argument("--levels", nargs="+", metavar="LEVEL")
            sub.add_argument("--deadline", type=float, default=None,
                             help="job wall-clock budget in seconds")
            sub.add_argument("--wait", action="store_true",
                             help="block until the job finishes")
            sub.add_argument("--wait-timeout", type=float,
                             default=600.0)
        if name in ("submit", "artifact"):
            sub.add_argument("--output", metavar="PATH",
                             help="write the repro-campaign/1 artifact "
                                  "here (requires --wait for submit)")
            sub.add_argument("--indent", type=int, default=2)
        if name in ("status", "artifact"):
            sub.add_argument("job", nargs="?" if name == "status"
                             else None, help="job id")
    return parser


def _client(parser: argparse.ArgumentParser, args) -> ServiceClient:
    url = args.url
    if url is None and args.port_file:
        try:
            with open(args.port_file, encoding="utf-8") as handle:
                url = f"http://127.0.0.1:{int(handle.read().strip())}"
        except (OSError, ValueError) as error:
            parser.error(f"--port-file: {error}")
    if url is None:
        parser.error("need --url or --port-file")
    return ServiceClient(url, timeout=args.timeout)


def _write_artifact(args, artifact: dict) -> None:
    text = json.dumps(artifact, indent=args.indent, sort_keys=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def _run(parser: argparse.ArgumentParser, args) -> int:
    faults = None
    if args.faults:
        try:
            faults = FaultPlan.load(args.faults)
        except (OSError, ValueError) as error:
            parser.error(f"--faults: {error}")
    try:
        service = CampaignService(
            args.store, workers=args.workers, window=args.window,
            max_jobs=args.max_jobs, unit_seeds=args.unit_seeds,
            stall_timeout=args.stall_timeout, faults=faults)
    except ValueError as error:
        parser.error(str(error))
    server = build_server(service, host=args.host, port=args.port,
                          faults=faults, hard_kill=args.hard_kill,
                          quiet=args.quiet)
    recovered = service.start()
    host, port = server.server_address[:2]
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    if not args.quiet:
        print(f"serving on http://{host}:{port} "
              f"(store {args.store}, {args.workers} workers, "
              f"window {args.window})")
        if recovered:
            print(f"recovered {recovered} unfinished job(s) from the "
                  f"ledger")
        sys.stdout.flush()
    install_sigterm_interrupt()
    thread = threading.Thread(target=server.serve_forever,
                              name="serve-http", daemon=True)
    thread.start()
    forever = threading.Event()
    try:
        # Wake regularly so SIGTERM/SIGINT (rerouted onto
        # KeyboardInterrupt) is delivered promptly on every platform.
        while not forever.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    if not args.quiet:
        print("draining: admission stopped, finishing in-flight "
              "units...")
        sys.stdout.flush()
    server.shutdown()
    service.drain()
    service.close()
    server.server_close()
    if not args.quiet:
        print("drained; store flushed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(parser, args)
    client = _client(parser, args)
    try:
        if args.command == "health":
            print(json.dumps(client.health(), indent=2,
                             sort_keys=True))
        elif args.command == "status":
            if args.job:
                print(json.dumps(client.job(args.job), indent=2,
                                 sort_keys=True))
            else:
                for status in client.jobs():
                    print(f"{status['job']}  {status['state']:8s} "
                          f"{status['detail']}")
        elif args.command == "artifact":
            artifact = client.artifact(args.job)
            if args.output:
                _write_artifact(args, artifact)
                print(f"artifact written to {args.output}")
            else:
                print(json.dumps(artifact, indent=args.indent,
                                 sort_keys=True))
        elif args.command == "submit":
            job = {"schema": JOB_SCHEMA, "family": args.family,
                   "version": args.version, "debugger": args.debugger,
                   "seed_base": args.seed_base,
                   "pool_size": args.pool_size,
                   "levels": list(args.levels or ())}
            if args.deadline is not None:
                job["deadline"] = args.deadline
            status = client.submit(job)
            job_id = status["job"]
            print(f"job {job_id}: {status['state']} "
                  f"({'created' if status.get('created') else 'known'})")
            if args.wait:
                final = client.wait(job_id,
                                    timeout=args.wait_timeout)
                print(f"job {job_id}: {final['state']} "
                      f"({final['detail']})")
                if args.output:
                    _write_artifact(args, client.artifact(job_id))
                    print(f"artifact written to {args.output}")
                if final["state"] != "done":
                    return 1
    except (ClientError, ServiceUnavailable, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Reader closed the pipe (e.g. `repro-serve health | head`);
        # detach stdout so interpreter teardown does not retry the
        # flush and print a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
