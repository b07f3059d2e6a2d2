"""``repro-db`` — manage a persistent campaign store from the CLI.

Create a store, ingest existing JSON artifacts, export artifacts back
out, and inspect what is inside::

    repro-db init store.sqlite
    repro-db ingest store.sqlite campaign-gcc.json verify-gcc.json
    repro-db list store.sqlite
    repro-db export store.sqlite --run 1 --output campaign-gcc.json
    repro-db export store.sqlite --matrix --output matrix.json
    repro-db stats store.sqlite

The campaign drivers write through the same file live (``--store`` on
``repro-campaign`` / ``repro-verify`` / ``repro-reduce`` /
``repro-bisect``), so ``export``
of a finished — or interrupted — run reproduces exactly the artifact the
driver would have serialized, and ``ingest`` followed by ``export``
round-trips an artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .db import CampaignStore, StoreError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-db",
        description="Manage a repro-db/2 persistent campaign store "
                    "(see docs/ARTIFACTS.md).")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "init", help="create an empty store (idempotent)")
    sub.add_argument("store", help="sqlite file path")

    sub = commands.add_parser(
        "ingest", help="store existing artifact JSON files")
    sub.add_argument("store", help="sqlite file path")
    sub.add_argument("artifacts", nargs="+",
                     help="artifact JSON paths (campaign / matrix / "
                          "verify / reduction / bisect schemas)")
    sub.add_argument("--debugger", default="",
                     help="cell debugger name for repro-campaign/1 "
                          "inputs (the artifact does not record it)")

    sub = commands.add_parser(
        "export", help="write a stored run back out as artifact JSON")
    sub.add_argument("store", help="sqlite file path")
    sub.add_argument("--run", type=int, metavar="ID",
                     help="run id (see 'repro-db list'); optional when "
                          "the store holds exactly one run")
    sub.add_argument("--matrix", action="store_true",
                     help="assemble every campaign cell plus the "
                          "recorded module fingerprints into one "
                          "repro-matrix/1 artifact")
    sub.add_argument("--output", "-o", metavar="PATH",
                     help="write here instead of stdout")
    sub.add_argument("--indent", type=int, default=2,
                     help="artifact JSON indentation (default: 2)")

    sub = commands.add_parser("list", help="list the stored runs")
    sub.add_argument("store", help="sqlite file path")

    sub = commands.add_parser(
        "stats", help="table sizes, compression and dedup totals")
    sub.add_argument("store", help="sqlite file path")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")
    return parser


def _describe(store: CampaignStore, info) -> str:
    extras = [f"levels {'/'.join(info.levels)}" if info.levels else
              "no levels"]
    if info.debugger:
        extras.append(info.debugger)
    if info.engine:
        extras.append(f"engine {info.engine}")
    extras.append(f"{store.result_count(info.id)} results")
    return (f"run {info.id}: {info.schema} {info.family}-"
            f"{info.version} ({', '.join(extras)})")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except StoreError as error:
        parser.error(str(error))


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "init":
        with CampaignStore(args.store):
            pass
        print(f"initialized {args.store}")
        return 0

    if args.command == "ingest":
        from ..report.model import load_artifact_file
        with CampaignStore(args.store) as store:
            for path in args.artifacts:
                try:
                    artifact = load_artifact_file(path)
                except (OSError, ValueError) as error:
                    parser.error(f"{path}: {error}")
                run_ids = store.ingest(artifact, debugger=args.debugger)
                print(f"{path}: ingested into run"
                      f"{'s' if len(run_ids) > 1 else ''} "
                      f"{', '.join(str(r) for r in run_ids)}")
        return 0

    if args.command == "list":
        with CampaignStore(args.store) as store:
            infos = store.runs()
            if not infos:
                print("no runs stored")
            for info in infos:
                print(_describe(store, info))
        return 0

    if args.command == "export":
        with CampaignStore(args.store) as store:
            if args.matrix:
                artifact = store.export_matrix()
            else:
                run_id = args.run
                if run_id is None:
                    infos = store.runs()
                    if len(infos) != 1:
                        parser.error(
                            f"store holds {len(infos)} runs; pass "
                            f"--run ID (see 'repro-db list') or "
                            f"--matrix")
                    run_id = infos[0].id
                artifact = store.load_run(run_id)
            _emit(artifact.to_json(indent=args.indent), args.output)
        return 0

    if args.command == "stats":
        with CampaignStore(args.store) as store:
            summary = store.summary()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        tables = summary["tables"]
        print(f"store: {summary['path']} ({summary['schema']})")
        for schema, count in sorted(
                summary["runs_per_schema"].items()):
            print(f"  runs[{schema}]: {count}")
        print(f"  results: {tables['results']} over "
              f"{tables['programs']} stored programs")
        print(f"  module fingerprints: "
              f"{tables['module_fingerprints']}")
        stored = summary["blob_bytes_stored"]
        raw = summary["blob_bytes_raw"]
        ratio = raw / stored if stored else 0.0
        print(f"  blobs: {tables['blobs']} "
              f"({stored} bytes compressed, {raw} raw, "
              f"{ratio:.1f}x)")
        print(f"  dedup: {summary['deduplicated_blobs']} of "
              f"{summary['blob_references']} references shared")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
