"""Run ``repro-serve run`` in this process, then report on it.

The service runs exactly as its console script runs it; with
``--trace`` the layer wrappers are installed first.  When SIGTERM makes
the service drain and ``main`` return, the process writes its peak RSS
(and, when traced, the folded layer spans of every worker thread) to
``--result`` as JSON.

    python3 perfbench/serve_launcher.py --store S.db --port-file PORT \
        --result OUT.json [--trace]
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    from repro.serve.cli import main as serve_main
    start = time.perf_counter()
    code = serve_main(["run", "--store", args.store, "--port-file",
                       args.port_file, "--workers", "2", "--quiet"])
    end = time.perf_counter()
    report = {"exit": code, "rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["trace"] = tracer.summary(start, end)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
