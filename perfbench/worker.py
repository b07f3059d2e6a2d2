"""One benchmark process: set a workload up, run it, report as JSON.

``run.py`` starts every worker in a fresh interpreter, so each run has
cold caches (the ``generate_validated`` LRU, toolchain objects) and no
state from an earlier run.  Set-up time runs from interpreter start
(before ``repro`` is imported) until the workload is ready.

    python3 perfbench/worker.py --workload find --seed 1 --seconds 20 \
        --phase run [--trace]

``--seconds`` sizes the run (see ``workloads.py``).  The last line of
standard output is the result: set-up seconds, timed wall seconds, one
``[latency_s, ok]`` pair per unit, peak RSS and, when traced, the
folded layer spans.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_in_process(args) -> dict:
    import workloads
    workload = workloads.WORKLOADS[args.workload](
        workloads.load_corpus(), args.seed, args.seconds)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    if args.phase == "setup":
        return {"setup_s": setup_s}
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    done = []
    start = time.perf_counter()
    for item in workload.plan:
        began = time.perf_counter()
        try:
            output = workload.run(item)
        except Exception:  # a failed unit, reported and counted
            traceback.print_exc()
            output = None
        done.append((item, time.perf_counter() - began, output))
    end = time.perf_counter()
    rss = peak_rss_mb()
    spans = tracer.summary(start, end) if tracer is not None else None
    failed = {item["key"] for item, _latency, output in done
              if output is None or not workload.check(item, output)}
    failed.update(workload.finish([item for item, _l, _o in done]))
    result = {
        "setup_s": setup_s, "wall_s": end - start,
        "units": [[latency, item["key"] not in failed]
                  for item, latency, _output in done],
        "extra_failures": len(failed - {item["key"]
                                        for item, _l, _o in done}),
        "rss_mb": rss,
    }
    if spans is not None:
        result["trace"] = spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.workload == "serve":
        import loadgen
        result = loadgen.run(args, STARTED)
    else:
        result = run_in_process(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
