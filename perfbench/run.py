"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload find --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  Every measurement happens in a fresh
worker process (``worker.py``) with cold caches and its own temporary
directory under ``.perfbench_tmp/``, which is removed afterwards.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
over ``SETUP_REPEATS`` separate set-ups; the rest come from one timed
run.  ``--trace 1`` makes an untraced run and then a traced run of the
same units, and prints the per-layer metrics of the traced one plus
``trace.overhead_frac``, its cost against the untraced one.  The last
line of standard output is always the result object; the exit code is
0 only when every unit passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

from tracer import PASS_MODULES  # noqa: E402

WORKLOADS = ("find", "verify", "triage", "serve")
#: Nearest-rank percentile reported as ``latency_tail_s``: the highest
#: that leaves at least ten units beyond it in a 20-second run (find 65
#: units, verify 68, triage 26, serve 50).
TAIL = {"find": 0.84, "verify": 0.85, "triage": 0.61, "serve": 0.80}
SETUP_REPEATS = 3
#: Every worker must be done by then, counted from this script's start.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args, tmp: str):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([os.path.abspath("src"), HERE]),
            PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", TMPDIR=tmp)
        self.logs = 0

    def worker(self, phase: str, trace: bool = False) -> dict:
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--seconds", str(self.args.seconds), "--phase", phase]
        if trace:
            command.append("--trace")
        self.logs += 1
        log_path = os.path.join(self.tmp, f"worker-{self.logs}.log")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(command, env=self.env,
                                    stdout=subprocess.PIPE, stderr=log,
                                    start_new_session=True)
            try:
                out, _ = proc.communicate(
                    timeout=max(self.deadline - time.monotonic(), 1))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{phase} worker ran out of time")
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                sys.stderr.write(log.read()[-4000:])
            raise BenchError(f"{phase} worker exited with "
                             f"{proc.returncode}")
        return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def nearest_rank(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def tally(*runs: dict) -> Dict[str, int]:
    attempted = failed = 0
    for run in runs:
        attempted += len(run["units"]) + run["extra_failures"]
        failed += run["extra_failures"] + sum(
            1 for _latency, ok in run["units"] if not ok)
    return {"attempted": attempted, "failed": failed}


def latencies(run: dict) -> List[float]:
    return [latency for latency, _ok in run["units"] if latency is not None]


def end_to_end(workload: str, setups: List[float], run: dict
               ) -> Dict[str, dict]:
    completed = sum(1 for _latency, ok in run["units"] if ok)
    samples = latencies(run) or [0.0]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "units_per_s": {"value": completed / run["wall_s"], "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(samples), "unit": "s"},
        "latency_tail_s": {"value": nearest_rank(samples, TAIL[workload]),
                           "unit": "s"},
        "peak_rss_mb": {"value": run["rss_mb"], "unit": "MB"},
    }


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(run: dict, overhead: float) -> Dict[str, dict]:
    trace = run["trace"]
    layers, counts = trace["layers"], trace["counts"]
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    def timed(name: str, with_calls: bool = True) -> None:
        entry = layers.get(name, {})
        put(f"{name}.self_s", entry.get("self_s", 0.0), "s")
        if with_calls:
            put(f"{name}.calls", entry.get("calls", 0), "count")

    def count(name: str) -> None:
        put(name, counts.get(name, 0), "count")

    for module in PASS_MODULES:
        timed(f"passes.{module}")
    put("passes.changed_frac", _frac(counts.get("passes.changed", 0),
                                     counts.get("passes.applied", 0)),
        "ratio")
    for name in ("ir.lower", "ir.clone", "target.link", "debugger.trace",
                 "fuzz.generate", "store.put_result", "store.get_result",
                 "store.add_program", "store.jobs", "store.artifact"):
        timed(name)
    count("debugger.trace.stops")
    count("target.instructions")
    timed("conjectures.check", with_calls=False)
    count("conjectures.check.violations")
    timed("staticcheck.verify", with_calls=False)
    count("staticcheck.verify.findings")
    timed("reduce.oracle.check", with_calls=False)
    queries = counts.get("reduce.queries", 0)
    put("reduce.oracle.check.queries", queries, "count")
    put("reduce.memo_hit_frac",
        _frac(counts.get("reduce.memo_hits", 0), queries), "ratio")
    put("reduce.accept_frac",
        _frac(counts.get("reduce.accepts", 0), queries), "ratio")
    put("reduce.candidates_per_s",
        _frac(queries, layers.get("reduce.engine", {}).get("total_s", 0)),
        "1/s")
    for name in ("triage.culprit", "bisect.verdict", "analysis",
                 "faults.boundary", "compilers", "pipeline"):
        timed(name, with_calls=False)
    count("bisect.probes")
    put("bisect.probe_reuse_frac",
        _frac(counts.get("bisect.memo_hits", 0),
              counts.get("bisect.consults", 0)), "ratio")
    count("store.hits")
    count("store.misses")
    put("store.busy_retries",
        layers.get("store.busy_retry", {}).get("calls", 0), "count")
    loadgen = run.get("loadgen", {})
    for name in ("serve.submit_s", "serve.queue_wait_p50_s",
                 "serve.artifact_s", "loadgen.lag_max_s"):
        put(name, loadgen.get(name, 0.0), "s")
    put("serve.shed", loadgen.get("serve.shed", 0), "count")
    put("trace.coverage_frac", trace["coverage"], "ratio")
    put("trace.overhead_frac", overhead, "ratio")
    return out


def measure(runner: Runner) -> dict:
    workload = runner.args.workload
    if not runner.args.trace:
        setups = [runner.worker("setup")["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        run = runner.worker("run")
        setups.append(run["setup_s"])
        metrics = end_to_end(workload, setups, run)
        counts = tally(run)
    else:
        plain = runner.worker("run")
        traced = runner.worker("run", trace=True)
        if workload == "serve":
            # The schedule fixes the wall time; compare latency instead.
            overhead = (statistics.median(latencies(traced))
                        / statistics.median(latencies(plain)) - 1)
        else:
            overhead = traced["wall_s"] / plain["wall_s"] - 1
        metrics = per_layer(traced, overhead)
        counts = tally(plain, traced)
    return {"correct": counts["failed"] == 0, **counts,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run it from the repository "
              "root", file=sys.stderr)
        return 2
    tmp_root = os.path.abspath(".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        result = measure(Runner(args, tmp))
    except (BenchError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
