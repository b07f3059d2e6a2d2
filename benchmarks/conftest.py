"""Shared helpers for the experiment-regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index). Pool sizes default to laptop-friendly
values; set ``REPRO_BENCH_POOL`` to scale up toward the paper's 1000/5000
program pools, and ``REPRO_BENCH_OUT`` to choose where the
``BENCH_*.json`` files land.
"""

import json
import os
import tempfile

import pytest

from repro.fuzz import generate_validated

_benches = {}


def _recorder(name):
    """A ``record_<name>_bench(**fields)`` collecting the fields written
    to ``BENCH_<name>.json`` at session end."""
    data = _benches.setdefault(name, {})

    def record(**fields):
        data.update(fields)

    return record


record_campaign_bench = _recorder("campaign")
record_reduce_bench = _recorder("reduce")
record_verify_bench = _recorder("verify")
record_store_bench = _recorder("store")
record_faults_bench = _recorder("faults")
record_bisect_bench = _recorder("bisect")
record_serve_bench = _recorder("serve")


def pytest_sessionfinish(session, exitstatus):
    # The BENCH_<name>.json files land in $REPRO_BENCH_OUT.  Unset, each
    # session writes to a fresh temporary directory, so a test run never
    # rewrites the committed copies; REPRO_BENCH_OUT=benchmarks refreshes
    # them.
    recorded = {name: data for name, data in _benches.items() if data}
    if not recorded:
        return
    out = os.environ.get("REPRO_BENCH_OUT") or \
        tempfile.mkdtemp(prefix="repro-bench-")
    os.makedirs(out, exist_ok=True)
    for name, data in recorded.items():
        path = os.path.join(out, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")


def pool_size(default):
    return int(os.environ.get("REPRO_BENCH_POOL", default))


_PROGRAM_CACHE = {}


def program_pool(count, seed_base=0):
    """Shared, cached program pool so every experiment sees the same
    subjects (as the paper's regression study requires)."""
    key = (count, seed_base)
    if key not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[key] = [
            generate_validated(seed_base + i) for i in range(count)
        ]
    return _PROGRAM_CACHE[key]


def banner(title):
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"
