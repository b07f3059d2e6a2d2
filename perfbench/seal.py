"""Seal the benchmark corpus: every unit's cost and artifact digest.

Run from the repository root, at the commit whose outputs are the
reference (the digests pin them byte for byte)::

    PYTHONPATH=src python3 perfbench/seal.py find verify --out a.json
    PYTHONPATH=src python3 perfbench/seal.py serve triage --out b.json

Each invocation writes the named workloads' entries to ``--out``
(default ``perfbench/corpus.json``), keeping entries already there for
other workloads, so the slow parts can run in separate processes and be
combined afterwards.  ``triage`` draws its seeds from the ``serve``
costs, so it needs them sealed first.  Costs are seconds
per unit on the sealing machine; runs only use their order (strata).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads as W


def _timed(fn, *args):
    from repro.fuzz.generator import generate_validated
    generate_validated.cache_clear()
    start = time.perf_counter()
    value = fn(*args)
    return value, round(time.perf_counter() - start, 4)


def seal_find(corpus):
    from repro.compilers.compiler import Compiler
    compilers = [Compiler("gcc", "trunk"), Compiler("clang", "trunk")]
    for seed in W.PROGRAM_SEEDS:
        result, cost = _timed(W.find_unit, seed, compilers)
        assert not result.failures, seed
        yield {"key": str(seed), "seed": seed, "cost": cost,
               "digest": W.digest(result.to_json())}


def seal_verify(corpus):
    from repro.compilers.compiler import Compiler
    compilers = [Compiler("gcc", "trunk"), Compiler("clang", "trunk")]
    for seed in W.PROGRAM_SEEDS:
        results, cost = _timed(W.verify_unit, seed, compilers)
        assert not any(result.failures for result in results), seed
        yield {"key": str(seed), "seed": seed, "cost": cost,
               "digest": W.digest(W.verify_text(results))}


def seal_serve(corpus):
    for seed in W.PROGRAM_SEEDS:
        for family in ("gcc", "clang"):
            text, cost = _timed(W.serve_artifact_text, family, seed)
            assert '"failures"' not in text, (family, seed)
            yield {"key": f"{family}/{seed}", "family": family,
                   "seed": seed, "cost": cost, "digest": W.digest(text)}


def seal_triage(corpus):
    gcc = sorted((item["cost"], item["seed"]) for item in corpus["serve"]
                 if item["family"] == "gcc")
    seeds = sorted(seed for _cost, seed
                   in gcc[:int(len(gcc) * W.WITNESS_SHARE)])
    campaign = W.witness_campaign(seeds)
    for key, (single, seed, level) in W.witnesses_of(campaign).items():
        (reduction, bisection), cost = _timed(W.triage_unit, single)
        assert not reduction.failures and not bisection.failures, key
        assert W.bisect_windows_ok(bisection), key
        yield {"key": key, "seed": seed, "level": level, "cost": cost,
               "digest": W.digest(W.triage_text(reduction, bisection))}


SEALERS = {"find": seal_find, "verify": seal_verify, "serve": seal_serve,
           "triage": seal_triage}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(SEALERS))
    parser.add_argument("--out", default=W.CORPUS_PATH)
    args = parser.parse_args(argv)
    corpus = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            corpus = json.load(handle)
    for name in args.workloads:
        corpus[name] = []
        for item in SEALERS[name](corpus):
            corpus[name].append(item)
            print(name, item["key"], item["cost"], file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(corpus_text(corpus))
    return 0


def corpus_text(corpus) -> str:
    """The corpus as JSON with one unit per line."""
    sections = []
    for name in sorted(corpus):
        lines = ",\n".join(json.dumps(item, sort_keys=True)
                           for item in corpus[name])
        sections.append(f"{json.dumps(name)}: [\n{lines}\n]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
