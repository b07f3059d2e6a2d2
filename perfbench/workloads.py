"""The benchmark's workloads and the answers they are checked against.

Inputs come from the sealed corpus (``corpus.json``, written by
``seal.py``): per workload, a set of generated units -- generator seeds,
or witnesses found by a campaign -- each with the cost it had when the
corpus was sealed and the sha256 digest of its artifact.

A run's size is fixed by ``--seconds``: the number of units the
reference build completes in that time (``UNITS_PER_S``), so a faster
build finishes sooner rather than doing more work, and a run is the
same work on both sides of a comparison.  Its ``--seed`` draws a
stratified sample: the units are ranked by sealed cost and cut into as
many equal strata as the run has units, and the run takes one unit from
each stratum, in seeded order.  Every run gets its own programs but the
same mix of cheap and expensive ones, which keeps rates and percentiles
steady across seeds with a few dozen units per run.

The same functions compute a unit's artifact here and in ``seal.py``;
a run compares each artifact with the sealed digest, so a change that
alters any artifact byte fails the check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")

#: Generator seeds that ``find``, ``verify`` and ``serve`` draw from.
PROGRAM_SEEDS = range(10_000, 10_240)
#: Share of ``PROGRAM_SEEDS`` -- the cheapest by sealed gcc campaign
#: cost -- whose witnesses ``triage`` draws.  Small programs keep the
#: per-call fixed costs of the oracle and prober in front, and keep a
#: witness cheap enough for a run to finish a few dozen of them.
WITNESS_SHARE = 0.25
#: Oracle steps each reduction may take; bounds the cost per witness.
REDUCE_MAX_STEPS = 60
#: Executables per run whose VM result is compared with the interpreter.
INTERP_SAMPLE = 3
#: Units per second of the reference build (the commit that sealed the
#: corpus), from the sealed costs; sizes every run.  For ``serve`` it is
#: the open-loop submission rate.
UNITS_PER_S = {"find": 3.25, "verify": 3.4, "triage": 1.3, "serve": 2.5}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_corpus() -> Dict[str, List[dict]]:
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_size(workload: str, seconds: float) -> int:
    return max(1, round(seconds * UNITS_PER_S[workload]))


def stratified_sample(items: Sequence[dict], count: int,
                      rng: random.Random) -> List[dict]:
    """One unit from each of ``count`` equal sealed-cost strata, in
    seeded order."""
    ranked = sorted(items, key=lambda item: (item["cost"], item["key"]))
    count = min(count, len(ranked))
    picks = [rng.choice(ranked[index * len(ranked) // count:
                               (index + 1) * len(ranked) // count])
             for index in range(count)]
    rng.shuffle(picks)
    return picks


# -- units: one artifact each -------------------------------------------------


def find_unit(seed: int, compilers) -> object:
    """The matrix experiment for one generator seed: gcc and clang trunk,
    every optimized level, both debuggers, no store."""
    from repro.pipeline.matrix import run_matrix_campaign
    return run_matrix_campaign(compilers=compilers, pool_size=1,
                               seed_base=seed)


def verify_unit(seed: int, compilers) -> List[object]:
    """Static verification of one seed at every level, O0 included, by
    each compiler."""
    from repro.staticcheck.campaign import run_verify_campaign
    return [run_verify_campaign(compiler, pool_size=1, seed_base=seed)
            for compiler in compilers]


def verify_text(results) -> str:
    return "\n".join(result.to_json() for result in results)


def serve_job(family: str, seed: int) -> dict:
    """A single-cell ``repro-job/1`` document for one seed."""
    return {"schema": "repro-job/1", "family": family,
            "version": "trunk",
            "debugger": "gdb-like" if family == "gcc" else "lldb-like",
            "seed_base": seed, "pool_size": 1, "levels": []}


def serve_artifact_text(family: str, seed: int) -> str:
    """The artifact bytes the service must return for ``serve_job``:
    the serial campaign over the same seed, serialized the way the
    HTTP layer serializes it."""
    from repro.compilers.compiler import Compiler
    from repro.debugger.specs import DEBUGGER_REGISTRY
    from repro.pipeline.campaign import run_campaign
    job = serve_job(family, seed)
    result = run_campaign(Compiler(family, "trunk"),
                          DEBUGGER_REGISTRY[job["debugger"]](),
                          pool_size=1, seed_base=seed)
    return json.dumps(result.to_dict(), sort_keys=True)


def witness_campaign(seeds: Sequence[int]):
    """gcc-trunk campaign (native debugger) over ``seeds``, one seed at
    a time, folded: the set-up step that discovers triage witnesses."""
    from repro.compilers.compiler import Compiler
    from repro.debugger.gdb_like import GdbLike
    from repro.pipeline.campaign import run_campaign
    compiler, debugger = Compiler("gcc", "trunk"), GdbLike()
    folded = None
    for seed in seeds:
        result = run_campaign(compiler, debugger, pool_size=1,
                              seed_base=seed)
        folded = result if folded is None else folded.merge(result)
    return folded


def witness_key(seed: int, level: str, violation) -> str:
    return (f"{seed}/{level}/{violation.conjecture}/"
            f"{violation.function}/{violation.variable}")


def witnesses_of(campaign) -> Dict[str, tuple]:
    """key -> (single-witness campaign, seed, level) for every witness."""
    from repro.pipeline.campaign import CampaignResult, ProgramResult
    from repro.pipeline.reduction import iter_witnesses
    programs = {program.seed: program for program in campaign.programs}
    out = {}
    for seed, level, violation in iter_witnesses(campaign):
        single = CampaignResult(
            family=campaign.family, version=campaign.version,
            levels=list(campaign.levels), pool_size=1,
            programs=[ProgramResult(seed=seed,
                                    violations={level: [violation]},
                                    fired=programs[seed].fired)])
        out[witness_key(seed, level, violation)] = (single, seed, level)
    return out


def triage_unit(single) -> tuple:
    """Reduce (fast engine, with culprit triage) and bisect one witness."""
    from repro.bisect.campaign import run_bisect_campaign
    from repro.pipeline.reduction import run_reduction_campaign
    reduction = run_reduction_campaign(single, engine="fast",
                                       max_steps=REDUCE_MAX_STEPS)
    bisection = run_bisect_campaign(single)
    return reduction, bisection


def triage_text(reduction, bisection) -> str:
    """The witness's reduction and bisection records.  The oracle and
    prober accounting (``stats``) is left out: a memo change may alter
    it without changing any answer."""
    return json.dumps([[record.to_dict() for record in reduction.records],
                       [record.to_dict() for record in bisection.records]],
                      sort_keys=True)


def bisect_windows_ok(bisection) -> bool:
    """Every fired record's window equals the catalog ground truth,
    derived without compiling anything."""
    from repro.bisect.core import expected_window
    from repro.bugs.catalog import defects_for_family
    catalog = {d.defect_id: d for d in defects_for_family(
        bisection.family)}
    for record in bisection.records:
        if not record.fired:
            continue
        want = expected_window(catalog[record.defect], bisection.family,
                               record.level)
        if (record.last_good, record.first_bad, record.fixed_in) != (
                want.last_good, want.first_bad, want.fixed_in):
            return False
    return True


def interpreter_agrees(seed: int, family: str,
                       rng: random.Random) -> bool:
    """The VM result of an optimized build equals the interpreter's
    result on the -O0 module (an independent reference)."""
    from repro.compilers.compiler import Compiler
    from repro.fuzz.generator import generate_validated
    from repro.ir.interp import run_module
    from repro.ir.lower import lower_program
    from repro.target.vm import run_executable
    program = generate_validated(seed)
    compiler = Compiler(family, "trunk")
    level = rng.choice([lv for lv in compiler.levels if lv != "O0"])
    expected = run_module(lower_program(program)).key()
    built = compiler.compile(program, level).exe
    return run_executable(built).key() == expected


# -- in-process workloads -------------------------------------------------------


class Workload:
    """One in-process workload: ``setup`` (timed as set-up), ``plan``
    (the units, in order), ``run`` (one timed unit), and ``check`` and
    ``finish`` (untimed)."""

    def __init__(self, corpus: Dict[str, List[dict]], seed: int,
                 seconds: float):
        self.rng = random.Random(seed)
        self.corpus = corpus[self.name]
        self.plan = stratified_sample(
            self.corpus, run_size(self.name, seconds), self.rng)

    def finish(self, done: List[dict]) -> List[str]:
        """Checks over the whole run; returns keys of failed units."""
        return []


class Find(Workload):
    name = "find"

    def setup(self) -> None:
        from repro.compilers.compiler import Compiler
        self.compilers = [Compiler("gcc", "trunk"),
                          Compiler("clang", "trunk")]
        self.folded = None

    def run(self, item: dict):
        result = find_unit(item["seed"], self.compilers)
        self.folded = (result if self.folded is None
                       else self.folded.merge(result))
        return result

    def check(self, item: dict, result) -> bool:
        return (digest(result.to_json()) == item["digest"]
                and not result.failures)

    def finish(self, done: List[dict]) -> List[str]:
        failed = []
        seeds = [item["seed"] for item in done]
        if (self.folded is not None
                and (self.folded.pool_size != len(seeds)
                     or sorted(self.folded.fingerprints) != sorted(seeds))):
            failed.append("merge")
        for item in self.rng.sample(done, min(INTERP_SAMPLE, len(done))):
            for family in ("gcc", "clang"):
                if not interpreter_agrees(item["seed"], family, self.rng):
                    failed.append(item["key"])
        return failed


class Verify(Find):
    name = "verify"

    def run(self, item: dict):
        return verify_unit(item["seed"], self.compilers)

    def check(self, item: dict, results) -> bool:
        return (digest(verify_text(results)) == item["digest"]
                and not any(result.failures for result in results))


class Triage(Workload):
    name = "triage"

    def setup(self) -> None:
        seeds = sorted({item["seed"] for item in self.corpus})
        self.witnesses = witnesses_of(witness_campaign(seeds))

    def run(self, item: dict):
        found = self.witnesses.get(item["key"])
        if found is None:           # set-up did not rediscover it
            return None
        return triage_unit(found[0])

    def check(self, item: dict, result) -> bool:
        if result is None:
            return False
        reduction, bisection = result
        return (digest(triage_text(reduction, bisection)) == item["digest"]
                and not reduction.failures and not bisection.failures
                and bisect_windows_ok(bisection))

    def finish(self, done: List[dict]) -> List[str]:
        # The set-up campaign must find exactly the sealed witnesses.
        sealed = {item["key"] for item in self.corpus}
        return [] if set(self.witnesses) == sealed else ["discovery"]


WORKLOADS = {cls.name: cls for cls in (Find, Verify, Triage)}
