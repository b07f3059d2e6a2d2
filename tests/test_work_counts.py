"""Deterministic work-count pin.

Timings on a shared machine drift; the work a driver does does not.
For small fixed inputs this test counts backend compiles
(``Compiler.compile_ir``), optimization pass runs, links, debugger
trace runs and lowerings, and compares them with
``tests/data/golden/work_counts.json``:

* ``triage`` — three fixed gcc-trunk witnesses, each reduced with the
  fast engine and culprit triage, then bisected (the perfbench
  ``triage`` unit);
* ``find`` — one generator seed through the gcc + clang trunk matrix
  with both debuggers (the perfbench ``find`` unit);
* ``resume`` — a gcc-trunk verify campaign over two seeds written to an
  in-memory store, resumed over three, then loaded back with
  ``load_run``: backend compiles, the store round trips
  (``put_result``/``get_result`` calls) and the store's own ``hits``,
  ``misses`` and ``dedups`` (blob reuses).  Lowerings are left out:
  the program generator's cache makes them depend on what ran before.

A change that adds work fails here.  A change that removes work
regenerates the golden and states the drop::

    PYTHONPATH=src python tests/test_work_counts.py --write
"""

import collections
import contextlib
import importlib
import json
import os
import pkgutil
import sys

import repro
from repro.bisect.campaign import run_bisect_campaign
from repro.compilers import Compiler
from repro.debugger import GdbLike
from repro.debugger.base import trace_all
from repro.ir.lower import lower_program
from repro.passes.base import Pass
from repro.pipeline import run_campaign
from repro.pipeline.campaign import CampaignResult, ProgramResult
from repro.pipeline.matrix import run_matrix_campaign
from repro.pipeline.reduction import iter_witnesses, run_reduction_campaign
from repro.staticcheck.campaign import run_verify_campaign
from repro.store import CampaignStore
from repro.target.codegen import link

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden",
                           "work_counts.json")
#: (seed, level, conjecture, variable) gcc-trunk witnesses.
WITNESSES = (
    (2, "Og", "C1", "l_5"),
    (8, "O1", "C2", "l_3"),
    (13, "O2", "C1", "l_0"),
)
FIND_SEED = 2
#: Oracle steps per reduction (the perfbench triage unit's budget).
REDUCE_MAX_STEPS = 60


def _pass_classes():
    todo, seen = [Pass], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "run" in cls.__dict__]


@contextlib.contextmanager
def counting():
    """Count work while the block runs; yields the counter."""
    counts = collections.Counter()
    undo = []

    def counted(name, original, guard=None):
        def wrapper(*args, **kwargs):
            if guard is None or not guard[0]:
                counts[name] += 1
            if guard is not None:
                guard[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                if guard is not None:
                    guard[0] -= 1
        return wrapper

    def rebind(owner, attr, wrapper):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # Import every module first, so none binds a counted name late and
    # keeps the wrapper after the block.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    for name, original in (("lower", lower_program), ("link", link),
                           ("trace", trace_all)):
        wrapper = counted(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    rebind(module, attr, wrapper)
    rebind(Compiler, "compile_ir",
           counted("compile_ir", Compiler.__dict__["compile_ir"]))
    for name in ("put_result", "get_result"):
        rebind(CampaignStore, name,
               counted(name, CampaignStore.__dict__[name]))
    # A pass whose run() calls an inherited run() is one pass run.
    depth = [0]
    for cls in _pass_classes():
        rebind(cls, "run", counted("pass_runs", cls.__dict__["run"],
                                   guard=depth))
    try:
        yield counts
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _witness_campaigns():
    compiler = Compiler("gcc", "trunk")
    for seed, level, conjecture, variable in WITNESSES:
        found = run_campaign(compiler, GdbLike(), pool_size=1,
                             seed_base=seed)
        violation = next(
            v for s, lv, v in iter_witnesses(found)
            if (s, lv, v.conjecture, v.variable) ==
            (seed, level, conjecture, variable))
        yield CampaignResult(
            family=found.family, version=found.version,
            levels=list(found.levels), pool_size=1,
            programs=[ProgramResult(seed=seed,
                                    violations={level: [violation]},
                                    fired=found.programs[0].fired)])


def work_counts():
    """``{"triage": counts, "find": counts, "resume": counts}`` for the
    fixed inputs."""
    singles = list(_witness_campaigns())
    with counting() as triage:
        for single in singles:
            run_reduction_campaign(single, engine="fast",
                                   max_steps=REDUCE_MAX_STEPS)
            run_bisect_campaign(single)
    compilers = [Compiler("gcc", "trunk"), Compiler("clang", "trunk")]
    with counting() as find:
        run_matrix_campaign(compilers=compilers, pool_size=1,
                            seed_base=FIND_SEED)
    with counting() as resume, CampaignStore(":memory:") as store:
        for pool_size in (2, 3):
            run_verify_campaign(compilers[0], pool_size=pool_size,
                                store=store)
        (run,) = store.runs()
        store.load_run(run.id)
        resume.update(hits=store.stats.hits, misses=store.stats.misses,
                      dedups=store.stats.blob_reuses)
    return {"triage": dict(sorted(triage.items())),
            "find": dict(sorted(find.items())),
            "resume": {name: resume[name] for name in sorted(
                ("compile_ir", "put_result", "get_result", "hits",
                 "misses", "dedups"))}}


def test_work_counts_match_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert work_counts() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(work_counts(), handle, indent=1, sort_keys=True)
        handle.write("\n")
