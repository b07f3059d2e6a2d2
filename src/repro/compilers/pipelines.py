"""Per-family, per-level, per-version optimization pipelines.

The pass lists model the structure the paper observes:

* gcc's ``-Og`` runs a deliberately debugger-friendly subset (no loop
  restructuring, no second scheduling pass), ``-O1`` adds loop header
  copying and LICM, ``-O2``/``-O3`` add inlining, VRP, strength reduction,
  scheduling, and (``-O3``) unrolling; ``-Os``/``-Oz`` are ``-O2`` with
  size-driven inlining and no unrolling.
* clang's ``-O1`` and ``-Og`` are the same pipeline (the paper reports
  only ``-Og`` for clang for this reason); LSR runs at *every* optimized
  level, which is why the paper's LSR bug dominates clang's Conjecture 2
  violations. The latest clang versions enable loop unrolling already at
  ``-Og`` — the "more aggressive optimizations that remove code for some
  loops" the paper found when line coverage dropped on trunk.

Version differences beyond defect windows are intentionally small: old
gcc lacks VRP and strength reduction (both were introduced over time).
"""

from __future__ import annotations

from typing import List

from ..passes import (
    ConstantPropagation, CopyPropagation, DeadCodeElimination,
    DeadStoreElimination, IPAPureConst, InstCombine, Inliner,
    InstructionScheduler, LoopInvariantCodeMotion, LoopRotate,
    LoopStrengthReduce, LoopUnroll, Mem2Reg, Pass, RedundancyElimination,
    SROA, ValueRangePropagation,
)
from ..passes.simplifycfg import SimplifyCFG

GCC_LEVELS = ("O0", "Og", "O1", "O2", "O3", "Os", "Oz")
CLANG_LEVELS = ("O0", "Og", "O2", "O3", "Os", "Oz")

#: clang treats -O1 as an alias of -Og (paper Section 2).
CLANG_LEVEL_ALIASES = {"O1": "Og"}


def gcc_pipeline(level: str, version_index: int) -> List[Pass]:
    """The gcc-family pass pipeline for one optimization level."""
    if level == "O0":
        return []
    promote = Mem2Reg(name="ipa-sra")
    base: List[Pass] = [
        promote,
        ConstantPropagation(name="tree-ccp"),
        RedundancyElimination(name="tree-fre"),
        CopyPropagation(name="cprop-registers"),
        DeadStoreElimination(name="tree-dse"),
        IPAPureConst(name="ipa-pure-const"),
        DeadCodeElimination(name="tree-dce"),
    ]
    if level == "Og":
        return base

    base.extend([
        LoopRotate(name="tree-ch"),
        LoopInvariantCodeMotion(name="tree-lim"),
        ConstantPropagation(name="tree-ccp"),
        DeadCodeElimination(name="tree-dce"),
    ])
    if level == "O1":
        return base

    inline_threshold = {"O2": 40, "O3": 80, "Os": 25, "Oz": 12}[level]
    base.insert(1, Inliner(name="inline", threshold=inline_threshold))
    if version_index >= 2:
        base.append(ValueRangePropagation(name="tree-vrp"))
    if level in ("O3",):
        base.append(LoopUnroll(name="unroll"))
    if level == "Oz":
        base.append(LoopUnroll(name="unroll", max_trips=2, max_body=10))
    if version_index >= 1:
        base.append(LoopStrengthReduce(name="ivopts"))
    base.append(DeadCodeElimination(name="tree-dce"))
    base.append(InstructionScheduler(name="schedule-insns2"))
    return base


def clang_pipeline(level: str, version_index: int) -> List[Pass]:
    """The clang-family pass pipeline for one optimization level."""
    level = CLANG_LEVEL_ALIASES.get(level, level)
    if level == "O0":
        return []
    base: List[Pass] = [
        SROA(),
        InstCombine(name="instcombine"),
        ConstantPropagation(name="ipsccp"),
        RedundancyElimination(name="earlycse"),
        SimplifyCFG(name="simplifycfg"),
        DeadCodeElimination(name="adce"),
        LoopRotate(name="loop-rotate"),
    ]
    if level == "Og":
        if version_index >= 4:
            # Trunk-era clang removes/unrolls loops already at -Og.
            base.append(LoopUnroll(name="unroll", max_trips=4,
                                   max_body=16))
        base.extend([
            LoopStrengthReduce(name="lsr"),
            DeadCodeElimination(name="adce"),
            InstructionScheduler(name="misched", window=1),
        ])
        return base

    inline_threshold = {"O2": 40, "O3": 80, "Os": 25, "Oz": 12}[level]
    base.extend([
        Inliner(name="inline", threshold=inline_threshold),
        IPAPureConst(name="ipa-pure-const"),
        InstCombine(name="instcombine"),
        SimplifyCFG(name="simplifycfg"),
        LoopInvariantCodeMotion(name="licm"),
    ])
    if level in ("O2", "O3"):
        base.append(LoopUnroll(name="unroll",
                               max_trips=8 if level == "O3" else 4))
    base.extend([
        LoopStrengthReduce(name="lsr"),
        DeadStoreElimination(name="dse"),
        DeadCodeElimination(name="adce"),
        InstructionScheduler(name="misched"),
    ])
    return base


def pipeline_for(family: str, level: str, version_index: int) -> List[Pass]:
    if family == "gcc":
        return gcc_pipeline(level, version_index)
    if family == "clang":
        return clang_pipeline(level, version_index)
    raise ValueError(f"unknown compiler family {family!r}")


def boolean_flags(family: str, level: str, version_index: int) -> List[str]:
    """The distinct pass names that can be disabled ``-fno-<name>`` style
    at this level (the gcc triage method's search space, Section 4.3)."""
    seen = []
    for opt_pass in pipeline_for(family, level, version_index):
        if opt_pass.name not in seen:
            seen.append(opt_pass.name)
    return seen


def pipeline_identity(passes: List[Pass]) -> tuple:
    """A hashable identity of a pass list: each pass's class, name and
    parameters (inline threshold, unroll trips, sched window), in order.
    Two versions with equal identities at a level run the same
    pipeline."""
    return tuple((type(p), tuple(sorted(vars(p).items()))) for p in passes)
