"""Optimization pass framework.

A :class:`Pass` transforms a module in place and reports whether it
changed anything. The :class:`PassManager` runs a pipeline honoring:

* **disabled passes** — the gcc-style ``-fno-<pass>`` boolean flags the
  triage machinery toggles one at a time (Section 4.3);
* **bisect limit** — the clang-style ``-opt-bisect-limit=N`` that stops
  the pipeline after N passes, used for violation grouping (Section 4.3);
* **defect hooks** — the bug registry's interception points. A pass asks
  ``ctx.fires("point", **info)`` at each place where it must transport or
  salvage debug information; an active defect answering True makes the
  pass skip (or corrupt) that provision, exactly the "lack of internal
  design provisions" failure mode the paper describes.

Usage — run a custom pipeline over a lowered module::

    from repro.analysis import resolve
    from repro.compilers.pipelines import pipeline_for
    from repro.fuzz import generate_validated
    from repro.ir.lower import lower_program
    from repro.passes.base import PassManager

    program = generate_validated(seed=7)
    module = lower_program(program, resolve(program))
    pipeline = pipeline_for("gcc", "O2", version_index=4)  # trunk
    manager = PassManager(pipeline, disabled=("tree-ccp",))  # -fno-...
    report = manager.run(module, level="O2", family="gcc")
    print(report.applied, report.skipped_disabled)

A new pass subclasses :class:`Pass`, overrides ``run`` (or the
per-function hook it calls), asks ``ctx.fires`` before dropping any
debug provision, and is added to the family's pipeline in
:mod:`repro.compilers.pipelines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bugs.defects import NullHooks
from ..ir.clone import clone_module
from ..ir.module import Function, Module
from ..ir.verify import verify_module


@dataclass
class PassContext:
    """Shared state handed to every pass invocation."""

    module: Module
    hooks: object = field(default_factory=NullHooks)
    level: str = "O0"
    family: str = "generic"
    verify: bool = False
    #: passes applied so far (pass names, in order)
    applied: List[str] = field(default_factory=list)

    def may_fire(self, point: str) -> bool:
        """False when no query at ``point`` can answer True, so a pass
        may skip the work of posing it.  Hooks without ``may_fire`` are
        asked every query."""
        may_fire = getattr(self.hooks, "may_fire", None)
        return may_fire is None or may_fire(point)

    def fires(self, point: str, **info) -> bool:
        """True if an active defect intercepts this debug provision."""
        return self.hooks.fires(point, level=self.level,
                                family=self.family, **info)


class Pass:
    """Base class for optimization passes."""

    #: canonical pass name: flag name (gcc side) / pass label (clang side)
    name = "pass"

    def run(self, ctx: PassContext) -> bool:
        """Transform the module; return True if anything changed."""
        changed = False
        for fn in list(ctx.module.functions.values()):
            if self.run_on_function(fn, ctx):
                changed = True
        return changed

    def run_on_function(self, fn: Function, ctx: PassContext) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<pass {self.name}>"


@dataclass
class PipelineReport:
    """What the pass manager actually did."""

    applied: List[str] = field(default_factory=list)
    skipped_disabled: List[str] = field(default_factory=list)
    skipped_bisect: List[str] = field(default_factory=list)
    changes: Dict[str, bool] = field(default_factory=dict)

    def copy(self) -> "PipelineReport":
        return PipelineReport(list(self.applied),
                              list(self.skipped_disabled),
                              list(self.skipped_bisect), dict(self.changes))


@dataclass
class PipelineCheckpoint:
    """A pipeline run's state just before the pass at ``index``.

    A pass is deterministic given its input module and the answers its
    ``ctx.fires`` queries get, so a run that resumes here — on
    ``module``, with the report prefix and the hooks' fired records so
    far — behaves exactly like one that ran the first ``index`` passes
    itself.  A checkpoint is resumed at most once: the resumed run
    mutates ``module`` in place.
    """

    index: int
    module: Module
    report: PipelineReport
    #: the hooks' fired records before ``index`` (hooks that record
    #: firings keep them in ``fired``)
    fired: list


class PassManager:
    """Runs a pass pipeline with flag / bisect / defect support."""

    def __init__(self, passes: Sequence[Pass],
                 disabled: Optional[Sequence[str]] = None,
                 bisect_limit: Optional[int] = None,
                 verify: bool = False):
        self.passes = list(passes)
        self.disabled = set(disabled or ())
        self.bisect_limit = bisect_limit
        self.verify = verify

    def run(self, module: Module, hooks=None, level: str = "O2",
            family: str = "generic",
            resume: Optional[PipelineCheckpoint] = None) -> PipelineReport:
        """Run the pipeline over ``module`` in place.

        With ``resume`` (a checkpoint of this pipeline whose module is
        ``module``) the run starts at the checkpoint's pass with its
        report prefix and the hooks' fired records restored.
        """
        report = resume.report.copy() if resume is not None \
            else PipelineReport()
        ctx = self._context(module, hooks, level, family, report)
        start = 0
        if resume is not None:
            ctx.hooks.fired = list(resume.fired)
            start = resume.index
        self._run_span(ctx, report, start, len(self.passes))
        return report

    def checkpoints(self, module: Module, hooks=None, level: str = "O2",
                    family: str = "generic",
                    before: Sequence[int] = ()
                    ) -> Dict[int, PipelineCheckpoint]:
        """Run the pipeline over ``module`` only as far as the largest
        index in ``before``, checkpointing the state before each of
        those passes (each checkpoint holds its own module clone)."""
        report = PipelineReport()
        ctx = self._context(module, hooks, level, family, report)
        out: Dict[int, PipelineCheckpoint] = {}
        index = 0
        for stop in sorted(set(before)):
            self._run_span(ctx, report, index, stop)
            index = stop
            out[stop] = PipelineCheckpoint(
                index=stop, module=clone_module(module),
                report=report.copy(),
                fired=list(getattr(ctx.hooks, "fired", ())))
        return out

    def _context(self, module: Module, hooks, level: str, family: str,
                 report: PipelineReport) -> PassContext:
        return PassContext(module=module,
                           hooks=hooks if hooks is not None else NullHooks(),
                           level=level, family=family, verify=self.verify,
                           applied=list(report.applied))

    def _run_span(self, ctx: PassContext, report: PipelineReport,
                  start: int, stop: int) -> None:
        count = len(report.applied)
        for opt_pass in self.passes[start:stop]:
            if opt_pass.name in self.disabled:
                report.skipped_disabled.append(opt_pass.name)
                continue
            if self.bisect_limit is not None and count >= self.bisect_limit:
                report.skipped_bisect.append(opt_pass.name)
                continue
            count += 1
            changed = opt_pass.run(ctx)
            ctx.applied.append(opt_pass.name)
            report.applied.append(opt_pass.name)
            report.changes[opt_pass.name] = bool(changed)
            if self.verify:
                verify_module(ctx.module)

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]
