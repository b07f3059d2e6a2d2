"""The compiler driver.

``Compiler(family, version).compile(program, level, ...)`` runs the whole
toolchain: resolve -> lower -> optimization pipeline (with the version's
active defects hooked in) -> codegen/link. The result bundles everything
the testing pipeline needs: the executable with its debug information, the
pipeline report, and the record of which injected defects actually fired
(the ground truth that triage is later evaluated against).

Triage controls are first-class, mirroring Section 4.3:

* ``disabled`` — gcc-style ``-fno-<pass>`` boolean flags;
* ``bisect_limit`` — clang-style ``-mllvm -opt-bisect-limit=N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.symbols import SymbolTable, resolve
from ..bugs.catalog import (
    CLANG_VERSIONS, GCC_VERSIONS, defects_for_family,
)
from ..bugs.defects import Defect, DefectHooks, QueryLog
from ..ir.lower import lower_program
from ..ir.module import Module
from ..lang.ast_nodes import Program
from ..passes.base import PassManager, PipelineCheckpoint, PipelineReport
from ..target.codegen import link
from ..target.isa import Executable
from .pipelines import (
    CLANG_LEVEL_ALIASES, CLANG_LEVELS, GCC_LEVELS, boolean_flags,
    pipeline_for,
)


class UnknownVersionError(ValueError):
    """Raised for a version name outside the family's release list."""


@dataclass(frozen=True)
class CompilerSpec:
    """A picklable recipe for rebuilding a :class:`Compiler`.

    Sharded campaign workers (``spawn`` start method) cannot receive live
    ``Compiler`` objects — the defect catalog carries selector closures —
    so they receive this spec and rebuild the compiler from the catalog.
    Only catalog-configured compilers are representable; a compiler whose
    ``defects`` list was hand-edited refuses to produce a spec.
    """

    family: str = "gcc"
    version: str = "trunk"
    verify: bool = False

    def build(self) -> "Compiler":
        return Compiler(self.family, self.version, verify=self.verify)


def _program_token(program: Program) -> str:
    """A stable, structure-derived identity for selector sampling."""
    from ..lang.ast_nodes import walk_stmt
    count = 0
    acc = 0
    for fn in program.functions:
        for stmt in walk_stmt(fn.body):
            count += 1
            acc = (acc * 31 + stmt.line) & 0xFFFFFFFF
    return f"{len(program.globals)}g{count}s{acc:x}"


@dataclass
class Compilation:
    """Everything produced by one compilation."""

    family: str
    version: str
    level: str
    module: Module
    exe: Executable
    report: PipelineReport = field(default_factory=PipelineReport)
    hooks: Optional[DefectHooks] = None

    def fired_defects(self) -> List[str]:
        """Distinct ids of injected defects that fired."""
        return self.hooks.fired_defect_ids() if self.hooks else []


class Compiler:
    """One (family, version) compiler instance."""

    def __init__(self, family: str = "gcc", version: str = "trunk",
                 verify: bool = False,
                 extra_defects: Sequence[Defect] = ()):
        if family not in ("gcc", "clang"):
            raise ValueError(f"unknown compiler family {family!r}")
        self.family = family
        self.version = version
        self.verify = verify
        versions = GCC_VERSIONS if family == "gcc" else CLANG_VERSIONS
        if version not in versions:
            raise UnknownVersionError(
                f"{family} has no version {version!r}; "
                f"known: {', '.join(versions)}")
        self.version_index = versions.index(version)
        self.defects = list(defects_for_family(family)) + \
            list(extra_defects)

    # -- introspection ------------------------------------------------------

    def spec(self) -> CompilerSpec:
        """The picklable construction spec, if one can reproduce us."""
        if self.defects != list(defects_for_family(self.family)):
            raise ValueError(
                "compiler carries a customized defect list; only "
                "catalog-configured compilers have a picklable spec")
        return CompilerSpec(family=self.family, version=self.version,
                            verify=self.verify)

    @property
    def levels(self) -> Sequence[str]:
        return GCC_LEVELS if self.family == "gcc" else CLANG_LEVELS

    def normalize_level(self, level: str) -> str:
        if self.family == "clang":
            return CLANG_LEVEL_ALIASES.get(level, level)
        return level

    def flags(self, level: str) -> List[str]:
        """Boolean optimization flags available at ``level``."""
        return boolean_flags(self.family, self.normalize_level(level),
                             self.version_index)

    def pass_sequence(self, level: str) -> List[str]:
        """Ordered pass instances (the bisect search space)."""
        return [p.name for p in pipeline_for(
            self.family, self.normalize_level(level), self.version_index)]

    @property
    def native_debugger_name(self) -> str:
        return "gdb-like" if self.family == "gcc" else "lldb-like"

    # -- compilation ----------------------------------------------------------

    def compile(self, program: Program, level: str = "O2",
                symtab: Optional[SymbolTable] = None,
                disabled: Sequence[str] = (),
                bisect_limit: Optional[int] = None) -> Compilation:
        """Compile ``program`` at ``level`` and link an executable."""
        level = self._checked_level(level)  # fail fast, before lowering
        if symtab is None:
            symtab = resolve(program)
        module = lower_program(program, symtab)
        return self.compile_ir(module, level,
                               program_token=_program_token(program),
                               disabled=disabled,
                               bisect_limit=bisect_limit)

    def compile_ir(self, module: Optional[Module] = None,
                   level: str = "O2",
                   program_token: str = "",
                   disabled: Sequence[str] = (),
                   bisect_limit: Optional[int] = None,
                   resume: Optional[PipelineCheckpoint] = None,
                   query_log: Optional[List[Tuple[str, Dict]]] = None
                   ) -> Compilation:
        """Run the backend only: optimization pipeline + codegen/link.

        ``module`` is a freshly lowered (or freshly cloned — see
        :func:`~repro.ir.clone.clone_module`) ``-O0``-shaped IR module;
        it is mutated in place.  ``program_token`` must be the source
        program's :func:`_program_token` so defect selectors sample the
        same way they would on the full :meth:`compile` path — the
        compile-once matrix driver computes it once per program and
        reuses it for every cell.

        ``resume`` is a :meth:`checkpoints` entry for this ``level``,
        given in place of ``module``: the pipeline runs on the
        checkpoint's module and picks up at its pass, with its report
        prefix and fired records, as if it had run the passes before it
        itself.  With a ``query_log`` the compile is the defect-free
        one, and every defect-hook query it makes is appended to the log
        as ``(point, context)`` — passes and codegen included (see
        :class:`~repro.bugs.defects.QueryLog`).
        """
        level = self._checked_level(level)
        if resume is not None:
            module = resume.module
        hooks = self._hooks(level, program_token, query_log)
        report = PipelineReport()
        if level != "O0":
            report = self._manager(level, disabled, bisect_limit).run(
                module, hooks=hooks, level=level, family=self.family,
                resume=resume)
            hooks.applied_passes = report.applied
        exe = link(module, hooks=hooks if level != "O0" else None)
        return Compilation(
            family=self.family, version=self.version, level=level,
            module=module, exe=exe, report=report, hooks=hooks)

    def checkpoints(self, module: Module, level: str,
                    program_token: str = "",
                    before: Sequence[str] = ()
                    ) -> Dict[str, PipelineCheckpoint]:
        """Run ``level``'s default pipeline over ``module`` once, only as
        far as it must, and checkpoint it before the first instance of
        each pass named in ``before`` (a name the pipeline does not
        schedule gets none).

        Everything a ``-fno-<pass>`` compile runs before that pass's
        first instance is the default compile, so
        ``compile_ir(level=level, disabled=(name,), resume=cp)``
        equals a full compile with ``disabled=(name,)``.  ``module`` is
        mutated in place; each checkpoint holds its own clone.
        """
        level = self._checked_level(level)
        manager = self._manager(level, (), None)
        first: Dict[str, int] = {}
        for index, name in enumerate(manager.pass_names()):
            first.setdefault(name, index)
        wanted = {name: first[name] for name in before if name in first}
        taken = manager.checkpoints(
            module, hooks=self._hooks(level, program_token),
            level=level, family=self.family, before=wanted.values())
        return {name: taken[index] for name, index in wanted.items()}

    def _checked_level(self, level: str) -> str:
        level = self.normalize_level(level)
        if level not in self.levels:
            raise ValueError(f"{self.family} does not support -{level}")
        return level

    def _hooks(self, level: str, program_token: str,
               query_log: Optional[List[Tuple[str, Dict]]] = None):
        if query_log is not None:
            hooks = QueryLog(self.family, level, query_log)
        else:
            hooks = DefectHooks(self.defects, self.family, level,
                                self.version_index)
        hooks.program_token = program_token
        return hooks

    def _manager(self, level: str, disabled: Sequence[str],
                 bisect_limit: Optional[int]) -> PassManager:
        return PassManager(pipeline_for(self.family, level,
                                        self.version_index),
                           disabled=disabled, bisect_limit=bisect_limit,
                           verify=self.verify)


def default_compilers() -> List[Compiler]:
    """Trunk compilers of both families (the Section 5.1 configuration)."""
    return [Compiler("gcc", "trunk"), Compiler("clang", "trunk")]
