"""Defect model: injected compiler implementation defects.

The paper *finds* latent defects in gcc and clang; a simulation must
*contain* defects for the methodology to find. Each :class:`Defect`
names a **hook point** — a specific debug-information provision inside an
optimization pass or codegen (see the pass docstrings) — plus activation
conditions: compiler family, version window, optimization levels, and an
optional deterministic selector over the hook context (used both to model
pattern-specific bugs and to calibrate firing rates).

Defects are *data*: version configurations list which are active, the
"patched"/"trunk*" configurations of the regression study are plain
version entries with one defect's ``fixed_in`` window closed, and triage
ground truth is the defect's ``pass_name``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def stable_hash(*parts: object) -> int:
    """Deterministic hash for selectors (process-independent)."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class Defect:
    """One injected implementation defect."""

    defect_id: str
    point: str
    family: str                 # "gcc" | "clang"
    pass_name: str              # triage ground truth (culprit flag/pass)
    levels: Optional[Tuple[str, ...]] = None  # None = all optimized levels
    introduced: int = 0         # first version index where present
    fixed_in: Optional[int] = None  # version index where fixed
    selector: Optional[Callable[[Dict], bool]] = None
    description: str = ""

    def active_in_version(self, version_index: int) -> bool:
        if version_index < self.introduced:
            return False
        if self.fixed_in is not None and version_index >= self.fixed_in:
            return False
        return True

    def active_at_level(self, level: str) -> bool:
        if level == "O0":
            return False
        return self.levels is None or level in self.levels

    def matches(self, ctx: Dict) -> bool:
        if self.selector is None:
            return True
        try:
            return bool(self.selector(ctx))
        except Exception:
            return False

    def __repr__(self) -> str:
        return f"Defect({self.defect_id} @ {self.point})"


@dataclass
class FiredDefect:
    """A record of one defect firing during compilation."""

    defect: Defect
    point: str
    context: Dict = field(default_factory=dict)


class NullHooks:
    """No active defects (``-O0``, a defect-free build, or a bare
    :class:`~repro.passes.base.PassManager` run)."""

    def may_fire(self, point: str) -> bool:
        return False

    def fires(self, point: str, **ctx) -> bool:
        return False


def _stamp(hooks, ctx: Dict) -> Dict:
    """Complete a query's context with the compile-wide fields every
    selector may key on."""
    ctx.setdefault("level", hooks.level)
    ctx.setdefault("family", hooks.family)
    ctx["program"] = hooks.program_token
    ctx["applied"] = hooks.applied_passes
    return ctx


class DefectHooks:
    """The hook object passes and codegen consult.

    Instantiated per compilation with the defects active for the chosen
    (family, version, level). Records every firing so analyses can map a
    violation back to the defect that produced it.

    Defects are grouped by hook point, in catalog order, so a query at a
    point no active defect hosts answers ``False`` before it builds a
    context, and :meth:`may_fire` lets a caller skip the query (and
    whatever it would take to pose it) altogether.  Within a point the
    first matching defect still wins.
    """

    def __init__(self, defects: Sequence[Defect], family: str, level: str,
                 version_index: int):
        self.family = family
        self.level = level
        self.version_index = version_index
        self.defects = [
            d for d in defects
            if d.family == family and d.active_in_version(version_index)
            and d.active_at_level(level)
        ]
        self._by_point: Dict[str, List[Defect]] = {}
        for defect in self.defects:
            self._by_point.setdefault(defect.point, []).append(defect)
        self.fired: List[FiredDefect] = []
        #: names of passes the pipeline actually ran (set by the compiler
        #: before codegen; lets codegen-stage defects depend on passes, so
        #: flag-based triage can still find a culprit)
        self.applied_passes: List[str] = []
        #: stable per-program token (set by the compiler) so selector
        #: sampling varies across test programs, not only across names
        self.program_token: str = ""

    def may_fire(self, point: str) -> bool:
        """False when no query at ``point`` can answer ``True``."""
        return point in self._by_point

    def fires(self, point: str, **ctx) -> bool:
        candidates = self._by_point.get(point)
        if candidates is None:
            return False
        _stamp(self, ctx)
        for defect in candidates:
            if not defect.matches(ctx):
                continue
            self.fired.append(FiredDefect(defect, point, dict(ctx)))
            return True
        return False

    def fired_defect_ids(self) -> List[str]:
        seen = []
        for record in self.fired:
            if record.defect.defect_id not in seen:
                seen.append(record.defect.defect_id)
        return seen


class QueryLog:
    """Hooks that record instead of fire.

    Every query is appended to ``queries`` as ``(point, context)`` and
    answered ``False``, so the compile is the defect-free one; a
    compile with a single defect active runs exactly like it until that
    defect first answers ``True``, so the log answers every
    single-defect firing question at once.  :meth:`may_fire` is always
    ``True``: no caller may skip a query the log must see.
    """

    def __init__(self, family: str, level: str,
                 queries: List[Tuple[str, Dict]]):
        self.family = family
        self.level = level
        self.queries = queries
        self.fired: List[FiredDefect] = []
        self.applied_passes: List[str] = []
        self.program_token: str = ""

    def may_fire(self, point: str) -> bool:
        return True

    def fires(self, point: str, **ctx) -> bool:
        self.queries.append((point, _stamp(self, ctx)))
        return False

    def fired_defect_ids(self) -> List[str]:
        return []


def rate_selector(key_fields: Sequence[str], modulo: int,
                  residue: int = 0) -> Callable[[Dict], bool]:
    """A deterministic sampling selector: fires for roughly 1/modulo of
    the contexts, keyed on the per-program token plus the given fields."""

    def selector(ctx: Dict) -> bool:
        parts = [ctx.get("program", "")]
        parts.extend(ctx.get(k, "") for k in key_fields)
        return stable_hash(*parts) % modulo == residue

    return selector


def level_rate_selector(key_fields: Sequence[str],
                        rates: Dict[str, int],
                        default: Optional[int] = None
                        ) -> Callable[[Dict], bool]:
    """Like :func:`rate_selector` but with a per-level modulo, used when
    a defect is much rarer at some levels (e.g. gcc 105158 at -Og)."""

    def selector(ctx: Dict) -> bool:
        modulo = rates.get(ctx.get("level"), default)
        if modulo is None:
            return False
        parts = [ctx.get("program", ""), ctx.get("level", "")]
        parts.extend(ctx.get(k, "") for k in key_fields)
        return stable_hash(*parts) % modulo == 0

    return selector


def requires_pass(pass_name: str) -> Callable[[Dict], bool]:
    """Selector: the defect manifests only if ``pass_name`` ran (used by
    codegen-stage defects so triage can attribute them to a flag)."""

    def selector(ctx: Dict) -> bool:
        return pass_name in ctx.get("applied", ())

    return selector


def all_of(*selectors: Callable[[Dict], bool]) -> Callable[[Dict], bool]:
    """Conjunction of selectors."""

    def selector(ctx: Dict) -> bool:
        return all(s(ctx) for s in selectors)

    return selector
