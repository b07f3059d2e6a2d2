"""Version-axis probing and boundary search for one witness program.

The paper's Table 4 / Figure 1 story is about defects appearing and
disappearing across compiler releases; a campaign only *observes*
per-version cells.  This module answers the regression question — which
version introduced (and which fixed) the defect behind a witness — with
backend-only probes over the family's release axis:

* :class:`VersionProber` compiles one seed's lowered module at any
  ``(version, level)`` through :meth:`~repro.compilers.compiler.Compiler
  .compile_ir`, reusing the witness's
  :class:`~repro.compilers.frontend.FrontendSession` so the frontend
  (generate → parse → resolve → lower) is paid once per seed.  Verdicts
  are memoized by ``(module_fingerprint, version)`` per level.  Two
  probe kinds: *full* probes run the version's whole defect catalog (a
  realistic compile — the discovery signal), while *isolated* probes
  ask whether one defect fires with every other defect disabled, so the
  firing question a boundary search asks is free of cross-defect
  interference (an active defect mutates debug info, which can mask or
  expose another defect's hook downstream — full-compile windows would
  then depend on which *other* defects each version carries, not on the
  defect under bisection).  Isolated probes compile nothing of their
  own: they read the defect-free compile's hook-query log, one per
  ``(level, pipeline)`` (see :meth:`VersionProber.isolated_fired`).
* :func:`bisect_defect` binary-searches the observed firing window's
  two boundaries around a known-bad anchor version, segment-scanning
  for an anchor first when none is known (the non-monotone case: a
  historical defect both introduced after version 0 *and* fixed before
  trunk fires in a middle segment the anchorless search must locate
  before it can bisect).
* :func:`pass_support` / :func:`expected_window` derive the catalog
  ground truth the differential suite (``tests/test_bisect.py``)
  checks bisected windows against: a defect's
  ``introduced``/``fixed_in`` window clipped to the versions whose
  pipeline actually schedules its host pass (old gcc had no
  ``tree-vrp``, so a VRP defect cannot be observed — or exist — before
  the pass did).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bugs.catalog import CLANG_VERSIONS, GCC_VERSIONS
from ..bugs.defects import Defect
from ..compilers.compiler import Compiler
from ..compilers.frontend import FrontendSession
from ..compilers.pipelines import (CLANG_LEVEL_ALIASES, CLANG_LEVELS,
                                   GCC_LEVELS, pipeline_for,
                                   pipeline_identity)


def family_versions(family: str) -> Tuple[str, ...]:
    """The family's release axis, oldest first (index = version axis)."""
    if family == "gcc":
        return GCC_VERSIONS
    if family == "clang":
        return CLANG_VERSIONS
    raise ValueError(f"unknown compiler family {family!r}")


def _normalize_level(family: str, level: str) -> str:
    if family == "clang":
        return CLANG_LEVEL_ALIASES.get(level, level)
    return level


@lru_cache(maxsize=None)
def pass_support(family: str, level: str,
                 pass_name: str) -> Tuple[int, ...]:
    """Version indices whose ``level`` pipeline schedules ``pass_name``.

    This is the *support axis* a defect can be observed on: a defect
    hosted in a pass the version does not run cannot fire there, no
    matter what its catalog window says.  A pass name no pipeline of
    the family ever schedules is not a pass at all but a hook stage
    (``codegen`` hooks fire at link time) gated by selectors instead —
    those are supported everywhere.  A real pass scheduled only at
    *other* levels (gcc runs ``unroll`` at -O3/-Oz, never -O2) makes
    the defect unobservable at this level: empty support.
    """
    level = _normalize_level(family, level)
    versions = family_versions(family)
    if level == "O0":  # no pipeline runs; defects never fire at O0
        return tuple(range(len(versions)))
    scheduled = [
        {p.name for p in pipeline_for(family, level, index)}
        for index in range(len(versions))
    ]
    if not any(pass_name in names for names in scheduled):
        if _is_pipeline_pass(family, pass_name):
            return ()
        return tuple(range(len(versions)))
    return tuple(index for index, names in enumerate(scheduled)
                 if pass_name in names)


@lru_cache(maxsize=None)
def _is_pipeline_pass(family: str, pass_name: str) -> bool:
    """Whether any (level, version) pipeline of the family schedules
    ``pass_name`` — i.e. the name denotes a real pass rather than a
    non-pipeline hook stage."""
    levels = GCC_LEVELS if family == "gcc" else CLANG_LEVELS
    versions = family_versions(family)
    return any(
        pass_name in {p.name for p in pipeline_for(family, level, index)}
        for level in levels if level != "O0"
        for index in range(len(versions)))


@dataclass(frozen=True)
class ProbeVerdict:
    """What one backend compile at ``(version, level)`` observed."""

    #: Distinct ids of injected defects that fired, first-fire order.
    fired: Tuple[str, ...]
    #: Pass names the pipeline actually applied.
    applied: Tuple[str, ...]

    def fires(self, defect_id: str) -> bool:
        return defect_id in self.fired


class VersionProber:
    """Backend-only probe cache for one witness program.

    The frontend runs once (the shared :class:`FrontendSession`); each
    compile clones the lowered module and runs only the version's
    optimization pipeline + codegen.  Full verdicts are memoized by
    ``(module_fingerprint, version)`` per level — the session is one
    module, so the in-memory key is ``(version index, level)`` — and
    answer the firing question for every defect at once.  Isolated
    verdicts (:meth:`isolated_fired`) are read off one defect-free
    compile per ``(level, pipeline identity)``, whose log of hook
    queries answers the single-defect question for every defect and
    every version running that pipeline; they memoize per defect on
    top.  Over the prober's lifetime every consult counts once: as a
    probe when it ran a backend compile, as a memo hit when it did not
    (a cached verdict or log, or a defect inactive at the version).
    """

    def __init__(self, family: str, seed: int,
                 session: Optional[FrontendSession] = None):
        self.family = family
        self.seed = seed
        self.session = session if session is not None \
            else FrontendSession(seed)
        self.versions = family_versions(family)
        self._verdicts: dict = {}
        self._isolated: dict = {}
        self._logs: dict = {}
        self.probes = 0
        self.memo_hits = 0

    @property
    def fingerprint(self) -> str:
        """The probed module's fingerprint (half the memo key)."""
        return self.session.fingerprint

    def _compile(self, version_index: int, level: str,
                 query_log: Optional[list] = None):
        compiler = Compiler(self.family, self.versions[version_index])
        return compiler.compile_ir(
            self.session.ir_module(), level,
            program_token=self.session.program_token, query_log=query_log)

    def verdict(self, version_index: int, level: str) -> ProbeVerdict:
        """The full-catalog probe: what a real compile at this version
        fires (the discovery signal)."""
        key = (version_index, level)
        cached = self._verdicts.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        compilation = self._compile(version_index, level)
        verdict = ProbeVerdict(
            fired=tuple(compilation.fired_defects()),
            applied=tuple(compilation.report.applied))
        self._verdicts[key] = verdict
        self.probes += 1
        return verdict

    def _query_log(self, version_index: int,
                   level: str) -> Dict[str, List[dict]]:
        """The defect-free compile's hook queries at this version,
        grouped by point; shared by every version whose pipeline at
        ``level`` is the same."""
        pipeline = pipeline_for(self.family, level, version_index)
        key = (level, pipeline_identity(pipeline))
        log = self._logs.get(key)
        if log is not None:
            self.memo_hits += 1
            return log
        queries: list = []
        self._compile(version_index, level, query_log=queries)
        log = {}
        for point, ctx in queries:
            log.setdefault(point, []).append(ctx)
        self._logs[key] = log
        self.probes += 1
        return log

    def isolated_fired(self, version_index: int, level: str,
                       defect: Defect) -> bool:
        """The single-defect probe: does ``defect`` fire at this
        version with every *other* defect disabled?  This is the
        boundary-search predicate — interference-free, so the observed
        window is a property of the defect alone and comparable to its
        catalog ``introduced``/``fixed_in`` claim.

        It is answered from the defect-free compile's query log, not by
        a compile of its own: until the defect first answers ``True``, a
        compile with only it active *is* the defect-free compile.  So
        it fires iff it is active at ``(version, level)`` and its
        selector matches some query the log holds at its point.
        """
        key = (version_index, level, defect.defect_id)
        if key in self._isolated:
            self.memo_hits += 1
            return self._isolated[key]
        level = _normalize_level(self.family, level)
        if (defect.family == self.family
                and defect.active_in_version(version_index)
                and defect.active_at_level(level)):
            fired = any(defect.matches(ctx) for ctx in self._query_log(
                version_index, level).get(defect.point, ()))
        else:
            self.memo_hits += 1
            fired = False
        self._isolated[key] = fired
        return fired

    def fired_at(self, version_index: int, level: str,
                 defect_id: str) -> bool:
        return self.verdict(version_index, level).fires(defect_id)

    def __repr__(self) -> str:
        return (f"VersionProber({self.family!r}, seed={self.seed}, "
                f"probes={self.probes}, memo_hits={self.memo_hits})")


@dataclass(frozen=True)
class BisectOutcome:
    """One defect's bisected window over the version axis.

    ``first_bad``/``fixed_in`` carry the catalog's semantics:
    ``first_bad`` is the earliest supported version the defect fired
    at, ``last_good`` the latest supported version *before* it with no
    firing (``None`` when the defect is as old as its pass),
    ``fixed_in`` the earliest supported version after the window where
    it no longer fires (``None`` when it still fires at the end of the
    axis).  All three are ``None`` when the defect never fired on the
    support axis.
    """

    first_bad: Optional[int] = None
    last_good: Optional[int] = None
    fixed_in: Optional[int] = None
    #: Distinct version indices the search consulted, probe order.
    consulted: Tuple[int, ...] = ()


def bisect_defect(fires: Callable[[int], bool],
                  supported: Sequence[int],
                  anchor: Optional[int] = None) -> BisectOutcome:
    """Find one defect's firing window over the supported version axis.

    ``fires(version_index)`` is the (memoized) probe predicate;
    ``supported`` the sorted version indices the defect is observable
    on; ``anchor`` a version index *believed* to fire — the witness
    version for defects taken from a campaign record.  The anchor is
    verified with one probe: an anchor the predicate disowns (a
    full-compile firing that does not reproduce under the predicate —
    e.g. an isolated probe of a defect only ever exposed by another
    defect's interference) falls back to the anchorless path.  Without
    an anchor the axis is segment-scanned oldest-first until a firing
    version is found (the non-monotone case: a window strictly inside
    the axis has good versions on *both* sides, so no boundary search
    can start until a bad segment is located).

    Catalog windows are intervals, so within the support axis the
    firing set is contiguous around the anchor; each boundary is then a
    monotone predicate and binary-searches in ``ceil(log2(V))`` probes.
    """
    positions = list(supported)
    consulted: list = []

    def probe(version_index: int) -> bool:
        if version_index not in consulted:
            consulted.append(version_index)
        return fires(version_index)

    if anchor is not None and not probe(anchor):
        anchor = None
    if anchor is None:
        for version_index in positions:  # segment scan
            if probe(version_index):
                anchor = version_index
                break
        else:
            return BisectOutcome(consulted=tuple(consulted))
    known_bad = positions.index(anchor)

    low, high = -1, known_bad  # low is good (virtual), high is bad
    while high - low > 1:
        mid = (low + high) // 2
        if probe(positions[mid]):
            high = mid
        else:
            low = mid
    first_bad = positions[high]
    last_good = positions[low] if low >= 0 else None

    low, high = known_bad, len(positions)  # low bad, high fixed (virtual)
    while high - low > 1:
        mid = (low + high) // 2
        if probe(positions[mid]):
            low = mid
        else:
            high = mid
    fixed_in = positions[high] if high < len(positions) else None
    return BisectOutcome(first_bad=first_bad, last_good=last_good,
                         fixed_in=fixed_in, consulted=tuple(consulted))


def expected_window(defect: Defect, family: str,
                    level: str) -> BisectOutcome:
    """The catalog-ground-truth window bisection must reproduce.

    The defect's ``introduced``/``fixed_in`` activity window clipped to
    its :func:`pass_support` axis at ``level`` — what a correct
    bisection observes, derived without a single compile.  The
    differential suite asserts :func:`bisect_defect` output equals this
    for every fired defect.
    """
    supported = pass_support(family, level, defect.pass_name)
    if not defect.active_at_level(_normalize_level(family, level)):
        return BisectOutcome()
    active = [index for index in supported
              if defect.active_in_version(index)]
    if not active:
        return BisectOutcome()
    first_bad = active[0]
    earlier = [index for index in supported if index < first_bad]
    later = [index for index in supported if index > active[-1]]
    return BisectOutcome(
        first_bad=first_bad,
        last_good=earlier[-1] if earlier else None,
        fixed_in=later[0] if later else None)
