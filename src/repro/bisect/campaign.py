"""Bisection campaigns: version-axis regression ranges for every witness.

:func:`run_bisect_campaign` closes the regression loop over a stored
``repro-campaign/1`` artifact: for every witness (the same deterministic
enumeration reduction uses) it binary-searches the family's version axis
for each fired defect's first-bad / last-good / fixed-in version, using
one :class:`~repro.bisect.core.VersionProber` per seed so every probe is
backend-only and shared by all of the seed's witnesses and defects.  The
outcomes aggregate into a :class:`BisectCampaignResult` — the
``repro-bisect/1`` artifact, mergeable shard-wise like every other
campaign result, renderable by ``repro-report bisect``, and resumable
through the store's ``results`` table (each witness's row is keyed by
its witness fingerprint, so a resumed run replays finished witnesses
with zero recompiles).

Determinism contract: every recorded value — windows, per-record probe
counts, and the ``consults``/``probes``/``memo_hits`` accounting — is
derived from the *witness's own* probe consultations, never from live
cache warmth, so fresh, resumed, serial, and sharded runs produce
bit-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..bugs.catalog import defects_for_family
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..pipeline.campaign import CampaignResult
from ..pipeline.reduction import witness_units
from ..pipeline.results import FieldRecord, WitnessResult, seed_positions
from ..pipeline.units import (
    Cell, Unit, Workload, run_units, stored_fingerprint,
)
from .core import (
    BisectOutcome, VersionProber, bisect_defect, family_versions,
    pass_support,
)

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
BISECT_SCHEMA = "repro-bisect/1"


def witness_fingerprint(module_fingerprint: str, level: str,
                        conjecture: str, variable: str) -> str:
    """The store key for one witness's bisection row.

    Keyed by the lowered module's content digest (not the seed), so a
    generator change that alters the program invalidates the stored
    bisection instead of silently replaying a stale one.
    """
    payload = json.dumps(
        {"conjecture": conjecture, "level": level,
         "module": module_fingerprint, "variable": variable},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def witness_payload(seed: int, level: str, conjecture: str,
                    variable: str, records: Iterable["BisectRecord"]
                    ) -> Dict[str, object]:
    """One witness's stored row: its identity and its records."""
    return {"witness": {"seed": seed, "level": level,
                        "conjecture": conjecture, "variable": variable},
            "records": [record.to_dict() for record in records]}


@dataclass
class BisectRecord(FieldRecord):
    """One defect's bisected window for one witness.

    ``last_good``/``first_bad``/``fixed_in`` are the *observed* window
    (version indices into the family axis; all three ``None`` when the
    defect never fired on its support axis), while ``introduced`` /
    ``catalog_fixed_in`` carry the catalog's static claim — the
    regression table cross-references the two.  ``supported`` is the
    version support axis the search ran over (see
    :func:`~repro.bisect.core.pass_support`); ``probes`` the distinct
    versions this defect's search consulted.
    """

    SCHEMA = BISECT_SCHEMA

    seed: int
    level: str
    conjecture: str
    variable: str
    defect: str
    origin: str                     # "witness" | "probe"
    last_good: Optional[int]
    first_bad: Optional[int]
    fixed_in: Optional[int]
    introduced: int
    catalog_fixed_in: Optional[int]
    supported: List[int]
    probes: int

    @property
    def fired(self) -> bool:
        """Whether the defect fired anywhere on its support axis."""
        return self.first_bad is not None

    def witness_key(self) -> Tuple[int, str, str, str, str]:
        """The (witness, defect) identity shard merges must keep
        disjoint — one bisected window per defect per witness."""
        return (self.seed, self.level, self.conjecture, self.variable,
                self.defect)


@dataclass
class BisectCampaignResult(WitnessResult):
    """Every bisected witness of one campaign (``repro-bisect/1``).

    Identity is the anchor cell — the campaign's compiler — since
    windows bisected from different anchors are not comparable rows of
    one table.
    """

    SCHEMA = BISECT_SCHEMA
    ITEM = BisectRecord

    family: str
    version: str
    pool_size: int = 0
    records: List[BisectRecord] = field(default_factory=list)
    #: probe accounting summed over witnesses: ``consults`` (firing
    #: questions asked), ``probes`` (distinct questions consulted: a
    #: version's full verdict or a (defect, version) isolated one),
    #: ``memo_hits`` (consults repeating a question already asked).
    stats: Dict[str, int] = field(default_factory=dict)
    #: Contained per-witness failures (see repro.faults); omitted from
    #: the serialized artifact when empty for byte-compatibility.
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def witnesses(self) -> int:
        """Distinct witnesses bisected (each may carry several records)."""
        return len({(r.seed, r.level, r.conjecture, r.variable)
                    for r in self.records})

    def defects_seen(self) -> List[str]:
        """Distinct defect ids that fired, sorted."""
        return sorted({r.defect for r in self.records if r.fired})

    @classmethod
    def items_of(cls, payload: Dict[str, object]) -> List[BisectRecord]:
        return [BisectRecord.from_dict(record)
                for record in payload["records"]]

    def rows(self, store):
        """One row per witness, keyed like a live run's (the seed's
        module is lowered here when the store has no digest for it)."""
        witnesses: Dict[Tuple[int, str, str, str], List] = {}
        for record in self.records:
            witnesses.setdefault(record.witness_key()[:4],
                                 []).append(record)
        positions = seed_positions(seed for seed, *_ in witnesses)
        for (witness, records), position in zip(witnesses.items(),
                                                positions):
            seed, level, conjecture, variable = witness
            key = witness_fingerprint(stored_fingerprint(store, seed),
                                      level, conjecture, variable)
            yield seed, key, position, witness_payload(*witness, records)


class _WitnessScope:
    """Per-witness probe accounting over the seed's shared prober.

    The prober's cache lives for the whole seed, but artifact values
    must not depend on which witness warmed it first — so each witness
    counts its *own* consultations (``consults``) and the distinct
    probes they imply (``full`` version verdicts plus ``isolated``
    per-defect verdicts), all functions of the witness alone.
    """

    def __init__(self, prober: VersionProber, level: str):
        self.prober = prober
        self.level = level
        self.consults = 0
        #: versions whose full-catalog verdict this witness consulted
        self.full: set = set()
        #: (defect id, version) single-defect verdicts consulted
        self.isolated: set = set()

    @property
    def touched(self) -> set:
        """Every version index this witness's searches looked at."""
        return self.full | {vi for _defect, vi in self.isolated}

    def fires(self, version_index: int, defect) -> bool:
        """The boundary-search predicate: one defect, in isolation."""
        self.consults += 1
        self.isolated.add((defect.defect_id, version_index))
        return self.prober.isolated_fired(version_index, self.level,
                                          defect)

    def fired_ids(self, version_index: int) -> Tuple[str, ...]:
        """Full-compile fired ids at a version (the discovery signal)."""
        self.consults += 1
        self.full.add(version_index)
        return self.prober.verdict(version_index, self.level).fired

    def stats(self) -> Dict[str, int]:
        probes = len(self.full) + len(self.isolated)
        return {
            "consults": self.consults,
            "probes": probes,
            "memo_hits": self.consults - probes,
        }


def _bisect_one(scope: _WitnessScope, family: str, level: str,
                defect, anchor: Optional[int]) -> Tuple[BisectOutcome,
                                                        Tuple[int, ...]]:
    """One defect's boundary search under a witness scope; falls back
    to the full axis when the anchor contradicts the support axis
    (inconsistent catalog metadata must widen the search, not crash)."""
    supported = pass_support(family, level, defect.pass_name)
    if anchor is not None and anchor not in supported:
        supported = tuple(range(len(family_versions(family))))
    outcome = bisect_defect(
        lambda vi: scope.fires(vi, defect), supported, anchor)
    return outcome, supported


def _bisect_witness(scope: _WitnessScope, family: str, seed: int,
                    level: str, conjecture: str, variable: str,
                    anchor: int, primary_ids: Iterable[str],
                    requested: Iterable[str], discover: bool,
                    catalog: Dict[str, object]) -> List[BisectRecord]:
    """All of one witness's bisection records, deterministic order:
    the campaign's fired-defect order, then requested defects, then
    probe-discovered defects (sorted, fixpoint over consulted
    versions)."""
    records: List[BisectRecord] = []
    done: set = set()

    def emit(defect, origin: str, search_anchor: Optional[int]) -> None:
        outcome, supported = _bisect_one(scope, family, level, defect,
                                         search_anchor)
        done.add(defect.defect_id)
        records.append(BisectRecord(
            seed=seed, level=level, conjecture=conjecture,
            variable=variable, defect=defect.defect_id, origin=origin,
            last_good=outcome.last_good, first_bad=outcome.first_bad,
            fixed_in=outcome.fixed_in, introduced=defect.introduced,
            catalog_fixed_in=defect.fixed_in,
            supported=list(supported), probes=len(outcome.consulted)))

    for defect_id in primary_ids:
        defect = catalog.get(defect_id)
        if defect is None or defect_id in done:  # stale artifact id
            continue
        emit(defect, "witness", anchor)
    for defect_id in requested:
        if defect_id in done:
            continue
        # No known-bad anchor for a requested defect: segment scan.
        emit(catalog[defect_id], "probe", None)
    while discover:
        # Full-compile every version the witness's searches touched
        # (at least the campaign's own anchor) and bisect whatever
        # cataloged defects fired there, to a fixpoint: bisecting a
        # discovered defect can touch new versions and surface more.
        fired_here = set()
        for version_index in sorted(scope.touched | {anchor}):
            fired_here.update(scope.fired_ids(version_index))
        fresh = sorted(defect_id for defect_id in fired_here
                       if defect_id not in done and defect_id in catalog)
        if not fresh:
            break
        for defect_id in fresh:
            defect = catalog[defect_id]
            supported = pass_support(family, level, defect.pass_name)
            known_bad = next(
                (vi for vi in sorted(scope.touched)
                 if vi in supported
                 and defect_id in scope.fired_ids(vi)), None)
            emit(defect, "probe", known_bad)
    return records


def bisect_workload(campaign: CampaignResult, limit: Optional[int] = None,
                    discover: bool = True,
                    defects: Iterable[str] = ()) -> Workload:
    """Bisection as :func:`~repro.pipeline.units.run_units` work: one
    unit per witness (:func:`~repro.pipeline.reduction.iter_witnesses`
    order, at most ``limit``), one ``family-version`` cell.

    With a store, each unit's row key is its
    :func:`witness_fingerprint`, so a generator change invalidates the
    stored bisection instead of silently replaying a stale one.
    """
    family, version = campaign.family, campaign.version
    versions = family_versions(family)
    if version not in versions:
        raise ValueError(
            f"campaign version {version!r} is not on the {family} "
            f"version axis {versions}")
    anchor = versions.index(version)
    requested = tuple(defects)
    catalog = {d.defect_id: d for d in defects_for_family(family)}
    unknown = [d for d in requested if d not in catalog]
    if unknown:
        raise ValueError(f"unknown {family} defect ids: "
                         f"{', '.join(unknown)}")
    programs = {p.seed: p for p in campaign.programs}
    name = f"{family}-{version}"
    cell = Cell(name, BISECT_SCHEMA, family, version)
    probers: Dict[int, VersionProber] = {}

    def prober_for(seed: int) -> VersionProber:
        # One prober per seed: witnesses of a seed are enumerated
        # contiguously, so only the current seed's cache is kept.
        if seed not in probers:
            probers.clear()
            probers[seed] = VersionProber(family, seed)
        return probers[seed]

    def units(store) -> Iterable[Unit]:
        for unit in witness_units(campaign, limit):
            if store is not None:
                level, violation = unit.subject
                module = stored_fingerprint(
                    store, unit.seed, prober_for(unit.seed).session)
                unit = replace(unit, key=witness_fingerprint(
                    module, level, violation.conjecture,
                    violation.variable))
            yield unit

    def evaluate(probe, unit, live):
        level, violation = unit.subject
        probe("generate")
        prober = prober_for(unit.seed)
        prober.session.program  # frontend, under "generate"
        probe("compile")
        scope = _WitnessScope(prober, level)
        records = _bisect_witness(
            scope, family, unit.seed, level, violation.conjecture,
            violation.variable, anchor,
            programs[unit.seed].fired.get(level, ()), requested,
            discover, catalog)
        payload = witness_payload(unit.seed, level, violation.conjecture,
                                  violation.variable, records)
        # Each witness carries its own probe-accounting slice (summed by
        # ``from_rows``).
        payload["stats"] = scope.stats()
        return None, {cell: payload}

    return Workload(
        name, [cell], units, evaluate,
        lambda outcome, store: BisectCampaignResult.from_rows(
            cell, outcome.payloads[cell], outcome.failures[cell],
            campaign.pool_size),
        run_attrs={"pool_size": campaign.pool_size})


def run_bisect_campaign(campaign: CampaignResult,
                        limit: Optional[int] = None,
                        discover: bool = True,
                        defects: Iterable[str] = (),
                        store=None,
                        faults: Optional[FaultPlan] = None,
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                        retry_failed: bool = True
                        ) -> BisectCampaignResult:
    """Bisect every witness of ``campaign`` over the version axis.

    For each witness the campaign's fired defects at the witness level
    are bisected around the campaign's version (a known-bad anchor — it
    is never re-probed), ``defects`` adds explicitly requested defect
    ids (segment-scanned, since no anchor is known for them), and
    ``discover=True`` additionally bisects any cataloged defect the
    witness's own probes saw fire (origin ``"probe"`` — this is how a
    trunk campaign still maps the historical defects of older
    releases).  ``limit`` bounds how many witnesses are processed.

    With a :class:`~repro.store.CampaignStore`, every finished witness
    (records plus its probe-accounting share) is written through keyed
    by witness fingerprint and replayed on the next run with zero
    recompiles.  Each witness is fault-contained independently;
    ``KeyboardInterrupt`` flushes the store before propagating.
    """
    return run_units(
        bisect_workload(campaign, limit=limit, discover=discover,
                        defects=defects),
        store=store, faults=faults, max_attempts=max_attempts,
        retry_failed=retry_failed)
