"""Artifact loading and the triage-summary artifact.

:func:`load_artifact` is the single entry point that turns any stored
repro JSON document back into its typed result — it sniffs the
``schema`` tag and dispatches to the owning class:

========================  =============================================
``repro-campaign/1``      :class:`~repro.pipeline.campaign.CampaignResult`
``repro-matrix/1``        :class:`~repro.pipeline.matrix.MatrixCampaignResult`
``repro-study/1``         :class:`~repro.metrics.study.StudyResult`
``repro-triage/1``        :class:`TriageSummary` (defined here)
``repro-reduce/1``        :class:`~repro.pipeline.reduction.ReductionCampaignResult`
``repro-verify/1``        :class:`~repro.staticcheck.campaign.VerifyCampaignResult`
``repro-bisect/1``        :class:`~repro.bisect.campaign.BisectCampaignResult`
========================  =============================================

Every schema is documented field by field in ``docs/ARTIFACTS.md``.

:class:`TriageSummary` is the aggregate Table 2 renders: culprit
optimization counts per conjecture, plus how many violations the method
triaged or failed on. It accumulates
:class:`~repro.triage.triage.TriageResult` values (``add``), merges
across shards like the campaign results (``merge``), and round-trips
through JSON (schema ``repro-triage/1``) so a triage run can be stored
next to its campaign artifact and re-rendered later.  Campaigns now
record the fired injected defects per compile, so a summary can also be
built from a stored campaign artifact without recompiling anything:
:meth:`TriageSummary.from_campaign`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Union

from ..bisect.campaign import BisectCampaignResult
from ..metrics.study import STUDY_SCHEMA, StudyResult
from ..pipeline.campaign import CampaignResult
from ..pipeline.matrix import MatrixCampaignResult
from ..pipeline.reduction import ReductionCampaignResult
from ..pipeline.results import result_types
from ..staticcheck.campaign import VerifyCampaignResult
from ..triage.triage import TriageResult

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
TRIAGE_SCHEMA = "repro-triage/1"


@dataclass
class TriageSummary:
    """Culprit counts per conjecture — the value behind Table 2."""

    family: str
    method: str                       # "flags" | "bisect"
    #: conjecture -> culprit pass/flag -> count
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    triaged: int = 0
    failed: int = 0

    def add(self, result: TriageResult) -> None:
        """Fold one :class:`TriageResult` into the summary."""
        if result.failed:
            self.failed += 1
            return
        self.triaged += 1
        per_conjecture = self.counts.setdefault(
            result.violation.conjecture, {})
        per_conjecture[result.culprit] = \
            per_conjecture.get(result.culprit, 0) + 1

    @classmethod
    def from_campaign(cls, campaign: CampaignResult) -> "TriageSummary":
        """Triage-at-campaign-scale without recompiling: attribute each
        unique violation to the injected defects recorded as fired at
        the first level (campaign order) it reproduced at.

        The campaign must carry per-level fired-defect ids
        (``ProgramResult.fired`` — recorded by every driver since the
        field was added; artifacts stored before then load with the
        field empty and every violation counts as a failure).  A level
        where several defects fired is attributed as one compound
        ``a+b`` culprit, keeping ``triaged`` equal to the violation
        count.  ``method`` is ``"defects"``.
        """
        summary = cls(family=campaign.family, method="defects")
        for program in campaign.programs:
            for key, levels in sorted(program.unique_keys().items()):
                conjecture = key[0]
                first_level = next(level for level in campaign.levels
                                   if level in levels)
                fired = program.fired_defects(first_level)
                if not fired:
                    summary.failed += 1
                    continue
                summary.triaged += 1
                culprit = "+".join(fired)
                per_conjecture = summary.counts.setdefault(conjecture, {})
                per_conjecture[culprit] = \
                    per_conjecture.get(culprit, 0) + 1
        return summary

    def merge(self, other: "TriageSummary") -> "TriageSummary":
        """Combine two shard summaries (same family and method)."""
        if (self.family, self.method) != (other.family, other.method):
            raise ValueError(
                f"cannot merge triage summaries of different runs: "
                f"{self.family}/{self.method} vs "
                f"{other.family}/{other.method}")
        merged = TriageSummary(
            family=self.family, method=self.method,
            triaged=self.triaged + other.triaged,
            failed=self.failed + other.failed)
        for source in (self.counts, other.counts):
            for conjecture, culprits in source.items():
                out = merged.counts.setdefault(conjecture, {})
                for culprit, count in culprits.items():
                    out[culprit] = out.get(culprit, 0) + count
        return merged

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRIAGE_SCHEMA,
            "family": self.family,
            "method": self.method,
            "triaged": self.triaged,
            "failed": self.failed,
            "counts": {conjecture: dict(sorted(culprits.items()))
                       for conjecture, culprits
                       in sorted(self.counts.items())},
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TriageSummary":
        schema = data.get("schema")
        if schema != TRIAGE_SCHEMA:
            raise ValueError(
                f"not a triage artifact: schema {schema!r} "
                f"(expected {TRIAGE_SCHEMA!r})")
        return cls(
            family=data["family"], method=data["method"],
            triaged=data["triaged"], failed=data["failed"],
            counts={conjecture: dict(culprits)
                    for conjecture, culprits in data["counts"].items()})

    @classmethod
    def from_json(cls, text: str) -> "TriageSummary":
        return cls.from_dict(json.loads(text))


#: Anything :func:`load_artifact` can give back.
Artifact = Union[CampaignResult, MatrixCampaignResult, StudyResult,
                 TriageSummary, ReductionCampaignResult,
                 VerifyCampaignResult, BisectCampaignResult]



def load_artifact(text: Union[str, Dict[str, object]]) -> Artifact:
    """Parse any repro artifact by its ``schema`` tag.

    Accepts the JSON text (or an already-parsed dict) of any schema in
    ``docs/ARTIFACTS.md`` and returns the matching typed result.
    """
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict):
        raise ValueError(f"not a repro artifact: {type(data).__name__} "
                         f"instead of a JSON object")
    schema = data.get("schema")
    types = {**result_types(), STUDY_SCHEMA: StudyResult,
             TRIAGE_SCHEMA: TriageSummary}
    if schema not in types:
        raise ValueError(
            f"unknown artifact schema {schema!r} "
            f"(known: {', '.join(sorted(types))})")
    return types[schema].from_dict(data)


#: First bytes of every sqlite3 database file — how artifact loading
#: tells a ``repro-db/2`` persistent store from a JSON document.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_store_file(path: str) -> bool:
    """True when ``path`` is a sqlite database — i.e. a ``repro-db/2``
    persistent campaign store rather than artifact JSON."""
    with open(path, "rb") as handle:
        return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC


def load_store_artifacts(path: str) -> List[Artifact]:
    """Every run of a persistent store as its typed result, in run-id
    order (the order ``repro-db list`` prints)."""
    from ..store import CampaignStore  # lazy: repro.store imports us
    with CampaignStore(path) as store:
        return [store.load_run(info.id) for info in store.runs()]


def load_artifact_file(path: str) -> Artifact:
    """:func:`load_artifact` over a file path.

    A ``repro-db/2`` store file is accepted too, provided it holds
    exactly one run — rendering straight from the database without an
    export step.  For multi-run stores use
    :func:`load_store_artifacts` (or the typed selection the
    ``repro-report`` subcommands perform).
    """
    if is_store_file(path):
        artifacts = load_store_artifacts(path)
        if len(artifacts) != 1:
            raise ValueError(
                f"store holds {len(artifacts)} runs; pick one with "
                f"'repro-db export --run ID' or pass the store to a "
                f"typed repro-report subcommand")
        return artifacts[0]
    with open(path, encoding="utf-8") as handle:
        return load_artifact(handle.read())
