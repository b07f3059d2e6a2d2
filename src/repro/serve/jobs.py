"""``repro-job/1`` — the service's unit of submitted work.

A :class:`JobSpec` names a seed-range campaign cell: compiler family and
version, debugger, seed range, and level set — exactly the arguments of
:func:`~repro.pipeline.campaign.run_campaign`, so a job's exported
artifact is byte-identical to the serial driver's for the same values.
The ``deadline`` is an operational budget (seconds of wall clock the
service may spend before expiring the job) and is deliberately excluded
from the job identity: resubmitting the same range with a different
deadline resumes the same job instead of forking a duplicate.

``job_id`` is the first 16 hex digits of the sha256 of the canonical
identity document — pure function of the spec, so every client that
submits the same work computes the same id, which is what makes
duplicate POSTs exact no-ops against the store's job ledger.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..debugger import NATIVE_DEBUGGERS
from ..debugger.specs import DEBUGGER_REGISTRY
from ..pipeline.results import missing_field_error
from ..store import canonical_json

#: Job document schema tag; bump only with a migration path.
JOB_SCHEMA = "repro-job/1"

#: Every ledger state a job moves through (terminal: done/failed/expired).
JOB_STATES = ("queued", "running", "done", "failed", "expired")

_FAMILIES = ("gcc", "clang")


@dataclass(frozen=True)
class JobSpec:
    """One submitted seed-range campaign (see module docstring)."""

    family: str = "gcc"
    version: str = "trunk"
    #: Registered debugger name; "" resolves to the family's native one.
    debugger: str = ""
    seed_base: int = 0
    pool_size: int = 100
    #: Optimization levels; () resolves to the family default at
    #: execution time (every optimized level, O0 excluded).
    levels: Tuple[str, ...] = ()
    #: Wall-clock budget in seconds (None = no deadline).  Not part of
    #: the job identity.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown compiler family {self.family!r} "
                             f"(known: {', '.join(_FAMILIES)})")
        if self.debugger and self.debugger not in DEBUGGER_REGISTRY:
            raise ValueError(
                f"unknown debugger {self.debugger!r}; known: "
                f"{', '.join(sorted(DEBUGGER_REGISTRY))}")
        if self.pool_size < 1:
            raise ValueError(
                f"pool_size must be >= 1, got {self.pool_size}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive seconds, got {self.deadline}")
        object.__setattr__(self, "levels",
                           tuple(str(level) for level in self.levels))

    # -- identity ------------------------------------------------------------

    def normalized(self) -> "JobSpec":
        """The spec with the debugger resolved — two submissions that
        mean the same cell (explicit native debugger vs "") share one
        normalized form, hence one job id."""
        if self.debugger:
            return self
        return replace(self,
                       debugger=NATIVE_DEBUGGERS[self.family].name)

    def identity(self) -> Dict[str, object]:
        """The canonical identity document ``job_id`` hashes — every
        field that changes *what is computed* and nothing else (the
        deadline changes only how long the service will wait)."""
        spec = self.normalized()
        return {
            "schema": JOB_SCHEMA,
            "family": spec.family,
            "version": spec.version,
            "debugger": spec.debugger,
            "seed_base": spec.seed_base,
            "pool_size": spec.pool_size,
            "levels": list(spec.levels),
        }

    @property
    def job_id(self) -> str:
        text = canonical_json(self.identity())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = self.identity()
        if self.deadline is not None:
            data["deadline"] = self.deadline
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        schema = data.get("schema")
        if schema != JOB_SCHEMA:
            raise ValueError(f"not a job document: schema {schema!r} "
                             f"(expected {JOB_SCHEMA!r})")
        try:
            return cls(
                family=data["family"],
                version=data.get("version", "trunk"),
                debugger=data.get("debugger", ""),
                seed_base=int(data["seed_base"]),
                pool_size=int(data["pool_size"]),
                levels=tuple(data.get("levels", ())),
                deadline=data.get("deadline"))
        except KeyError as error:
            raise missing_field_error(JOB_SCHEMA, error) from None
