"""One result protocol for every keyed-unit artifact.

The campaign, verify, reduction and bisection results share one shape:
an identity, a ``pool_size``, items stored as payload rows, optional
summed ``stats`` and contained failure records.  :class:`CellResult`
implements it once — shard ``merge``, the schema-checked ``to_dict`` /
``from_dict`` and ``to_json`` / ``from_json``, and both directions
between a store cell's rows and the typed result:
:meth:`CellResult.from_rows` (called by every driver's
``Workload.result``, by ``CampaignStore.load_run`` and by
``CampaignService.job_result``) and its inverse
:meth:`CellResult.rows`, the rows ``CampaignStore.ingest`` writes.  A
subclass declares only what differs (see :class:`CellResult`); the
matrix artifact, a bundle of campaign cells, shares :class:`Artifact`.
:func:`result_types` is the schema → class registry.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from typing import ClassVar, Dict, Iterable, Iterator, Optional, Tuple

from ..faults.records import (
    FailureRecord, failures_from_dicts, failures_to_dicts,
    merge_failures,
)
from .units import Cell

Payload = Dict[str, object]


def missing_field_error(schema: str, error: KeyError) -> ValueError:
    """The uniform diagnosis every artifact loader raises when a stored
    document lacks a required field — callers (DB ingest, CLI loads)
    report it instead of a bare ``KeyError``."""
    return ValueError(f"malformed {schema} artifact: "
                      f"missing field {error.args[0]!r}")


def fold_results(results: Iterable):
    """Fold shard results into one via pairwise ``merge``.

    The one folder every result type shares, so the edge cases behave
    identically everywhere: an empty iterable raises immediately (not
    after consuming the input), and a single shard is returned **as
    is** — the exact object, never a lossy copy — so ``fold([r])``
    round-trips unchanged.
    """
    iterator = iter(results)
    try:
        merged = next(iterator)
    except StopIteration:
        raise ValueError(
            "cannot merge an empty sequence of results") from None
    for result in iterator:
        merged = merged.merge(result)
    return merged


def seed_positions(seeds: Iterable[int]) -> Iterator[int]:
    """For seeds listed in unit order, each unit's index among its
    seed's units: the ``position`` witness rows are stored under.
    Export orders by seed, then position, and a sharded run's program
    slices never split a seed, so serial, sharded and resumed runs
    number every witness alike."""
    counts: Dict[int, int] = {}
    for seed in seeds:
        counts[seed] = counts.get(seed, -1) + 1
        yield counts[seed]


def _summed(stats: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sum of ``stats`` dicts (int sums are order-independent,
    so shards and per-witness shares reassemble the exact aggregate)."""
    totals: Dict[str, int] = {}
    for part in stats:
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def field_dict(record) -> Payload:
    """A flat dataclass instance as a dict, field by field in order."""
    return {field.name: getattr(record, field.name)
            for field in fields(record)}


def from_field_dict(cls, data: Payload):
    """The inverse of :func:`field_dict` (``KeyError`` on a missing
    field)."""
    return cls(**{field.name: data[field.name] for field in fields(cls)})


class FieldRecord:
    """A flat dataclass item serialized field by field."""

    #: The artifact schema a missing field is reported against.
    SCHEMA: ClassVar[str] = ""

    def to_dict(self) -> Payload:
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: Payload):
        try:
            return from_field_dict(cls, data)
        except KeyError as error:
            raise missing_field_error(cls.SCHEMA, error) from None


class Artifact:
    """A schema-tagged JSON document; subclasses implement ``_fields()``
    (the document without its tag) and the ``_from_fields(data)``
    classmethod.  ``from_dict`` rejects any other tag and reports a
    missing field with :func:`missing_field_error`."""

    SCHEMA: ClassVar[str] = ""

    def to_dict(self) -> Payload:
        return {"schema": self.SCHEMA, **self._fields()}

    def to_json(self, indent: Optional[int] = None) -> str:
        """The artifact document (every schema is specified field by
        field in ``docs/ARTIFACTS.md``); render it with
        ``repro-report`` or :mod:`repro.report`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Payload):
        schema = data.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError(f"not a {cls.SCHEMA} artifact: schema "
                             f"{schema!r} (expected {cls.SCHEMA!r})")
        try:
            return cls._from_fields(data)
        except KeyError as error:
            raise missing_field_error(cls.SCHEMA, error) from None

    @classmethod
    def from_json(cls, text: str):
        """Load a stored artifact (:func:`repro.report.load_artifact`
        dispatches over every schema)."""
        return cls.from_dict(json.loads(text))

    def module_fingerprints(self) -> Dict[int, str]:
        """seed -> lowered-module digest the artifact records (what
        ingest files next to its rows)."""
        return {}


class CellResult(Artifact):
    """One store cell's result: the base of the campaign, verify,
    reduction and bisection artifacts.

    Subclasses are dataclasses with the ``IDENTITY`` fields, ``levels``
    when ``LEVELED``, ``pool_size``, the ``ITEMS`` list, ``stats`` when
    ``STATS`` and ``failures``.  The defaults describe a seed-keyed
    result (one program item per seed); :class:`WitnessResult` is the
    witness-keyed kind.
    """

    #: Fields that must agree for two shards to merge, in order.
    IDENTITY: ClassVar[Tuple[str, ...]] = ("family", "version")
    #: Whether the (order-insensitive) level set is identity too.
    LEVELED: ClassVar[bool] = True
    #: The item list attribute and its item type.
    ITEMS: ClassVar[str] = "programs"
    ITEM: ClassVar[type]
    #: Whether the result carries summed per-unit ``stats``.
    STATS: ClassVar[bool] = False
    #: How merge errors name an identity mismatch and an overlap.
    DIFFERENT: ClassVar[str] = "compilers"
    OVERLAPPING: ClassVar[str] = "seed ranges"

    @staticmethod
    def unit_key(item) -> object:
        """The identity disjoint shards never share."""
        return item.seed

    def items(self) -> list:
        return getattr(self, self.ITEMS)

    # -- merging ---------------------------------------------------------

    def merge(self, other):
        """Combine two shard results into one.

        Associative and commutative over shards with disjoint units
        (overlapping ones would double-count and are rejected): items
        are renormalized by seed with a stable sort (a seed's own item
        order is kept), ``pool_size`` and ``stats`` are summed, and
        failures take the sorted union — so any merge tree over any
        shard ordering yields the serial run's value.  The level set is
        compared order-insensitively: per-level data is keyed by level
        name, so only a different *set* is a mismatch, and the merged
        result keeps the left shard's display order.
        """
        kind = f"{self.SCHEMA} results"
        mine, theirs = ([getattr(result, name) for name in self.IDENTITY]
                        for result in (self, other))
        if mine != theirs:
            raise ValueError(
                f"cannot merge {kind} of different {self.DIFFERENT}: "
                f"{'/'.join(mine)} vs {'/'.join(theirs)}")
        merged = {}
        if self.LEVELED:
            if sorted(self.levels) != sorted(other.levels):
                raise ValueError(
                    f"cannot merge {kind} over different level sets: "
                    f"{self.levels} vs {other.levels}")
            merged["levels"] = list(self.levels)
        overlap = {self.unit_key(item) for item in self.items()} & \
            {self.unit_key(item) for item in other.items()}
        if overlap:
            raise ValueError(
                f"cannot merge {kind} with overlapping {self.OVERLAPPING}"
                f" (would double-count): {sorted(overlap)[:3]}...")
        merged[self.ITEMS] = sorted(self.items() + other.items(),
                                    key=lambda item: item.seed)
        if self.STATS:
            merged["stats"] = _summed((self.stats, other.stats))
        return replace(
            self, pool_size=self.pool_size + other.pool_size,
            failures=merge_failures(self.failures, other.failures),
            **merged)

    # -- serialization ---------------------------------------------------

    def _fields(self) -> Payload:
        data: Payload = {name: getattr(self, name)
                         for name in self.IDENTITY}
        if self.LEVELED:
            data["levels"] = list(self.levels)
        data["pool_size"] = self.pool_size
        data[self.ITEMS] = [item.to_dict() for item in self.items()]
        if self.STATS:
            data["stats"] = dict(sorted(self.stats.items()))
        # Omitted when empty, so pre-failure documents round-trip
        # byte-identically.
        if self.failures:
            data["failures"] = failures_to_dicts(self.failures)
        return data

    @classmethod
    def _from_fields(cls, data: Payload):
        values = {name: data[name] for name in cls.IDENTITY}
        if cls.LEVELED:
            values["levels"] = list(data["levels"])
        if cls.STATS:
            values["stats"] = dict(data["stats"])
        return cls(pool_size=data["pool_size"],
                   failures=failures_from_dicts(data.get("failures", ())),
                   **{cls.ITEMS: [cls.ITEM.from_dict(item)
                                  for item in data[cls.ITEMS]]},
                   **values)

    # -- store rows ------------------------------------------------------

    @classmethod
    def items_of(cls, payload: Payload) -> list:
        """The items one stored payload holds."""
        return [cls.ITEM.from_dict(payload)]

    @classmethod
    def from_rows(cls, cell, payloads: Iterable[Payload],
                  failures: Iterable[FailureRecord],
                  pool_size: Optional[int] = None):
        """The result a cell's rows represent: ``payloads`` in export
        order and the cell's failure records.

        ``cell`` supplies the identity (a
        :class:`~repro.pipeline.units.Cell` or a stored
        :class:`~repro.store.RunInfo`).  ``pool_size`` defaults to the
        number of distinct seeds that hold an item or a failure record,
        so a quarantined seed counts like an evaluated one.
        """
        payloads = list(payloads)
        failures = merge_failures(failures, ())
        items = [item for payload in payloads
                 for item in cls.items_of(payload)]
        if pool_size is None:
            pool_size = len({item.seed for item in items} |
                            {record.seed for record in failures})
        values = {name: getattr(cell, name) for name in cls.IDENTITY}
        if cls.LEVELED:
            values["levels"] = list(cell.levels)
        if cls.STATS:
            values["stats"] = _summed(payload.get("stats", {})
                                      for payload in payloads)
        return cls(pool_size=pool_size, failures=failures,
                   **{cls.ITEMS: items}, **values)

    def rows(self, store) -> Iterator[Tuple[int, str, Optional[int],
                                            Payload]]:
        """``(seed, key, position, payload)`` for each row a live run of
        this cell stores (the inverse of :meth:`from_rows`; position
        ``None`` is the seed); ``store`` supplies anything a row key is
        derived from."""
        for item in self.items():
            yield item.seed, "", None, item.to_dict()

    def cell(self, **extra) -> Cell:
        """The store cell this result fills (``extra``: identity the
        artifact does not record)."""
        return Cell("", self.SCHEMA,
                    levels=tuple(self.levels) if self.LEVELED else (),
                    **{name: getattr(self, name) for name in self.IDENTITY},
                    **extra)

    def stored_cells(self, debugger: str = ""
                     ) -> Iterator[Tuple[Cell, "CellResult"]]:
        """``(cell, result)`` for every store cell the artifact fills;
        ``debugger`` names the cell's debugger where only the caller
        knows it (a campaign artifact)."""
        yield self.cell(), self


class WitnessResult(CellResult):
    """A witness-keyed result: ``records`` items (several per seed, a
    witness's rows keyed below the seed) with summed ``stats``."""

    LEVELED = False
    ITEMS = "records"
    STATS = True
    DIFFERENT = "cells"
    OVERLAPPING = "witnesses"

    @staticmethod
    def unit_key(item) -> object:
        return item.witness_key()


def result_types() -> Dict[str, type]:
    """schema -> class of every keyed-unit artifact: the four cell
    results and the matrix of campaign cells."""
    from ..bisect.campaign import BisectCampaignResult
    from ..staticcheck.campaign import VerifyCampaignResult
    from .campaign import CampaignResult
    from .matrix import MatrixCampaignResult
    from .reduction import ReductionCampaignResult
    return {cls.SCHEMA: cls for cls in (
        CampaignResult, MatrixCampaignResult, VerifyCampaignResult,
        ReductionCampaignResult, BisectCampaignResult)}
