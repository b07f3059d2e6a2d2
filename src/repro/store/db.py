"""The persistent campaign store: a stdlib-sqlite results database.

The campaign drivers are one-shot in-memory runs that serialize a JSON
artifact at the end; at ROADMAP scale (millions of programs) a crashed
30-minute campaign loses everything.  :class:`CampaignStore` is the
durable backing the drivers write through instead — modeled on
DeadCodeProductions/diopter's ``database.py``: content-hash dedup of
every stored text (program witnesses, per-unit result payloads) in one
zlib-compressed blob table, keyed lookups by
``seed_fingerprint`` / ``module_fingerprint``, and WAL-mode connections
so sharded workers can write the same file concurrently.

Layout (schema tag ``repro-db/2``; field-by-field spec in
``docs/ARTIFACTS.md``):

=====================  ======================================================
``meta``               ``schema`` tag and store-level key/values
``blobs``              sha256(text) -> zlib-compressed text (the only place
                       any text is stored; identical content is stored once)
``programs``           seed -> sha256 of the printed program (the
                       ``seed_fingerprint`` digest) + source blob
``module_fingerprints``  seed -> counter-normalized lowered-module digest
``runs``               one row per campaign cell: (schema, family, version,
                       debugger, engine, sorted level set) is the identity
``results``            (run, seed, key) -> one unit's payload blob, plus the
                       ``position`` export replays — the unit of resume for
                       every driver: a seed (key ``""``, position = seed)
                       for campaign / matrix-cell / verify runs, a witness
                       for reduction (key ``level/conjecture/variable``) and
                       bisection (key = witness fingerprint) runs, whose
                       position is the witness's enumeration index
``failures``           (run, seed, item key) -> failure record blob (see
                       :mod:`repro.faults`): a quarantine a resumed run
                       retries, or the recovered record of a stored unit
=====================  ======================================================

Everything the JSON artifacts serialize round-trips through the store
losslessly: per-seed payloads are stored as canonical JSON (sorted keys,
no whitespace), so a result loaded back compares equal — and re-serializes
byte-identically — to the value the driver computed live.  That is the
invariant that makes resumed campaigns bit-identical to uninterrupted
serial runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sqlite3
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Store schema tag; ``_check_schema`` rejects every other tag (a
#: ``repro-db/1`` store's per-kind tables are not read by this build).
DB_SCHEMA = "repro-db/2"

#: Bounded retry budget for ``database is locked`` write contention
#: (beyond sqlite's own ``busy_timeout``, which covers page-level
#: waits but not a writer starved across whole transactions).
BUSY_MAX_ATTEMPTS = 5

#: Backoff shape for busy retries (seconds): ``base * 2**attempt``
#: capped at ``limit``, scaled by deterministic jitter.
_BUSY_BASE_DELAY = 0.01
_BUSY_DELAY_LIMIT = 0.5
_BUSY_JITTER = 0.5

#: zlib level 6: within a few percent of level 9 on generated programs at
#: roughly twice the speed.
_COMPRESSION_LEVEL = 6

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blobs (
    hash     TEXT PRIMARY KEY,
    data     BLOB NOT NULL,
    raw_size INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS programs (
    seed        INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    source_hash TEXT NOT NULL REFERENCES blobs(hash)
);
CREATE TABLE IF NOT EXISTS module_fingerprints (
    seed        INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id         INTEGER PRIMARY KEY,
    schema     TEXT NOT NULL,
    family     TEXT NOT NULL,
    version    TEXT NOT NULL,
    debugger   TEXT NOT NULL DEFAULT '',
    engine     TEXT NOT NULL DEFAULT '',
    levels_key TEXT NOT NULL,
    levels     TEXT NOT NULL,
    attrs      TEXT NOT NULL DEFAULT '{}',
    UNIQUE (schema, family, version, debugger, engine, levels_key)
);
CREATE TABLE IF NOT EXISTS results (
    run_id       INTEGER NOT NULL REFERENCES runs(id),
    seed         INTEGER NOT NULL,
    key          TEXT NOT NULL DEFAULT '',
    position     INTEGER NOT NULL,
    payload_hash TEXT NOT NULL REFERENCES blobs(hash),
    PRIMARY KEY (run_id, seed, key)
);
CREATE TABLE IF NOT EXISTS failures (
    run_id       INTEGER NOT NULL REFERENCES runs(id),
    seed         INTEGER NOT NULL,
    key          TEXT NOT NULL DEFAULT '',
    payload_hash TEXT NOT NULL REFERENCES blobs(hash),
    PRIMARY KEY (run_id, seed, key)
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    spec   TEXT NOT NULL,
    state  TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
"""


class StoreError(ValueError):
    """A store-level invariant was violated (schema mismatch, divergent
    payload for an already-evaluated key, inconsistent fingerprints)."""


class StoreBusyError(StoreError):
    """Write contention outlasted the bounded retry budget: another
    connection held the write lock through every backoff window.  The
    store itself is consistent — the caller's write simply never
    landed — so campaign drivers treat this like any other contained
    store failure (the result stays in the artifact; resume retries)."""


def _is_busy(error: sqlite3.OperationalError) -> bool:
    """Is this the transient multi-writer lock contention worth
    retrying (as opposed to a real operational failure, e.g. a
    read-only filesystem)?"""
    text = str(error).lower()
    return "database is locked" in text or "database is busy" in text


def busy_delay(token: str, attempt: int,
               base: float = _BUSY_BASE_DELAY,
               limit: float = _BUSY_DELAY_LIMIT,
               jitter: float = _BUSY_JITTER) -> float:
    """Backoff before busy-retry ``attempt`` (0-based): exponential,
    capped, scaled by a jitter factor in ``[1 - jitter, 1 + jitter)``
    hashed from ``(token, attempt)`` — deterministic, so two workers
    replaying the same schedule still spread out (their tokens differ)
    and a test run reproduces exactly."""
    delay = min(limit, base * 2.0 ** attempt)
    digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
    return delay * (1.0 - jitter + 2.0 * jitter * fraction)


def _retries_busy(method):
    """Wrap a :class:`CampaignStore` write so ``database is locked``
    contention retries with bounded, deterministically-jittered
    backoff instead of crashing mid-campaign.  The wrapped methods are
    idempotent re-runs (their pre-checks re-execute), so a retry after
    a partially-failed transaction (already rolled back by the
    ``with self._conn`` block) is safe."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        attempt = 0
        while True:
            try:
                return method(self, *args, **kwargs)
            except sqlite3.OperationalError as error:
                if not _is_busy(error):
                    raise
                attempt += 1
                if attempt >= self.busy_attempts:
                    raise StoreBusyError(
                        f"store {self.path!r} is busy: "
                        f"{method.__name__} gave up after {attempt} "
                        f"attempts ({error})") from None
                self._busy_sleep(busy_delay(
                    f"{self.path}:{method.__name__}", attempt - 1))
    return wrapper


@dataclass
class StoreStats:
    """Per-connection accounting of one store's lifetime (the
    ``OracleStats`` of the persistence layer; the resume tests assert
    zero re-compiles through these counters)."""

    hits: int = 0            # units served from the store
    misses: int = 0          # units evaluated live and written
    programs_added: int = 0
    blob_inserts: int = 0
    blob_reuses: int = 0     # content-hash dedup: text already present
    failures_recorded: int = 0   # failure records written
    failures_cleared: int = 0    # quarantined pairs retried successfully

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class RunInfo:
    """One ``runs`` row, decoded."""

    id: int
    schema: str
    family: str
    version: str
    debugger: str
    engine: str
    levels: Tuple[str, ...]
    attrs: Dict[str, object] = field(hash=False, default_factory=dict)


def canonical_json(payload: Dict[str, object]) -> str:
    """The canonical serialized form every payload is stored (and
    content-hashed) under: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def text_digest(text: str) -> str:
    """sha256 hex digest of UTF-8 ``text`` — the blob/content key."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CampaignStore:
    """A persistent, resumable results database over one sqlite file.

    ``path`` may be ``":memory:"`` for a private in-process store (tests,
    examples) or a filesystem path; file-backed stores run in WAL mode so
    sharded campaign workers can read and write concurrently.  The class
    is a context manager; ``close()`` is otherwise explicit.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path, timeout=30.0)
        except sqlite3.Error as error:
            raise StoreError(f"cannot open store {self.path!r}: "
                             f"{error}") from None
        self._conn.row_factory = sqlite3.Row
        self.stats = StoreStats()
        #: Busy-retry budget per write (see :func:`busy_delay`); the
        #: sleep is injectable so tests assert the schedule directly.
        self.busy_attempts = BUSY_MAX_ATTEMPTS
        self._busy_sleep = time.sleep
        try:
            self._initialize()
        except StoreBusyError:
            self._conn.close()
            raise
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StoreError(f"{self.path!r} is not a campaign store: "
                             f"{error}") from None

    @_retries_busy
    def _initialize(self) -> None:
        """Connection pragmas and idempotent schema creation, retried
        like a write: several threads opening one fresh store at once
        (the service's worker, monitor and handler threads at start-up)
        can meet ``database is locked`` here despite ``busy_timeout``."""
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        with self._conn:
            self._conn.executescript(_DDL)
        self._check_schema()

    def _check_schema(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
                    (DB_SCHEMA,))
            return
        if row["value"] != DB_SCHEMA:
            raise StoreError(
                f"store {self.path!r} has schema {row['value']!r} "
                f"(this build reads {DB_SCHEMA!r})")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<CampaignStore {self.path!r}>"

    # -- blobs ---------------------------------------------------------------

    def _put_blob(self, text: str) -> str:
        """Store ``text`` once, keyed by content hash; returns the key."""
        digest = text_digest(text)
        present = self._conn.execute(
            "SELECT 1 FROM blobs WHERE hash = ?", (digest,)).fetchone()
        if present is not None:
            self.stats.blob_reuses += 1
            return digest
        raw = text.encode("utf-8")
        self._conn.execute(
            "INSERT OR IGNORE INTO blobs VALUES (?, ?, ?)",
            (digest, zlib.compress(raw, _COMPRESSION_LEVEL), len(raw)))
        self.stats.blob_inserts += 1
        return digest

    def _blob_text(self, digest: str) -> str:
        row = self._conn.execute(
            "SELECT data FROM blobs WHERE hash = ?", (digest,)).fetchone()
        if row is None:
            raise StoreError(f"dangling blob reference {digest[:12]}...")
        return zlib.decompress(row["data"]).decode("utf-8")

    # -- program corpus ------------------------------------------------------

    @_retries_busy
    def add_program(self, seed: int, source: str) -> None:
        """Record the printed program for ``seed`` (content-deduplicated;
        re-adding with different text is a determinism violation)."""
        digest = text_digest(source)
        row = self._conn.execute(
            "SELECT fingerprint FROM programs WHERE seed = ?",
            (seed,)).fetchone()
        if row is not None:
            if row["fingerprint"] != digest:
                raise StoreError(
                    f"seed {seed} already stored with a different "
                    f"program text ({row['fingerprint'][:12]} vs "
                    f"{digest[:12]}): non-deterministic generation?")
            return
        with self._conn:
            source_hash = self._put_blob(source)
            self._conn.execute(
                "INSERT OR IGNORE INTO programs VALUES (?, ?, ?)",
                (seed, digest, source_hash))
        self.stats.programs_added += 1

    def program_source(self, seed: int) -> Optional[str]:
        """The stored program text for ``seed`` (None when absent)."""
        row = self._conn.execute(
            "SELECT source_hash FROM programs WHERE seed = ?",
            (seed,)).fetchone()
        if row is None:
            return None
        return self._blob_text(row["source_hash"])

    def program_fingerprint(self, seed: int) -> Optional[str]:
        """sha256 of the stored program text (the ``seed_fingerprint``
        digest) for ``seed``."""
        row = self._conn.execute(
            "SELECT fingerprint FROM programs WHERE seed = ?",
            (seed,)).fetchone()
        return None if row is None else row["fingerprint"]

    @_retries_busy
    def record_module_fingerprint(self, seed: int,
                                  fingerprint: str) -> None:
        """Record the lowered-module digest for ``seed``; a differing
        re-record means two runs lowered divergent IR."""
        row = self._conn.execute(
            "SELECT fingerprint FROM module_fingerprints WHERE seed = ?",
            (seed,)).fetchone()
        if row is not None:
            if row["fingerprint"] != fingerprint:
                raise StoreError(
                    f"runs disagree on the lowered module of seed "
                    f"{seed}: {row['fingerprint'][:12]} vs "
                    f"{fingerprint[:12]}")
            return
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO module_fingerprints VALUES (?, ?)",
                (seed, fingerprint))

    def module_fingerprint(self, seed: int) -> Optional[str]:
        row = self._conn.execute(
            "SELECT fingerprint FROM module_fingerprints WHERE seed = ?",
            (seed,)).fetchone()
        return None if row is None else row["fingerprint"]

    # -- runs (campaign cells) -----------------------------------------------

    @_retries_busy
    def run_id(self, schema: str, family: str, version: str,
               levels: Sequence[str], debugger: str = "",
               engine: str = "",
               attrs: Optional[Dict[str, object]] = None) -> int:
        """The id of the cell (creating its row if new).

        The identity is the *sorted* level set: two runs that evaluate
        the same levels in a different order resume each other (the
        per-seed payloads are level-order independent).  The first
        creator's display order is kept for export.
        """
        levels = [str(level) for level in levels]
        key = json.dumps(sorted(levels))
        where = ("schema = ? AND family = ? AND version = ? AND "
                 "debugger = ? AND engine = ? AND levels_key = ?")
        values = (schema, family, version, debugger, engine, key)
        row = self._conn.execute(
            f"SELECT id FROM runs WHERE {where}", values).fetchone()
        if row is not None:
            if attrs:
                self._merge_attrs(row["id"], attrs)
            return row["id"]
        try:
            with self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO runs (schema, family, version, debugger,"
                    " engine, levels_key, levels, attrs)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    values + (json.dumps(levels),
                              canonical_json(attrs or {})))
            return cursor.lastrowid
        except sqlite3.IntegrityError:
            # Another worker created the row between our SELECT and
            # INSERT; the UNIQUE constraint guarantees it is ours.
            row = self._conn.execute(
                f"SELECT id FROM runs WHERE {where}", values).fetchone()
            return row["id"]

    def _merge_attrs(self, run_id: int,
                     attrs: Dict[str, object]) -> None:
        """Merge run attributes; a changed value for an existing key is
        a mismatch between the original and resuming invocation."""
        row = self._conn.execute(
            "SELECT attrs FROM runs WHERE id = ?", (run_id,)).fetchone()
        existing = json.loads(row["attrs"])
        for key, value in attrs.items():
            if key in existing and existing[key] != value:
                raise StoreError(
                    f"run {run_id} attribute {key!r} mismatch: stored "
                    f"{existing[key]!r}, resuming run has {value!r}")
        existing.update(attrs)
        with self._conn:
            self._conn.execute(
                "UPDATE runs SET attrs = ? WHERE id = ?",
                (canonical_json(existing), run_id))

    def run_info(self, run_id: int) -> RunInfo:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)).fetchone()
        if row is None:
            raise StoreError(f"no run {run_id} in {self.path!r}")
        return self._run_info(row)

    @staticmethod
    def _run_info(row) -> RunInfo:
        return RunInfo(
            id=row["id"], schema=row["schema"], family=row["family"],
            version=row["version"], debugger=row["debugger"],
            engine=row["engine"],
            levels=tuple(json.loads(row["levels"])),
            attrs=json.loads(row["attrs"]))

    def runs(self) -> List[RunInfo]:
        """Every stored run, in creation order."""
        return [self._run_info(row) for row in self._conn.execute(
            "SELECT * FROM runs ORDER BY id")]

    # -- per-unit results ----------------------------------------------------

    def get_result(self, run_id: int, seed: int, key: str = ""
                   ) -> Optional[Dict[str, object]]:
        """The stored payload of one unit — ``(run, seed)`` plus the
        unit's ``key`` (empty for a whole seed) — or None if it has not
        been evaluated yet (counted as a hit only when present)."""
        row = self._conn.execute(
            "SELECT payload_hash FROM results"
            " WHERE run_id = ? AND seed = ? AND key = ?",
            (run_id, seed, key)).fetchone()
        if row is None:
            return None
        self.stats.hits += 1
        return json.loads(self._blob_text(row["payload_hash"]))

    def has_result(self, run_id: int, seed: int, key: str = "") -> bool:
        return self._conn.execute(
            "SELECT 1 FROM results WHERE run_id = ? AND seed = ?"
            " AND key = ?", (run_id, seed, key)).fetchone() is not None

    @_retries_busy
    def put_result(self, run_id: int, seed: int,
                   payload: Dict[str, object], key: str = "",
                   position: Optional[int] = None) -> None:
        """Record one evaluated unit (idempotent for an identical
        payload; a divergent payload is an error).  ``position`` orders
        the run's rows on export and defaults to the seed."""
        text = canonical_json(payload)
        existing = self._conn.execute(
            "SELECT payload_hash FROM results"
            " WHERE run_id = ? AND seed = ? AND key = ?",
            (run_id, seed, key)).fetchone()
        if existing is not None:
            if existing["payload_hash"] != text_digest(text):
                unit = f"seed {seed}" + (f" key {key}" if key else "")
                raise StoreError(
                    f"run {run_id} {unit} already stored with a "
                    f"different payload: non-deterministic evaluation?")
            return
        with self._conn:
            payload_hash = self._put_blob(text)
            self._conn.execute(
                "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?, ?)",
                (run_id, seed, key,
                 seed if position is None else position, payload_hash))
        self.stats.misses += 1

    def seeds_evaluated(self, run_id: int) -> List[int]:
        return [row["seed"] for row in self._conn.execute(
            "SELECT DISTINCT seed FROM results WHERE run_id = ?"
            " ORDER BY seed", (run_id,))]

    def result_count(self, run_id: int) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) AS n FROM results WHERE run_id = ?",
            (run_id,)).fetchone()["n"]

    # -- failure records -----------------------------------------------------

    @_retries_busy
    def put_failure(self, run_id: int, seed: int, key: str,
                    payload: Dict[str, object]) -> None:
        """Record a quarantined pair (``key`` is the sub-seed item —
        empty for whole-seed containment, the witness identity for
        reductions).  A later quarantine of the same pair overwrites:
        the newest disposition wins, unlike ``put_result`` the payload
        may legitimately change across attempts."""
        text = canonical_json(payload)
        with self._conn:
            payload_hash = self._put_blob(text)
            self._conn.execute(
                "INSERT OR REPLACE INTO failures VALUES (?, ?, ?, ?)",
                (run_id, seed, key, payload_hash))
        self.stats.failures_recorded += 1

    def get_failure(self, run_id: int, seed: int, key: str = ""
                    ) -> Optional[Dict[str, object]]:
        """The quarantine record stored for one pair, or None."""
        row = self._conn.execute(
            "SELECT payload_hash FROM failures"
            " WHERE run_id = ? AND seed = ? AND key = ?",
            (run_id, seed, key)).fetchone()
        if row is None:
            return None
        return json.loads(self._blob_text(row["payload_hash"]))

    @_retries_busy
    def clear_failure(self, run_id: int, seed: int,
                      key: str = "") -> bool:
        """Drop a pair's quarantine record (a retry succeeded); returns
        whether one was present."""
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM failures"
                " WHERE run_id = ? AND seed = ? AND key = ?",
                (run_id, seed, key))
        if cursor.rowcount:
            self.stats.failures_cleared += 1
        return bool(cursor.rowcount)

    def failures_for(self, run_id: int) -> List[Dict[str, object]]:
        """Every quarantine record of the run, in (seed, key) order."""
        return [json.loads(self._blob_text(row["payload_hash"]))
                for row in self._conn.execute(
                    "SELECT payload_hash FROM failures"
                    " WHERE run_id = ? ORDER BY seed, key", (run_id,))]

    def checkpoint(self) -> None:
        """Flush completed work to the main database file (commit plus
        a WAL truncate).  The drivers call this from their
        ``KeyboardInterrupt`` handlers so Ctrl-C never loses finished
        cells; best-effort by design."""
        try:
            self._conn.commit()
            if self.path != ":memory:":
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            return

    # -- service job ledger --------------------------------------------------

    @_retries_busy
    def put_job(self, job_id: str, spec: Dict[str, object],
                state: str = "queued") -> bool:
        """Record a submitted service job (see :mod:`repro.serve`).

        Idempotent: re-recording an identical spec is a no-op
        returning False (the client's retry / duplicate POST case); a
        *different* spec under the same id is an identity violation.
        """
        text = canonical_json(spec)
        row = self._conn.execute(
            "SELECT spec FROM jobs WHERE job_id = ?",
            (job_id,)).fetchone()
        if row is not None:
            if row["spec"] != text:
                raise StoreError(
                    f"job {job_id} already recorded with a different "
                    f"spec: id collision or mutated submission?")
            return False
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO jobs VALUES (?, ?, ?, '')",
                (job_id, text, state))
        return True

    def get_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """One ledger row: ``{"job", "spec", "state", "detail"}`` (or
        None)."""
        row = self._conn.execute(
            "SELECT spec, state, detail FROM jobs WHERE job_id = ?",
            (job_id,)).fetchone()
        if row is None:
            return None
        return {"job": job_id, "spec": json.loads(row["spec"]),
                "state": row["state"], "detail": row["detail"]}

    @_retries_busy
    def set_job_state(self, job_id: str, state: str,
                      detail: str = "") -> None:
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, detail = ? WHERE job_id = ?",
                (state, detail, job_id))
        if not cursor.rowcount:
            raise StoreError(f"no job {job_id!r} in {self.path!r}")

    def jobs_in_state(self, *states: str) -> List[Dict[str, object]]:
        """Ledger rows in any of ``states`` (all jobs when none given),
        in job-id order — what a restarted service re-enqueues."""
        rows = self._conn.execute(
            "SELECT job_id, spec, state, detail FROM jobs"
            " ORDER BY job_id")
        return [{"job": row["job_id"], "spec": json.loads(row["spec"]),
                 "state": row["state"], "detail": row["detail"]}
                for row in rows
                if not states or row["state"] in states]

    # -- artifact export -----------------------------------------------------

    def load_run(self, run_id: int):
        """Rebuild the typed result a run's rows represent (the exact
        value the matching driver would return)."""
        return self._load(self.run_info(run_id))

    def _result_payloads(self, run_id: int) -> List[Dict[str, object]]:
        """Every stored payload of the run in export order: by seed,
        then ``position`` (a sharded run numbers witnesses per program
        slice, and slices never split a seed)."""
        return [json.loads(self._blob_text(row["payload_hash"]))
                for row in self._conn.execute(
                    "SELECT payload_hash FROM results WHERE run_id = ?"
                    " ORDER BY seed, position, key", (run_id,))]

    def _load(self, info: RunInfo):
        from ..faults.records import FailureRecord
        from ..pipeline.results import CellResult, result_types
        result_type = result_types().get(info.schema)
        if result_type is None or not issubclass(result_type, CellResult):
            raise StoreError(f"run {info.id} has unloadable schema "
                             f"{info.schema!r}")
        result = result_type.from_rows(
            info, self._result_payloads(info.id),
            [FailureRecord.from_dict(payload)
             for payload in self.failures_for(info.id)],
            info.attrs.get("pool_size"))
        if "stats" in info.attrs:
            # An ingested witness artifact carries only its aggregate
            # stats, kept on the run; live rows carry per-witness shares.
            result.stats = dict(info.attrs["stats"])
        return result

    def export_matrix(self, run_ids: Optional[Iterable[int]] = None):
        """Assemble a :class:`~repro.pipeline.matrix.MatrixCampaignResult`
        from the store's campaign cells (all of them, or ``run_ids``).

        Requires every chosen cell to cover the same seed set and a
        recorded module fingerprint for each seed — exactly what one
        (possibly resumed) matrix campaign leaves behind.
        """
        from ..pipeline.campaign import CAMPAIGN_SCHEMA
        from ..pipeline.matrix import MatrixCampaignResult
        chosen = [info for info in self.runs()
                  if info.schema == CAMPAIGN_SCHEMA and info.debugger]
        if run_ids is not None:
            wanted = set(run_ids)
            chosen = [info for info in chosen if info.id in wanted]
        if not chosen:
            raise StoreError(
                "no campaign cells with a recorded debugger to "
                "assemble a matrix from")
        seed_sets = {info.id: self.seeds_evaluated(info.id)
                     for info in chosen}
        seeds = seed_sets[chosen[0].id]
        for info in chosen[1:]:
            if seed_sets[info.id] != seeds:
                raise StoreError(
                    f"matrix cells cover different seed sets: run "
                    f"{chosen[0].id} has {len(seeds)} seeds, run "
                    f"{info.id} has {len(seed_sets[info.id])}")
        fingerprints = {}
        for seed in seeds:
            fingerprint = self.module_fingerprint(seed)
            if fingerprint is None:
                raise StoreError(
                    f"no module fingerprint recorded for seed {seed}; "
                    f"cannot assemble a repro-matrix/1 artifact")
            fingerprints[seed] = fingerprint
        matrix = MatrixCampaignResult(fingerprints=fingerprints)
        for info in chosen:
            key = (info.family, info.version, info.debugger)
            if key in matrix.cells:
                raise StoreError(
                    f"two stored cells share the matrix key {key}; "
                    f"pass run_ids to disambiguate")
            matrix.cells[key] = cell = self._load(info)
            # Every cell counts the same seeds, quarantined ones too.
            matrix.pool_size = cell.pool_size
        return matrix

    # -- artifact ingest -----------------------------------------------------

    def ingest(self, artifact, debugger: str = "") -> List[int]:
        """Store an existing artifact's contents under the exact rows a
        live run would resume; returns the run ids it landed in.

        Accepts every keyed-unit result (campaign, matrix, verify,
        reduction, bisection — see
        :func:`~repro.pipeline.results.result_types`).  A
        ``repro-campaign/1`` artifact does not record which debugger
        produced it; pass ``debugger`` to file it under the cell a live
        run would resume.  A bisection row key hashes the seed's
        lowered module, lowered here when the store has none recorded.
        """
        from ..pipeline.results import result_types
        if type(artifact) not in result_types().values():
            raise StoreError(
                f"{type(artifact).__name__} artifacts are not stored in "
                f"a campaign store (supported: campaign, matrix, verify, "
                f"reduction, bisect results)")
        run_ids = []
        for cell, result in artifact.stored_cells(debugger):
            rows = list(result.rows(self))
            # The run keeps what its rows do not imply: a pool other
            # than the seeds they count, and unsplit aggregate stats.
            counted = {seed for seed, *_ in rows} | \
                {record.seed for record in result.failures}
            attrs = {} if result.pool_size == len(counted) else \
                {"pool_size": result.pool_size}
            if result.STATS:
                attrs["stats"] = dict(result.stats)
            run = self.run_id(cell.schema, cell.family, cell.version,
                              cell.levels, debugger=cell.debugger,
                              engine=cell.engine, attrs=attrs)
            for seed, key, position, payload in rows:
                self.put_result(run, seed, payload, key=key,
                                position=position)
            for record in result.failures:
                self.put_failure(run, record.seed, record.item,
                                 record.to_dict())
            run_ids.append(run)
        for seed, fingerprint in artifact.module_fingerprints().items():
            self.record_module_fingerprint(seed, fingerprint)
        return run_ids

    # -- statistics ----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Store-wide totals for ``repro-db stats``: row counts per
        table, compressed vs raw blob bytes, dedup savings."""
        counts = {}
        for table in ("blobs", "programs", "module_fingerprints",
                      "runs", "results", "failures", "jobs"):
            counts[table] = self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"]
        sizes = self._conn.execute(
            "SELECT COALESCE(SUM(LENGTH(data)), 0) AS stored,"
            " COALESCE(SUM(raw_size), 0) AS raw FROM blobs").fetchone()
        references = self._conn.execute(
            "SELECT (SELECT COUNT(*) FROM results)"
            " + (SELECT COUNT(*) FROM programs)"
            " + (SELECT COUNT(*) FROM failures) AS n").fetchone()
        per_schema: Dict[str, int] = {}
        for row in self._conn.execute(
                "SELECT schema, COUNT(*) AS n FROM runs GROUP BY schema"):
            per_schema[row["schema"]] = row["n"]
        return {
            "schema": DB_SCHEMA,
            "path": self.path,
            "tables": counts,
            "runs_per_schema": per_schema,
            "blob_bytes_stored": sizes["stored"],
            "blob_bytes_raw": sizes["raw"],
            "blob_references": references["n"],
            "deduplicated_blobs": references["n"] - counts["blobs"],
        }
