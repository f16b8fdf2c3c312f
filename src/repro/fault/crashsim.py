"""Deterministic crash-injection harness for the WAL durability layer.

Where the rest of :mod:`repro.fault` kills *stations* mid-broadcast,
this module kills the *storage engine* mid-write and proves recovery
honours the **committed-prefix guarantee**: after a crash at any byte
of the journal's write stream,

* every transaction acknowledged (appended and fsynced) before the
  crash point is fully present after recovery,
* no partial transaction is visible, and
* every PK / unique / FK constraint and every secondary index is
  consistent after the rebuild.

Two complementary instruments:

* :class:`FailpointFile` — wraps the journal's real file object and
  kills the write stream at an exact byte offset (truncating it, or
  garbling the byte first), so a live engine run crashes mid-append
  exactly where the schedule says;
* :func:`run_crash_matrix` — the one crash-matrix engine.  A scenario
  records a golden run; the runner enumerates every frame boundary and
  every ``stride``-byte offset of each target write stream
  (:func:`crash_points`) and asks the scenario to kill, recover and
  audit at each point.  :class:`JournalCrashScenario` here sweeps the
  single-engine journal (truncate and garble);
  :class:`~repro.replication.chaos.FollowerCrashScenario` and
  :class:`~repro.sharding.crash2pc.TwoPCCrashScenario` run through the
  same engine.

Everything is seeded and offset-driven — a failing crash point is a
one-line reproduction.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.rdb import (
    Action,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    JournalCorruptError,
    Schema,
)
from repro.rdb.wal import Journal, read_frames
from repro.util.rng import make_rng

__all__ = [
    "SimulatedCrashError",
    "FailpointFile",
    "CRASH_SCHEMAS",
    "AckedTxn",
    "CrashWorkload",
    "crash_ddl",
    "build_crash_db",
    "run_crash_workload",
    "recover_crash_db",
    "verify_database",
    "database_state",
    "frame_boundaries",
    "crash_points",
    "CrashCase",
    "CrashReport",
    "run_crash_matrix",
    "JournalCrashScenario",
]

T = ColumnType

#: Parent table with a unique secondary key and extra indexed columns.
DOCS = Schema(
    name="crash_docs",
    columns=(
        Column("doc_id", T.INT, nullable=False),
        Column("title", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("body", T.TEXT),
    ),
    primary_key=("doc_id",),
    unique=(("title",),),
)

#: Child table whose FK cascades on delete.  The workload only ever
#: points a ref at the doc inserted in the *same* transaction, so
#: salvage-skipping any single journal record can never strand a ref.
REFS = Schema(
    name="crash_refs",
    columns=(
        Column("ref_id", T.INT, nullable=False),
        Column("doc_id", T.INT),
        Column("anchor", T.TEXT, nullable=False, default=""),
    ),
    primary_key=("ref_id",),
    foreign_keys=(
        ForeignKey(("doc_id",), "crash_docs", ("doc_id",),
                   on_delete=Action.CASCADE),
    ),
)

CRASH_SCHEMAS = (DOCS, REFS)


class SimulatedCrashError(RuntimeError):
    """Raised by :class:`FailpointFile` when its armed failpoint fires."""


class FailpointFile:
    """A binary file wrapper that kills the write stream at a byte offset.

    Counts cumulative bytes ever written to the underlying file (its
    size at wrap time plus everything written through the wrapper).
    Once a write would carry the total past ``crash_at``:

    * ``truncate`` mode writes only the prefix that fits, flushes it,
      and raises :class:`SimulatedCrashError` — the classic torn write;
    * ``garble`` mode additionally writes the byte *at* the failpoint
      with one bit flipped first — a misdirected/corrupted sector.

    Every later write also raises, mimicking a dead process.  Reads are
    not intercepted; recovery reopens the path with a plain file.
    """

    def __init__(
        self, fh: BinaryIO, crash_at: int, *, mode: str = "truncate"
    ) -> None:
        if mode not in ("truncate", "garble"):
            raise ValueError(f"unknown failpoint mode {mode!r}")
        if crash_at < 0:
            raise ValueError("crash_at must be >= 0")
        self._fh = fh
        self.crash_at = crash_at
        self.mode = mode
        self.crashed = False
        self.written = os.fstat(fh.fileno()).st_size

    def write(self, data: bytes) -> int:
        """Write ``data``, or die at the failpoint."""
        if self.crashed:
            raise SimulatedCrashError(
                f"write after crash at byte {self.crash_at}"
            )
        remaining = self.crash_at - self.written
        if len(data) <= remaining:
            self._fh.write(data)
            self.written += len(data)
            return len(data)
        prefix = bytes(data[:remaining])
        if self.mode == "garble" and remaining < len(data):
            prefix += bytes([data[remaining] ^ 0x40])
        self._fh.write(prefix)
        self._fh.flush()
        self.written += len(prefix)
        self.crashed = True
        raise SimulatedCrashError(f"failpoint fired at byte {self.crash_at}")

    def flush(self) -> None:
        """Flush the intact prefix."""
        self._fh.flush()

    def fileno(self) -> int:
        """Underlying descriptor (lets fsync-based sync policies work)."""
        return self._fh.fileno()

    def tell(self) -> int:
        """Position in the underlying file."""
        return self._fh.tell()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying file is closed."""
        return self._fh.closed


# ---------------------------------------------------------------------------
# Golden workload
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AckedTxn:
    """One acknowledged transaction: its LSN, durable byte extent in the
    journal, and the full expected database state right after it."""

    txn_id: int
    lsn: int
    start_offset: int
    end_offset: int
    state: dict[str, dict[tuple, dict[str, Any]]]


@dataclass
class CrashWorkload:
    """The golden run a crash matrix replays against."""

    journal_path: Path
    data: bytes
    acks: list[AckedTxn]

    def boundaries(self) -> list[int]:
        """Record boundaries: 0 plus every transaction's end offset."""
        return [0] + [ack.end_offset for ack in self.acks]

    def state_at(self, offset: int) -> dict[str, dict[tuple, dict[str, Any]]]:
        """Expected state after crashing at byte ``offset``: the state of
        the last transaction fully durable at or before it."""
        state: dict[str, dict[tuple, dict[str, Any]]] = {
            schema.name: {} for schema in CRASH_SCHEMAS
        }
        for ack in self.acks:
            if ack.end_offset <= offset:
                state = ack.state
        return state

    def damaged_ack(self, offset: int) -> AckedTxn | None:
        """The transaction whose journal record covers byte ``offset``."""
        for ack in self.acks:
            if ack.start_offset <= offset < ack.end_offset:
                return ack
        return None


def crash_ddl(db: Database) -> None:
    """The workload's secondary-index DDL.  Every database over
    :data:`CRASH_SCHEMAS` issues exactly this: a fresh one, a recovered
    one (backfilling from rows), and a follower after each rebuild."""
    db.create_hash_index("crash_docs", "docs_by_version", ("version",))
    db.create_sorted_index("crash_docs", "docs_by_id", "doc_id")
    db.create_sorted_index("crash_refs", "refs_by_id", "ref_id")


def build_crash_db(name: str = "crashdb",
                   journal: Journal | None = None) -> Database:
    """A database over :data:`CRASH_SCHEMAS` with :func:`crash_ddl`
    declared."""
    db = Database(name)
    for schema in CRASH_SCHEMAS:
        db.create_table(schema)
    crash_ddl(db)
    if journal is not None:
        db.attach_journal(journal)
    return db


def database_state(db: Database) -> dict[str, dict[tuple, dict[str, Any]]]:
    """``{table: {pk: row}}`` deep-enough copy for state comparison."""
    state: dict[str, dict[tuple, dict[str, Any]]] = {}
    for name in db.table_names():
        table = db.table(name)
        state[name] = {
            table.schema.primary_key_of(row): dict(row)
            for row in table.rows()
        }
    return state


def apply_workload_txn(db: Database, k: int, rng: Any) -> None:
    """Apply transaction ``k`` of the deterministic mixed workload.

    Each transaction inserts one doc (variable-size body so record sizes
    vary), usually a ref pointing at *that* doc, and sometimes updates
    or cascade-deletes an earlier doc.
    """
    with db.transaction():
        db.insert("crash_docs", {
            "doc_id": k,
            "title": f"doc-{k:05d}",
            "version": 1,
            "body": "x" * int(rng.integers(0, 120)),
        })
        if rng.random() < 0.7:
            db.insert("crash_refs", {
                "ref_id": k, "doc_id": k, "anchor": f"a{k}",
            })
        alive = [row["doc_id"] for row in db.select("crash_docs")]
        if len(alive) > 3 and rng.random() < 0.4:
            victim = alive[int(rng.integers(0, len(alive) - 1))]
            if rng.random() < 0.5:
                db.update_pk("crash_docs", victim, {
                    "version": int(rng.integers(2, 9)),
                })
            else:
                db.delete_pk("crash_docs", victim)


def run_crash_workload(
    workdir: str | Path,
    *,
    txns: int = 40,
    seed: int = 0,
    crash_at: int | None = None,
) -> CrashWorkload:
    """Run the workload with ``sync=commit`` (acked ⇒ durable),
    recording every transaction's byte extent and expected state.

    With ``crash_at`` the journal writes through a live
    :class:`FailpointFile` armed at that byte: the run stops when the
    failpoint fires, and the result holds only the transactions acked
    before it.  Recovering its ``journal_path`` exercises the real
    append/fsync path rather than post-hoc byte surgery.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "journal.wal"
    journal = Journal(
        path, sync="commit",
        file_wrapper=None if crash_at is None
        else lambda fh: FailpointFile(fh, crash_at),
    )
    db = build_crash_db(journal=journal)
    rng = make_rng(seed, "crashsim-workload")
    acks: list[AckedTxn] = []
    try:
        for k in range(1, txns + 1):
            start = journal.tell()
            apply_workload_txn(db, k, rng)
            acks.append(AckedTxn(
                txn_id=k,
                lsn=journal.last_lsn,
                start_offset=start,
                end_offset=journal.tell(),
                state=database_state(db),
            ))
    except SimulatedCrashError:
        pass
    finally:
        journal.close()
    return CrashWorkload(journal_path=path, data=path.read_bytes(),
                         acks=acks)


def recover_crash_db(
    journal_path: str | Path, *, salvage: bool = False
) -> Database:
    """Recover a workload database from ``journal_path`` and re-issue
    :func:`crash_ddl` (backfilling from rows)."""
    db = Database.recover(
        "crashdb", CRASH_SCHEMAS, journal_path=str(journal_path),
        salvage=salvage,
    )
    crash_ddl(db)
    return db


# ---------------------------------------------------------------------------
# Recovery verifier
# ---------------------------------------------------------------------------
def verify_database(db: Database) -> list[str]:
    """Exhaustively check every integrity invariant of ``db``.

    Returns a list of human-readable violations (empty ⇒ consistent):
    duplicate primary keys, unique-constraint breaks, dangling foreign
    keys, and hash/sorted secondary indexes that disagree with the heap.
    """
    problems: list[str] = []
    for name in db.table_names():
        table = db.table(name)
        schema = table.schema
        rows = list(table.items())
        seen_pks: set[tuple] = set()
        for _rowid, row in rows:
            pk = schema.primary_key_of(row)
            if pk in seen_pks:
                problems.append(f"{name}: duplicate primary key {pk!r}")
            seen_pks.add(pk)
        for columns in schema.unique:
            seen: set[tuple] = set()
            for _rowid, row in rows:
                key = tuple(row[c] for c in columns)
                if any(v is None for v in key):
                    continue
                if key in seen:
                    problems.append(
                        f"{name}: duplicate unique key {key!r} "
                        f"on ({', '.join(columns)})"
                    )
                seen.add(key)
        for fk in schema.foreign_keys:
            parent = db.table(fk.parent_table)
            parent_keys = {
                tuple(prow[c] for c in fk.parent_columns)
                for prow in parent.rows()
            }
            for _rowid, row in rows:
                key = tuple(row[c] for c in fk.columns)
                if any(v is None for v in key):
                    continue
                if key not in parent_keys:
                    problems.append(
                        f"{name}: dangling FK {key!r} -> {fk.parent_table}"
                    )
        for index in table.indexes.hash_indexes:
            expected: dict[tuple, set[int]] = {}
            for rowid, row in rows:
                key = tuple(row[c] for c in index.columns)
                expected.setdefault(key, set()).add(rowid)
            if len(index) != sum(len(ids) for ids in expected.values()):
                problems.append(
                    f"{name}.{index.name}: {len(index)} entries, heap has "
                    f"{sum(len(ids) for ids in expected.values())}"
                )
            for key, rowids in expected.items():
                if set(index.lookup(key)) != rowids:
                    problems.append(
                        f"{name}.{index.name}: key {key!r} maps to "
                        f"{sorted(index.lookup(key))}, heap says "
                        f"{sorted(rowids)}"
                    )
        for index in table.indexes.sorted_indexes:
            got = sorted(index.range(None, None))
            heap = sorted(rowid for rowid, _ in rows)
            if got != heap:
                problems.append(
                    f"{name}.{index.name}: sorted index rowids {got} != "
                    f"heap rowids {heap}"
                )
    return problems


# ---------------------------------------------------------------------------
# The crash-matrix engine
# ---------------------------------------------------------------------------
def frame_boundaries(path: str | Path) -> list[int]:
    """Byte offsets of a journal's frame ends: 0 plus each cumulative
    frame end (just ``[0]`` when the journal does not exist)."""
    bounds = [0]
    for frame in read_frames(path):
        bounds.append(bounds[-1] + len(frame.data))
    return bounds


def crash_points(
    size: int, boundaries: list[int], *, stride: int = 64
) -> list[int]:
    """Every record boundary plus every ``stride``-byte offset up to and
    including ``size`` (the no-crash control point)."""
    points = {b for b in boundaries if 0 <= b <= size}
    points.update(range(0, size, max(1, stride)))
    points.add(size)
    return sorted(points)


@dataclass(frozen=True, slots=True)
class CrashCase:
    """One kill point's outcome."""

    #: which write stream was killed: a sweep name or a node
    target: Any
    offset: int
    ok: bool
    #: whether the failpoint fired (the end-of-file control never does)
    crashed: bool = False
    #: the scenario's verdict: the golden state a 2PC cluster recovered
    #: to, a follower's recovered LSN, or the journal sweep's counters
    outcome: Any = None
    detail: str = ""


@dataclass
class CrashReport:
    """Every case of one crash matrix."""

    name: str
    cases: list[CrashCase] = field(default_factory=list)

    @property
    def failures(self) -> list[CrashCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        """True when every kill point recovered correctly."""
        return not self.failures

    @property
    def counters(self) -> Counter[str]:
        """Per-case counters summed over the matrix (the journal
        sweeps' torn tails, corruptions detected, records recovered)."""
        total: Counter[str] = Counter()
        for case in self.cases:
            if isinstance(case.outcome, Counter):
                total.update(case.outcome)
        return total

    def summary(self) -> str:
        """One-line human summary."""
        fired = sum(1 for c in self.cases if c.crashed)
        counts = "".join(
            f", {value} {key.replace('_', ' ')}"
            for key, value in sorted(self.counters.items())
        )
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{self.name}: {len(self.cases)} points ({fired} fired)"
            f"{counts} — {status}"
        )

    def to_json(self) -> str:
        """Serialize the report for CI artifacts."""
        return json.dumps(
            {
                "name": self.name,
                "points": len(self.cases),
                "ok": self.ok,
                "counters": dict(self.counters),
                "failures": [
                    {"target": c.target, "offset": c.offset,
                     "detail": c.detail}
                    for c in self.failures
                ],
            },
            indent=2,
        )


def run_crash_matrix(scenario: Any, workdir: str | Path) -> CrashReport:
    """Record ``scenario``'s golden run, then kill-at-point sweep it.

    A scenario is any object with a ``name`` and three methods:

    * ``golden(dir)`` — the crash-free run: the state after every ack
      and each target's write-stream size and frame boundaries;
    * ``sweeps(golden)`` — ``(target, size, boundaries, stride)`` per
      write stream to kill;
    * ``check(golden, target, offset, dir)`` — kill ``target`` at
      ``offset``, recover, audit against the golden run, and return the
      :class:`CrashCase`.

    Each sweep covers :func:`crash_points` of its stream; every case
    gets its own numbered directory.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    golden = scenario.golden(workdir / "golden")
    report = CrashReport(scenario.name)
    for target, size, boundaries, stride in scenario.sweeps(golden):
        for offset in crash_points(size, boundaries, stride=stride):
            casedir = workdir / f"case-{len(report.cases) + 1:04d}"
            casedir.mkdir()
            report.cases.append(
                scenario.check(golden, target, offset, casedir)
            )
    return report


# ---------------------------------------------------------------------------
# The single-engine journal scenario (E17)
# ---------------------------------------------------------------------------
class JournalCrashScenario:
    """Kill the workload journal at every point of two sweeps.

    ``truncate`` cuts the journal there, recovers strictly, and asserts
    the committed-prefix guarantee plus full constraint/index
    consistency.  ``garble`` flips one bit there: strict recovery must
    detect mid-file corruption (damage in the final record is a torn
    tail) and salvage recovery must keep everything but the damaged
    record, consistently.
    """

    name = "crash matrix"

    def __init__(self, *, txns: int = 40, stride: int = 64,
                 seed: int = 0) -> None:
        self.txns = txns
        self.stride = stride
        self.seed = seed

    def golden(self, workdir: Path) -> CrashWorkload:
        return run_crash_workload(workdir, txns=self.txns, seed=self.seed)

    def sweeps(self, golden: CrashWorkload) -> list[tuple]:
        size = len(golden.data)
        return [
            ("truncate", size, golden.boundaries(), self.stride),
            # A bit flip needs a byte to flip: stop one short of EOF.
            ("garble", size - 1, golden.boundaries(), self.stride),
        ]

    def check(self, golden: CrashWorkload, target: str, offset: int,
              casedir: Path) -> CrashCase:
        path = casedir / "journal.wal"
        if target == "truncate":
            return _check_truncation_point(golden, path, offset)
        return _check_garble_point(golden, path, offset)


def _check_truncation_point(
    workload: CrashWorkload, case_path: Path, offset: int
) -> CrashCase:
    """Crash-by-truncation at ``offset``: strict recovery must succeed
    and reproduce exactly the committed prefix."""
    crashed = offset < len(workload.data)
    case_path.write_bytes(workload.data[:offset])
    try:
        db = recover_crash_db(case_path, salvage=False)
    except JournalCorruptError as exc:
        return CrashCase(
            "truncate", offset, False, crashed,
            detail=f"strict recovery raised on pure truncation: {exc}",
        )
    if database_state(db) != workload.state_at(offset):
        return CrashCase(
            "truncate", offset, False, crashed,
            detail="committed-prefix violation: recovered state diverges "
            "from the last acked transaction at or before the crash point",
        )
    problems = verify_database(db)
    if problems:
        return CrashCase("truncate", offset, False, crashed,
                         detail="; ".join(problems))
    assert db.recovery_stats is not None
    return CrashCase("truncate", offset, True, crashed, Counter(
        torn_tails=db.recovery_stats.torn_tails,
        records_recovered=db.recovery_stats.records_recovered,
    ))


def _check_garble_point(
    workload: CrashWorkload, case_path: Path, offset: int
) -> CrashCase:
    """Flip one bit at ``offset``: strict recovery must detect mid-file
    corruption; salvage recovery must keep everything but the damaged
    record and stay consistent."""
    damaged = workload.damaged_ack(offset)
    data = bytearray(workload.data)
    data[offset] ^= 0x40
    case_path.write_bytes(bytes(data))
    is_final = damaged is workload.acks[-1] if damaged else True
    counters: Counter[str] = Counter()
    try:
        recover_crash_db(case_path, salvage=False)
        if not is_final:
            return CrashCase(
                "garble", offset, False, True,
                detail="strict recovery accepted mid-file corruption "
                "silently",
            )
    except JournalCorruptError:
        counters["corruptions_detected"] += 1
    db = recover_crash_db(case_path, salvage=True)
    assert db.recovery_stats is not None
    expected_recovered = len(workload.acks) - (1 if damaged else 0)
    if db.recovery_stats.records_recovered != expected_recovered:
        return CrashCase(
            "garble", offset, False, True, counters,
            f"salvage recovered {db.recovery_stats.records_recovered} "
            f"records, expected {expected_recovered}",
        )
    problems = verify_database(db)
    return CrashCase("garble", offset, not problems, True, counters,
                     "; ".join(problems))
