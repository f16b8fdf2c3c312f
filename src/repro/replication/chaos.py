"""E17's crash harness, extended to replication followers (E18).

The primary-side matrix (:mod:`repro.fault.crashsim`) proves the
committed-prefix guarantee for a single engine.  This module proves
the *replicated* version: a follower killed at an arbitrary byte
offset of its write stream — while replaying shipped frames, or while
downloading a snapshot — always

* recovers to a **consistent prefix**: its rebuilt table state equals
  the primary's acked state at the follower's recovered applied LSN,
  with every constraint and secondary index intact, and
* **resumes**: a restarted follower re-subscribes from that LSN and
  catches all the way up to the primary.

The kill mechanism is the same :class:`~repro.fault.crashsim
.FailpointFile` E17 arms on the primary's journal — here wrapped
around the follower's journal (``file_wrapper``) or its snapshot
download (``snapshot_wrapper``), so the failpoint fires inside a live
network handler and the crash propagates out of the simulator drain
exactly where a real process would die.  The sweep itself runs through
the shared engine, :func:`~repro.fault.crashsim.run_crash_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    CrashCase,
    FailpointFile,
    SimulatedCrashError,
    apply_workload_txn,
    build_crash_db,
    crash_ddl,
    database_state,
    frame_boundaries,
    verify_database,
)
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb.wal import Journal
from repro.replication.recoverer import Recoverer
from repro.replication.shipper import WalShipper
from repro.util.rng import make_rng

__all__ = ["FollowerCrashScenario"]


class _Cluster:
    """A fresh primary + one follower, rebuilt per kill point.

    With ``checkpoint`` the primary snapshots after half the workload,
    opening a truncated journal, so a from-zero subscriber must take
    the snapshot-download path.
    """

    def __init__(
        self, workdir: Path, *, txns: int, seed: int, checkpoint: bool
    ) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.network = Network(Simulator(), default_latency_s=0.002)
        self.network.add(Station("primary"))
        self.network.add(Station("follower"))
        self.journal = Journal(workdir / "primary.wal", sync="commit")
        self.db = build_crash_db("primary", journal=self.journal)
        self.snapshot_path = workdir / "primary.snapshot"
        rng = make_rng(seed, "crashsim-workload")
        #: acked state per LSN (LSNs are 1..txns, one per transaction)
        self.acked: dict[int, dict[str, Any]] = {0: database_state(self.db)}
        for k in range(1, txns + 1):
            apply_workload_txn(self.db, k, rng)
            self.acked[self.journal.last_lsn] = database_state(self.db)
            if checkpoint and k == txns // 2:
                self.db.snapshot(str(self.snapshot_path))
        self.shipper = WalShipper(
            self.network, "primary", self.journal,
            snapshot_path=self.snapshot_path,
        )

    def follower(self, **wrappers: Any) -> Recoverer:
        return Recoverer(
            self.network, "follower", "primary", CRASH_SCHEMAS,
            self.workdir / "follower", sync_policy="commit",
            ddl_fn=crash_ddl, **wrappers,
        )


@dataclass
class FollowerGolden:
    """The crash-free primary runs every follower kill point is judged
    against."""

    #: primary acked state per LSN (0 is the empty initial state)
    acked: dict[int, dict[str, Any]]
    #: per target: the size of the stream a from-zero follower writes
    sizes: dict[str, int]
    #: per target: frame boundaries of that stream
    boundaries: dict[str, list[int]]


class FollowerCrashScenario:
    """Kill a live follower at every point of its two write streams.

    ``replay`` — the follower tails the primary from LSN 0; its journal
    mirrors the primary's frame bytes, so the sweep covers the primary
    journal's frame boundaries and every ``stride``-th byte.
    ``snapshot`` — the primary is checkpointed after half the workload,
    so a from-zero subscriber downloads a snapshot; the download stream
    is killed at every ``snapshot_stride``-th byte.  Every point
    asserts consistent-prefix recovery *and* full resume; a case's
    ``outcome`` is the LSN the restarted follower recovered to.
    """

    name = "follower crash matrix"

    def __init__(self, *, txns: int = 24, stride: int = 96,
                 snapshot_stride: int = 1024, seed: int = 0) -> None:
        self.txns = txns
        self.stride = stride
        self.snapshot_stride = snapshot_stride
        self.seed = seed

    def _cluster(self, workdir: Path, target: str) -> _Cluster:
        return _Cluster(workdir, txns=self.txns, seed=self.seed,
                        checkpoint=target == "snapshot")

    def golden(self, workdir: Path) -> FollowerGolden:
        replay = self._cluster(workdir / "replay", "replay")
        replay.journal.close()
        snapshot = self._cluster(workdir / "snapshot", "snapshot")
        snapshot.journal.close()
        return FollowerGolden(
            acked=replay.acked,
            sizes={
                "replay": replay.journal.path.stat().st_size,
                "snapshot": snapshot.snapshot_path.stat().st_size,
            },
            boundaries={
                "replay": frame_boundaries(replay.journal.path),
                "snapshot": [0],
            },
        )

    def sweeps(self, golden: FollowerGolden) -> list[tuple]:
        return [
            ("replay", golden.sizes["replay"], golden.boundaries["replay"],
             self.stride),
            ("snapshot", golden.sizes["snapshot"],
             golden.boundaries["snapshot"], self.snapshot_stride),
        ]

    def check(self, golden: FollowerGolden, target: str, offset: int,
              casedir: Path) -> CrashCase:
        """Kill the follower at ``offset`` of ``target``, restart,
        verify.  Every file the case opens is closed on every path."""
        cluster = self._cluster(casedir, target)
        wrapper = "file_wrapper" if target == "replay" \
            else "snapshot_wrapper"
        doomed = cluster.follower(
            **{wrapper: lambda fh: FailpointFile(fh, offset)}
        )
        survivor: Recoverer | None = None
        try:
            crashed = False
            try:
                doomed.start()
                cluster.network.quiesce()
            except SimulatedCrashError:
                crashed = True
            # The dead process stops receiving; drain whatever is still
            # in flight (dropped on the floor, as for any down station).
            cluster.network.set_down("follower", True)
            cluster.network.quiesce()
            # Its descriptors die with it; what it wrote stays on disk.
            doomed.stop()

            # Cold restart over the same data directory, failpoint removed.
            survivor = cluster.follower()
            cluster.network.set_down("follower", False)
            survivor.start()
            lsn = survivor.applied_lsn
            detail = _audit(golden, cluster, survivor)
            return CrashCase(target, offset, not detail, crashed, lsn,
                             detail)
        finally:
            if survivor is not None:
                survivor.stop()
            cluster.journal.close()


def _audit(
    golden: FollowerGolden, cluster: _Cluster, survivor: Recoverer
) -> str:
    """Consistent prefix, then full resume; the first violation found,
    or "" when the restarted follower passes both."""
    # Consistent prefix BEFORE any resumed traffic is applied: the
    # recovered LSN must be an acked transaction (or the snapshot
    # watermark) and the table state must match the primary's state at
    # exactly that LSN.
    lsn = survivor.applied_lsn
    assert survivor.db is not None
    if lsn not in golden.acked:
        return f"recovered to LSN {lsn}, which the primary never acked"
    if database_state(survivor.db) != golden.acked[lsn]:
        return ("recovered state diverges from the primary's acked "
                f"state at LSN {lsn}")
    problems = verify_database(survivor.db)
    if problems:
        return "; ".join(problems)

    # Resume: the re-subscription must carry the follower all the way
    # to the primary's horizon.
    cluster.network.quiesce()
    cluster.shipper.pump()
    cluster.network.quiesce()
    if survivor.applied_lsn != cluster.journal.last_lsn:
        return (f"resumed to LSN {survivor.applied_lsn}, primary is at "
                f"{cluster.journal.last_lsn}")
    if database_state(survivor.db) != database_state(cluster.db):
        return "caught-up state diverges from the primary"
    return ""
