"""Interior members of the WAL tree relay: crash matrix and snapshot resync.

An interior member follows its parent *and* ships its own journal to
its children, so its crashes and its journal swaps are what the relay
adds over plain follower shipping.  Row-level behaviour of the relay
(inserts, deletes, rollbacks, restarts) is covered by
``tests/distribution/test_syncdb.py``.
"""

from __future__ import annotations

import repro.replication.tree as tree_module
from repro.distribution import MAryTree
from repro.fault.crashsim import (
    CrashCase,
    FailpointFile,
    SimulatedCrashError,
    apply_workload_txn,
    build_crash_db,
    database_state,
    frame_boundaries,
    run_crash_matrix,
    verify_database,
)
from repro.replication import Recoverer, RecoveryStage, TreeRelay
from repro.util.rng import make_rng

from tests.conftest import build_network

NAMES = [f"s{k}" for k in range(1, 8)]
#: interior member of the 7-station m=2 tree; its children are s4, s5
INTERIOR = "s2"
SUBTREE = ("s2", "s4", "s5")
TXNS = 12


def _relay(workdir):
    net = build_network(7)
    master = build_crash_db("master")
    relay = TreeRelay(net, MAryTree(7, 2, names=NAMES), master, workdir)
    net.quiesce()  # every member subscribed at LSN 0
    return net, master, relay


def _write(master, relay, rng, first, count):
    for k in range(first, first + count):
        apply_workload_txn(master, k, rng)
        relay.flush()


def _mirror_problems(relay, stations):
    """Lag, row and integrity violations of ``stations`` against the
    master (empty when every one mirrors it)."""
    master_state = database_state(relay.master)
    problems = []
    for name in stations:
        db = relay.followers[name].db
        if relay.lag(name):
            problems.append(f"{name} lags by {relay.lag(name)} frames")
        elif database_state(db) != master_state:
            problems.append(f"{name} rows diverge from the master")
        problems += [f"{name}: {p}" for p in verify_database(db)]
    return problems


class InteriorCrashScenario:
    """Kill the interior member's journal at every frame boundary of
    the master's journal (the interior's is a byte prefix of it), then
    restart it and require its whole subtree to mirror the master."""

    name = "interior member crash matrix"

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def golden(self, workdir):
        net, master, relay = _relay(workdir)
        acked = {0: database_state(master)}
        rng = make_rng(0, "crashsim-workload")
        for k in range(1, TXNS + 1):
            apply_workload_txn(master, k, rng)
            acked[relay.journal.last_lsn] = database_state(master)
        relay.close()
        return acked, frame_boundaries(relay.journal.path)

    def sweeps(self, golden):
        _acked, bounds = golden
        # a stride of the whole stream: frame boundaries only
        return [(INTERIOR, bounds[-1], bounds, bounds[-1])]

    def check(self, golden, target, offset, casedir):
        acked, _bounds = golden

        def armed(network, station, *args, **kwargs):
            if station == target:
                kwargs["file_wrapper"] = lambda fh: FailpointFile(fh, offset)
            return Recoverer(network, station, *args, **kwargs)

        with self.monkeypatch.context() as patch:
            patch.setattr(tree_module, "Recoverer", armed)
            net, master, relay = _relay(casedir)
        try:
            crashed = False
            try:
                _write(master, relay, make_rng(0, "crashsim-workload"),
                       1, TXNS)
                net.quiesce()
            except SimulatedCrashError:
                crashed = True
            # The dead process stops receiving: drop what is in flight.
            net.set_down(target, True)
            net.quiesce()
            net.set_down(target, False)
            follower = relay.restart(target)
            lsn = follower.applied_lsn
            if database_state(follower.db) != acked.get(lsn):
                detail = f"recovered to LSN {lsn}, not an acked prefix"
            else:
                net.quiesce()
                relay.flush()
                net.quiesce()
                detail = "; ".join(_mirror_problems(relay, SUBTREE))
            return CrashCase(target, offset, not detail, crashed, lsn, detail)
        finally:
            relay.close()


class TestInteriorCrash:
    def test_every_frame_boundary_recovers_the_subtree(
        self, tmp_path, monkeypatch
    ):
        report = run_crash_matrix(InteriorCrashScenario(monkeypatch), tmp_path)
        assert report.ok, [c.detail for c in report.failures]
        # 0, one boundary per frame, and the no-crash control at the end
        assert len(report.cases) == TXNS + 1
        assert sum(case.crashed for case in report.cases) == TXNS
        assert sorted(case.outcome for case in report.cases) == list(
            range(TXNS + 1)
        )


class TestInteriorSnapshotResync:
    def test_interior_resync_keeps_relaying(self, tmp_path):
        net, master, relay = _relay(tmp_path)
        rng = make_rng(0, "crashsim-workload")
        try:
            _write(master, relay, rng, 1, 4)
            net.quiesce()
            net.set_down(INTERIOR, True)
            _write(master, relay, rng, 5, 4)
            net.quiesce()
            # The master checkpoints the interior's position away.
            relay.shippers["s1"].snapshot_fn()
            old_journal = relay.followers[INTERIOR].journal
            net.set_down(INTERIOR, False)
            _write(master, relay, rng, 9, 4)
            net.quiesce()

            interior = relay.followers[INTERIOR]
            assert RecoveryStage.DOWNLOADING_SNAPSHOT in interior.stage_history
            assert interior.journal is not old_journal
            assert relay.shippers[INTERIOR].journal is interior.journal
            # The children were behind the interior's new journal base,
            # so they resync from the interior's snapshot in turn.
            for child in ("s4", "s5"):
                stages = relay.followers[child].stage_history
                assert RecoveryStage.DOWNLOADING_SNAPSHOT in stages
            assert _mirror_problems(relay, NAMES[1:]) == []

            # Live frames keep flowing through the swapped journal.
            _write(master, relay, rng, 13, 3)
            net.quiesce()
            assert _mirror_problems(relay, NAMES[1:]) == []
        finally:
            relay.close()
