"""Shared replication fixtures: primary + WAL-shipped followers.

The shipper/recoverer, failover and chaos suites all need the same
assembly — a journal-backed primary running the E17 crash workload,
a :class:`~repro.replication.WalShipper`, and N named followers on a
fresh simulated network.  :class:`ReplCluster` is that assembly once;
the ``repl_cluster`` factory fixture hands out instances rooted in the
test's ``tmp_path``.
"""

from __future__ import annotations

import pytest

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    apply_workload_txn,
    build_crash_db,
    crash_ddl,
)
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb.wal import Journal
from repro.replication import Recoverer, WalShipper
from repro.util.rng import make_rng


class ReplCluster:
    """One primary plus named followers over a fresh network."""

    #: exposed so tests rebuilding a follower use the exact same DDL
    ddl = staticmethod(crash_ddl)

    def __init__(self, tmp_path, followers=("f1",)):
        self.tmp = tmp_path
        self.network = Network(Simulator(), default_latency_s=0.002)
        self.network.add(Station("primary"))
        self.journal = Journal(tmp_path / "primary.wal", sync="commit")
        self.db = build_crash_db("primary", journal=self.journal)
        self.rng = make_rng(0, "crashsim-workload")
        self.next_txn = 1
        self.shipper = WalShipper(
            self.network, "primary", self.journal,
            snapshot_path=tmp_path / "primary.snapshot",
            snapshot_fn=lambda: self.db.snapshot(
                str(tmp_path / "primary.snapshot")
            ),
        )
        self.recoverers = {}
        for name in followers:
            self.add_follower(name)

    def add_follower(self, name):
        self.network.add(Station(name))
        recoverer = Recoverer(
            self.network, name, "primary", CRASH_SCHEMAS,
            self.tmp / name, sync_policy="commit", ddl_fn=crash_ddl,
        )
        self.recoverers[name] = recoverer
        return recoverer

    def write(self, n=1):
        for _ in range(n):
            apply_workload_txn(self.db, self.next_txn, self.rng)
            self.next_txn += 1

    def sync(self):
        self.shipper.pump()
        self.network.quiesce()

    def close(self):
        """Close the primary's and every follower's journal."""
        self.journal.close()
        for recoverer in self.recoverers.values():
            if recoverer.journal is not None:
                recoverer.journal.close()


@pytest.fixture
def repl_cluster(tmp_path):
    """Factory: ``cluster = repl_cluster(followers=("f1", "f2"))``;
    every cluster built is closed at teardown."""
    clusters = []

    def build(followers=("f1",)):
        cluster = ReplCluster(tmp_path, followers)
        clusters.append(cluster)
        return cluster

    yield build
    for cluster in clusters:
        cluster.close()
