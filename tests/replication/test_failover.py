"""Failover promotion: election, epoch fencing, rejoin."""

from __future__ import annotations

import pytest

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    apply_workload_txn,
    database_state,
    verify_database,
)
from repro.net.messages import REPL_STATUS, REPL_SUBSCRIBE
from repro.net.station import Station
from repro.replication import FailoverCoordinator, Recoverer
from repro.util.rng import make_rng


@pytest.fixture
def cluster(repl_cluster):
    """Primary + two caught-up followers + a failover coordinator."""
    c = repl_cluster(followers=("f1", "f2"))
    c.coordinator = FailoverCoordinator(c.network)
    c.coordinator.set_primary(c.shipper)
    for recoverer in c.recoverers.values():
        recoverer.start()
        c.coordinator.add_follower(recoverer)
    c.write(6)
    c.sync()
    return c


class TestElection:
    def test_highest_applied_lsn_wins(self, cluster):
        # Hold f2 back: kill it, then write more so f1 pulls ahead.
        cluster.network.set_down("f2", True)
        cluster.write(3)
        cluster.sync()
        assert cluster.recoverers["f1"].applied_lsn == 9
        assert cluster.recoverers["f2"].applied_lsn == 6
        cluster.network.set_down("f2", False)
        cluster.network.set_down("primary", True)
        winner = cluster.coordinator.elect()
        assert winner.station_name == "f1"

    def test_down_followers_are_not_candidates(self, cluster):
        cluster.network.set_down("f1", True)
        assert cluster.coordinator.elect().station_name == "f2"

    def test_no_live_follower_raises(self, cluster):
        cluster.network.set_down("f1", True)
        cluster.network.set_down("f2", True)
        with pytest.raises(RuntimeError):
            cluster.coordinator.elect()


class TestPromotion:
    def test_promotion_preserves_every_replicated_commit(self, cluster):
        committed = database_state(cluster.db)
        cluster.network.set_down("primary", True)
        report = cluster.coordinator.promote()
        winner = report.new_primary
        new_shipper = cluster.coordinator.shipper
        assert new_shipper.station_name == winner
        assert report.promoted_lsn == 6
        assert new_shipper.journal.last_lsn == 6
        assert database_state(_winner_db(cluster, report)) == committed

    def test_new_epoch_is_fenced_above_old(self, cluster):
        cluster.network.set_down("primary", True)
        report = cluster.coordinator.promote()
        assert report.epoch == cluster.shipper.epoch + 1
        assert cluster.coordinator.shipper.epoch == report.epoch

    def test_survivors_retarget_and_follow_new_writes(self, cluster):
        cluster.network.set_down("primary", True)
        report = cluster.coordinator.promote()
        cluster.network.quiesce()
        winner_db = _winner_db(cluster, report)
        survivor = cluster.recoverers[report.retargeted[0]]
        rng = make_rng(1, "post-failover")
        for k in range(100, 104):
            apply_workload_txn(winner_db, k, rng)
        cluster.coordinator.shipper.pump()
        cluster.network.quiesce()
        assert database_state(survivor.db) == database_state(winner_db)
        assert survivor.epoch == report.epoch
        assert verify_database(survivor.db) == []

    def test_promotion_metric(self, cluster, metrics_registry):
        cluster.network.set_down("primary", True)
        cluster.coordinator.promote()
        assert "replication.promotions" in set(metrics_registry.names())

    def test_unreplicated_tail_is_not_promised(self, cluster):
        """Commits the primary journaled but never shipped are lost on
        failover — the async-replication contract E18 verifies the
        *converse* of (everything shipped survives)."""
        acked_at_horizon = database_state(cluster.db)
        cluster.network.set_down("primary", True)  # down BEFORE pump
        cluster.write(2)  # journaled locally, never shipped
        report = cluster.coordinator.promote()
        assert report.promoted_lsn == 6
        assert database_state(_winner_db(cluster, report)) == acked_at_horizon


class TestRejoin:
    def test_old_primary_rejoins_as_follower(self, cluster, tmp_path):
        cluster.network.set_down("primary", True)
        cluster.write(2)  # diverging unacked tail on the old primary
        report = cluster.coordinator.promote()
        cluster.network.quiesce()
        winner_db = _winner_db(cluster, report)

        def factory():
            return Recoverer(
                cluster.network, "primary", report.new_primary,
                CRASH_SCHEMAS, tmp_path / "old-primary",
                sync_policy="commit", ddl_fn=cluster.ddl,
            )

        rejoined = cluster.coordinator.rejoin_old_primary(report, factory)
        cluster.recoverers["primary"] = rejoined  # closed at teardown
        cluster.network.quiesce()
        assert not cluster.network.is_down("primary")
        assert database_state(rejoined.db) == database_state(winner_db)
        assert rejoined.epoch == report.epoch
        # It is a follower in the new group now.
        assert "primary" in cluster.coordinator.recoverers

    def test_deposed_shipper_cannot_serve_new_epoch_subscribers(
        self, cluster, tmp_path
    ):
        cluster.network.set_down("primary", True)
        report = cluster.coordinator.promote()
        cluster.network.quiesce()
        # Model a zombie that missed its own deposition: back up with its
        # protocol handlers still (re-)attached.
        cluster.network.set_down("primary", False)
        station = cluster.network.station("primary")
        station.on(REPL_SUBSCRIBE, cluster.shipper._on_subscribe)
        station.on(REPL_STATUS, cluster.shipper._on_status)
        cluster.network.add(Station("f3"))
        # A new-epoch follower subscribing to the OLD primary gets
        # nothing: the deposed shipper drops higher-epoch subscriptions.
        stray = Recoverer(
            cluster.network, "f3", "primary", CRASH_SCHEMAS,
            tmp_path / "f3", sync_policy="commit", ddl_fn=cluster.ddl,
            epoch=report.epoch,
        )
        cluster.recoverers["f3"] = stray  # closed at teardown
        stray.start()
        cluster.network.quiesce()
        assert stray.applied_lsn == 0
        assert "f3" not in cluster.shipper.followers


def _winner_db(cluster, report):
    """The promoted follower's database (it left ``recoverers``)."""
    for name, rec in cluster.recoverers.items():
        if name == report.new_primary:
            return rec.db
    raise AssertionError(f"winner {report.new_primary} not found")
