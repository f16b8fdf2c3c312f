"""Fleet-wide metadata sync: the master's WAL relayed down the m-ary tree.

Every member must end row-identical to the master, so each check
compares table state, not only LSNs.
"""

import datetime as dt
import shutil

import pytest

from repro.distribution import MAryTree
from repro.fault.crashsim import database_state
from repro.rdb import Column, ColumnType, Database, Schema
from repro.replication import TreeRelay

from tests.conftest import build_network

T = ColumnType

DOCS = Schema(
    name="docs",
    columns=(
        Column("name", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("created", T.DATETIME),
    ),
    primary_key=("name",),
)

NAMES = [f"s{k}" for k in range(1, 8)]


def _engine(label: str) -> Database:
    db = Database(label)
    db.create_table(DOCS)
    return db


def assert_mirrors(relay, stations=None):
    """Each station has applied the whole log and holds the master's rows."""
    master_state = database_state(relay.master)
    for name in stations or relay.followers:
        assert relay.lag(name) == 0, name
        assert database_state(relay.followers[name].db) == master_state, name


@pytest.fixture
def world(tmp_path):
    net = build_network(7)
    tree = MAryTree(7, 2, names=NAMES)
    master = _engine("master")
    relay = TreeRelay(net, tree, master, tmp_path)
    net.quiesce()  # every member subscribed and caught up at LSN 0
    yield net, master, relay
    relay.close()


class TestReplication:
    def test_inserts_reach_every_replica(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a", "created": dt.datetime(1999, 1, 1)})
        master.insert("docs", {"name": "b"})
        relay.flush()
        net.quiesce()
        for follower in relay.followers.values():
            assert follower.db.count("docs") == 2
            assert follower.db.get("docs", "a")["created"] == dt.datetime(
                1999, 1, 1
            )
        assert relay.converged()
        assert_mirrors(relay)

    def test_updates_and_deletes_replicate(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        master.insert("docs", {"name": "b"})
        relay.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 2})
        master.delete_pk("docs", "b")
        relay.flush(); net.quiesce()
        for follower in relay.followers.values():
            assert follower.db.get("docs", "a")["version"] == 2
            assert follower.db.get("docs", "b") is None
        assert_mirrors(relay)

    def test_rolled_back_transactions_never_ship(self, world):
        net, master, relay = world
        master.begin()
        master.insert("docs", {"name": "ghost"})
        master.rollback()
        assert relay.flush() == 0
        assert relay.journal.last_lsn == 0
        master.insert("docs", {"name": "real"})
        relay.flush(); net.quiesce()
        assert relay.journal.last_lsn == 1
        assert_mirrors(relay)
        assert relay.followers["s7"].db.get("docs", "ghost") is None

    def test_divergence_before_flush(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        assert relay.lag("s2") == 1
        relay.flush(); net.quiesce()
        assert relay.lag("s2") == 0
        assert_mirrors(relay, ["s2"])

    def test_divergence_counts_value_differences(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 9})
        assert relay.lag("s2") == 1  # same key, stale value
        assert relay.followers["s2"].db.get("docs", "a")["version"] == 1

    def test_batches_forward_down_the_tree(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush()
        net.quiesce()
        # leaves (depth 2) applied after interior nodes (depth 1)
        assert relay.last_applied_at["s4"] > relay.last_applied_at["s2"]

    def test_flush_empty_is_noop(self, world):
        _net, _master, relay = world
        assert relay.flush() == 0
        assert relay.shippers["s1"].frames_shipped == 0

    def test_multiple_batches_apply_in_order(self, world):
        net, master, relay = world
        for index in range(5):
            master.insert("docs", {"name": f"d{index}"})
            relay.flush()
        net.quiesce()
        assert all(f.applied_lsn == 5 for f in relay.followers.values())
        assert_mirrors(relay)

    def test_missing_replica_rejected(self, world):
        _net, _master, relay = world
        for station in ("s9", "s1"):  # not in the tree; the master
            with pytest.raises(LookupError, match="not a follower"):
                relay.restart(station)
            with pytest.raises(LookupError, match="not a follower"):
                relay.lag(station)

    def test_inner_journal_still_written(self, world):
        """The master's journal is the replicated log: recovery from it
        alone rebuilds the master."""
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        recovered = Database.recover(
            "r", [DOCS], journal_path=str(relay.journal.path)
        )
        assert database_state(recovered) == database_state(master)


class TestRepair:
    def test_repair_heals_a_station_that_missed_batches(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        # s2 crashes and misses the next two frames
        net.set_down("s2")
        master.insert("docs", {"name": "b"})
        master.update_pk("docs", "a", {"version": 5})
        relay.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert relay.lag("s2") == 2
        relay.restart("s2")
        net.quiesce()
        assert_mirrors(relay, ["s2"])

    def test_repair_removes_rows_master_deleted(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        net.set_down("s2")
        master.delete_pk("docs", "a")
        relay.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert relay.followers["s2"].db.count("docs") == 1  # stale row
        relay.restart("s2")
        net.quiesce()
        assert relay.followers["s2"].db.count("docs") == 0
        assert_mirrors(relay, ["s2"])

    def test_repair_is_idempotent(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        relay.restart("s2")
        relay.restart("s2")
        net.quiesce()
        assert_mirrors(relay)

    def test_repair_heals_descendants_too(self, world):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        # nobody gets the flush: everyone is down except the master
        for name in NAMES[1:]:
            net.set_down(name)
        relay.flush(); net.quiesce()
        for name in NAMES[1:]:
            net.set_down(name, down=False)
        relay.restart("s2")  # s2's subtree: s4, s5 in the m=2 tree
        net.quiesce()
        assert_mirrors(relay, ["s2", "s4", "s5"])
        # outside s2's subtree stays behind until its own restart
        for name in ("s3", "s6", "s7"):
            assert relay.lag(name) == 1
            assert relay.followers[name].db.count("docs") == 0
        relay.restart("s3")
        net.quiesce()
        assert_mirrors(relay)


class TestFullSchemaReplication:
    def test_document_database_replicates(self, tmp_path):
        """The real course schema ships through the same machinery."""
        from repro.core.schema import ALL_SCHEMAS

        master = Database("master")
        for schema in ALL_SCHEMAS:
            master.create_table(schema)
        net = build_network(4)
        tree = MAryTree(4, 3, names=[f"s{k}" for k in range(1, 5)])
        relay = TreeRelay(net, tree, master, tmp_path)
        try:
            master.insert("doc_databases", {
                "db_name": "mmu", "author": "shih",
                "created_at": dt.datetime(1999, 1, 1),
            })
            master.insert("scripts", {
                "script_name": "cs1", "db_name": "mmu", "author": "shih",
                "created_at": dt.datetime(1999, 1, 1),
            })
            relay.flush(); net.quiesce()
            assert_mirrors(relay)
            assert relay.followers["s4"].db.get("scripts", "cs1")[
                "author"] == "shih"
        finally:
            relay.close()


class TestBootstrap:
    def test_rows_committed_before_attach_reach_every_member(self, tmp_path):
        master = _engine("master")
        master.insert("docs", {"name": "early"})
        net = build_network(7)
        relay = TreeRelay(net, MAryTree(7, 2, names=NAMES), master, tmp_path)
        try:
            master.insert("docs", {"name": "late"})
            relay.flush(); net.quiesce()
            assert_mirrors(relay)
            assert relay.followers["s7"].db.count("docs") == 2
        finally:
            relay.close()

    def test_station_that_lost_its_directory_rebuilds(self, world, tmp_path):
        net, master, relay = world
        master.insert("docs", {"name": "a"})
        relay.flush(); net.quiesce()
        relay.followers["s7"].stop()
        shutil.rmtree(tmp_path / "s7")
        follower = relay.restart("s7")
        assert follower.applied_lsn == 0
        net.quiesce()
        assert_mirrors(relay, ["s7"])
