"""Scatter-gather reads: pruning, merge order, aggregates, joins,
EXPLAIN fan-out."""

from __future__ import annotations

import pytest

from repro.fault.crashsim import CRASH_SCHEMAS
from repro.rdb.predicate import col
from repro.sharding.crash2pc import twopc_shard_map


@pytest.fixture
def loaded(shard_cluster):
    """4 shards, 40 docs (some None bodies), refs co-located on
    doc_id."""
    cluster = shard_cluster(
        4, shard_map=twopc_shard_map(4), use_net=False
    )
    docs = [
        {
            "doc_id": i,
            "title": f"doc-{i:05d}",
            "version": i % 5 + 1,
            "body": None if i % 7 == 0 else "x" * (i % 11),
        }
        for i in range(1, 41)
    ]
    refs = [
        {"ref_id": i, "doc_id": i, "anchor": f"a{i}"}
        for i in range(1, 41, 2)
    ]
    cluster.sharded.insert_many("crash_docs", docs)
    cluster.sharded.insert_many("crash_refs", refs)
    cluster.docs = docs
    cluster.refs = refs
    return cluster


class TestRouting:
    def test_insert_many_spreads_rows_over_every_shard(self, loaded):
        counts = [
            p.db.count("crash_docs")
            for p in loaded.participants.values()
        ]
        assert sum(counts) == 40
        assert all(c > 0 for c in counts)

    def test_full_key_equality_routes_to_one_shard(self, loaded):
        plan = loaded.sharded.explain("crash_docs", col("doc_id") == 7)
        assert "fanout 1/4" in plan
        assert "single-shard" in plan
        rows = loaded.sharded.select("crash_docs", col("doc_id") == 7)
        assert [r["doc_id"] for r in rows] == [7]

    def test_unpruned_scan_fans_out_to_all(self, loaded):
        plan = loaded.sharded.explain("crash_docs", None)
        assert "fanout 4/4" in plan
        assert "scatter-gather" in plan
        assert plan.count("shard ") == 4  # one local plan per shard

    def test_get_by_pk_routes_without_probing(self, loaded):
        assert loaded.sharded.get("crash_docs", 13)["doc_id"] == 13
        assert loaded.sharded.get("crash_docs", 999) is None
        assert loaded.sharded.exists("crash_docs", 40)

    def test_get_probes_all_when_pk_is_not_the_shard_key(self, loaded):
        # crash_refs shards on doc_id but its pk is ref_id.
        assert loaded.sharded.get("crash_refs", 5)["ref_id"] == 5

    def test_update_of_shard_key_column_is_refused(self, loaded):
        with pytest.raises(ValueError, match="shard key"):
            loaded.sharded.update(
                "crash_docs", {"doc_id": 999}, col("version") == 1
            )

    def test_predicate_update_and_delete_fan_out(self, loaded):
        changed = loaded.sharded.update(
            "crash_docs", {"version": 9}, col("version") == 2
        )
        assert changed == sum(1 for d in loaded.docs
                              if d["version"] == 2)
        gone = loaded.sharded.delete("crash_refs", col("ref_id") > 30)
        assert gone == sum(1 for r in loaded.refs if r["ref_id"] > 30)
        assert loaded.sharded.count("crash_refs") == \
            len(loaded.refs) - gone


class TestGather:
    def test_global_order_with_limit_and_offset(self, loaded):
        rows = loaded.sharded.select(
            "crash_docs", order_by=("version", "doc_id"),
            limit=10, offset=5,
        )
        reference = sorted(
            loaded.docs, key=lambda d: (d["version"], d["doc_id"])
        )[5:15]
        assert [(r["version"], r["doc_id"]) for r in rows] == \
            [(d["version"], d["doc_id"]) for d in reference]

    def test_descending_top_k(self, loaded):
        rows = loaded.sharded.select(
            "crash_docs", order_by="doc_id", descending=True, limit=3
        )
        assert [r["doc_id"] for r in rows] == [40, 39, 38]

    def test_nones_sort_first_like_a_single_node(self, loaded):
        rows = loaded.sharded.select(
            "crash_docs", order_by=("body", "doc_id")
        )
        bodies = [r["body"] for r in rows]
        none_count = sum(1 for b in bodies if b is None)
        assert none_count and bodies[:none_count] == [None] * none_count

    def test_global_distinct_dedups_across_shards(self, loaded):
        rows = loaded.sharded.select(
            "crash_docs", columns=("version",), distinct=True,
            order_by="version",
        )
        assert [r["version"] for r in rows] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("window", [{"limit": -1}, {"offset": -1}])
    def test_negative_window_refused_on_single_shard_route(
        self, loaded, window
    ):
        with pytest.raises(ValueError, match="must be >= 0"):
            loaded.sharded.select("crash_docs", col("doc_id") == 7, **window)

    @pytest.mark.parametrize("window", [{"limit": -1}, {"offset": -1}])
    def test_negative_window_refused_on_scatter_gather(self, loaded, window):
        with pytest.raises(ValueError, match="must be >= 0"):
            loaded.sharded.select("crash_docs", **window)

    def test_count_sums_over_pruned_shards(self, loaded):
        assert loaded.sharded.count("crash_docs") == 40
        assert loaded.sharded.count(
            "crash_docs", col("doc_id") == 7
        ) == 1


class TestAggregates:
    def test_global_partials_recombine_exactly(self, loaded):
        out = loaded.sharded.aggregate("crash_docs", {
            "n": ("count", None),
            "total": ("sum", "version"),
            "lo": ("min", "doc_id"),
            "hi": ("max", "doc_id"),
            "mean": ("avg", "version"),
        })
        versions = [d["version"] for d in loaded.docs]
        assert out == [{
            "n": 40, "total": sum(versions), "lo": 1, "hi": 40,
            "mean": sum(versions) / 40,
        }]

    def test_group_by_merges_and_sorts_groups(self, loaded):
        out = loaded.sharded.aggregate(
            "crash_docs", {"n": ("count", None)}, group_by=("version",)
        )
        assert [row["version"] for row in out] == [1, 2, 3, 4, 5]
        assert sum(row["n"] for row in out) == 40

    def test_empty_table_aggregates_are_canonical(self, shard_cluster):
        cluster = shard_cluster(
            2, shard_map=twopc_shard_map(2), use_net=False
        )
        out = cluster.sharded.aggregate("crash_docs", {
            "n": ("count", None), "s": ("sum", "version"),
            "lo": ("min", "version"), "mean": ("avg", "version"),
        })
        assert out == [{"n": 0, "s": 0, "lo": None, "mean": None}]


class TestJoins:
    def test_colocated_join_is_pushed_down(self, loaded):
        joined = loaded.sharded.join(
            "crash_docs", "crash_refs", [("doc_id", "doc_id")]
        )
        assert len(joined) == len(loaded.refs)
        assert {row["r.ref_id"] for row in joined} == \
            {r["ref_id"] for r in loaded.refs}

    def test_non_colocated_join_gathers_then_joins(self, loaded):
        # Joining on a non-shard-key pair forces the central path.
        joined = loaded.sharded.join(
            "crash_docs", "crash_refs", [("doc_id", "ref_id")]
        )
        assert {row["l.doc_id"] for row in joined} == \
            {r["ref_id"] for r in loaded.refs}


class TestNetTransparency:
    def test_reads_are_identical_over_the_simulated_network(
        self, shard_cluster
    ):
        """Same data, in-process vs RPC handles: byte-identical reads."""
        results = []
        for use_net in (False, True):
            cluster = shard_cluster(
                2, shard_map=twopc_shard_map(2), use_net=use_net
            )
            cluster.sharded.insert_many("crash_docs", [
                {"doc_id": i, "title": f"doc-{i:05d}",
                 "version": i % 3 + 1, "body": ""}
                for i in range(1, 13)
            ])
            results.append((
                cluster.sharded.select(
                    "crash_docs", order_by="doc_id", limit=5
                ),
                cluster.sharded.aggregate(
                    "crash_docs", {"n": ("count", None)}
                ),
                cluster.sharded.count("crash_docs", col("version") == 2),
            ))
        assert results[0] == results[1]
