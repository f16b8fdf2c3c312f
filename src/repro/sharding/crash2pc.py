"""The 2PC crash matrix: kill any node at any byte, recover, audit.

E17 proved the committed-prefix guarantee for one engine and E18 for a
WAL-shipped follower.  This module proves **distributed atomicity**: a
cluster of journal-backed shards running a deterministic mix of
single-shard and cross-shard transactions, with a
:class:`~repro.fault.crashsim.FailpointFile` armed on exactly one
node's journal — the coordinator's or any participant's — at every
frame boundary and every ``stride``-byte offset of that journal's
golden write stream.  After the failpoint fires, full-cluster recovery
(restart every node, redeliver outstanding decisions, resolve in-doubt
transactions by presumed abort) must land the cluster on an
**all-or-nothing** state:

* every acknowledged transaction is durable on *all* of its shards
  (no lost acked write), and
* the in-flight transaction is either applied everywhere or nowhere
  (no split commit),

which together mean the recovered cluster state equals the golden
state after the last acked transaction, or that state plus the whole
in-flight transaction — nothing else.  Every shard must also pass the
full :func:`~repro.fault.crashsim.verify_database` audit (constraints,
secondary indexes) after recovery.  :class:`TwoPCCrashScenario` is the
scenario; the sweep runs through the shared engine,
:func:`~repro.fault.crashsim.run_crash_matrix`.

The workload is conflict-free by construction (fresh doc ids come from
per-shard pools probed out of the shard map), so in the golden run
every transaction commits and "state after transaction *k*" is well
defined.  ``crash_refs`` rows are co-located with their parent docs —
sharded by ``doc_id``, not their primary key — so per-shard foreign
keys stay meaningful.
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
    database_state,
    frame_boundaries,
    verify_database,
)
from repro.rdb.errors import RdbError
from repro.sharding.cluster import COORD, ShardCluster
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.util.rng import make_rng

__all__ = [
    "TwoPCCrashScenario",
    "build_2pc_workload",
    "run_2pc_golden",
    "twopc_shard_map",
]

#: cluster state: ``{shard_id: {table: {pk: row}}}``
ClusterState = dict[int, dict[str, dict[tuple, dict[str, Any]]]]


def _sharded(shard_map: ShardMap, cluster: ShardCluster):
    """Build the routing tier over a live cluster.  Imported lazily:
    ``tiers.shards`` itself imports ``repro.sharding``, so a module-
    level import here would close an import cycle."""
    from repro.tiers.shards import ShardedDatabase

    return ShardedDatabase(
        shard_map, cluster.handles, lambda: cluster.coordinator,
        schemas=CRASH_SCHEMAS,
    )


def twopc_shard_map(num_shards: int) -> ShardMap:
    """The matrix's map: both workload tables hash on ``doc_id`` so a
    ref always lands on its parent doc's shard (co-location)."""
    return ShardMap(num_shards, {
        "crash_docs": TableSharding(key=("doc_id",)),
        "crash_refs": TableSharding(key=("doc_id",)),
    })


def _id_pools(
    shard_map: ShardMap, per_shard: int
) -> dict[int, list[int]]:
    """``per_shard`` fresh doc ids per shard, probed out of the map."""
    pools: dict[int, list[int]] = {s: [] for s in shard_map.all_shards()}
    candidate = 1
    while any(len(pool) < per_shard for pool in pools.values()):
        owner = shard_map.shard_for_key("crash_docs", (candidate,))
        if len(pools[owner]) < per_shard:
            pools[owner].append(candidate)
        candidate += 1
    return pools


def build_2pc_workload(
    shard_map: ShardMap, *, txns: int, seed: int = 0
) -> list[list[list[Any]]]:
    """The deterministic transaction list both the golden run and every
    crash run execute, as :meth:`~repro.tiers.shards.ShardedDatabase
    .transact` statement batches.

    A three-beat cycle: a single-shard doc+ref insert, a cross-shard
    double insert, and a cross-shard insert-plus-update of an earlier
    doc.  Conflict-free: ids are fresh and updates only touch docs a
    previous transaction committed, so each transaction's outcome does
    not depend on which later ones survive a crash.
    """
    rng = make_rng(seed, "crash2pc-workload")
    num_shards = shard_map.num_shards
    pools = _id_pools(shard_map, 2 * txns + 4)
    cursor = {s: 0 for s in shard_map.all_shards()}
    landed: dict[int, list[int]] = {s: [] for s in shard_map.all_shards()}

    def fresh(shard: int) -> int:
        doc_id = pools[shard][cursor[shard]]
        cursor[shard] += 1
        landed[shard].append(doc_id)
        return doc_id

    def doc(doc_id: int) -> list[Any]:
        return ["insert", "crash_docs", {
            "doc_id": doc_id,
            "title": f"doc-{doc_id:05d}",
            "version": 1,
            "body": "x" * int(rng.integers(0, 120)),
        }]

    def ref(doc_id: int) -> list[Any]:
        return ["insert", "crash_refs", {
            "ref_id": doc_id, "doc_id": doc_id, "anchor": f"a{doc_id}",
        }]

    workload: list[list[list[Any]]] = []
    for k in range(1, txns + 1):
        first = k % num_shards
        second = (k + 1) % num_shards
        beat = k % 3
        if num_shards == 1 or beat == 1:
            doc_id = fresh(first)
            stmts = [doc(doc_id), ref(doc_id)]
        elif beat == 2:
            one, two = fresh(first), fresh(second)
            stmts = [doc(one), ref(one), doc(two)]
        else:
            stmts = [doc(fresh(first))]
            settled = landed[second][:-1] if second == first \
                else landed[second]
            if settled:
                victim = settled[int(rng.integers(0, len(settled)))]
                stmts.append(["update_pk", "crash_docs", victim, {
                    "version": int(rng.integers(2, 9)),
                }])
            else:
                stmts.append(doc(fresh(second)))
        workload.append(stmts)
    return workload


# ---------------------------------------------------------------------------
# Golden run
# ---------------------------------------------------------------------------
@dataclass
class TwoPCGolden:
    """The crash-free reference run every kill point is judged against."""

    shard_map: ShardMap
    workload: list[list[list[Any]]]
    #: ``states[k]`` is the cluster state after transaction ``k``
    #: (``states[0]`` is the empty initial state)
    states: list[ClusterState]
    #: per node (shard id or :data:`COORD`): journal frame boundaries
    boundaries: dict[Any, list[int]]
    #: per node: final journal byte size
    sizes: dict[Any, int]


def cluster_state(cluster: ShardCluster) -> ClusterState:
    """Deep-enough copy of every shard's table state."""
    return {
        shard_id: database_state(participant.db)
        for shard_id, participant in cluster.participants.items()
    }


def run_2pc_golden(
    workdir: str | Path,
    shard_map: ShardMap,
    *,
    txns: int,
    seed: int = 0,
) -> TwoPCGolden:
    """Run the workload crash-free, capturing per-transaction cluster
    states and every node's journal geometry."""
    workdir = Path(workdir)
    cluster = ShardCluster(
        workdir, CRASH_SCHEMAS, shard_map.num_shards,
        sync="commit", use_net=False,
    )
    sharded = _sharded(shard_map, cluster)
    workload = build_2pc_workload(shard_map, txns=txns, seed=seed)
    states: list[ClusterState] = [cluster_state(cluster)]
    for stmts in workload:
        sharded.transact(stmts)
        states.append(cluster_state(cluster))
    cluster.close()

    boundaries: dict[Any, list[int]] = {}
    sizes: dict[Any, int] = {}
    nodes: list[Any] = [COORD, *range(shard_map.num_shards)]
    for node in nodes:
        path = cluster.coord_journal_path() if node == COORD \
            else cluster.shard_journal_path(node)
        boundaries[node] = frame_boundaries(path)
        sizes[node] = path.stat().st_size if path.exists() else 0
    return TwoPCGolden(
        shard_map=shard_map, workload=workload, states=states,
        boundaries=boundaries, sizes=sizes,
    )


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------
class TwoPCCrashScenario:
    """Kill the coordinator or any shard at any byte of its journal.

    One sweep per node — the coordinator and every shard — over every
    frame boundary of that node's golden journal plus every
    ``stride``-byte offset, including the end-of-file no-crash control.
    A case's ``outcome`` names the golden state the recovered cluster
    matched: ``"last-acked"``, ``"in-flight"``, ``"complete"``, or
    ``""`` on failure.
    """

    name = "2pc crash matrix"

    def __init__(self, *, num_shards: int = 2, txns: int = 12,
                 stride: int = 64, seed: int = 0) -> None:
        self.num_shards = num_shards
        self.txns = txns
        self.stride = stride
        self.seed = seed

    def golden(self, workdir: Path) -> TwoPCGolden:
        return run_2pc_golden(
            workdir, twopc_shard_map(self.num_shards), txns=self.txns,
            seed=self.seed,
        )

    def sweeps(self, golden: TwoPCGolden) -> list[tuple]:
        return [
            (node, golden.sizes[node], golden.boundaries[node], self.stride)
            for node in [COORD, *range(self.num_shards)]
        ]

    def check(self, golden: TwoPCGolden, target: Any, offset: int,
              casedir: Path) -> CrashCase:
        """Replay the workload with ``target`` armed to die at
        ``offset``, then recover the whole cluster and audit
        atomicity."""
        wrapper = lambda fh: FailpointFile(fh, offset)  # noqa: E731
        cluster = ShardCluster(
            casedir, CRASH_SCHEMAS, golden.shard_map.num_shards,
            sync="commit", use_net=False, file_wrappers={target: wrapper},
        )
        sharded = _sharded(golden.shard_map, cluster)
        acked = 0
        crashed = False
        try:
            for stmts in golden.workload:
                sharded.transact(stmts)
                acked += 1
        except (SimulatedCrashError, RdbError):
            # First failure of any kind ends the run: either the armed
            # journal died mid-append, or a transaction was
            # refused/aborted because an earlier crash left its shard
            # dead or blocked.  Either way every transaction before
            # this one was acked.
            crashed = True

        try:
            cluster.recover_all()
        except Exception as exc:  # recovery itself must never fail
            cluster.close()
            return CrashCase(
                target, offset, False, crashed, "",
                f"recovery raised {exc!r} after {acked} acked txns",
            )

        recovered = cluster_state(cluster)
        problems: list[str] = []
        for shard_id, participant in cluster.participants.items():
            problems += [
                f"shard {shard_id}: {p}"
                for p in verify_database(participant.db)
            ]
            if participant.in_doubt:
                problems.append(
                    f"shard {shard_id}: still in doubt after recovery: "
                    f"{sorted(participant.in_doubt)}"
                )
        cluster.close()

        # All-or-nothing: the recovered cluster must equal the golden
        # state after the last acked transaction, or that state plus the
        # whole in-flight transaction.  A split commit matches neither.
        matched = ""
        if recovered == golden.states[acked]:
            matched = "complete" if acked == len(golden.workload) \
                else "last-acked"
        elif acked < len(golden.workload) \
                and recovered == golden.states[acked + 1]:
            matched = "in-flight"
        else:
            problems.append(
                f"recovered state matches neither golden[{acked}] nor "
                f"golden[{acked + 1}] (split or lost write)"
            )
        if not crashed and acked != len(golden.workload):
            problems.append(
                f"run stopped at txn {acked + 1} without a crash"
            )
        return CrashCase(target, offset, not problems, crashed, matched,
                         "; ".join(problems))
