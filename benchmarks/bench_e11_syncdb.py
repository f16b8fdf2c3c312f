"""E11 — metadata replication latency and convergence.

Paper claim (§4): "From different perspectives, all database users look
at the same database, which is stored across many networked stations."
The document layer's small rows replicate everywhere (BLOBs move only
through pre-broadcast/watermark), so the question is how quickly a
course edit at the instructor's master becomes visible fleet-wide.

The table replays a burst of course-authoring activity (generated
courses inserted at the master), relays the master's WAL frames down
trees of varying arity and membership size (``repro.replication.tree``),
and reports convergence time and wire cost: real frame bytes plus the
subscribe and status messages.  A setting converges when every member
has applied the master's whole log and holds row-identical tables.
Expected shape: convergence time grows ~log_m N like any tree fan-out;
batching amortizes per-message latency.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tempfile

import pytest

from benchmarks.common import build_network, names, print_table
from repro.core import WebDocumentDatabase
from repro.distribution import MAryTree
from repro.fault.crashsim import database_state
from repro.replication import TreeRelay
from repro.workloads import CourseGenerator

N_COURSES = 25


def run_sync(n_stations: int, m: int, *, flush_every: int = 1) -> dict:
    """Author N_COURSES at the master, relay, measure convergence."""
    net = build_network(n_stations)
    tree = MAryTree(n_stations, m, names=names(n_stations))
    master_wddb = WebDocumentDatabase("master", with_integrity=False)
    with tempfile.TemporaryDirectory() as data_dir:
        relay = TreeRelay(net, tree, master_wddb.engine, data_dir)
        try:
            net.quiesce()  # members subscribe before authoring
            master_wddb.create_document_database("mmu", author="shih")
            generator = CourseGenerator(seed=42, pages_per_course=4,
                                        media_per_course=2)
            for index in range(N_COURSES):
                generator.generate_course(master_wddb, "mmu")
                if (index + 1) % flush_every == 0:
                    relay.flush()
            relay.flush()
            start = net.sim.now
            net.quiesce()
            master_state = database_state(master_wddb.engine)
            outcome = {
                "converged": relay.converged() and all(
                    database_state(follower.db) == master_state
                    for follower in relay.followers.values()
                ),
                "convergence_s": max(relay.last_applied_at.values()) - start,
                "frames": relay.journal.last_lsn,
                "bytes": net.total_bytes,
            }
        finally:
            relay.close()
    return outcome


def experiment_rows() -> list[list]:
    rows = []
    for n in (4, 16, 64):
        for m in (2, 3, 8):
            outcome = run_sync(n, m, flush_every=5)
            rows.append([
                n, m,
                "yes" if outcome["converged"] else "NO",
                f"{outcome['convergence_s']:.2f}",
                outcome["frames"],
                outcome["bytes"] // 1024,
            ])
    return rows


def batching_rows() -> list[list]:
    rows = []
    for flush_every in (1, 5, 25):
        outcome = run_sync(16, 3, flush_every=flush_every)
        rows.append([
            flush_every,
            "yes" if outcome["converged"] else "NO",
            f"{outcome['convergence_s']:.2f}",
            outcome["bytes"] // 1024,
        ])
    return rows


def test_e11_replicas_converge():
    assert run_sync(16, 3)["converged"]


def test_e11_convergence_grows_with_depth():
    shallow = run_sync(64, 8)["convergence_s"]
    deep = run_sync(64, 2)["convergence_s"]
    # deeper trees pay more forwarding hops for the trailing batch
    assert deep >= shallow * 0.5  # same order; exact ordering depends on batching


def test_e11_every_frame_reaches_every_station():
    outcome = run_sync(8, 2, flush_every=3)
    assert outcome["converged"]
    assert outcome["frames"] > N_COURSES  # several transactions per course


def test_e11_bench_sync_round(benchmark):
    benchmark(run_sync, 16, 3)


def main() -> int:
    rows = experiment_rows()
    print_table(
        f"E11a: replicating {N_COURSES} authored courses fleet-wide",
        ["N", "m", "converged", "convergence_s", "frames", "wire_KiB"],
        rows,
    )
    batches = batching_rows()
    print_table(
        "E11b: batching sweep (N=16, m=3)",
        ["flush_every", "converged", "convergence_s", "wire_KiB"],
        batches,
    )
    # Fail the run (and CI) if any setting leaves a member behind.
    return 0 if all(row[2] == "yes" for row in rows) and all(
        row[1] == "yes" for row in batches
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
