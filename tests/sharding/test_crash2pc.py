"""The 2PC crash matrix: every byte of every node's journal is a safe
place to die."""

from __future__ import annotations

from repro.fault.crashsim import run_crash_matrix
from repro.sharding.crash2pc import (
    TwoPCCrashScenario,
    build_2pc_workload,
    run_2pc_golden,
    twopc_shard_map,
)


class TestGolden:
    def test_workload_is_deterministic_and_mixed(self):
        smap = twopc_shard_map(2)
        first = build_2pc_workload(smap, txns=9, seed=3)
        again = build_2pc_workload(smap, txns=9, seed=3)
        assert first == again
        routed = [
            {smap.shard_for_row(s[1], s[2]) for s in stmts
             if s[0] == "insert"}
            for stmts in first
        ]
        assert any(len(shards) == 1 for shards in routed)
        assert any(len(shards) == 2 for shards in routed)

    def test_golden_run_commits_everything(self, tmp_path):
        smap = twopc_shard_map(2)
        golden = run_2pc_golden(tmp_path, smap, txns=6)
        assert len(golden.states) == 7
        total_docs = sum(
            len(state["crash_docs"])
            for state in golden.states[-1].values()
        )
        assert total_docs >= 6
        # 2PC traffic reached the coordinator journal and every shard.
        assert len(golden.boundaries["coord"]) > 1
        for shard in (0, 1):
            assert len(golden.boundaries[shard]) > 1
            assert golden.sizes[shard] == golden.boundaries[shard][-1]


class TestMatrix:
    def test_every_kill_point_recovers_all_or_nothing(self, tmp_path):
        report = run_crash_matrix(
            TwoPCCrashScenario(num_shards=2, txns=8, stride=160), tmp_path
        )
        assert report.cases, "matrix ran no cases"
        assert report.ok, "\n".join(
            f"{c.target}@{c.offset}: {c.detail}"
            for c in report.failures
        )
        fired = [c for c in report.cases if c.crashed]
        assert fired, "no failpoint ever fired"
        # Both sides of the commit point appear across the sweep.
        assert {c.outcome for c in report.cases} >= \
            {"last-acked", "complete"}

    def test_eof_controls_complete_cleanly(self, tmp_path):
        report = run_crash_matrix(
            TwoPCCrashScenario(num_shards=2, txns=4, stride=4096), tmp_path
        )
        controls = [c for c in report.cases if not c.crashed]
        assert controls
        for case in controls:
            assert case.outcome == "complete", case

    def test_summary_reports_counts(self, tmp_path):
        report = run_crash_matrix(
            TwoPCCrashScenario(num_shards=2, txns=3, stride=4096), tmp_path
        )
        text = report.summary()
        assert "2pc crash matrix" in text
        assert str(len(report.cases)) in text
        assert "ok" in text

    def test_planted_wrong_ledger_is_reported(self, tmp_path):
        """The audit can fail: drop one row from the golden cluster
        state after the last transaction, where every control lands."""

        class Planted(TwoPCCrashScenario):
            def golden(self, workdir):
                golden = super().golden(workdir)
                docs = golden.states[-1][0]["crash_docs"]
                docs.pop(next(iter(docs)))
                return golden

        report = run_crash_matrix(
            Planted(num_shards=2, txns=4, stride=4096), tmp_path
        )
        assert not report.ok
        assert all("matches neither" in c.detail for c in report.failures)
        assert all(c.outcome == "" for c in report.failures)
