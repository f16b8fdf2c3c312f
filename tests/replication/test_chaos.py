"""E17-extended crash injection: followers killed mid-replication.

:class:`repro.replication.chaos.FollowerCrashScenario` kills a follower
at a sweep of byte offsets — during journal frame replay and during
snapshot download — and asserts it always restarts into a consistent
acked prefix and then resumes to full convergence.  These tests run a
coarse matrix; ``benchmarks/bench_e18_replication.py`` runs the dense
one.
"""

from __future__ import annotations

import gc
import warnings

from repro.fault.crashsim import run_crash_matrix
from repro.replication import FollowerCrashScenario


class TestFollowerCrashMatrix:
    def test_replay_and_snapshot_sweeps_recover(self, tmp_path):
        report = run_crash_matrix(FollowerCrashScenario(
            txns=10, stride=512, snapshot_stride=4096, seed=0
        ), tmp_path)
        assert report.cases, "matrix ran no cases"
        assert report.ok, report.summary()
        targets = {case.target for case in report.cases}
        assert targets == {"replay", "snapshot"}
        # The sweep must actually fire crashes, not sail past the file.
        assert any(case.crashed for case in report.cases)

    def test_every_case_lands_on_an_acked_prefix(self, tmp_path):
        report = run_crash_matrix(FollowerCrashScenario(
            txns=8, stride=1024, snapshot_stride=8192, seed=1
        ), tmp_path)
        assert report.ok, report.summary()
        for case in report.cases:
            assert case.outcome >= 0
            assert case.detail == ""

    def test_replay_sweep_covers_every_frame_boundary(self, tmp_path):
        scenario = FollowerCrashScenario(
            txns=6, stride=4096, snapshot_stride=8192, seed=0
        )
        golden = scenario.golden(tmp_path / "golden")
        report = run_crash_matrix(scenario, tmp_path / "matrix")
        assert report.ok, report.summary()
        replayed = {c.offset for c in report.cases if c.target == "replay"}
        assert set(golden.boundaries["replay"]) <= replayed
        # One frame per acked transaction, plus the empty-journal 0.
        assert len(golden.boundaries["replay"]) == 6 + 1

    def test_kill_points_close_every_file(self, tmp_path):
        """Neither the killed follower's journal or snapshot download
        nor the restarted follower's journal outlives its case."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_crash_matrix(FollowerCrashScenario(
                txns=6, stride=1024, snapshot_stride=256, seed=0
            ), tmp_path)
            gc.collect()
        assert report.ok, report.summary()
        leaks = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and str(tmp_path) in str(w.message)
        ]
        assert leaks == []

    def test_planted_wrong_ledger_is_reported(self, tmp_path):
        """The audit can fail: drop one row from the primary's acked
        state at its last LSN, where every end-of-file control lands."""

        class Planted(FollowerCrashScenario):
            def golden(self, workdir):
                golden = super().golden(workdir)
                docs = golden.acked[max(golden.acked)]["crash_docs"]
                docs.pop(next(iter(docs)))
                return golden

        report = run_crash_matrix(Planted(
            txns=6, stride=4096, snapshot_stride=8192, seed=0
        ), tmp_path)
        assert not report.ok
        assert all("diverges" in c.detail for c in report.failures)
        assert {c.target for c in report.failures} == \
            {"replay", "snapshot"}
