"""The ``cryowire`` CLI."""

import os

import pytest

from repro.experiments.cli import _build_parser, _engine, main
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.shard import ShardCoordinator


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)


class TestRun:
    def test_runs_a_fast_experiment(self, capsys):
        assert main(["run", "fig20"]) == 0
        out = capsys.readouterr().out
        assert "cryobus" in out
        assert "broadcast" in out

    def test_run_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "forwarding_wire_8wide" in out

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_prints_anchor_summary(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "median |diff|" in out
        assert "CryoSP frequency" in out

    def test_report_runs_every_anchor_in_one_engine_sweep(
        self, monkeypatch, tmp_path
    ):
        """``--jobs`` must reach the anchors: one ``run`` over all of them,
        not one single-id (hence inline) run per anchor."""
        from repro.experiments.engine import ExecutionEngine

        calls = []

        class _Stop(Exception):
            pass

        def spy(self, experiment_ids, *args, **kwargs):
            calls.append((self.jobs, list(experiment_ids)))
            raise _Stop

        monkeypatch.setattr(ExecutionEngine, "run", spy)
        with pytest.raises(_Stop):
            main(["report", "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert calls == [
            (
                2,
                [
                    "fig02", "fig03", "fig05", "fig10", "fig12_14", "fig17",
                    "fig20", "fig22", "fig23", "fig24", "table3", "fig09",
                ],
            )
        ]


class TestFaultToleranceFlags:
    def _register_boom(self, experiment_id):
        from repro.experiments.registry import _SPECS, experiment

        @experiment(experiment_id)
        def boom():
            raise RuntimeError("injected CLI failure")

        return lambda: _SPECS.pop(experiment_id, None)

    def test_failure_without_keep_going_salvages_and_fails(
        self, capsys, tmp_path
    ):
        cleanup = self._register_boom("_cli_boom_strict")
        try:
            rc = main(
                ["run", "_cli_boom_strict", "fig20",
                 "--cache-dir", str(tmp_path / "c")]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert "cryobus" in captured.out  # fig20 still emitted
            assert "experiment(s) failed" in captured.err
        finally:
            cleanup()

    def test_keep_going_reports_failures_on_stderr(self, capsys, tmp_path):
        cleanup = self._register_boom("_cli_boom_keep")
        try:
            rc = main(
                ["run", "_cli_boom_keep", "fig20", "--keep-going",
                 "--cache-dir", str(tmp_path / "c")]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert "cryobus" in captured.out
            assert "failed: _cli_boom_keep" in captured.err
        finally:
            cleanup()

    def test_resume_skips_completed(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        assert main(["run", "fig20", "table1", "--resume"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        assert "skipped 2" in capsys.readouterr().out

    def test_stats_reports_cache_and_quarantine(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "retries 0" in out
        assert "cache: 1 entries, 0 quarantined" in out

    def test_rejects_negative_retries_and_timeout(self):
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--retries", "-1"])
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--timeout", "-2"])


class TestShardFlags:
    def test_run_with_shards_writes_sharded_manifest(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "table1", "--shards", "2"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "shard" in out

    def test_sharded_resume_skips_completed(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "table1", "--shards", "2"] + cache_flags) == 0
        assert (
            main(["run", "fig20", "table1", "--shards", "2", "--resume"]
                 + cache_flags)
            == 0
        )
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        assert "skipped 2" in capsys.readouterr().out

    def test_jobs_zero_means_one_worker_per_cpu_with_or_without_shards(
        self, tmp_path
    ):
        cpus = os.cpu_count() or 1
        flags = ["all", "--jobs", "0", "--cache-dir", str(tmp_path)]
        coordinator = _engine(_build_parser().parse_args(flags + ["--shards", "2"]))
        assert isinstance(coordinator, ShardCoordinator)
        assert coordinator._engine_for(0).jobs == cpus
        assert _engine(_build_parser().parse_args(flags)).jobs == cpus

    def test_rejects_negative_shards(self):
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--shards", "-1"])
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--shard-timeout-s", "-2"])


class TestResumeAfterFailures:
    def test_resume_after_keep_going_timeout_reruns_only_the_loser(
        self, capsys, tmp_path
    ):
        """A --keep-going run that ends with a timeout record must be
        resumable: the timed-out experiment re-runs, the completed one
        is skipped."""
        import time as _time

        from repro.experiments.registry import _SPECS, experiment

        flag = tmp_path / "be-slow"
        flag.write_text("1")

        @experiment("_cli_resume_tmo")
        def _sleeper():
            if flag.exists():
                _time.sleep(5.0)
            from repro.experiments.base import ExperimentResult

            result = ExperimentResult("_cli_resume_tmo", "slow probe", ("x",))
            result.add_row(1.0)
            return result

        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        try:
            rc = main(
                ["run", "_cli_resume_tmo", "fig20", "--timeout", "0.3",
                 "--keep-going"] + cache_flags
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert "timeout" in err

            flag.unlink()  # the flake clears; the resume must finish the job
            rc = main(
                ["run", "_cli_resume_tmo", "fig20", "--resume"] + cache_flags
            )
            assert rc == 0
            capsys.readouterr()
            assert main(["stats"] + cache_flags) == 0
            out = capsys.readouterr().out
            assert "skipped 1" in out  # fig20 kept, the loser re-ran
            assert "timeouts 0" in out
        finally:
            _SPECS.pop("_cli_resume_tmo", None)
