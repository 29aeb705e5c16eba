"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentResult, experiment_names


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_accepts_scale_and_seed(self):
        args = build_parser().parse_args(
            ["fig2", "--scale", "smoke", "--seed", "7"]
        )
        assert args.experiment == "fig2"
        assert args.scale == "smoke"
        assert args.seed == 7


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_fig2_smoke(self, capsys):
        assert main(["fig2", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_fig3_smoke_with_seed(self, capsys):
        assert main(["fig3", "--scale", "smoke", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_fig1_smoke(self, capsys):
        assert main(["fig1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "mean detection" in out

    def test_quality_smoke(self, capsys):
        assert main(["quality", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Monitoring quality" in out

    def test_csv_export(self, tmp_path, capsys):
        csv_file = tmp_path / "out" / "fig2.csv"
        assert main(
            ["fig2", "--scale", "smoke", "--format", "csv",
             "--output", str(csv_file)]
        ) == 0
        capsys.readouterr()
        assert csv_file.exists()
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("cores,utilization")
        assert len(lines) > 1

    def test_csv_export_table1(self, tmp_path, capsys):
        assert main(
            ["table1", "--format", "csv",
             "--output", str(tmp_path / "table1.csv")]
        ) == 0
        capsys.readouterr()
        lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + six security tasks


class TestGeneratedSubcommands:
    def test_every_registered_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in experiment_names():
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_hints_at_list(self, capsys):
        assert main(["fig9"]) == 2
        err = capsys.readouterr().err
        assert "fig9" in err
        assert "repro-hydra list" in err

    def test_option_before_command_is_not_mistaken_for_experiment(
        self, capsys
    ):
        # '--scale smoke fig2' is an argparse usage error now that the
        # command leads, but the value 'smoke' must not be reported as
        # an unknown *experiment*.
        with pytest.raises(SystemExit):
            main(["--scale", "smoke", "fig2"])
        err = capsys.readouterr().err
        assert "unknown experiment 'smoke'" not in err


class TestList:
    def test_text_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out
        assert "sweep --config" in out

    def test_json_lists_specs(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == experiment_names()
        assert all("title" in s and "version" in s for s in specs)

    def test_tag_filters_the_listing(self, capsys):
        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "'ablation'" in out
        assert "ablation-solver" in out
        assert "fig2" not in out

    def test_tag_filters_json_too(self, capsys):
        assert main(["list", "--tag", "paper", "--format", "json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert specs  # the paper experiments exist
        assert all("paper" in s["tags"] for s in specs)

    def test_unknown_tag_lists_nothing(self, capsys):
        assert main(["list", "--tag", "no-such-tag", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestOutputFormats:
    def test_json_to_stdout(self, capsys):
        assert main(["table1", "--format", "json"]) == 0
        result = ExperimentResult.from_json(capsys.readouterr().out)
        assert result.experiment == "table1"
        assert len(result.rows) == 6

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "out" / "table1.json"
        assert main(
            ["table1", "--format", "json", "--output", str(target)]
        ) == 0
        capsys.readouterr()
        result = ExperimentResult.from_json(target.read_text())
        assert result.experiment == "table1"

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "table1.csv"
        assert main(
            ["table1", "--format", "csv", "--output", str(target)]
        ) == 0
        capsys.readouterr()
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("task,application")
        assert len(lines) == 7

    def test_text_to_file_leaves_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["table1", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "Table I" in target.read_text()

    def test_csv_format_rejects_multi_experiment_runs(self, capsys):
        with pytest.raises(SystemExit):
            main(["ablations", "--scale", "smoke", "--format", "csv"])


class TestSweepCommand:
    def _write_config(self, tmp_path, text: str):
        path = tmp_path / "sweep.toml"
        path.write_text(text)
        return str(path)

    def test_happy_path(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            """
            [sweep]
            name = "cli-mini"
            tasksets_per_point = 2
            utilization = { start = 0.5, stop = 0.5, step = 0.5 }

            [grid]
            cores = [2]
            heuristic = ["best-fit", "worst-fit"]
            ordering = ["rm"]
            admission = ["rta"]
            """,
        )
        assert main(["sweep", "--config", config, "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "cli-mini" in out
        assert "best-fit/rm/rta" in out
        assert "worst-fit/rm/rta" in out

    def test_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_validation_error_is_reported(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            """
            [grid]
            cores = [2]
            heuristic = ["magic-fit"]
            ordering = ["rm"]
            admission = ["rta"]
            """,
        )
        with pytest.raises(SystemExit):
            main(["sweep", "--config", config])
        assert "magic-fit" in capsys.readouterr().err

    def test_missing_config_file_is_reported(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(tmp_path / "absent.toml")])
        assert "cannot read" in capsys.readouterr().err


class TestAblateCommand:
    def _write_config(self, tmp_path, text: str):
        path = tmp_path / "ablate.toml"
        path.write_text(text)
        return str(path)

    _MINI = """
        [ablation]
        name = "cli-ablate"
        axes = ["ordering"]

        [baseline]
        cores = [2]

        [sweep]
        tasksets_per_point = 2
        utilization = { start = 0.5, stop = 0.5, step = 0.5 }
        """

    def test_happy_path_renders_ranked_report(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._MINI)
        assert main(["ablate", "--config", config, "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Ablation 'cli-ablate'" in out
        assert "Importance ranking" in out
        assert "baseline:" in out
        # the two non-incumbent orderings appear as ranked rows
        assert "rm" in out
        assert "input" in out

    def test_axis_filter_overrides_config(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._MINI)
        assert main(
            [
                "ablate", "--config", config, "--scale", "smoke",
                "--axis", "heuristic",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-fit" in out  # heuristic variants ran
        assert "| rm" not in out  # ordering axis filtered away

    def test_csv_format_works_for_single_study(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._MINI)
        assert main(
            [
                "ablate", "--config", config, "--scale", "smoke",
                "--format", "csv",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("rank,axis,component,run_id")
        assert lines[1].startswith("0,baseline,")

    def test_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["ablate"])

    def test_rejects_unknown_axis_at_parse_time(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._MINI)
        with pytest.raises(SystemExit):
            main(["ablate", "--config", config, "--axis", "bogus"])

    def test_validation_error_is_reported(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            """
            [baseline]
            cores = [2]
            heuristic = "magic-fit"
            """,
        )
        with pytest.raises(SystemExit):
            main(["ablate", "--config", config])
        assert "magic-fit" in capsys.readouterr().err

    def test_missing_config_file_is_reported(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["ablate", "--config", str(tmp_path / "absent.toml")])
        assert "cannot read" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_fresh_store(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out

    def test_stats_ignores_v1_leftovers(self, tmp_path, capsys):
        """A file of the retired JSON-per-point layout is not counted,
        not reported and not touched, and stats stays read-only."""
        leftover = tmp_path / "demo" / ("0" * 64 + ".json")
        leftover.parent.mkdir()
        leftover.write_text(
            json.dumps({"key": {"index": 0}, "payload": {"value": 0}})
        )
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"store {tmp_path} (v2): 0 entries, 0 data bytes, 0 shard(s)"
        ]
        assert leftover.exists()
        assert not (tmp_path / "store.json").exists()

    def test_gc_reports_summary(self, tmp_path, capsys):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path)
        for _ in range(3):
            store.put_many("demo", [({"k": 1}, {"v": 2})])
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 live entries" in out
        assert "bytes reclaimed" in out

    def test_stats_never_creates_the_directory(self, tmp_path, capsys):
        target = tmp_path / "typoed-cahce"
        assert main(["cache", "stats", "--cache-dir", str(target)]) == 0
        capsys.readouterr()
        assert not target.exists()  # read-only even on a missing root

    def test_mutating_verbs_refuse_a_missing_directory(
        self, tmp_path, capsys
    ):
        """A typoed --cache-dir must error, not report success on a
        silently created empty store."""
        target = tmp_path / "typoed-cahce"
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--cache-dir", str(target)])
        assert "no cache directory" in capsys.readouterr().err
        assert not target.exists()

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune"])

    def test_retired_surfaces_are_usage_errors(self, tmp_path, capsys):
        """``cache migrate`` and ``--csv DIR`` are gone: argparse
        rejects both with its usage exit code."""
        for argv in (
            ["cache", "migrate", "--cache-dir", str(tmp_path)],
            ["table1", f"--csv={tmp_path}"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_cached_run_writes_v2_store(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["fig2", "--scale", "smoke", "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert (cache_dir / "store.json").exists()
        assert (cache_dir / "scenario" / "data.jsonl").exists()

    def test_unusable_cache_dir_fails_before_compute(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(SystemExit):
            main([
                "fig2", "--scale", "smoke",
                "--cache-dir", str(blocker / "c"),
            ])
        assert "unusable" in capsys.readouterr().err


class TestPoolLifecycle:
    def test_no_worker_outlives_main(self, capsys, caplog):
        import logging
        import multiprocessing

        before = set(multiprocessing.active_children())
        with caplog.at_level(logging.INFO, logger="repro.pool"):
            assert main(["fig2", "--scale", "smoke", "--workers", "2"]) == 0
        capsys.readouterr()
        spawns = [r for r in caplog.records if "spawned worker pool" in r.message]
        assert len(spawns) == 1  # the run really forked
        # Children alive before the call (a pool another test still
        # holds) are not main()'s; on their own this set is empty.
        assert set(multiprocessing.active_children()) <= before


class TestScalePrecedence:
    """--scale beats $REPRO_SCALE beats the 'default' fallback."""

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert main(["fig2", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "scale=smoke" in out

    def test_env_used_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "scale=smoke" in out

    def test_bad_env_scale_errors_cleanly(self, capsys, monkeypatch):
        from repro.errors import ValidationError

        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValidationError, match="galactic"):
            main(["fig2"])


class TestAllocatorsCommand:
    def test_text_lists_every_registered_allocator(self, capsys):
        from repro.allocators import allocator_names

        assert main(["allocators"]) == 0
        out = capsys.readouterr().out
        for name in allocator_names():
            assert name in out

    def test_json_lists_specs(self, capsys):
        from repro.allocators import allocator_names

        assert main(["allocators", "--format", "json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == allocator_names()
        assert all("title" in s and "tags" in s for s in specs)

    def test_describe_one(self, capsys):
        assert main(["allocators", "optimal[branch-bound]"]) == 0
        out = capsys.readouterr().out
        assert "optimal[branch-bound]" in out
        assert "branch-and-bound" in out.lower()

    def test_unknown_name_errors_with_known_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["allocators", "quantum"])
        err = capsys.readouterr().err
        assert "quantum" in err and "hydra" in err

    def test_list_shows_descriptions(self, capsys):
        from repro.experiments.registry import iter_experiments

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment in iter_experiments():
            spec = experiment.spec()
            blurb = (spec.description or spec.title).splitlines()[0]
            assert blurb[:40] in out
        assert "allocators" in out  # the meta-command hint


class TestWorkloadsCommand:
    def test_text_lists_every_registered_workload(self, capsys):
        from repro.workloads import workload_names

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out

    def test_json_lists_specs(self, capsys):
        from repro.workloads import workload_names

        assert main(["workloads", "--format", "json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == workload_names()
        assert all("title" in s and "tags" in s for s in specs)

    def test_describe_one(self, capsys):
        assert main(["workloads", "uunifast-discard"]) == 0
        out = capsys.readouterr().out
        assert "uunifast-discard" in out
        assert "resampled" in out.lower()

    def test_describe_one_json(self, capsys):
        assert main(["workloads", "heavy-security", "--format", "json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["name"] == "heavy-security"
        assert "profile" in spec["tags"]

    def test_unknown_name_errors_with_known_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["workloads", "fractal"])
        err = capsys.readouterr().err
        assert "fractal" in err and "paper-synthetic" in err

    def test_list_mentions_workloads_meta_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "workloads" in out  # the meta-command hint


class TestSweepWorkloadOverride:
    def _write_config(self, tmp_path, text: str):
        path = tmp_path / "sweep.toml"
        path.write_text(text)
        return str(path)

    _CONFIG = """
    [sweep]
    name = "wl-mini"
    tasksets_per_point = 2
    utilization = { start = 0.5, stop = 0.5, step = 0.5 }

    [grid]
    cores = [2]
    heuristic = ["best-fit"]
    ordering = ["rm"]
    admission = ["rta"]
    """

    def test_workload_flag_adds_the_axis(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._CONFIG)
        assert main([
            "sweep", "--config", config, "--scale", "smoke",
            "--workload", "paper-synthetic", "--workload", "uunifast",
        ]) == 0
        out = capsys.readouterr().out
        assert "paper-synthetic::best-fit/rm/rta" in out
        assert "uunifast::best-fit/rm/rta" in out

    def test_unknown_workload_flag_errors_cleanly(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._CONFIG)
        with pytest.raises(SystemExit):
            main([
                "sweep", "--config", config, "--workload", "fractal",
            ])
        err = capsys.readouterr().err
        assert "fractal" in err and "known workloads" in err

    def test_workload_axis_in_toml(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            self._CONFIG.replace(
                'admission = ["rta"]',
                'admission = ["rta"]\n    workload = ["harmonic-periods"]',
            ),
        )
        assert main(["sweep", "--config", config, "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "harmonic-periods::best-fit/rm/rta" in out

    def test_workload_and_allocator_flags_compose(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._CONFIG)
        assert main([
            "sweep", "--config", config, "--scale", "smoke",
            "--workload", "table1-suite", "--allocator", "binpack-first-fit",
        ]) == 0
        out = capsys.readouterr().out
        assert "table1-suite::binpack-first-fit|best-fit/rm/rta" in out


class TestSweepAllocatorOverride:
    def _write_config(self, tmp_path, text: str):
        path = tmp_path / "sweep.toml"
        path.write_text(text)
        return str(path)

    _CONFIG = """
    [sweep]
    name = "alloc-mini"
    tasksets_per_point = 2
    utilization = { start = 0.5, stop = 0.5, step = 0.5 }

    [grid]
    cores = [2]
    heuristic = ["best-fit"]
    ordering = ["rm"]
    admission = ["rta"]
    """

    def test_allocator_flag_adds_the_axis(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._CONFIG)
        assert main([
            "sweep", "--config", config, "--scale", "smoke",
            "--allocator", "hydra", "--allocator", "binpack-first-fit",
        ]) == 0
        out = capsys.readouterr().out
        assert "hydra|best-fit/rm/rta" in out
        assert "binpack-first-fit|best-fit/rm/rta" in out

    def test_unknown_allocator_flag_errors_cleanly(self, tmp_path, capsys):
        config = self._write_config(tmp_path, self._CONFIG)
        with pytest.raises(SystemExit):
            main([
                "sweep", "--config", config, "--allocator", "quantum",
            ])
        err = capsys.readouterr().err
        assert "quantum" in err and "known allocators" in err

    def test_allocator_axis_in_toml(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            self._CONFIG.replace(
                'admission = ["rta"]',
                'admission = ["rta"]\n    allocator = ["slackiest-core"]',
            ),
        )
        assert main(["sweep", "--config", config, "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "slackiest-core|best-fit/rm/rta" in out


class TestTypedErrorsAndWorkersValidation:
    """Runtime failures exit 1 with one typed line; bad ``--workers``
    values are rejected by argparse (exit 2) before anything runs."""

    _CONFIG = """
    [sweep]
    name = "err-mini"
    tasksets_per_point = 2
    utilization = { start = 0.5, stop = 0.5, step = 0.5 }

    [grid]
    cores = [2]
    heuristic = ["best-fit"]
    ordering = ["rm"]
    admission = ["rta"]
    """

    def _write_config(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(self._CONFIG)
        return str(path)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_below_one_rejected_at_parse_time(
        self, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--scale", "smoke", "--workers", value])
        assert excinfo.value.code == 2  # argparse usage error
        assert "positive worker count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
    def test_negative_seed_rejected_at_parse_time(
        self, command, tmp_path, capsys
    ):
        argv = [command, "--scale", "smoke", "--seed", "-5"]
        if command == "sweep":
            argv += ["--config", self._write_config(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error
        assert "non-negative seed" in capsys.readouterr().err

    def test_workers_non_integer_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--scale", "smoke", "--workers", "many"])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_serve_validates_workers_too(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "positive worker count" in capsys.readouterr().err

    def test_serve_bind_failure_is_one_typed_line_exit_1(
        self, tmp_path, capsys
    ):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "serve", "--host", "127.0.0.1",
                    "--port", str(port),
                    "--cache-dir", str(tmp_path / "cache"),
                ])
            assert excinfo.value.code == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            # The startup banner precedes the failure; the typed
            # one-liner is the last thing on stderr.
            assert err.strip().splitlines()[-1].startswith(
                "repro-hydra: OSError:"
            )
        finally:
            blocker.close()

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_out_of_range_is_a_usage_error(
        self, port, tmp_path, capsys, monkeypatch
    ):
        import repro.server

        def never_bind(*args, **kwargs):
            raise AssertionError("an out-of-range port reached the socket")

        monkeypatch.setattr(repro.server, "run_server", never_bind)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", "--port", port,
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "port in 0-65535" in err
        assert "listening" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    def test_unwritable_output_is_one_typed_line_exit_1(
        self, where, tmp_path, capsys
    ):
        target = tmp_path
        if where == "under-a-file":
            (tmp_path / "file").write_text("not a directory")
            target = tmp_path / "file" / "out.txt"
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--output", str(target)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("repro-hydra: ")
        assert "Error: " in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_allocator_is_one_typed_line_exit_1(
        self, tmp_path, capsys
    ):
        config = self._write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", config, "--allocator", "quantum"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: UnknownAllocatorError:")
        assert "quantum" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_workload_is_one_typed_line_exit_1(
        self, tmp_path, capsys
    ):
        config = self._write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", config, "--workload", "fractal"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: UnknownWorkloadError:")
        assert "Traceback" not in err

    def test_unusable_cache_dir_is_a_typed_cache_error(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the store root should be")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "table1", "--cache-dir", str(blocker),
            ])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: CacheError:")
        assert "Traceback" not in err

    def test_unknown_allocator_describe_is_typed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["allocators", "no-such-strategy"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: ")
        assert "no-such-strategy" in err

    def test_cache_verb_on_missing_dir_is_typed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "cache", "gc",
                "--cache-dir", str(tmp_path / "absent"),
            ])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: ValidationError:")
        assert "no cache directory" in err


class TestExecutorsCommand:
    def test_text_lists_every_registered_executor(self, capsys):
        from repro.executors import executor_names

        assert main(["executors"]) == 0
        out = capsys.readouterr().out
        for name in executor_names():
            assert name in out

    def test_json_lists_specs(self, capsys):
        from repro.executors import executor_names

        assert main(["executors", "--format", "json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == executor_names()
        assert all("title" in s and "tags" in s for s in specs)

    def test_describe_one(self, capsys):
        assert main(["executors", "subprocess-workers"]) == 0
        out = capsys.readouterr().out
        assert "subprocess-workers" in out
        assert "heartbeat" in out.lower()

    def test_unknown_name_errors_with_known_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["executors", "warp-drive"])
        err = capsys.readouterr().err
        assert "warp-drive" in err and "serial" in err

    def test_list_mentions_executors_meta_command(self, capsys):
        assert main(["list"]) == 0
        assert "executors" in capsys.readouterr().out


class TestExecutorFlag:
    def test_run_with_serial_backend(self, capsys):
        assert main(
            ["fig2", "--scale", "smoke", "--executor", "serial"]
        ) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_sweep_backends_are_byte_identical(self, tmp_path, capsys):
        config = tmp_path / "sweep.toml"
        config.write_text(
            '[sweep]\n'
            'name = "exec-cli-mini"\n'
            'tasksets_per_point = 2\n'
            'utilization = { start = 0.5, stop = 1.0, step = 0.5 }\n'
            '[grid]\n'
            'cores = [2]\n'
            'heuristic = ["best-fit"]\n'
            'ordering = ["rm"]\n'
            'admission = ["rta"]\n'
        )
        runs = {}
        for backend in ("serial", "subprocess-workers"):
            assert main([
                "sweep", "--config", str(config), "--scale", "smoke",
                "--format", "json", "--executor", backend,
                "--workers", "2",
            ]) == 0
            runs[backend] = capsys.readouterr().out
        assert runs["serial"] == runs["subprocess-workers"]

    def test_unknown_executor_is_one_typed_line_exit_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fig2", "--scale", "smoke", "--executor", "warp-drive",
            ])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-hydra: ")
        assert "unknown executor" in err
        assert "Traceback" not in err

    def test_serve_validates_executor_upfront(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--executor", "warp-drive", "--port", "0"])
        assert excinfo.value.code == 1
        assert "unknown executor" in capsys.readouterr().err


class TestCacheSegmentReporting:
    def _fill_segments(self, root):
        from repro.experiments.store import ResultStore

        primary = ResultStore(root)
        primary.put_many("demo", [({"k": 0}, {"v": 0})])
        writer = ResultStore(root, writer_id="serve123")
        writer.put_many("demo", [({"k": 1}, {"v": 1})])
        writer.put_many("demo", [({"k": 2}, {"v": 2})])

    def test_stats_report_writer_segments(self, tmp_path, capsys):
        self._fill_segments(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "writer serve123" in out
        assert "1 writer segment file(s)" in out
        assert "cache gc" in out  # points at the merge verb

    def test_gc_reports_the_merge_and_unifies_the_log(
        self, tmp_path, capsys
    ):
        self._fill_segments(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "merged 1 writer segment(s) (2 entries)" in out
        assert "3 live entries" in out
        assert not list((tmp_path / "demo").glob("data.*.jsonl"))

        # A second gc has nothing to merge and stays quiet about it.
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "merged" not in out
        assert "3 live entries" in out
