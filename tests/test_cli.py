"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main, run_curves, run_plan

#: Small, fast arguments shared by the CLI tests (adult_like is the cheapest
#: dataset: 4 slices, binary labels).
FAST = [
    "--dataset", "adult_like",
    "--initial-size", "60",
    "--validation-size", "60",
    "--epochs", "10",
    "--curve-points", "3",
    "--seed", "0",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["curves", "--dataset", "imagenet"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--methods", "alchemy"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "fashion_like"
        assert "moderate" in args.methods

    def test_any_registered_strategy_accepted(self):
        args = build_parser().parse_args(
            ["compare", "--methods", "bandit", "Water_Filling", "moderate"]
        )
        assert args.methods == ["bandit", "water_filling", "moderate"]

    def test_every_registry_option_passes_on_the_primary_name(self):
        args = build_parser().parse_args(
            [
                "run", "--dataset", " Adult_Like", "--scenario", "BASIC",
                "--executor", "process_pool", "--source", "Pool",
                "--method", "waterfilling", "--discover", "error_kmeans",
            ]
        )
        assert (
            args.dataset, args.scenario, args.executor, args.source,
            args.method, args.discover,
        ) == ("adult_like", "basic", "process", "pool", "water_filling", "kmeans")


class TestSubcommands:
    def test_curves_lists_every_slice(self, capsys):
        exit_code = main(["curves", *FAST])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("White_Male", "White_Female", "Black_Male", "Black_Female"):
            assert name in output
        assert "reliability" in output

    def test_plan_prints_allocation(self, capsys):
        exit_code = main(["plan", *FAST, "--budget", "80", "--lam", "1.0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "examples to acquire" in output
        assert "cost" in output

    def test_compare_prints_methods_table(self, capsys):
        exit_code = main(
            [
                "compare",
                *FAST,
                "--budget", "60",
                "--methods", "uniform", "oneshot",
                "--trials", "1",
                "--show-allocations",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "original" in output
        assert "uniform" in output and "oneshot" in output
        assert "Avg./Max. EER" in output
        assert "Mean examples acquired per slice" in output

    def test_run_helpers_return_text(self):
        args = build_parser().parse_args(["curves", *FAST])
        assert "Learning curves" in run_curves(args)
        args = build_parser().parse_args(["plan", *FAST, "--budget", "40"])
        assert "total" in run_plan(args)

    def test_strategies_lists_registry(self, capsys):
        exit_code = main(["strategies"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in (
            "oneshot",
            "conservative",
            "moderate",
            "aggressive",
            "uniform",
            "water_filling",
            "proportional",
            "bandit",
        ):
            assert name in output
        assert "iterative" in output

    def test_sources_lists_provider_registry(self, capsys):
        exit_code = main(["sources"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("generator", "pool", "crowdsourcing", "composite", "throttled"):
            assert name in output

    def test_run_prints_fulfillment_log(self, capsys):
        exit_code = main(
            [
                "run",
                *FAST,
                "--budget", "60",
                "--method", "uniform",
                "--source", "mixed",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fulfillment log" in output
        assert "provenance" in output
        assert "pool" in output and "generator" in output

    def test_run_flaky_scenario_with_rounds(self, capsys):
        exit_code = main(
            [
                "run",
                *FAST,
                "--scenario", "flaky_source",
                "--budget", "60",
                "--method", "uniform",
                "--rounds", "4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "throttled_generator" in output

    def test_run_rejects_unknown_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--source", "teleporter"])

    def test_run_prints_cache_stats(self, capsys):
        exit_code = main(
            ["run", *FAST, "--budget", "60", "--method", "uniform"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Engine cache effectiveness" in output
        assert "trainings performed" in output


class TestQuietAndExitCodes:
    def test_quiet_run_prints_only_the_summary_line(self, capsys):
        exit_code = main(
            ["run", *FAST, "--quiet", "--budget", "60", "--method", "uniform"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out.strip()
        assert len(output.splitlines()) == 1
        assert "method=uniform" in output and "spent=" in output

    def test_quiet_strategies_prints_bare_names(self, capsys):
        assert main(["strategies", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "moderate" in output
        assert "description" not in output

    def test_config_errors_exit_2(self, capsys):
        # --workers without the process executor is a configuration error.
        exit_code = main(
            ["compare", *FAST, "--budget", "40", "--trials", "1", "--workers", "2"]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_campaign_exits_2(self, capsys, tmp_path):
        store = str(tmp_path / "empty.sqlite")
        assert main(["campaign", "show", "ghost", "--store", store]) == 2
        assert main(["campaign", "resume", "ghost", "--store", store]) == 2
        assert main(["run", *FAST, "--resume", "ghost", "--store", store]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 3

    def test_campaign_start_without_name_exits_2(self, capsys, tmp_path):
        store = str(tmp_path / "empty.sqlite")
        assert main(["campaign", "start", "--store", store]) == 2
        assert "error:" in capsys.readouterr().err


#: Small, fast campaign flags shared by the campaign CLI tests.
CAMPAIGN_FAST = [
    "--dataset", "adult_like",
    "--method", "moderate",
    "--budget", "200",
    "--seed", "0",
    "--initial-size", "50",
    "--validation-size", "50",
    "--epochs", "8",
    "--curve-points", "3",
]


class TestCampaignCommands:
    def test_start_list_show_flow(self, capsys, tmp_path):
        store = str(tmp_path / "camp.sqlite")
        exit_code = main(
            ["campaign", "start", "--name", "demo", *CAMPAIGN_FAST, "--store", store]
        )
        assert exit_code == 0
        start_output = capsys.readouterr().out
        assert "completed" in start_output
        assert "Engine cache effectiveness" in start_output

        assert main(["campaign", "list", "--store", store]) == 0
        list_output = capsys.readouterr().out
        assert "demo" in list_output and "completed" in list_output

        campaign_id = next(
            line.split()[0]
            for line in list_output.splitlines()
            if line.startswith("demo-")
        )
        assert main(["campaign", "show", campaign_id, "--store", store]) == 0
        show_output = capsys.readouterr().out
        assert "Replayed history" in show_output
        assert "method = moderate" in show_output

    def test_start_pause_then_run_resume_shorthand(self, capsys, tmp_path):
        store = str(tmp_path / "camp.sqlite")
        exit_code = main(
            [
                "campaign", "start", "--name", "pausy", *CAMPAIGN_FAST,
                "--max-steps", "1", "--store", store,
            ]
        )
        assert exit_code == 0
        paused_output = capsys.readouterr().out
        assert "paused" in paused_output
        campaign_id = paused_output.split(":", 1)[0].strip().splitlines()[-1]

        # `run --resume` is a shorthand for `campaign resume`.
        assert main(["run", "--resume", campaign_id, "--store", store]) == 0
        resumed_output = capsys.readouterr().out
        assert "pausy" in resumed_output and "iterations=" in resumed_output

        assert main(["campaign", "list", "--store", store, "--quiet"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_idempotent_restart_replays_without_rerunning(self, capsys, tmp_path):
        store = str(tmp_path / "camp.sqlite")
        args = ["campaign", "start", "--name", "once", *CAMPAIGN_FAST, "--store", store]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "idempotent re-run" in capsys.readouterr().out

    def test_resume_all_with_nothing_pending(self, capsys, tmp_path):
        store = str(tmp_path / "camp.sqlite")
        assert main(
            ["campaign", "start", "--name", "done", *CAMPAIGN_FAST, "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", "--all", "--store", store]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    def test_resume_rejects_id_plus_all(self, capsys, tmp_path):
        store = str(tmp_path / "camp.sqlite")
        assert (
            main(["campaign", "resume", "some-id", "--all", "--store", store]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestJsonOutput:
    """The --json machine-readable mode: stable schema tags, parseable out."""

    def test_run_json_schema(self, capsys):
        import json

        exit_code = main(
            ["run", *FAST, "--method", "uniform", "--budget", "120", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.run/1"
        assert payload["config"]["method"] == "uniform"
        assert payload["result"]["spent"] == pytest.approx(120.0)
        assert payload["fulfillments"], "fulfillment log missing"
        assert set(payload["fulfillments"][0]) >= {
            "slice", "requested", "delivered", "status", "provenance",
        }
        assert "results" in payload["cache"]

    def test_campaign_list_and_show_json(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "camp.sqlite")
        assert main(
            ["campaign", "start", "--name", "jsonny", *CAMPAIGN_FAST,
             "--store", store, "--quiet"]
        ) == 0
        capsys.readouterr()

        assert main(["campaign", "list", "--store", store, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["schema"] == "repro.campaign.list/1"
        assert listing["campaigns"][0]["status"] == "completed"
        campaign_id = listing["campaigns"][0]["campaign_id"]

        assert main(
            ["campaign", "show", campaign_id, "--store", store, "--json"]
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["schema"] == "repro.campaign.show/1"
        assert shown["campaign"]["campaign_id"] == campaign_id
        assert shown["campaign"]["spec"]["method"] == "moderate"
        kinds = {event["kind"] for event in shown["events"]}
        assert {"iteration", "completed"} <= kinds


    def test_campaign_show_reads_the_log_once(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.campaigns.store import SqliteStore

        store = str(tmp_path / "camp.sqlite")
        assert main(
            ["campaign", "start", "--name", "once", *CAMPAIGN_FAST,
             "--store", store, "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "list", "--store", store, "--json"]) == 0
        campaign_id = json.loads(capsys.readouterr().out)["campaigns"][0]["campaign_id"]

        reads = []
        events = SqliteStore.events

        def counting(self, *args, **kwargs):
            reads.append(args)
            return events(self, *args, **kwargs)

        monkeypatch.setattr(SqliteStore, "events", counting)
        assert main(
            ["campaign", "show", campaign_id, "--store", store, "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["events"]
        assert len(reads) == 1


class TestCacheCommand:
    """The persistent shared cache: --cache-dir plumbing + the cache family."""

    RUN = ["run", *FAST, "--method", "moderate", "--budget", "120", "--json"]

    def test_cache_family_needs_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_warm_rerun_trains_nothing_and_matches(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main([*self.RUN, "--cache-dir", cache_dir]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["trainings_performed"] > 0

        # Every main() call opens a fresh cache handle over the same file —
        # the in-process analogue of a restart.
        assert main([*self.RUN, "--cache-dir", cache_dir]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["trainings_performed"] == 0
        assert warm["result"] == cold["result"]
        assert warm["cache"]["results"]["hits"] >= cold["trainings_performed"]

    def test_env_var_configures_the_cache(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(self.RUN) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["trainings_performed"] > 0
        assert main(self.RUN) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["trainings_performed"] == 0

        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["schema"] == "repro.cache/1"

    def test_stats_clear_and_gc(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main([*self.RUN, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["schema"] == "repro.cache/1"
        assert set(stats["tiers"]) == {"memory", "results", "curves"}
        assert stats["tiers"]["results"]["entries"] > 0
        assert stats["tiers"]["results"]["size_bytes"] > 0
        assert stats["totals"]["misses"] > 0

        assert main(["cache", "gc", "--max-mb", "0", "--cache-dir", cache_dir]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["tiers"]["results"]["entries"] == 0

    def test_stats_table_lists_tiers(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        output = capsys.readouterr().out
        for tier in ("memory", "results", "curves", "total"):
            assert tier in output

    def test_workers_without_process_executor_exits_2(self, capsys):
        assert main([*self.RUN, "--workers", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestJsonSchemaTags:
    """Every --json subcommand carries its schema tag (README inventory)."""

    RUN = ["run", *FAST, "--method", "moderate", "--budget", "120", "--json"]

    def test_strategies_json(self, capsys):
        import json

        assert main(["strategies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.strategies/1"
        names = {entry["name"] for entry in payload["strategies"]}
        assert {"uniform", "water_filling", "moderate"} <= names
        assert all(
            {"name", "kind", "uses_lambda", "description"} <= set(entry)
            for entry in payload["strategies"]
        )

    def test_sources_json(self, capsys):
        import json

        assert main(["sources", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.sources/1"
        assert {entry["name"] for entry in payload["sources"]} >= {"pool"}

    def test_cache_clear_json(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main([*self.RUN, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(
            ["cache", "clear", "--cache-dir", cache_dir, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.cache.clear/1"
        assert payload["removed_results"] > 0
        assert payload["freed_bytes"] > 0
        assert payload["path"].startswith(cache_dir)

    def test_cache_gc_json_and_eviction_counters(self, capsys, tmp_path):
        """gc evictions must surface in a later ``cache stats --json``."""
        import json

        from repro.engine.diskcache import SqliteResultCache, default_cache_path

        cache_dir = str(tmp_path / "cache")
        assert main([*self.RUN, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # Plain runs only populate the results tier; seed one curve so the
        # gc demonstrably evicts across both disk tiers.
        with SqliteResultCache(default_cache_path(cache_dir)) as handle:
            handle.store_curve("curve-key", {"b": 2.5, "a": 0.7})

        assert main(
            ["cache", "gc", "--max-mb", "0", "--cache-dir", cache_dir, "--json"]
        ) == 0
        gc_payload = json.loads(capsys.readouterr().out)
        assert gc_payload["schema"] == "repro.cache.gc/1"
        assert gc_payload["max_mb"] == 0.0
        evicted = gc_payload["removed_results"] + gc_payload["removed_curves"]
        assert evicted > 0
        assert gc_payload["remaining_bytes"] == 0

        # The eviction counters are persisted in the cache file, so a fresh
        # handle (a new CLI invocation) still reports them — and the totals
        # row aggregates across every tier, curves included.
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        per_tier = sum(t["evictions"] for t in stats["tiers"].values())
        assert per_tier >= evicted
        assert stats["totals"]["evictions"] == per_tier
        assert stats["tiers"]["curves"]["evictions"] > 0

    def test_report_json_tag(self, capsys, tmp_path):
        import json

        from repro.campaigns.store import CampaignRecord, SqliteStore

        store_path = str(tmp_path / "camp.sqlite")
        with SqliteStore(store_path) as store:
            store.create_campaign(
                CampaignRecord(
                    campaign_id="c-1",
                    name="c",
                    fingerprint="fp",
                    spec={"name": "c", "budget": 10.0},
                    status="completed",
                    priority=0,
                )
            )
        assert main(["report", "summary", "--store", store_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.report/1"


def _leaves_in_docstring() -> set[str]:
    """The leaf inventory block of the ``repro.cli`` module docstring."""
    import repro.cli

    lines = repro.cli.__doc__.split("Leaf inventory", 1)[1].split("\n\n")[1].splitlines()
    leaves = set()
    for line in lines:
        group, _, names = line.strip().rpartition(":")
        leaves.update(" ".join(filter(None, [group, name.strip()])) for name in names.split(","))
    return leaves


def _leaves_in_parser() -> set[str]:
    """Every leaf path the parser accepts, walked from its subparsers."""
    import argparse

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return {" ".join(path)}
        return set().union(*(walk(sub, [*path, name]) for name, sub in subs[0].choices.items()))

    return walk(build_parser(), [])


class TestLeafTable:
    def test_parser_leaves_equal_the_docstring_inventory(self):
        assert len(_leaves_in_parser()) == 33
        assert _leaves_in_parser() == _leaves_in_docstring()

    @pytest.mark.parametrize("leaf", sorted(_leaves_in_parser()))
    def test_every_leaf_has_help_and_a_handler(self, capsys, leaf):
        with pytest.raises(SystemExit) as exit:
            main([*leaf.split(), "--help"])
        assert exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")


class TestReadOnlyStoreCommands:
    """Commands that only read a store never create one: exit 2 instead."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "list"],
            ["campaign", "list", "--json"],
            ["campaign", "show", "some-id"],
            ["report", "summary"],
            ["monitor", "alerts"],
            ["monitor", "status"],
        ],
    )
    def test_missing_store_exits_2_and_creates_nothing(self, capsys, tmp_path, argv):
        store = tmp_path / "missing.sqlite"
        assert main([*argv, "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: no campaign store at {str(store)!r}" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestKillHookEnvironment:
    """The crash-test hook's env vars come from outside: bad values exit 2."""

    @pytest.mark.parametrize(
        "env, named",
        [
            ({"REPRO_CAMPAIGN_KILL_AFTER": "1", "REPRO_CAMPAIGN_KILL_SIGNAL": "BOGUS"}, "'BOGUS'"),
            ({"REPRO_CAMPAIGN_KILL_AFTER": "soon"}, "'soon'"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch, env, named):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        store = tmp_path / "camp.sqlite"
        argv = ["campaign", "start", "--name", "k", *CAMPAIGN_FAST, "--store", str(store)]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: REPRO_CAMPAIGN_KILL_")
        assert named in error
        assert not store.exists()
