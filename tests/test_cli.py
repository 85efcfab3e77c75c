"""Tests for the ``repro-experiments`` command-line interface.

Covers exit codes, text/Markdown/JSON rendering, the ``run-all`` output
directory, the unknown-identifier error paths, and the ``scenario``
subcommands — all through :func:`repro.cli.main` with an in-process argv,
exactly as the console script drives it.
"""

from __future__ import annotations

import json
from typing import Any, ClassVar

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.scenarios import SCENARIOS

#: Keep every experiment invocation tiny: the CLI is under test, not the
#: experiments themselves.
TINY = ["--trials", "1", "--stream-length", "100", "--universe-size", "64"]
TINY_SCENARIO = ["--trials", "1", "--stream-length", "96", "--universe-size", "32"]


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(EXPERIMENTS)


class TestRun:
    def test_run_e3_text(self, capsys):
        assert main(["run", "E3", *TINY]) == 0
        out = capsys.readouterr().out
        assert "E3" in out
        assert "|" not in out.splitlines()[0]  # text table, not Markdown

    def test_run_markdown(self, capsys):
        assert main(["run", "E3", *TINY, "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### E3")
        assert "| --- |" in out or "|---|" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "e3", *TINY]) == 0
        assert "E3" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "E99", *TINY]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert captured.out == ""

    def test_invalid_config_exits_2(self, capsys):
        assert main(["run", "E3", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err


class TestRunAll:
    def test_run_all_writes_output_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run-all", *TINY, "--output-dir", str(out_dir)]) == 0
        written = sorted(p.name for p in out_dir.glob("*.md"))
        assert written == sorted(f"{identifier}.md" for identifier in EXPERIMENTS)
        # Files are Markdown (run-all renders Markdown whenever it writes).
        text = (out_dir / "E3.md").read_text(encoding="utf-8")
        assert text.startswith("### E3")
        # And the CLI reported each file it wrote.
        out = capsys.readouterr().out
        assert out.count("wrote ") == len(EXPERIMENTS)


class TestScenarioList:
    def test_lists_every_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert f"{name}:" in out

    def test_json_listing(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in listing} == set(SCENARIOS)
        for entry in listing:
            assert "budget_grid" in entry


class TestScenarioRun:
    def test_run_text_table(self, capsys):
        assert main(["scenario", "run", "prefix_flood", *TINY_SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "scenario prefix_flood" in out
        assert "peak discrepancy" in out

    def test_run_markdown(self, capsys):
        assert main(["scenario", "run", "prefix_flood", *TINY_SCENARIO, "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### scenario: prefix_flood")

    def test_run_json_round_trips(self, capsys):
        assert main(["scenario", "run", "prefix_flood", *TINY_SCENARIO, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "prefix_flood"
        assert data["config"]["stream_length"] == 96
        assert data["cells"]

    def test_budget_flag_reaches_config(self, capsys):
        assert main(
            ["scenario", "run", "prefix_flood", *TINY_SCENARIO, "--budget", "0.5", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["attack_budget"] == 0.5

    def test_run_sharded_scenario(self, capsys):
        """The acceptance path: a sharded distributed scenario end to end."""
        assert main(["scenario", "run", "shard_hotspot", *TINY_SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "scenario shard_hotspot" in out
        assert "sharded-reservoir" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "not_a_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_invalid_budget_exits_2(self, capsys):
        assert main(
            ["scenario", "run", "prefix_flood", *TINY_SCENARIO, "--budget", "2.0"]
        ) == 2
        assert "attack budget" in capsys.readouterr().err


class TestScenarioSweep:
    def test_sweep_table(self, capsys):
        assert main(
            [
                "scenario", "sweep", "reservoir_eviction", *TINY_SCENARIO,
                "--budgets", "0.5,1.0", "--seeds", "1,2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: reservoir_eviction" in out
        # 2 budgets x 2 seeds x 1 sampler = 4 data rows (after title+header+rule).
        assert len([line for line in out.splitlines() if line.strip()]) == 3 + 4

    def test_sweep_json(self, capsys):
        assert main(
            [
                "scenario", "sweep", "reservoir_eviction", *TINY_SCENARIO,
                "--budgets", "0.5,1.0", "--json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["config"]["attack_budget"] for entry in data] == [0.5, 1.0]

    def test_sweep_default_budgets_use_registry_grid(self, capsys):
        assert main(
            ["scenario", "sweep", "static_baseline", *TINY_SCENARIO, "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        budgets = [entry["config"]["attack_budget"] for entry in data]
        assert budgets == list(SCENARIOS["static_baseline"].budget_grid)


class TestScenarioConfigFile:
    """``scenario run/sweep --config FILE``: the file-driven path and every
    error mode — malformed JSON, unknown fields/families, conflicting
    sources — must exit 2 with a message, never a traceback."""

    GOOD: ClassVar[dict[str, Any]] = {
        "name": "custom",
        "stream_length": 96,
        "universe_size": 32,
        "trials": 1,
        "campaign": {
            "mode": "interleaved",
            "stride": 4,
            "members": [
                {"adversary": {"family": "uniform"}},
                {"adversary": {"family": "zipf"}},
            ],
        },
    }

    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload),
            encoding="utf-8",
        )
        return str(path)

    def test_run_config_file(self, tmp_path, capsys):
        assert main(["scenario", "run", "--config", self._write(tmp_path, self.GOOD), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "custom"
        assert data["cells"][0]["adversary"] == "campaign:uniform+zipf"

    def test_run_config_file_applies_overrides(self, tmp_path, capsys):
        path = self._write(tmp_path, self.GOOD)
        assert main(["scenario", "run", "--config", path, "--budget", "0.5",
                     "--stream-length", "64", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["attack_budget"] == 0.5
        assert data["config"]["stream_length"] == 64

    def test_sweep_config_file(self, tmp_path, capsys):
        path = self._write(tmp_path, self.GOOD)
        assert main(["scenario", "sweep", "--config", path, "--budgets", "0.5,1.0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["config"]["attack_budget"] for entry in data] == [0.5, 1.0]

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_malformed_json_exits_2(self, verb, tmp_path, capsys):
        path = self._write(tmp_path, "{not json!")
        assert main(["scenario", verb, "--config", path]) == 2
        captured = capsys.readouterr()
        assert "invalid scenario JSON" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_missing_file_exits_2(self, verb, tmp_path, capsys):
        assert main(["scenario", verb, "--config", str(tmp_path / "nope.json")]) == 2
        captured = capsys.readouterr()
        assert "cannot read scenario config" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_adversary_family_exits_2(self, tmp_path, capsys):
        payload = {"name": "bad", "stream_length": 64, "universe_size": 32,
                   "trials": 1, "adversary": {"family": "does_not_exist"}}
        assert main(["scenario", "run", "--config", self._write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert "unknown adversary family" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        payload = dict(self.GOOD, surprise=1)
        assert main(["scenario", "run", "--config", self._write(tmp_path, payload)]) == 2
        assert "unknown scenario config fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sampler",
        [
            {"family": "reservoir", "capacity": 0},
            {"family": "weighted_reservoir", "capacity": 0},
            {"family": "sliding_window", "capacity": 0, "window": 8},
        ],
        ids=["reservoir", "weighted_reservoir", "sliding_window"],
    )
    def test_zero_capacity_exits_2(self, sampler, tmp_path, capsys):
        payload = {"name": "empty", "stream_length": 64, "universe_size": 32,
                   "trials": 1, "samplers": {"s": sampler}}
        assert main(["scenario", "run", "--config", self._write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert "error: capacity must be >= 1, got 0" in captured.err
        assert "Traceback" not in captured.err

    def test_non_object_json_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "[1, 2, 3]")
        assert main(["scenario", "run", "--config", path]) == 2
        assert "must encode an object" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_name_and_config_conflict_exits_2(self, verb, tmp_path, capsys):
        path = self._write(tmp_path, self.GOOD)
        assert main(["scenario", verb, "prefix_flood", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "not both" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_neither_name_nor_config_exits_2(self, verb, capsys):
        assert main(["scenario", verb]) == 2
        assert "scenario list" in capsys.readouterr().err

    def test_campaign_validation_error_names_the_member(self, tmp_path, capsys):
        payload = {
            "name": "bad_campaign", "stream_length": 96, "universe_size": 32,
            "trials": 1,
            "campaign": {
                "mode": "phased",
                "members": [
                    {"label": "noise",
                     "adversary": {"family": "uniform", "decision_period": 4}},
                    {"start": 0.5, "adversary": {"family": "zipf"}},
                ],
            },
        }
        assert main(["scenario", "run", "--config", self._write(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "campaign member #0 (noise)" in err
        assert "Traceback" not in err


class TestScenarioFuzz:
    def test_fuzz_summary(self, capsys):
        assert main(["scenario", "fuzz", "--count", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fuzzed 3 configs (3 distinct)" in out
        assert "all invariants held" in out
        assert "bit_reproducibility" in out

    def test_fuzz_json(self, capsys):
        assert main(["scenario", "fuzz", "--count", "2", "--seed", "9", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["examples"] == 2
        assert set(data["invariants"]) == {
            "bit_reproducibility", "budget_monotonicity",
            "chunking_independence", "sharded_agreement",
        }

    def test_fuzz_zero_count_exits_2(self, capsys):
        assert main(["scenario", "fuzz", "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err

    def test_fuzz_failure_exits_1(self, capsys, monkeypatch):
        from repro.scenarios import fuzz as fuzz_module

        def broken(config):
            return [
                fuzz_module.InvariantResult("bit_reproducibility", "failed", "boom")
            ]

        monkeypatch.setattr(fuzz_module, "check_invariants", broken)
        assert main(["scenario", "fuzz", "--count", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAILED bit_reproducibility" in out


class TestParserErrors:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_scenario_without_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario"])
        assert excinfo.value.code == 2


class TestBench:
    """The bench subcommand's plumbing, with the suite itself stubbed out
    (the real smoke suite runs in CI; unit tests only verify wiring)."""

    @pytest.fixture
    def stub_suite(self, monkeypatch):
        import repro.bench as bench

        report = {
            "version": "0.0-test",
            "mode": "smoke",
            "python": "3",
            "numpy": "2",
            "results": [
                {"op": "extend/bernoulli/batched", "n": 10, "seconds": 0.001,
                 "throughput": 10_000.0, "speedup": 5.0},
                {"op": "extend/bernoulli/sequential", "n": 10, "seconds": 0.005,
                 "throughput": 2_000.0, "speedup": None},
            ],
        }
        monkeypatch.setattr(bench, "run_suite", lambda mode: dict(report, mode=mode))
        return report

    def test_bench_writes_report(self, stub_suite, tmp_path, capsys):
        output = tmp_path / "BENCH_PR3.json"
        assert main(["bench", "--mode", "smoke", "--output", str(output)]) == 0
        data = json.loads(output.read_text())
        assert data["mode"] == "smoke"
        assert {record["op"] for record in data["results"]} == {
            "extend/bernoulli/batched", "extend/bernoulli/sequential"
        }
        assert all(
            set(record) == {"op", "n", "seconds", "throughput", "speedup"}
            for record in data["results"]
        )
        assert str(output) in capsys.readouterr().out

    def test_bench_markdown_table(self, stub_suite, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output), "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| op | n | seconds |" in out
        assert "5.0x" in out

    def test_bench_check_accepts_a_matching_baseline(self, stub_suite, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(stub_suite))
        output = tmp_path / "fresh.json"
        assert main(
            ["bench", "--mode", "smoke", "--output", str(output),
             "--check", "--baseline", str(baseline)]
        ) == 0
        assert "bench check: ok" in capsys.readouterr().out

    def test_bench_check_fails_on_missing_operation(self, stub_suite, tmp_path, capsys):
        baseline = dict(stub_suite)
        baseline["results"] = baseline["results"] + [
            {"op": "extend/vanished/batched", "n": 10, "seconds": 0.001,
             "throughput": 10_000.0, "speedup": 2.0},
        ]
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        output = tmp_path / "fresh.json"
        assert main(
            ["bench", "--mode", "smoke", "--output", str(output),
             "--check", "--baseline", str(baseline_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "extend/vanished/batched" in err
        # The fresh report is still written before the check verdict.
        assert output.exists()

    def test_bench_check_without_output_never_clobbers_the_baseline(
        self, stub_suite, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        from repro.bench import BENCH_FILENAME

        baseline = tmp_path / BENCH_FILENAME
        baseline.write_text(json.dumps(stub_suite))
        before = baseline.read_text()
        assert main(["bench", "--mode", "smoke", "--check"]) == 0
        assert baseline.read_text() == before, "committed baseline was overwritten"
        fresh = tmp_path / baseline.name.replace(".json", ".fresh.json")
        assert fresh.exists()
        assert json.loads(fresh.read_text())["mode"] == "smoke"

    def test_bench_check_missing_baseline_exits_2(self, stub_suite, tmp_path, capsys):
        assert main(
            ["bench", "--mode", "smoke", "--output", str(tmp_path / "fresh.json"),
             "--check", "--baseline", str(tmp_path / "nope.json")]
        ) == 2
        assert "not found" in capsys.readouterr().err

    def test_bench_check_rejects_schema_drift(self, stub_suite):
        """check_report itself: record-level schema drift is named."""
        from repro.bench import check_report

        drifted = dict(stub_suite)
        drifted["results"] = [
            {"op": "extend/bernoulli/batched", "n": 10, "seconds": 0.001,
             "throughput": 10_000.0},  # speedup missing
            {"op": "extend/bernoulli/sequential", "n": 10, "seconds": 0.005,
             "throughput": 2_000.0, "speedup": None, "surprise": 1},
        ]
        problems = check_report(drifted, stub_suite)
        assert any("missing ['speedup']" in problem for problem in problems)
        assert any("surprise" in problem for problem in problems)
        assert check_report(stub_suite, stub_suite) == []

    def test_real_suite_shape(self, monkeypatch, tmp_path):
        """One genuinely executed (tiny) suite proves the record schema."""
        import repro.bench as bench

        monkeypatch.setattr(bench, "OPS", bench.OPS[:2])
        monkeypatch.setattr(bench, "REPEATS", 1)
        report = bench.run_suite("smoke")
        assert [record["op"] for record in report["results"]] == ["extend/bernoulli", "extend/reservoir"]
        for record in report["results"]:
            assert set(record) == set(bench.RECORD_FIELDS)
            assert record["seconds"] > 0
            assert record["throughput"] > 0
            assert record["speedup"] > 0
        assert report["results"][1]["n"] == bench.OPS[1].n // 50
        path = bench.write_report(report, tmp_path / "r.json")
        assert json.loads(path.read_text())["results"]
        assert bench.check_report(report, report) == []


class TestBenchHelpers:
    """The extracted read-baseline-then-write helpers behind bench --check."""

    def test_load_baseline_missing_raises_configuration_error(self, tmp_path):
        from repro.bench import load_baseline
        from repro.exceptions import ConfigurationError

        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError, match="not found"):
            load_baseline(missing)

    def test_load_baseline_rejects_invalid_json(self, tmp_path):
        from repro.bench import load_baseline
        from repro.exceptions import ConfigurationError

        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_baseline(corrupt)

    def test_load_baseline_rejects_non_object_json(self, tmp_path):
        from repro.bench import load_baseline
        from repro.exceptions import ConfigurationError

        listy = tmp_path / "list.json"
        listy.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError, match="not a JSON object"):
            load_baseline(listy)

    def test_load_baseline_defaults_to_the_canonical_name(self, tmp_path, monkeypatch):
        from repro.bench import BENCH_FILENAME, load_baseline

        monkeypatch.chdir(tmp_path)
        (tmp_path / BENCH_FILENAME).write_text(json.dumps({"results": []}))
        path, baseline = load_baseline()
        assert path.name == BENCH_FILENAME
        assert baseline == {"results": []}

    def test_resolve_output_contract(self):
        from pathlib import Path

        from repro.bench import BENCH_FILENAME, resolve_output

        explicit = Path("somewhere/else.json")
        assert resolve_output(explicit, checking=True) == explicit
        assert resolve_output(explicit, checking=False) == explicit
        assert resolve_output(None, checking=False) == Path(BENCH_FILENAME)
        fresh = resolve_output(None, checking=True)
        assert fresh.name.endswith(".fresh.json")
        assert fresh.name != BENCH_FILENAME, "--check must never clobber the baseline"


class TestServiceCLI:
    """The serve/query verbs over the canonical sharded deployment."""

    def test_query_quantile_text(self, capsys):
        assert main(["query", "--n", "2000", "--capacity", "64"]) == 0
        out = capsys.readouterr().out
        assert "quantile" in out and "2000 rounds" in out

    def test_query_json_is_deterministic(self, capsys):
        argv = ["query", "--n", "2000", "--capacity", "64", "--kind",
                "heavy-hitters", "--json", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["kind"] == "heavy_hitters"
        assert payload["rounds"] == 2000
        assert payload["sample_size"] > 0

    def test_query_discrepancy_uses_exact_counts(self, capsys):
        assert main(["query", "--n", "2000", "--capacity", "64", "--kind",
                     "discrepancy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["result"] <= 1.0

    def test_serve_without_clients_reports_zero_queries(self, capsys):
        assert main(["serve", "--n", "2000", "--capacity", "64", "--clients",
                     "0", "--adversarial-clients", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 2000
        assert payload["queries"] == 0

    def test_serve_with_clients_emits_latency_quantiles(self, capsys):
        assert main(["serve", "--n", "4000", "--capacity", "64", "--clients",
                     "2", "--adversarial-clients", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 4000
        assert payload["queries"] > 0
        assert payload["query_p50"] is not None
        assert payload["query_p99"] >= payload["query_p50"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--n", "0"],
            ["serve", "--n", "100", "--chunk-size", "0"],
            ["serve", "--n", "100", "--clients", "-1"],
            ["query", "--n", "100", "--staleness", "-1"],
            ["query", "--n", "100", "--sites", "0"],
        ],
    )
    def test_invalid_service_knobs_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
