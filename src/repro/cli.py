"""Command-line interface: experiments, tables, and attack scenarios.

Examples
--------
Run one experiment with default parameters::

    repro-experiments run E3

Run everything at reduced scale and write Markdown tables to a directory::

    repro-experiments run-all --trials 5 --output-dir results/

List, run and sweep the declarative attack scenarios::

    repro-experiments scenario list
    repro-experiments scenario run prefix_flood --budget 0.5 --json
    repro-experiments scenario run --config my_scenario.json
    repro-experiments scenario sweep bisection_probe --budgets 0.25,0.5,1.0 --seeds 1,2
    repro-experiments scenario matrix --scenarios prefix_flood,bisection_probe --markdown
    repro-experiments scenario fuzz --count 50 --seed 7

Run the perf benchmark suite, write the machine-readable report, and check
it against the committed baseline::

    repro-experiments bench --mode smoke --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from .exceptions import ConfigurationError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .experiments.tables import ExperimentResult
from .scenarios import (
    ScenarioConfig,
    list_scenarios,
    run_config,
    run_scenario,
    sweep_config,
    sweep_scenario,
    sweep_table,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-experiments`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduction experiments for 'The Adversarial Robustness of Sampling'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(command="list")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment identifier, e.g. E3")
    _add_config_arguments(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    _add_config_arguments(run_all_parser)
    run_all_parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory to write per-experiment Markdown tables into",
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="declarative attack scenarios (list / run / sweep)"
    )
    scenario_subparsers = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_subparsers.add_parser(
        "list", help="list registered scenarios"
    )
    scenario_list.add_argument("--json", action="store_true", help="emit JSON")

    scenario_run = scenario_subparsers.add_parser("run", help="run one scenario")
    scenario_run.add_argument(
        "name", nargs="?", default=None, help="scenario name, e.g. prefix_flood"
    )
    scenario_run.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON ScenarioConfig file to run instead of a registered name",
    )
    _add_scenario_arguments(scenario_run)
    scenario_run.add_argument(
        "--budget", type=float, default=None, help="attack budget in [0, 1]"
    )

    scenario_sweep = scenario_subparsers.add_parser(
        "sweep", help="sweep one scenario over (budget x sampler x seed)"
    )
    scenario_sweep.add_argument(
        "name", nargs="?", default=None, help="scenario name, e.g. prefix_flood"
    )
    scenario_sweep.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON ScenarioConfig file to sweep instead of a registered name",
    )
    _add_scenario_arguments(scenario_sweep)
    scenario_sweep.add_argument(
        "--budgets",
        type=_float_list,
        default=None,
        help="comma-separated attack budgets (default: the scenario's grid)",
    )
    scenario_sweep.add_argument(
        "--seeds",
        type=_int_list,
        default=None,
        help="comma-separated seeds (default: the scenario's base seed)",
    )

    scenario_matrix = scenario_subparsers.add_parser(
        "matrix",
        help="run the attack x defense grid and tabulate attacked peak discrepancies",
    )
    scenario_matrix.add_argument(
        "--scenarios",
        type=_str_list,
        default=None,
        help="comma-separated scenario names (default: every registered scenario)",
    )
    scenario_matrix.add_argument(
        "--defenses",
        type=_str_list,
        default=None,
        help=(
            "comma-separated defense columns "
            "(none, oversample, sketch_switching, dp_aggregate, difference_estimator)"
        ),
    )
    _add_scenario_arguments(scenario_matrix)
    scenario_matrix.add_argument(
        "--budget", type=float, default=None, help="attack budget in [0, 1]"
    )
    scenario_matrix.add_argument(
        "--endpoint",
        action="store_true",
        help=(
            "run every cell as an endpoint game (continuous=false): the "
            "tabulated value is the final-state error, free of the "
            "early-checkpoint small-sample noise that dominates "
            "continuous-game peaks at matched space"
        ),
    )

    scenario_fuzz = scenario_subparsers.add_parser(
        "fuzz",
        help="fuzz random scenario configs and check the registry-wide invariants",
    )
    scenario_fuzz.add_argument(
        "--count", type=int, default=25, help="number of random configs to check"
    )
    scenario_fuzz.add_argument(
        "--seed", type=int, default=0, help="base seed for the config draws"
    )
    scenario_fuzz.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="run the perf benchmark suite and write a JSON report"
    )
    bench_parser.add_argument(
        "--mode",
        choices=("smoke", "full"),
        default="full",
        help="benchmark scale: 'smoke' for CI, 'full' for the real gates",
    )
    bench_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: the canonical BENCH_*.json name)",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "validate the fresh report against the committed baseline "
            "(schema + operation set); exits 1 on drift.  Without an "
            "explicit --output the fresh report is written as "
            "BENCH_*.fresh.json so the baseline is never overwritten"
        ),
    )
    bench_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report for --check (default: the canonical BENCH_*.json name)",
    )
    bench_parser.add_argument(
        "--markdown", action="store_true", help="also print the README perf table"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the always-on query service: ingest a synthetic stream into a "
            "sharded deployment while concurrent clients read snapshots"
        ),
    )
    _add_service_arguments(serve_parser)
    serve_parser.add_argument(
        "--clients", type=int, default=4, help="benign reader threads"
    )
    serve_parser.add_argument(
        "--adversarial-clients",
        type=int,
        default=1,
        help="reader threads that force fresh (cache-bypassing) snapshots",
    )
    serve_parser.add_argument(
        "--chunk-size", type=int, default=1024, help="ingest chunk size"
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="emit the service report as JSON"
    )

    query_parser = subparsers.add_parser(
        "query",
        help=(
            "one-shot query against a service snapshot of a synthetic stream "
            "(no threads; the read path the serve clients exercise)"
        ),
    )
    _add_service_arguments(query_parser)
    query_parser.add_argument(
        "--kind",
        choices=("quantile", "heavy-hitters", "discrepancy"),
        default="quantile",
        help="query kind",
    )
    query_parser.add_argument(
        "--q", type=float, default=0.5, help="quantile rank for --kind quantile"
    )
    query_parser.add_argument(
        "--k", type=int, default=8, help="result count for --kind heavy-hitters"
    )
    query_parser.add_argument(
        "--fresh",
        action="store_true",
        help="force a fresh snapshot (bypass the staleness bound)",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help=(
            "run the project-invariant lint engine (RNG discipline, "
            "determinism, lock discipline, protocol contracts) over the "
            "package tree; exits 1 on findings"
        ),
    )
    analyze_parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package tree to analyze (default: the installed repro package)",
    )
    analyze_parser.add_argument(
        "--tests",
        type=Path,
        default=None,
        help=(
            "test tree for cross-reference rules such as scenario coverage "
            "(default: the repo's tests/ directory when present)"
        ),
    )
    analyze_parser.add_argument(
        "--select",
        type=_str_list,
        default=[],
        metavar="RULES",
        help="comma-separated rule-id prefixes to run (e.g. RNG,DET001)",
    )
    analyze_parser.add_argument(
        "--ignore",
        type=_str_list,
        default=[],
        metavar="RULES",
        help="comma-separated rule-id prefixes to skip",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    analyze_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Deployment knobs shared by ``serve`` and ``query``."""
    parser.add_argument("--n", type=int, default=100_000, help="stream length")
    parser.add_argument("--sites", type=int, default=4, help="shard count")
    parser.add_argument(
        "--capacity", type=int, default=256, help="per-site reservoir capacity"
    )
    parser.add_argument(
        "--universe-size", type=int, default=4_096, help="element universe size"
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--staleness",
        type=int,
        default=0,
        help="bounded-staleness knob: serve a held snapshot up to this many rounds old",
    )


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials per row")
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--epsilon", type=float, default=None, help="target approximation error")
    parser.add_argument("--delta", type=float, default=None, help="target failure probability")
    parser.add_argument("--stream-length", type=int, default=None, help="stream length n")
    parser.add_argument("--universe-size", type=int, default=None, help="ordered universe size")
    parser.add_argument(
        "--markdown", action="store_true", help="print tables as Markdown instead of text"
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials per cell")
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--epsilon", type=float, default=None, help="target approximation error")
    parser.add_argument("--stream-length", type=int, default=None, help="stream length n")
    parser.add_argument("--universe-size", type=int, default=None, help="ordered universe size")
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    parser.add_argument(
        "--markdown", action="store_true", help="print tables as Markdown instead of text"
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    overrides = {}
    for field_name, attribute in (
        ("trials", "trials"),
        ("seed", "seed"),
        ("epsilon", "epsilon"),
        ("delta", "delta"),
        ("stream_length", "stream_length"),
        ("universe_size", "universe_size"),
    ):
        value = getattr(args, attribute, None)
        if value is not None:
            overrides[field_name] = value
    if overrides:
        config = config.replace(**overrides)
    return config


def _scenario_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for field_name in ("trials", "seed", "epsilon", "stream_length", "universe_size", "workers"):
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    return overrides


def _emit(result: ExperimentResult, markdown: bool) -> str:
    if markdown:
        header = f"### {result.experiment_id}: {result.title}\n\n"
        notes = "".join(f"\n- {note}" for note in result.notes)
        return header + result.table().to_markdown() + ("\n" + notes if notes else "")
    return result.to_text()


def _load_scenario_config(path: Path) -> ScenarioConfig:
    """Read and validate a JSON ScenarioConfig file; every failure mode —
    unreadable file, malformed JSON, invalid fields — is a ConfigurationError
    so the CLI exits 2 with a message instead of a traceback."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario config {path}: {exc}") from exc
    return ScenarioConfig.from_json(text)


def _resolve_scenario_source(args: argparse.Namespace) -> ScenarioConfig | None:
    """Enforce the name-xor-config contract shared by ``run`` and ``sweep``."""
    if args.name is not None and args.config is not None:
        raise ConfigurationError(
            "pass either a scenario name or --config, not both"
        )
    if args.name is None and args.config is None:
        raise ConfigurationError(
            "pass a scenario name (see 'scenario list') or --config FILE"
        )
    return None if args.config is None else _load_scenario_config(args.config)


def _run_scenario_command(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        listing = list_scenarios()
        if args.json:
            print(json.dumps(listing, indent=2, sort_keys=True))
        else:
            for entry in listing:
                print(f"{entry['name']}: {entry['description']}")
        return 0

    if args.scenario_command == "fuzz":
        return _run_scenario_fuzz(args)

    if args.scenario_command == "matrix":
        # Imported lazily alongside run_matrix's registry walk.
        from .scenarios.matrix import run_matrix

        overrides = _scenario_overrides(args)
        if args.budget is not None:
            overrides["attack_budget"] = args.budget
        if args.endpoint:
            overrides["continuous"] = False
        matrix = run_matrix(
            scenarios=args.scenarios, defenses=args.defenses, **overrides
        )
        if args.json:
            print(matrix.to_json())
        elif args.markdown:
            print(matrix.to_markdown())
        else:
            print(matrix.to_text())
        return 0

    if args.scenario_command == "run":
        config = _resolve_scenario_source(args)
        overrides = _scenario_overrides(args)
        if args.budget is not None:
            overrides["attack_budget"] = args.budget
        if config is not None:
            result = run_config(config.replace(**overrides) if overrides else config)
        else:
            result = run_scenario(args.name, **overrides)
        if args.json:
            print(result.to_json())
        elif args.markdown:
            print(result.to_markdown())
        else:
            print(result.to_text())
        return 0

    # sweep
    config = _resolve_scenario_source(args)
    if config is not None:
        overrides = _scenario_overrides(args)
        results = sweep_config(
            config.replace(**overrides) if overrides else config,
            budgets=args.budgets,
            seeds=args.seeds,
        )
    else:
        results = sweep_scenario(
            args.name, budgets=args.budgets, seeds=args.seeds, **_scenario_overrides(args)
        )
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2, sort_keys=True))
    elif args.markdown:
        print(sweep_table(results).to_markdown())
    else:
        print(sweep_table(results).to_text())
    return 0


def _run_scenario_fuzz(args: argparse.Namespace) -> int:
    # Imported lazily: the fuzzer pulls in the sharded deployment layer,
    # which list/run/sweep don't need.
    from .scenarios.fuzz import fuzz

    if args.count < 1:
        raise ConfigurationError(f"--count must be >= 1, got {args.count}")
    report = fuzz(args.count, seed=args.seed)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _run_bench_command(args: argparse.Namespace) -> int:
    # Imported lazily: the bench module pulls in every sampler and both game
    # runners, which the other subcommands don't need.
    from .bench import (
        check_report,
        load_baseline,
        render_markdown_table,
        resolve_output,
        run_suite,
        write_report,
    )

    baseline = None
    if args.check:
        # The baseline is read *before* the fresh report is written: in CI
        # both default to the same canonical path, and the committed baseline
        # must be the one the fresh run is judged against.  load_baseline
        # raises ConfigurationError on a missing/corrupt file, which main()
        # surfaces as `error: ...` with exit code 2.
        _, baseline = load_baseline(args.baseline)
    report = run_suite(args.mode)
    # Checked runs compare against the committed baseline, so never clobber
    # it implicitly: without an explicit --output the fresh report lands
    # next to it as BENCH_*.fresh.json instead.
    output = resolve_output(args.output, checking=baseline is not None)
    path = write_report(report, output)
    print(f"wrote {path} ({len(report['results'])} records, mode={report['mode']})")
    if args.markdown:
        print()
        print(render_markdown_table(report))
    if baseline is not None:
        problems = check_report(report, baseline)
        if problems:
            for problem in problems:
                print(f"bench check: {problem}", file=sys.stderr)
            return 1
        print(f"bench check: ok ({len(report['results'])} records match the baseline op-set)")
    return 0


def _build_service(args: argparse.Namespace):
    """The canonical serve/query deployment: hash-routed reservoir shards.

    Returns ``(service, data)`` — a fresh :class:`~repro.service.QueryService`
    and the synthetic stream, both pure functions of the CLI knobs so a
    fixed ``(seed, schedule)`` reruns bit-identically.
    """
    # Imported lazily: the service layer pulls in the threaded runtime,
    # which the experiment subcommands don't need.
    import numpy as np

    from .distributed import ShardedSampler
    from .samplers import ReservoirSampler
    from .service import QueryService

    if args.n < 1:
        raise ConfigurationError(f"--n must be >= 1, got {args.n}")
    if args.sites < 1:
        raise ConfigurationError(f"--sites must be >= 1, got {args.sites}")
    if args.capacity < 1:
        raise ConfigurationError(f"--capacity must be >= 1, got {args.capacity}")
    if args.universe_size < 1:
        raise ConfigurationError(
            f"--universe-size must be >= 1, got {args.universe_size}"
        )
    if args.staleness < 0:
        raise ConfigurationError(f"--staleness must be >= 0, got {args.staleness}")

    capacity = args.capacity

    def site_factory(rng: "np.random.Generator") -> ReservoirSampler:
        return ReservoirSampler(capacity, seed=rng)

    deployment = ShardedSampler(
        args.sites, site_factory, strategy="hash", seed=args.seed
    )
    service = QueryService(
        deployment,
        staleness_rounds=args.staleness,
        universe_size=args.universe_size,
    )
    rng = np.random.default_rng(args.seed)
    data = [
        int(value) for value in rng.integers(1, args.universe_size + 1, size=args.n)
    ]
    return service, data


def _run_serve_command(args: argparse.Namespace) -> int:
    if args.clients < 0:
        raise ConfigurationError(f"--clients must be >= 0, got {args.clients}")
    if args.adversarial_clients < 0:
        raise ConfigurationError(
            f"--adversarial-clients must be >= 0, got {args.adversarial_clients}"
        )
    if args.chunk_size < 1:
        raise ConfigurationError(f"--chunk-size must be >= 1, got {args.chunk_size}")
    service, data = _build_service(args)
    report = service.serve(
        data,
        chunk_size=args.chunk_size,
        clients=args.clients,
        adversarial_clients=args.adversarial_clients,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0


def _run_query_command(args: argparse.Namespace) -> int:
    service, data = _build_service(args)
    chunk = 4_096
    for start in range(0, len(data), chunk):
        service.ingest(data[start : start + chunk])
    kind = args.kind.replace("-", "_")
    result = service.query(kind, q=args.q, k=args.k, fresh=args.fresh)
    snapshot, _ = service.acquire(fresh=False)
    payload = {
        "kind": kind,
        "result": result,
        "rounds": snapshot.round_index,
        "snapshot_version": snapshot.version,
        "sample_size": snapshot.size,
        "staleness_rounds": args.staleness,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{kind} over {snapshot.size} sampled of {snapshot.round_index} rounds "
            f"(snapshot v{snapshot.version}): {result}"
        )
    return 0


def _run_analyze_command(args: argparse.Namespace) -> int:
    from .analysis import DEFAULT_RULES, AnalysisEngine

    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0
    package_root = args.root
    if package_root is None:
        package_root = Path(__file__).resolve().parent
    package_root = Path(package_root)
    if not package_root.is_dir():
        raise ConfigurationError(f"analysis root {package_root} is not a directory")
    tests_root = args.tests
    if tests_root is None:
        # src/repro layout: the repo's tests/ directory sits next to src/.
        candidate = package_root.parent.parent / "tests"
        tests_root = candidate if candidate.is_dir() else None
    elif not Path(tests_root).is_dir():
        raise ConfigurationError(f"tests root {tests_root} is not a directory")
    engine = AnalysisEngine(package_root, DEFAULT_RULES, tests_root=tests_root)
    project = engine.load()
    findings = engine.run(select=args.select, ignore=args.ignore, project=project)
    if args.json:
        payload = {
            "root": str(package_root),
            "checked_files": len(project.modules),
            "rules": [rule.rule_id for rule in DEFAULT_RULES],
            "select": args.select,
            "ignore": args.ignore,
            "findings": [finding.to_dict() for finding in findings],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(
            f"analyze: {len(findings)} {noun} across "
            f"{len(project.modules)} files"
        )
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for identifier in EXPERIMENTS:
            print(identifier)
        return 0

    if args.command == "scenario":
        return _run_scenario_command(args)

    if args.command == "bench":
        return _run_bench_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "query":
        return _run_query_command(args)

    if args.command == "analyze":
        return _run_analyze_command(args)

    config = _config_from_args(args)
    if args.command == "run":
        result = run_experiment(args.experiment, config)
        print(_emit(result, args.markdown))
        return 0

    # run-all
    output_dir: Path | None = args.output_dir
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for identifier in EXPERIMENTS:
        result = run_experiment(identifier, config)
        rendered = _emit(result, args.markdown or output_dir is not None)
        if output_dir is not None:
            (output_dir / f"{identifier}.md").write_text(rendered + "\n", encoding="utf-8")
            print(f"wrote {output_dir / (identifier + '.md')}")
        else:
            print(rendered)
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
