"""``python -m repro`` — the command-line front door, built on :class:`Study`.

Eight subcommands cover the package's workflows (full reference with session
transcripts in ``docs/cli.md``):

``run``
    Inline runs / comparisons: build a study from flags or a TOML/JSON config
    file, stream progress, print per-run summaries and (with two or more
    algorithms) the paper's comparison tables.
``campaign``
    Sharded, resumable campaigns over the (algorithm x application x
    scenario) grid — the CLI twin of
    :func:`repro.experiments.runner.run_campaign`.  ``--follow`` switches to
    the non-blocking submit/poll handle and renders the durable event log
    live (pooled workers' per-iteration events included).
``tables``
    Fold a finished (or partially finished) campaign directory into Table I /
    Table II without re-running any cell — from loose shards or a compacted
    rollup, transparently.
``compact``
    Roll a campaign's finished shards into the single indexed rollup file
    (:func:`repro.experiments.compaction.compact_campaign`).
``robustness``
    Render the fault-scenario sensitivity map and robustness certificate
    (:mod:`repro.experiments.robustness`) from a finished campaign directory
    whose grid included a ``scenarios`` axis — purely from the shards, no
    re-runs.
``explain``
    Render the typed constraint-violation report of a saved design
    (:class:`repro.noc.ViolationReport`) — which constraints it breaks, by
    how much, and on which tiles/links — and, with ``--repair``, run the
    seeded directed repair walk (:mod:`repro.noc.repair`) and print its
    transcript.  The exit code answers "is it feasible?" for scripts.
``list``
    Show the registered optimizers; ``--verbose`` adds each optimizer's
    aliases and full hyperparameter schema.
``lint``
    Statically check the reproducibility contracts (unseeded RNG, wall-clock
    entropy, set-iteration order, cache safety, pool boundaries, durable
    writes) with the :mod:`repro.analysis` rule engine — the CI gate; rule
    catalogue and baseline workflow in ``docs/linting.md``.

Every algorithm name is resolved through the optimizer registry, so
registered third-party optimisers are first-class citizens here too.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.analysis.cli import add_lint_parser
from repro.experiments.compaction import compact_campaign
from repro.experiments.robustness import (
    format_certificate,
    format_sensitivity_map,
    robustness_certificate,
    sensitivity_map,
)
from repro.experiments.tables import aggregate_campaign, format_table
from repro.moo.hypervolume import reference_point_from
from repro.noc import ConstraintChecker, RepairBudget, repair_design
from repro.study.events import StudyEvent
from repro.study.registry import default_registry
from repro.study.study import PLATFORM_FACTORIES, PRESETS, STUDY_KEYS, Study, resolve_platform
from repro.utils.serialization import load_design

#: Pointer printed at the bottom of every ``--help`` page.
DOCS_EPILOG = (
    "Full documentation: docs/cli.md (command reference + transcripts), "
    "docs/configuration.md (study file schema), docs/architecture.md "
    "(evaluation pipeline), docs/scenarios.md (fault-model axes and "
    "robustness sweeps), docs/performance.md (measured speedups), "
    "docs/linting.md (repro lint rule catalogue and baseline workflow)."
)


def _print_event(event: StudyEvent) -> None:
    print(f"  {event.describe()}", flush=True)


def _progress_callback(args: argparse.Namespace, every: int = 1):
    """Event printer for ``--progress`` (None when progress is off).

    ``iteration`` events are thinned to every ``every``-th per run so long
    searches stay readable; all other kinds always print.
    """
    if not args.progress:
        return None
    counters: dict[tuple, int] = {}

    def callback(event: StudyEvent) -> None:
        if event.kind == "iteration":
            key = (event.algorithm, event.application, event.num_objectives)
            counters[key] = counters.get(key, 0) + 1
            if counters[key] % every:
                return
        _print_event(event)

    return callback


def _study_from_args(args: argparse.Namespace) -> Study:
    """Build the study: config file first (if any), CLI flags override."""
    payload = Study.from_file(args.config).to_dict() if args.config else {}
    # Each study flag's dest is its study key; unset flags stay None.
    flags = {key: getattr(args, key, None) for key in STUDY_KEYS}
    return Study.from_dict({**payload, **{k: v for k, v in flags.items() if v is not None}})


def _add_study_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="TOML/JSON study file (flags override its values)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="base experiment preset (default: reduced)")
    parser.add_argument("--platform", help=f"platform name ({', '.join(sorted(set(PLATFORM_FACTORIES)))})")
    parser.add_argument("--apps", nargs="+", dest="applications", metavar="APPS",
                        help="application names (e.g. BFS HOT)")
    parser.add_argument("--objectives", nargs="+", type=int, help="objective scenarios (3 4 5)")
    parser.add_argument("--algorithms", nargs="+",
                        help="algorithm names, any registered spelling (default: every registered)")
    parser.add_argument("--evaluations", type=int, help="evaluation budget per run/cell")
    parser.add_argument("--population", type=int, dest="population_size", metavar="POPULATION",
                        help="population / archive size")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--scenarios", nargs="+", metavar="SCENARIO",
                        help="fault-scenario grid axis, e.g. identity "
                        "'link_failure(k=1,mode=remove)' (docs/scenarios.md; "
                        "non-identity scenarios need campaign mode)")
    parser.add_argument("--no-progress", dest="progress", action="store_false",
                        help="do not stream per-iteration/shard progress events")


def _print_run_summaries(result: Any) -> None:
    print(f"\n{'algorithm':<12}{'app':<8}{'obj':>4}{'evals':>8}{'seconds':>9}{'front':>7}{'PHV':>12}")
    for application, num_objectives, algorithm, run in result:
        front = run.final_front()
        phv = run.final_hypervolume(reference_point_from(front))
        print(
            f"{algorithm:<12}{application:<8}{num_objectives:>4}{run.evaluations:>8}"
            f"{run.elapsed_seconds:>9.1f}{len(front):>7}{phv:>12.4g}"
        )


def _print_routing_cache(stats: "dict[str, Any] | None") -> None:
    if not stats or not stats.get("requests"):
        return
    print(f"routing cache: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['incremental_repairs']} incremental repairs "
          f"(hit rate {stats['hit_rate']:.1%})")


def _cmd_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    print("registered optimizers:")
    for name in registry.names():
        spec = registry.spec(name)
        print(f"  {name:<12} {spec.description}")
        if args.verbose:
            # The full declared schema, exactly what Study.algorithm() /
            # [algorithms.options] validate against (docs/configuration.md).
            if spec.aliases:
                print(f"    aliases: {', '.join(spec.aliases)}")
            if spec.hyperparameters:
                print("    hyperparameters:")
                for option, doc in sorted(spec.hyperparameters.items()):
                    print(f"      {option:<24} {doc}")
            else:
                print("    hyperparameters: (none declared)")
    if args.verbose:
        print("\nhyperparameters are set per algorithm via Study.algorithm(name, **options)")
        print("or the [algorithms.options] table of a study file; see docs/configuration.md")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    summary = compact_campaign(args.output_dir)
    if summary.total == 0:
        print(f"error: no completed cells to compact under {args.output_dir} "
              f"({len(summary.pending)} still pending)", file=sys.stderr)
        return 1
    print(f"rollup: {summary.rollup_path}")
    print(f"  {summary.total} cells indexed "
          f"({len(summary.compacted)} newly compacted, "
          f"{len(summary.carried_over)} carried over from a previous rollup)")
    if summary.removed_shards:
        print(f"  removed {len(summary.removed_shards)} loose shard files")
    if summary.pending:
        print(f"  {len(summary.pending)} cells still pending "
              "(resume the campaign, then compact again)")
    return 0


def _infer_platform(num_tiles: int):
    """Resolve the named platform whose tile count matches the design.

    Every registered factory has a distinct tile count (8, 16, 27, 64, 256),
    so a saved design's placement length identifies its platform; ambiguity
    would surface here as an error rather than a silent guess.
    """
    matches = {}
    for name in sorted(PLATFORM_FACTORIES):
        config = PLATFORM_FACTORIES[name]()
        if config.num_tiles == num_tiles:
            matches[config.name] = config
    if len(matches) == 1:
        return next(iter(matches.values()))
    if not matches:
        raise ValueError(
            f"no registered platform has {num_tiles} tiles; pass --platform "
            f"(available: {', '.join(sorted(set(PLATFORM_FACTORIES)))})"
        )
    raise ValueError(
        f"platforms {sorted(matches)} all have {num_tiles} tiles; "
        "pass --platform to disambiguate"
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    config = (resolve_platform(args.platform) if args.platform
              else _infer_platform(len(design.placement)))
    report = ConstraintChecker(config).report(design)
    plan = None
    if args.repair and not report.feasible:
        budget = RepairBudget(
            max_rounds=args.max_rounds,
            candidates_per_round=args.candidates_per_round,
            max_evaluations=args.max_evaluations,
        )
        plan = repair_design(design, config, seed=args.seed, budget=budget)
    if args.json:
        payload: dict[str, Any] = {"report": report.to_dict()}
        if plan is not None:
            payload["repair"] = plan.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format())
        if plan is not None:
            print()
            print(plan.format())
    feasible = plan.feasible if plan is not None else report.feasible
    return 0 if feasible else 1


def _cmd_run(args: argparse.Namespace) -> int:
    study = _study_from_args(args)
    experiment = study.experiment()
    names = study.algorithm_names()
    print(f"study: {', '.join(names)} on {', '.join(experiment.applications)} "
          f"x {list(experiment.objective_counts)}-obj, platform {experiment.platform.name}, "
          f"{experiment.max_evaluations} evaluations per run")
    study.on_event(_progress_callback(args, every=max(1, experiment.max_evaluations // (5 * experiment.population_size))))
    result = study.run()
    _print_run_summaries(result)
    print()
    _print_routing_cache(result.routing_cache_summary())
    if len(result.algorithms) >= 2:
        print()
        print(result.format_tables(measure=args.measure))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    study = _study_from_args(args)
    if args.smoke:
        # The 2x2-cell CI grid: two algorithms x two applications on the tiny
        # platform, 60 evaluations per cell — identical to
        # CampaignConfig.smoke(), so existing smoke campaign directories
        # resume instead of rerunning.
        study.preset("smoke").apps("BFS", "BP").evaluations(60)
        study.clear_algorithms().algorithms("MOEA/D", "NSGA-II")
    if args.paper:
        study.preset("paper")
    # Start from the config file's campaign settings (if any) and only let
    # flags the user actually passed override them.
    settings = study.campaign_settings() or {}
    settings["output_dir"] = args.output_dir or settings.get("output_dir")
    if not settings["output_dir"]:
        print("error: campaign needs --output-dir (or a campaign.output_dir in --config)",
              file=sys.stderr)
        return 2
    if args.workers is not None:
        settings["max_workers"] = args.workers
    if args.no_resume:
        settings["resume"] = False
    study.campaign(**settings)
    campaign = study.campaign_config()
    experiment = campaign.experiment
    grid = (f"{len(campaign.algorithms)} algorithms x "
            f"{len(experiment.applications)} applications x "
            f"{len(experiment.objective_counts)} scenarios")
    if experiment.scenario_models != ("identity",):
        grid += f" x {len(experiment.scenario_models)} fault scenarios"
    print(f"campaign: {grid} on {experiment.platform.name}, "
          f"{campaign.cell_budget} evaluations per cell, "
          f"workers={campaign.max_workers}")

    if args.follow:
        # Non-blocking submit/poll: the handle tails the durable event log,
        # so per-iteration events stream live even from pool workers.
        execution = study.submit()
        print(f"following {execution.output_dir / 'events.jsonl'} "
              "(Ctrl-C detaches; the campaign keeps its durable log)")
        callback = _progress_callback(args)
        for event in execution.events():
            if callback is not None:
                callback(event)
        result = study.collect(execution.wait())
    else:
        study.on_event(_progress_callback(args))
        result = study.run()
    summary = result.campaign
    print(f"executed {len(summary.executed)} cells, skipped {len(summary.skipped)} "
          f"already-completed cells (delete a shard and re-run to redo one cell)")
    print(f"manifest: {summary.manifest_path}")
    _print_routing_cache(summary.routing_cache)
    _print_run_summaries(result)
    if args.tables and len(result.algorithms) >= 2:
        print()
        print(result.format_tables(measure=args.measure))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    if not args.certificate_only:
        print(format_sensitivity_map(sensitivity_map(args.output_dir)))
        print()
    certificate = robustness_certificate(args.output_dir, quantiles=tuple(args.quantiles))
    print(format_certificate(certificate))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    result = aggregate_campaign(args.output_dir)
    if not result.algorithms:
        print(f"error: no completed shards under {args.output_dir}", file=sys.stderr)
        return 1
    print(f"campaign tables ({result.target} vs {', '.join(result.baselines)}):\n")
    print(format_table(result.table1(measure=args.measure)))
    print()
    print(format_table(result.table2()))
    print()
    _print_routing_cache(result.campaign.routing_cache if result.campaign else None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOELA reproduction front door: runs, campaigns and tables.",
        epilog=DOCS_EPILOG,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one or more algorithms inline and compare them",
        epilog=DOCS_EPILOG,
    )
    _add_study_arguments(run_parser)
    run_parser.add_argument("--measure", default="evaluations",
                            choices=("evaluations", "seconds", "iterations"),
                            help="effort axis of the Table I speed-up")
    run_parser.set_defaults(handler=_cmd_run)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run (or resume) a sharded campaign over the full grid",
        epilog=DOCS_EPILOG,
    )
    _add_study_arguments(campaign_parser)
    campaign_parser.add_argument("--output-dir", help="campaign directory (manifest + shards)")
    campaign_parser.add_argument("--workers", type=int, default=None,
                                 help="process-pool size for grid cells "
                                 "(default: 1, or the --config file's max_workers)")
    campaign_parser.add_argument("--smoke", action="store_true",
                                 help="tiny 2x2-cell campaign for CI / demos")
    campaign_parser.add_argument("--paper", action="store_true",
                                 help="full paper-scale 4x4x4 campaign")
    campaign_parser.add_argument("--no-resume", action="store_true",
                                 help="re-run every cell even when its shard exists")
    campaign_parser.add_argument("--follow", action="store_true",
                                 help="submit without blocking and stream the durable "
                                 "event log live (per-iteration events from pool "
                                 "workers included; see docs/cli.md)")
    campaign_parser.add_argument("--tables", action="store_true",
                                 help="render Table I/II from the finished shards afterwards")
    campaign_parser.add_argument("--measure", default="evaluations",
                                 choices=("evaluations", "seconds", "iterations"))
    campaign_parser.set_defaults(handler=_cmd_campaign)

    tables_parser = subparsers.add_parser(
        "tables",
        help="fold a campaign directory's shards into Table I/II (no re-runs)",
        epilog=DOCS_EPILOG,
    )
    tables_parser.add_argument("--output-dir", required=True,
                               help="campaign directory written by `repro campaign` "
                               "(loose shards or a compacted rollup)")
    tables_parser.add_argument("--measure", default="evaluations",
                               choices=("evaluations", "seconds", "iterations"))
    tables_parser.set_defaults(handler=_cmd_tables)

    compact_parser = subparsers.add_parser(
        "compact",
        help="roll a campaign's finished shards into one indexed rollup file",
        epilog=DOCS_EPILOG,
    )
    compact_parser.add_argument("--output-dir", required=True,
                                help="campaign directory written by `repro campaign`")
    compact_parser.set_defaults(handler=_cmd_compact)

    robustness_parser = subparsers.add_parser(
        "robustness",
        help="render the fault-scenario sensitivity map and robustness "
        "certificate from finished shards (no re-runs)",
        epilog=DOCS_EPILOG,
    )
    robustness_parser.add_argument("--output-dir", required=True,
                                   help="campaign directory whose grid included a "
                                   "scenarios axis (docs/scenarios.md)")
    robustness_parser.add_argument("--quantiles", nargs="+", type=float,
                                   default=[0.5, 0.9], metavar="Q",
                                   help="degradation quantiles to report (default: 0.5 0.9)")
    robustness_parser.add_argument("--certificate-only", action="store_true",
                                   help="skip the per-objective sensitivity map")
    robustness_parser.set_defaults(handler=_cmd_robustness)

    explain_parser = subparsers.add_parser(
        "explain",
        help="explain why a saved design is (in)feasible; optionally repair it",
        epilog=DOCS_EPILOG,
    )
    explain_parser.add_argument("design",
                                help="design JSON file (placement + links, as written "
                                "by repro.utils.serialization.save_design)")
    explain_parser.add_argument("--platform",
                                help="platform name "
                                f"({', '.join(sorted(set(PLATFORM_FACTORIES)))}); "
                                "default: inferred from the design's tile count")
    explain_parser.add_argument("--repair", action="store_true",
                                help="run the seeded directed repair walk on an "
                                "infeasible design and print its transcript")
    explain_parser.add_argument("--seed", type=int, default=0,
                                help="repair walk seed (default: 0)")
    explain_parser.add_argument("--max-rounds", type=int, default=4,
                                help="repair rounds before giving up (default: 4)")
    explain_parser.add_argument("--candidates-per-round", type=int, default=8,
                                help="repair candidates per round (default: 8)")
    explain_parser.add_argument("--max-evaluations", type=int, default=32,
                                help="objective evaluations the repair walk may "
                                "spend scoring candidates (default: 32)")
    explain_parser.add_argument("--json", action="store_true",
                                help="emit the report (and repair plan) as JSON "
                                "instead of the human-readable rendering")
    explain_parser.set_defaults(handler=_cmd_explain)

    list_parser = subparsers.add_parser(
        "list",
        help="list the registered optimizers and their hyperparameters",
        epilog=DOCS_EPILOG,
    )
    list_parser.add_argument("--verbose", "-v", action="store_true",
                             help="also print every optimizer's aliases and full "
                             "declared hyperparameter schema")
    list_parser.set_defaults(handler=_cmd_list)

    # ``repro lint`` — the static determinism/cache-safety/pool-boundary
    # analyzer (rules, suppressions and the baseline workflow live in
    # repro.analysis; catalogue in docs/linting.md).
    add_lint_parser(subparsers)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point (the ``repro`` console script and ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        # Registry lookups (scenario kinds, applications) raise KeyError with
        # a human message; args[0] avoids repr()'s extra quoting.
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()  # suppress the interpreter's flush-failure warning
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
