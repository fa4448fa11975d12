"""Command-line entry point for the reproduction experiments and searches.

Experiment harnesses (one per paper figure)::

    python -m repro.cli list
    python -m repro.cli fig4 --scale small
    python -m repro.cli fig7 --scale paper
    python -m repro.cli all  --scale small

``--scale small`` runs each harness with the reduced budgets used by the
benchmark suite (minutes); ``--scale paper`` uses the Section 6.1 budgets
(hours).  Outputs are written to ``output_dir/`` (override with the
``REPRO_OUTPUT_DIR`` environment variable).

Unified search (any registered strategy, one outcome format)::

    python -m repro.cli search resnet50 --strategy dosa --max-samples 5000
    python -m repro.cli search bert --strategy random --max-samples 2000 \\
        --seed 7 --json outcome.json
    python -m repro.cli search unet --strategy bayesian --max-seconds 120

``search`` resolves the strategy through the registry
(:func:`repro.search.api.get_searcher`), enforces the ``--max-samples`` /
``--max-seconds`` budget uniformly, prints best-so-far progress via the
callback hooks, and can persist the full outcome (best design, trace,
settings snapshot) as JSON with ``--json`` for later reloading through
:func:`repro.utils.serialization.load_outcome`.  Ctrl-C ends a search
gracefully: the best-so-far outcome is reported (and written with
``--json``) instead of a traceback.

Experiment campaigns (grids of searches with a persistent store)::

    python -m repro.cli campaign run spec.json --dir campaigns/my-sweep
    python -m repro.cli campaign status --dir campaigns/my-sweep
    python -m repro.cli campaign report --dir campaigns/my-sweep

``campaign run`` executes the grid declared in the spec JSON (see
``docs/campaign.md``), skipping jobs already completed in ``--dir`` —
interrupt it at any point and re-run the same command to resume.
``--n-workers N`` runs jobs on N of the search daemon's forked pipe workers
(Ctrl-C stops the running cells and persists their best-so-far; workers exit
when the parent dies); ``--shard I/N`` runs a deterministic 1/N slice of the
grid (for splitting one campaign across machines); ``--max-jobs K`` stops
after K jobs.  ``campaign merge`` folds several shard stores of the same
spec into one; ``campaign compact`` rewrites a store's cache spill as a
single deduplicated segment.

Search-as-a-service (see ``docs/service.md``)::

    python -m repro.cli serve --root service/ --n-workers 4

runs the job daemon: clients submit searches and campaigns over HTTP/JSON,
stream progress as server-sent events, and fetch results that are
byte-identical to offline runs with the same seeds.  SIGTERM drains
gracefully (in-flight best-so-far results are persisted; a restarted daemon
resumes incomplete jobs).

``--log-level debug|info|warning|error`` (before or after the subcommand)
turns on structured stderr logging for any command.

Each command imports only the modules it runs: a figure harness when that
figure runs, the campaign store for ``campaign``, the daemon for ``serve``,
the linter for ``lint``.  Building the parser imports the strategy registry,
whose names ``search --strategy`` accepts.
"""

from __future__ import annotations

import argparse
import importlib
import sys

# Reduced-budget keyword arguments per experiment (same spirit as benchmarks/).
_SMALL_SCALE: dict[str, dict] = {
    "fig4": {"num_configs": 10, "mappings_per_config": 20},
    "fig6": {"workloads": ("bert",), "num_start_points": 2, "gd_steps": 120,
             "rounding_period": 60},
    "fig7": {"workloads": ("resnet50", "bert"), "num_start_points": 2, "gd_steps": 150,
             "rounding_period": 75, "random_hardware_designs": 4,
             "random_mappings_per_layer": 60, "bo_training_hardware": 6,
             "bo_mappings_per_layer": 20, "bo_candidates": 30},
    "fig8": {"workloads": ("resnet50",), "mappings_per_layer": 100,
             "num_start_points": 2, "gd_steps": 150, "rounding_period": 75},
    "fig9": {"workloads": ("resnet50", "bert"), "runs_per_workload": 1,
             "gd_steps": 200, "rounding_period": 100, "random_mappings_per_layer": 50},
    "fig10": {"samples_per_layer": 8, "training_epochs": 300,
              "dosa_workloads": ("bert",), "dosa_gd_steps": 100,
              "dosa_rounding_period": 50},
    "fig12": {"workloads": ("resnet50", "bert"), "samples_per_layer": 4,
              "training_epochs": 150, "num_start_points": 1, "gd_steps": 150,
              "rounding_period": 75},
}

#: The harness module of each experiment; its ``main`` runs the figure.
_EXPERIMENTS: dict[str, str] = {
    "fig4": "repro.experiments.fig4_correlation",
    "fig6": "repro.experiments.fig6_loop_ordering",
    "fig7": "repro.experiments.fig7_cosearch",
    "fig8": "repro.experiments.fig8_baselines",
    "fig9": "repro.experiments.fig9_separation",
    "fig10": "repro.experiments.fig10_11_surrogate",
    "fig12": "repro.experiments.fig12_rtl",
}

_DESCRIPTIONS: dict[str, str] = {
    "fig4": "differentiable model correlation against the reference model",
    "fig6": "loop-ordering strategy comparison (baseline / iterate / softmax)",
    "fig7": "DOSA vs random search vs Bayesian optimization",
    "fig8": "DOSA-optimized Gemmini vs expert baseline accelerators",
    "fig9": "attribution of hardware vs mapping improvements",
    "fig10": "latency-model accuracy (Figures 10 and 11)",
    "fig12": "Gemmini-RTL optimization with learned latency models (+ Table 7)",
}


def _run_one(name: str, scale: str) -> None:
    kwargs = _SMALL_SCALE[name] if scale == "small" else {}
    print(f"[repro] running {name} ({_DESCRIPTIONS[name]}) at {scale} scale...")
    output = importlib.import_module(_EXPERIMENTS[name]).main(**kwargs)
    print(output.to_text())
    print()


def _run_search(args: argparse.Namespace) -> int:
    from repro.arch.config import HardwareConfig
    from repro.search.api import ProgressCallback, SearchBudget, optimize
    from repro.utils.serialization import save_outcome

    try:
        budget = SearchBudget(max_samples=args.max_samples, max_seconds=args.max_seconds)
    except ValueError as error:
        print(f"repro.cli search: error: {error}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"repro.cli search: error: --seed must be a non-negative integer, "
              f"got {args.seed}", file=sys.stderr)
        return 2
    if args.strategy == "fixed_hw_random" and not args.fixed_hardware:
        print("repro.cli search: error: --strategy fixed_hw_random requires "
              "--fixed-hardware PE_DIM ACC_KB SP_KB", file=sys.stderr)
        return 2
    if args.fixed_hardware and args.strategy != "fixed_hw_random":
        print("repro.cli search: error: --fixed-hardware only applies to "
              "--strategy fixed_hw_random", file=sys.stderr)
        return 2
    searcher_kwargs = {}
    if args.fixed_hardware:
        pe_dim, accumulator_kb, scratchpad_kb = args.fixed_hardware
        try:
            searcher_kwargs["hardware"] = HardwareConfig(
                pe_dim=pe_dim, accumulator_kb=accumulator_kb, scratchpad_kb=scratchpad_kb)
        except ValueError as error:
            print(f"repro.cli search: error: --fixed-hardware: {error}", file=sys.stderr)
            return 2

    print(f"[repro] searching {args.network} with strategy {args.strategy!r} "
          f"(max_samples={args.max_samples}, max_seconds={args.max_seconds}, "
          f"seed={args.seed})")
    try:
        outcome = optimize(args.network, strategy=args.strategy, budget=budget,
                           seed=args.seed, callbacks=ProgressCallback(prefix="[repro]"),
                           **searcher_kwargs)
    except KeyboardInterrupt:
        # The searchers absorb Ctrl-C and return their best-so-far outcome;
        # reaching this handler means the interrupt landed before any
        # feasible design existed, so there is nothing to report or persist.
        print("\n[repro] interrupted before any feasible design was found",
              file=sys.stderr)
        return 130

    verb = "interrupted" if outcome.interrupted else "finished"
    print(f"[repro] {outcome.method} {verb}: best EDP {outcome.best_edp:.4e} "
          f"after {outcome.total_samples} samples "
          f"in {outcome.wall_time_seconds:.1f}s")
    print(f"[repro]   hardware: {outcome.best_hardware.describe()}")
    if args.json:
        path = save_outcome(args.json, outcome)
        print(f"[repro]   outcome written to {path}")
    if outcome.interrupted:
        print("[repro]   (best-so-far result of an interrupted search)")
        return 130
    return 0


def _run_campaign_command(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignReport,
        CampaignScheduler,
        CampaignSpec,
        ResultStore,
    )

    if args.campaign_command == "run":
        try:
            spec = CampaignSpec.load(args.spec)
        except (OSError, ValueError, KeyError) as error:
            print(f"repro.cli campaign: error: cannot load spec {args.spec}: "
                  f"{error}", file=sys.stderr)
            return 2
        shard_index = shard_count = None
        if args.shard:
            try:
                index_text, _, count_text = args.shard.partition("/")
                shard_index, shard_count = int(index_text), int(count_text)
            except ValueError:
                print("repro.cli campaign: error: --shard must be I/N "
                      "(e.g. 0/4)", file=sys.stderr)
                return 2
        try:
            store = ResultStore(args.dir, spec=spec)
            scheduler = CampaignScheduler(spec, store, n_workers=args.n_workers,
                                          persist_cache=not args.no_cache_spill)
            status = scheduler.status()
            print(f"[campaign] {spec.name}: {status.total} grid jobs, "
                  f"{len(status.completed)} already complete")

            def announce(job, outcome):
                state = "interrupted" if outcome.interrupted else "done"
                print(f"[campaign] {state}: {job.job_id} "
                      f"best EDP {outcome.best_edp:.4e} "
                      f"after {outcome.total_samples} samples")

            run = scheduler.run(max_jobs=args.max_jobs,
                                shard_index=shard_index,
                                shard_count=shard_count,
                                on_job_done=announce)
        except ValueError as error:
            print(f"repro.cli campaign: error: {error}", file=sys.stderr)
            return 2
        print(f"[campaign] ran {len(run.ran)} jobs, skipped "
              f"{len(run.skipped)} already-complete, "
              f"{len(run.pending_after)} still pending")
        for job_id, error in run.failed:
            print(f"[campaign] FAILED: {job_id}: {error}", file=sys.stderr)
        if run.was_interrupted:
            print("[campaign] interrupted — re-run the same command to resume")
            return 130
        return 1 if run.failed else 0

    if args.campaign_command == "merge":
        try:
            _, stats = ResultStore.merge(args.into, args.sources)
        except (OSError, ValueError) as error:
            print(f"repro.cli campaign: error: {error}", file=sys.stderr)
            return 2
        print(f"[campaign] {stats}")
        return 0

    # The inspection commands (status / report / compact) never create or
    # repair anything: a missing directory, a half-written store or a
    # corrupted results file must exit with a one-line error, not a
    # traceback and not a freshly-created empty store.
    try:
        store = ResultStore(args.dir, create=False)

        if args.campaign_command == "status":
            scheduler = CampaignScheduler(store.spec, store)
            status = scheduler.status()
            print(f"== campaign {status.campaign} ==")
            print(f"jobs: {status.total} total | {len(status.completed)} "
                  f"completed | {len(status.interrupted)} interrupted "
                  f"(re-run on resume) | {len(status.pending)} pending")
            print(f"cache spill: {store.spilled_entry_count()} entries")
            for job_id in status.pending:
                marker = ("interrupted" if job_id in status.interrupted
                          else "pending")
                print(f"  {marker:<11} {job_id}")
            return 0

        if args.campaign_command == "report":
            report = CampaignReport.from_store(store)
            text = report.to_text()
            if args.out:
                report.save(args.out)
                print(f"[campaign] report written to {args.out}")
            else:
                print(text, end="")
            return 0

        if args.campaign_command == "compact":
            stats = store.compact_spill()
            print(f"[campaign] {stats}")
            return 0
    except (OSError, ValueError) as error:
        print(f"repro.cli campaign: error: {error}", file=sys.stderr)
        return 2

    raise AssertionError(f"unhandled campaign command {args.campaign_command}")


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import FaultPlan, ServiceConfig, serve

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"repro.cli serve: error: cannot load fault plan "
                  f"{args.fault_plan}: {error}", file=sys.stderr)
            return 2
    try:
        config = ServiceConfig(
            root=args.root,
            host=args.host,
            port=args.port,
            n_workers=args.n_workers,
            queue_limit=args.queue_limit,
            request_timeout=args.request_timeout,
            step_period=args.step_period,
            tenant_quota=args.tenant_quota,
            max_attempts=args.max_attempts,
            watchdog_seconds=args.watchdog_seconds or None,
            job_ttl_seconds=args.job_ttl_seconds,
            gc_interval_seconds=args.gc_interval_seconds,
            compact_interval_seconds=args.compact_interval_seconds,
            fault_plan=fault_plan,
        )
    except ValueError as error:
        print(f"repro.cli serve: error: {error}", file=sys.stderr)
        return 2
    return serve(config)


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis.registry import get_checker, rule_catalog
    from repro.analysis.reporters import render_json, render_text
    from repro.analysis.runner import run_lint

    if args.explain is not None:
        try:
            checker = get_checker(args.explain)
        except KeyError:
            print(f"repro.cli lint: error: unknown rule {args.explain!r} "
                  "(see `repro.cli lint --rules` for the catalog)",
                  file=sys.stderr)
            return 2
        zones = (", ".join(checker.zones) if checker.zones
                 else "whole package")
        print(f"{checker.rule_id}  [zones: {zones}]\n")
        print(checker.explanation())
        return 0

    if args.rules is not None and not args.rules:
        # Bare --rules lists the catalog (docstring first lines).
        for rule_id, summary in rule_catalog():
            print(f"{rule_id:<22} {summary}")
        return 0

    try:
        result = run_lint(package_dir=args.package_dir,
                          rules=list(args.rules) if args.rules else None)
    except KeyError as error:
        print(f"repro.cli lint: error: {error.args[0]}", file=sys.stderr)
        return 2

    counts = {"checked_files": result.checked_files,
              "suppressed": result.suppressed}
    if args.json:
        sys.stdout.write(render_json(result.findings, **counts))
    else:
        print(render_text(result.findings, **counts))
    return 0 if result.clean else 1


def _build_parser() -> argparse.ArgumentParser:
    from repro.search.api import available_strategies
    from repro.utils.log import LOG_LEVELS
    from repro.workloads.networks import NETWORK_BUILDERS

    log_level_help = ("structured stderr logging threshold for all "
                      "repro components (default: warning)")

    def _add_log_level(target: argparse.ArgumentParser) -> None:
        # Re-declared on every leaf subparser (default SUPPRESS so it never
        # clobbers the top-level value) so the flag is accepted both before
        # and after the subcommand.
        target.add_argument("--log-level", choices=LOG_LEVELS,
                            default=argparse.SUPPRESS, help=log_level_help)

    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help=log_level_help)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="{search,campaign,serve,lint,list,all," +
                                               ",".join(sorted(_EXPERIMENTS)) + "}")

    # Experiment subcommands keep the original calling convention:
    # `python -m repro.cli fig7 --scale small`.
    for name in [*sorted(_EXPERIMENTS), "all", "list"]:
        help_text = _DESCRIPTIONS.get(name, f"run {name}")
        sub = subparsers.add_parser(name, help=help_text)
        if name != "list":
            sub.add_argument("--scale", choices=["small", "paper"], default="small",
                             help="reduced budgets (minutes) or paper budgets (hours)")
        _add_log_level(sub)

    search = subparsers.add_parser(
        "search", help="run one co-search strategy through the unified API")
    search.add_argument("network", choices=sorted(NETWORK_BUILDERS),
                        help="target workload (workload registry name)")
    search.add_argument("--strategy", choices=available_strategies(), default="dosa",
                        help="search strategy (strategy registry name)")
    search.add_argument("--max-samples", type=int, default=None,
                        help="budget: max model evaluations (paper sample accounting)")
    search.add_argument("--max-seconds", type=float, default=None,
                        help="budget: max wall-clock seconds")
    search.add_argument("--seed", type=int, default=0, help="search seed")
    search.add_argument("--json", metavar="PATH", default=None,
                        help="write the full SearchOutcome to PATH as JSON")
    search.add_argument("--fixed-hardware", nargs=3, type=int, default=None,
                        metavar=("PE_DIM", "ACC_KB", "SP_KB"),
                        help="hardware for the fixed_hw_random strategy")
    _add_log_level(search)

    campaign = subparsers.add_parser(
        "campaign", help="run/inspect sharded, resumable experiment campaigns")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="run a campaign spec's grid (resumes a partial store)")
    campaign_run.add_argument("spec", help="campaign spec JSON (docs/campaign.md)")
    campaign_run.add_argument("--dir", required=True,
                              help="campaign store directory (created if missing)")
    campaign_run.add_argument("--n-workers", type=int, default=None,
                              help="run jobs on this many forked pipe "
                                   "workers, the search daemon's; Ctrl-C "
                                   "stops the running cells and persists "
                                   "their best-so-far (default or 1: run "
                                   "jobs inline, in order)")
    campaign_run.add_argument("--max-jobs", type=int, default=None,
                              help="stop after running K jobs this invocation")
    campaign_run.add_argument("--shard", metavar="I/N", default=None,
                              help="run only the I-th of N deterministic grid "
                                   "slices (multi-machine campaigns)")
    campaign_run.add_argument("--no-cache-spill", action="store_true",
                              help="disable the persistent evaluation-cache "
                                   "spill (results are identical, just slower)")

    campaign_status = campaign_sub.add_parser(
        "status", help="show completed/interrupted/pending jobs of a store")
    campaign_status.add_argument("--dir", required=True,
                                 help="campaign store directory")

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate a store's completed jobs into tables")
    campaign_report.add_argument("--dir", required=True,
                                 help="campaign store directory")
    campaign_report.add_argument("--out", default=None,
                                 help="write the report to a file instead of stdout")

    campaign_merge = campaign_sub.add_parser(
        "merge", help="merge shard stores of one spec into a single store")
    campaign_merge.add_argument("sources", nargs="+",
                                help="source store directories (same spec)")
    campaign_merge.add_argument("--into", required=True,
                                help="destination store directory "
                                     "(created if missing)")

    campaign_compact = campaign_sub.add_parser(
        "compact", help="rewrite a store's cache spill as one deduplicated "
                        "segment (reloads bit-identically)")
    campaign_compact.add_argument("--dir", required=True,
                                  help="campaign store directory")

    for sub in (campaign_run, campaign_status, campaign_report,
                campaign_merge, campaign_compact):
        _add_log_level(sub)

    serve = subparsers.add_parser(
        "serve", help="run the search-service job daemon (docs/service.md)")
    serve.add_argument("--root", required=True,
                       help="service state directory (tenant stores, shared "
                            "cache spill, endpoint file)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = ephemeral; see "
                            "<root>/service.json for the chosen port)")
    serve.add_argument("--n-workers", type=int, default=2,
                       help="worker processes: max concurrent cells "
                            "across all clients (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="bounded queue depth; submits beyond it get "
                            "429 + Retry-After (default: 64)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request socket timeout in seconds "
                            "(default: 30)")
    serve.add_argument("--step-period", type=int, default=25,
                       help="stream a step event every N samples "
                            "(default: 25)")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       help="max active (queued+running) jobs per tenant; "
                            "submits beyond it get 429 (default: unlimited)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="dispatch attempts per job before it is failed "
                            "(worker crashes requeue; default: 3)")
    serve.add_argument("--watchdog-seconds", type=float, default=60.0,
                       help="kill a worker whose running cell goes silent "
                            "this long (workers heartbeat every quarter of "
                            "it); 0 disables (default: 60)")
    serve.add_argument("--job-ttl-seconds", type=float, default=None,
                       help="expire terminal jobs (record + result store) "
                            "after this long (default: keep forever)")
    serve.add_argument("--gc-interval-seconds", type=float, default=30.0,
                       help="TTL sweep period (default: 30)")
    serve.add_argument("--compact-interval-seconds", type=float, default=None,
                       help="compact the shared cache spill every N seconds "
                            "(default: never)")
    serve.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="arm a deterministic fault-injection plan "
                            "(testing only; see docs/service.md)")
    _add_log_level(serve)

    lint = subparsers.add_parser(
        "lint", help="statically check the repo's own invariants "
                     "(docs/lint.md)")
    lint.add_argument("--rules", nargs="*", metavar="RULE", default=None,
                      help="with no arguments: list the rule catalog; with "
                           "rule ids: check only those rules")
    lint.add_argument("--explain", metavar="RULE", default=None,
                      help="print one rule's full documentation and exit")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable findings report")
    lint.add_argument("--package-dir", metavar="DIR", default=None,
                      help="package directory to lint (default: the "
                           "installed repro package)")
    _add_log_level(lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.utils.log import configure_logging
    configure_logging(args.log_level)

    try:
        if args.command == "search":
            return _run_search(args)
        if args.command == "campaign":
            return _run_campaign_command(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "list":
            for name in sorted(_EXPERIMENTS):
                print(f"{name:<6} {_DESCRIPTIONS[name]}")
            return 0
        if args.command == "all":
            for name in sorted(_EXPERIMENTS):
                _run_one(name, args.scale)
            return 0
        _run_one(args.command, args.scale)
        return 0
    except BrokenPipeError:
        # stdout went away (e.g. `... | head`); not an error worth a traceback.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
