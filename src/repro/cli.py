"""Command-line interface: ``repro-fbb``.

Subcommands (all experiment-shaped ones are thin wrappers over the
:mod:`repro.api` facade — a declarative RunSpec in, a RunResult out):

* ``table1 [designs...]`` — regenerate the paper's Table 1;
* ``fig1`` — the inverter delay/leakage sweep of Fig. 1;
* ``allocate DESIGN --beta B --clusters C`` — one allocation run via
  the solver registry (``--method`` names any registered solver;
  ``--grouping bands:8`` solves at 8 bias domains instead of per row —
  the flag exists on every allocation-shaped subcommand; ``--placer
  anneal:default`` implements the design with the annealing placer);
* ``place DESIGN --placer anneal:default`` — compare placement engines
  head to head: HPWL, well boundaries and recovered leakage of the
  named placer versus the bfs baseline through the same allocation
  flow;
* ``layout DESIGN --beta B`` — ASCII layout view with bias clusters;
* ``montecarlo DESIGN --dies N --seed S`` — sample a die population
  through the batched STA backend and report yield (``--tune`` runs the
  closed calibration loop on every slow die population-at-a-time,
  ``--tuning-engine serial`` switches it to the per-die reference loop
  with bit-identical results, ``--workers N`` shards it over a process
  pool; runs are reproducible from the seed);
* ``spatial DESIGN --dies N --regions R`` — the spatial-vs-uniform
  compensation study: calibrate one correlated die population twice,
  per-region clustered vs single-sensor uniform, and report both yields
  and the recovered-die leakage comparison (``--correlation-length``
  sets the intra-die field's feature size as a die-span fraction);
* ``lifetime DESIGN --epochs E --cadence K`` — the lifetime aging
  study: age a die population through per-row NBTI drift epochs,
  re-calibrate every K epochs and report the yield-vs-age curve
  (``--mode spatial`` re-tunes against the composed per-gate field
  through the sensor grid instead of the scalar die-wide model);
* ``sweep SPECS.json`` — the batch service interface: run a JSON list
  of RunSpecs (``--workers N`` fans them out over a process pool), emit
  one JSONL RunResult per line, and report artifact cache hit/miss
  counters.  A malformed or failing spec no longer aborts the batch:
  it becomes a JSONL error record (``{"error": ..., "message": ...,
  "spec": ...}``), the remaining specs still run, and the exit status
  is nonzero when any spec failed;
* ``serve`` — the always-on allocation service (:mod:`repro.serve`):
  accept RunSpec JSON over HTTP, answer RunResult JSON, collapse
  concurrent identical specs to one execution and drain gracefully on
  SIGTERM (``--port 0`` binds an ephemeral port, ``--port-file``
  writes it out for scripts; ``--backend process_pool --workers N``
  executes on a persistent warm pool);
* ``cache ACTION --cache-dir DIR`` — disk-tier maintenance:
  ``stats`` (tiered hit/miss table + per-kind inventory), ``clear``
  (drop every artifact) and ``migrate`` (rehome legacy flat-layout
  artifacts into the sharded ``<kind>/<aa>/`` directories); exit codes
  and ``--format json`` output shaped like ``lint``'s;
* ``lint [paths...]`` — the :mod:`repro.lint` static contract
  checkers (determinism, hash-stability, units-suffix,
  registry-docstring, paper-anchor, async-blocking) over the tree;
  exits nonzero on any finding (same engine as
  ``python -m repro.lint``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.circuits.catalog import (ALL_BENCHMARK_NAMES,
                                    BENCHMARK_NAMES)
from repro.tuning.population import TUNING_ENGINES


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run_many
    from repro.flow import format_table1
    designs = tuple(args.designs) if args.designs else BENCHMARK_NAMES[:6]
    specs = [RunSpec(kind="table1", design=name, beta=beta,
                     ilp_time_limit_s=args.ilp_time_limit,
                     skip_ilp_above_rows=args.skip_ilp_above_rows,
                     grouping=args.grouping)
             for name in designs for beta in (0.05, 0.10)]
    rows = [result.to_table1_row() for result in run_many(specs)]
    print(format_table1(rows))
    return 0


def _cmd_fig1(_args: argparse.Namespace) -> int:
    from repro.tech import sweep_inverter
    print(f"{'vbs (V)':>8} {'delay (ps)':>11} {'speedup %':>10} "
          f"{'leakage (nW)':>13} {'ratio':>7}")
    for point in sweep_inverter():
        print(f"{point.vbs:>8.2f} {point.delay_ps:>11.2f} "
              f"{point.speedup_fraction * 100:>10.2f} "
              f"{point.leakage_nw:>13.4f} {point.leakage_ratio:>7.2f}")
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run
    method = args.method or ("ilp:highs" if args.ilp
                             else "heuristic:row-descent")
    result = run(RunSpec(kind="allocate", design=args.design,
                         beta=args.beta, method=method,
                         clusters=args.clusters, grouping=args.grouping,
                         placer=args.placer))
    payload = result.payload
    print(f"{payload['design']} [{payload['method']}] "
          f"beta={payload['beta']:.0%}: baseline "
          f"{payload['baseline_uw']:.3f} uW -> {payload['leakage_uw']:.3f} "
          f"uW across {payload['num_clusters']} clusters, timing "
          f"{'OK' if payload['timing_ok'] else 'VIOLATED'}")
    if "num_groups" in payload:
        print(f"grouping {payload['grouping']}: {payload['num_groups']} "
              f"bias domains solved, {payload['num_domains']} physical "
              "domains used")
    print(f"savings vs single BB: {payload['savings_pct']:.2f}%")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    import time

    from repro.core import build_problem, solve, solve_single_bb
    from repro.flow import format_placer_sweep, implement
    from repro.layout import well_separation
    from repro.placement import total_hpwl
    placers = ["bfs"]
    if args.placer not in placers:
        placers.append(args.placer)
    rows = []
    for placer in placers:
        start = time.perf_counter()
        flow = implement(args.design, placer=placer)
        place_s = time.perf_counter() - start
        problem = build_problem(flow.placed, flow.clib, args.beta,
                                analyzer=flow.analyzer,
                                paths=list(flow.paths),
                                dcrit_ps=flow.dcrit_ps)
        baseline = solve_single_bb(problem)
        solution = solve(problem, args.method, args.clusters)
        wells = well_separation(flow.placed, solution.levels)
        rows.append({
            "placer": placer,
            "hpwl_um": total_hpwl(flow.placed),
            "boundaries": wells.num_boundaries,
            "leakage_uw": solution.leakage_uw,
            "savings_pct": solution.savings_vs(baseline.leakage_nw),
            "place_s": place_s,
        })
    print(format_placer_sweep(args.design, args.beta, rows))
    if len(rows) == 2:
        base, tuned = rows
        print(f"{args.placer} vs bfs: boundaries "
              f"{tuned['boundaries'] - base['boundaries']:+d}, "
              f"leakage {tuned['leakage_uw'] - base['leakage_uw']:+.3f} "
              f"uW, hpwl {tuned['hpwl_um'] - base['hpwl_um']:+.1f} um")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from repro.core import build_problem
    from repro.flow import implement
    from repro.grouping import solve_grouped
    from repro.layout import ascii_layout, route_bias_rails
    flow = implement(args.design)
    problem = build_problem(flow.placed, flow.clib, args.beta,
                            analyzer=flow.analyzer,
                            paths=list(flow.paths),
                            dcrit_ps=flow.dcrit_ps)
    solution = solve_grouped(problem, "heuristic:row-descent",
                             args.clusters, grouping=args.grouping,
                             placed=flow.placed)
    route = route_bias_rails(flow.placed, solution.levels_array,
                             problem.vbs_levels)
    print(ascii_layout(flow.placed, solution.levels, route=route))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run
    from repro.flow import format_population
    result = run(RunSpec(
        kind="population", design=args.design, num_dies=args.dies,
        seed=args.seed, engine=args.engine, tune=args.tune,
        clusters=args.clusters, beta_budget=args.beta_budget,
        workers=args.workers, grouping=args.grouping,
        tuning_engine=args.tuning_engine))
    print(format_population([result.to_population_row()]))
    return 0


def _cmd_spatial(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run
    from repro.flow import format_spatial
    process = {}
    if args.correlation_length is not None:
        process["correlation_length_fraction"] = args.correlation_length
    if args.sigma_intra is not None:
        process["sigma_intra_v"] = args.sigma_intra
    result = run(RunSpec(
        kind="spatial", design=args.design, num_dies=args.dies,
        seed=args.seed, clusters=args.clusters,
        beta_budget=args.beta_budget, num_regions=args.regions,
        process=process, workers=args.workers, grouping=args.grouping))
    print(format_spatial([result.to_spatial_row()]))
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run
    from repro.flow import format_lifetime
    drift = {}
    if args.activity_sigma is not None:
        drift["activity_sigma_v"] = args.activity_sigma
    if args.epoch_years is not None:
        drift["epoch_years"] = args.epoch_years
    if args.nbti_prefactor is not None:
        drift["nbti"] = {"prefactor_v": args.nbti_prefactor}
    result = run(RunSpec(
        kind="lifetime", design=args.design, num_dies=args.dies,
        seed=args.seed, clusters=args.clusters,
        beta_budget=args.beta_budget, epochs=args.epochs,
        cadence=args.cadence, mode=args.mode,
        num_regions=args.regions, drift=drift, grouping=args.grouping))
    print(format_lifetime([result.to_lifetime_row()]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run_many
    from repro.flow import (ArtifactCache, SpecFailure, default_cache,
                            format_cache_stats, format_spec_failures)
    if args.specs == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.specs, encoding="utf-8") as handle:
            data = json.load(handle)
    if isinstance(data, dict):
        data = [data]

    # Per-spec error tolerance: a malformed entry becomes an error
    # record in its output slot instead of aborting the whole batch.
    records: list = [None] * len(data)
    specs, slots = [], []
    for index, entry in enumerate(data):
        try:
            specs.append(RunSpec.from_dict(entry))
            slots.append(index)
        except Exception as exc:
            # Catch broadly: a wrong-typed value raises TypeError from
            # RunSpec validation, not just SpecError, and either must
            # become an error record rather than abort the batch.
            records[index] = SpecFailure.from_exception(entry, exc)
    cache = (ArtifactCache(cache_dir=args.cache_dir)
             if args.cache_dir else default_cache())
    results = run_many(specs, cache=cache, workers=args.workers,
                       capture_errors=True)
    for slot, result in zip(slots, results):
        records[slot] = result

    lines = "\n".join(record.to_json() for record in records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines + "\n")
    else:
        print(lines)
    print(format_cache_stats(cache.stats()), file=sys.stderr)
    failures = [record for record in records
                if isinstance(record, SpecFailure)]
    if failures:
        print(format_spec_failures(failures, len(records)),
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.flow import ArtifactCache, ExecutionEngine, default_cache
    from repro.serve import serve_forever
    if args.cache_dir or args.max_entries:
        cache = ArtifactCache(cache_dir=args.cache_dir,
                              max_entries=args.max_entries)
    else:
        cache = default_cache()
    engine = ExecutionEngine(cache=cache, backend=args.backend,
                             workers=args.workers)
    try:
        return asyncio.run(serve_forever(
            engine, host=args.host, port=args.port,
            port_file=args.port_file))
    except KeyboardInterrupt:
        return 0  # platforms without add_signal_handler: still graceful
    finally:
        engine.close()


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.flow import (ArtifactCache, format_cache_inventory,
                            format_cache_stats)
    cache = ArtifactCache(cache_dir=args.cache_dir)
    if args.action == "stats":
        inventory = cache.disk_inventory()
        verified = None if args.no_verify else cache.verify_disk()
        if args.format == "json":
            document = {"command": "cache stats",
                        "cache_dir": args.cache_dir,
                        "inventory": inventory,
                        "stats": cache.stats()}
            if verified is not None:
                document["verified"] = verified
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(format_cache_inventory(inventory))
            if verified is not None:
                print(format_cache_stats(cache.stats()))
                corrupt = sum(row["corrupt"]
                              for row in verified.values())
                if corrupt:
                    print(f"warning: {corrupt} corrupt artifact(s)",
                          file=sys.stderr)
        return 0
    if args.action == "clear":
        removed = cache.clear_disk()
        if args.format == "json":
            print(json.dumps({"command": "cache clear",
                              "cache_dir": args.cache_dir,
                              "removed": removed}))
        else:
            print(f"removed {removed} artifact(s) from {args.cache_dir}")
        return 0
    # migrate: rehome legacy flat-layout artifacts into shards
    moved = cache.migrate_layout()
    total = sum(moved.values())
    if args.format == "json":
        print(json.dumps({"command": "cache migrate",
                          "cache_dir": args.cache_dir,
                          "migrated": moved, "total": total}))
    else:
        print(f"migrated {total} artifact(s) into sharded layout")
        for kind, count in sorted(moved.items()):
            print(f"  {kind:<12} {count:>6}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint_command
    return run_lint_command(args.paths, output_format=args.format,
                            rules=args.rule)


def _add_grouping_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grouping", default="identity",
        help="bias-domain grouping spec: identity (per-row, default), "
             "bands:<k>, correlation:<k> or community:<k>")


def _add_placer_flag(parser: argparse.ArgumentParser,
                     default: str = "bfs") -> None:
    parser.add_argument(
        "--placer", default=default,
        help="placement engine: bfs (serpentine baseline) or "
             "anneal:<quick|default|deep> (bias-domain-aware "
             f"annealer; default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fbb",
        description="Physically clustered FBB (DATE 2009 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("designs", nargs="*",
                        help=f"subset of {', '.join(BENCHMARK_NAMES)}")
    table1.add_argument("--ilp-time-limit", type=float, default=120.0)
    table1.add_argument("--skip-ilp-above-rows", type=int, default=None)
    _add_grouping_flag(table1)
    table1.set_defaults(func=_cmd_table1)

    fig1 = sub.add_parser("fig1", help="inverter bias sweep (Fig. 1)")
    fig1.set_defaults(func=_cmd_fig1)

    allocate = sub.add_parser("allocate", help="run one allocation")
    allocate.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    allocate.add_argument("--beta", type=float, default=0.05)
    allocate.add_argument("--clusters", type=int, default=3)
    allocate.add_argument("--ilp", action="store_true")
    allocate.add_argument("--method", default=None,
                          help="solver-registry method (e.g. ilp:bnb, "
                               "heuristic:level-sweep); overrides --ilp")
    _add_grouping_flag(allocate)
    _add_placer_flag(allocate)
    allocate.set_defaults(func=_cmd_allocate)

    place = sub.add_parser(
        "place", help="compare placement engines on one design")
    place.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    place.add_argument("--beta", type=float, default=0.05)
    place.add_argument("--clusters", type=int, default=3)
    place.add_argument("--method", default="heuristic:row-descent",
                       help="allocation solver scoring each placement")
    _add_placer_flag(place, default="anneal:default")
    place.set_defaults(func=_cmd_place)

    layout = sub.add_parser("layout", help="ASCII clustered layout")
    layout.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    layout.add_argument("--beta", type=float, default=0.05)
    layout.add_argument("--clusters", type=int, default=3)
    _add_grouping_flag(layout)
    layout.set_defaults(func=_cmd_layout)

    montecarlo = sub.add_parser(
        "montecarlo", help="batched Monte Carlo die-population study")
    montecarlo.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    montecarlo.add_argument("--dies", type=int, default=1000)
    montecarlo.add_argument("--seed", type=int, default=0,
                            help="sampling seed; identical seeds "
                                 "reproduce identical populations")
    montecarlo.add_argument("--engine", choices=("batched", "scalar"),
                            default="batched")
    montecarlo.add_argument("--tune", action="store_true",
                            help="closed-loop calibrate every slow die")
    montecarlo.add_argument("--clusters", type=int, default=3,
                            help="tuning cluster budget (only with --tune)")
    montecarlo.add_argument("--beta-budget", type=float, default=0.0,
                            help="slowdown margin defining timing yield "
                                 "and, with --tune, the tuning target")
    montecarlo.add_argument("--tuning-engine", choices=TUNING_ENGINES,
                            default="batched",
                            help="calibration execution engine: the "
                                 "batched population-at-a-time engine or "
                                 "the per-die serial reference loop "
                                 "(bit-identical results)")
    montecarlo.add_argument("--workers", type=int, default=1,
                            help="process-pool width for --tune: shard "
                                 "the slow dies across N workers "
                                 "(results identical to serial)")
    _add_grouping_flag(montecarlo)
    montecarlo.set_defaults(func=_cmd_montecarlo)

    spatial = sub.add_parser(
        "spatial", help="spatial-vs-uniform compensation study")
    spatial.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    spatial.add_argument("--dies", type=int, default=200)
    spatial.add_argument("--seed", type=int, default=0,
                         help="sampling seed; identical seeds reproduce "
                              "identical populations")
    spatial.add_argument("--regions", type=int, default=4,
                         help="sensor-grid regions of the spatial arm "
                              "(the uniform arm always senses 1)")
    spatial.add_argument("--clusters", type=int, default=3,
                         help="cluster budget of the spatial allocator")
    spatial.add_argument("--beta-budget", type=float, default=0.0,
                         help="slowdown margin defining timing yield "
                              "and the tuning target")
    spatial.add_argument("--correlation-length", type=float, default=None,
                         help="intra-die correlation length as a "
                              "fraction of the die span, in (0, 1]")
    spatial.add_argument("--sigma-intra", type=float, default=None,
                         help="intra-die Vth sigma override, volts")
    spatial.add_argument("--workers", type=int, default=1,
                         help="process-pool width for sharding each "
                              "arm's slow dies (results identical to "
                              "serial)")
    _add_grouping_flag(spatial)
    spatial.set_defaults(func=_cmd_spatial)

    lifetime = sub.add_parser(
        "lifetime", help="lifetime aging and re-calibration study")
    lifetime.add_argument("design", choices=ALL_BENCHMARK_NAMES)
    lifetime.add_argument("--dies", type=int, default=200)
    lifetime.add_argument("--seed", type=int, default=0,
                          help="sampling seed; also drives the drift "
                               "trajectory")
    lifetime.add_argument("--epochs", type=int, default=8,
                          help="service-life epochs to age through")
    lifetime.add_argument("--cadence", type=int, default=1,
                          help="re-calibrate every K epochs (1 = every "
                               "epoch; equal to --epochs = tune once "
                               "at time zero and coast)")
    lifetime.add_argument("--mode", choices=("model", "spatial"),
                          default="model",
                          help="re-calibration mode: scalar die-wide "
                               "model or per-region spatial sensing")
    lifetime.add_argument("--regions", type=int, default=4,
                          help="sensor-grid regions (--mode spatial)")
    lifetime.add_argument("--clusters", type=int, default=3,
                          help="tuning cluster budget")
    lifetime.add_argument("--beta-budget", type=float, default=0.0,
                          help="slowdown margin defining the epoch "
                               "yield and the tuning target")
    lifetime.add_argument("--activity-sigma", type=float, default=None,
                          help="per-epoch activity-skew sigma override, "
                               "volts")
    lifetime.add_argument("--epoch-years", type=float, default=None,
                          help="years of service per epoch (default 1)")
    lifetime.add_argument("--nbti-prefactor", type=float, default=None,
                          help="NBTI one-year dVth prefactor override, "
                               "volts")
    _add_grouping_flag(lifetime)
    lifetime.set_defaults(func=_cmd_lifetime)

    sweep = sub.add_parser(
        "sweep", help="run a JSON batch of RunSpecs, emit JSONL results")
    sweep.add_argument("specs",
                       help="path to a JSON list of RunSpec objects "
                            "('-' reads stdin)")
    sweep.add_argument("--output", "-o", default=None,
                       help="write JSONL here instead of stdout")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist the artifact cache on disk for "
                            "warm re-runs")
    sweep.add_argument("--workers", type=int, default=1,
                       help="fan the batch out over a process pool of "
                            "N workers (results identical to serial)")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve", help="run the always-on allocation service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port; 0 binds an ephemeral port "
                            "(default: 8787)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening "
                            "(for scripts using --port 0)")
    serve.add_argument("--backend", choices=("inline", "process_pool"),
                       default="inline",
                       help="execution backend: inline (in-process) or "
                            "a persistent warm process pool")
    serve.add_argument("--workers", type=int, default=1,
                       help="pool width for --backend process_pool")
    serve.add_argument("--cache-dir", default=None,
                       help="persist the artifact cache on disk "
                            "(shared with sweep runs)")
    serve.add_argument("--max-entries", type=int, default=None,
                       help="bound the memory tier (LRU eviction; "
                            "disk-tier artifacts stay retrievable)")
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or maintain a disk artifact cache")
    cache.add_argument("action", choices=("stats", "clear", "migrate"),
                       help="stats: tiered hit/miss + inventory table; "
                            "clear: delete every artifact; migrate: "
                            "rehome legacy flat files into shards")
    cache.add_argument("--cache-dir", required=True,
                       help="the cache directory to operate on")
    cache.add_argument("--format", choices=("human", "json"),
                       default="human",
                       help="output format (default: human)")
    cache.add_argument("--no-verify", action="store_true",
                       help="stats: skip the read-through pass that "
                            "loads every artifact")
    cache.set_defaults(func=_cmd_cache)

    lint = sub.add_parser(
        "lint", help="run the repro.lint static contract checkers")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: "
                           "src, tests, benchmarks, examples)")
    lint.add_argument("--format", choices=("human", "json"),
                      default="human",
                      help="output format (default: human)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="RULE",
                      help="run only this rule (repeatable; see "
                           "'python -m repro.lint --help' for the "
                           "catalogue)")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
