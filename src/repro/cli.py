"""Command-line interface for the LoopLynx reproduction.

Usage (after ``pip install -e .`` or with ``PYTHONPATH=src``)::

    python -m repro.cli list                      # list reproducible artifacts
    python -m repro.cli experiment fig8           # regenerate one table/figure
    python -m repro.cli experiment all            # regenerate everything
    python -m repro.cli latency --nodes 2         # per-token latency report
    python -m repro.cli scenario --nodes 4 --prefill 64 --decode 512
    python -m repro.cli scaling --max-nodes 8     # node-count sweep
    python -m repro.cli utilization               # Fig. 3 style area-utilization
    python -m repro.cli serve --trace bursty --policy fifo   # token-level serving
    python -m repro.cli serve --kv-mode paged --kv-budget-mib 32 --trace bursty
    python -m repro.cli serve --compare kv --kv-budget-mib 32 --trace bursty
    python -m repro.cli serve --prefill-mode mixed --trace bursty
    python -m repro.cli serve --compare prefill --trace bursty
    python -m repro.cli serve --instances 2x1n,1x2n --router class_affinity
    python -m repro.cli serve --instances 2x1n,1x2n --compare router
    python -m repro.cli serve --instances 1x4n:prefill,4x1n:decode --router disaggregated --kv-mode paged
    python -m repro.cli serve --instances 1x4n:prefill,4x1n:decode --compare disaggregation
    python -m repro.cli serve --trace multiturn --kv-mode paged --kv-prefix-sharing --instances 2x1n,2x2n --router prefix_aware
    python -m repro.cli serve --trace-file trace.csv --policy sjf
    python -m repro.cli serve --trace bursty --metrics-mode streaming

Every subcommand prints plain-text tables (no plotting dependencies).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.breakdown import latency_breakdown
from repro.analysis.report import format_table
from repro.analysis.scalability import throughput_table
from repro.analysis.serving import (COMPARISONS, class_breakdown, compare,
                                    run_policy, tenant_breakdown)
from repro.analysis.utilization import architecture_comparison
from repro.baselines.gpu_a100 import A100Model
from repro.core.multi_node import LoopLynxSystem
from repro.energy.power import FpgaPowerModel, GpuPowerModel
from repro.experiments import EXPERIMENTS
from repro.model.config import ModelConfig


def _cmd_list(_: argparse.Namespace) -> int:
    rows = [{"Experiment": spec.experiment_id, "Description": spec.description}
            for spec in EXPERIMENTS.values()]
    print(format_table(rows, title="Reproducible artifacts"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.experiment_id == "all":
        for spec in EXPERIMENTS.values():
            print(f"\n### {spec.experiment_id}: {spec.description}\n")
            spec.main()
        return 0
    if args.experiment_id not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment_id!r}; known: "
              f"{', '.join(sorted(EXPERIMENTS))} or 'all'", file=sys.stderr)
        return 2
    EXPERIMENTS[args.experiment_id].main()
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    system = LoopLynxSystem.paper_configuration(num_nodes=args.nodes)
    report = system.decode_token_report(context_len=args.context)
    print(format_table([{
        "# Nodes": args.nodes,
        "Context": report.context_len,
        "Token latency (ms)": report.latency_ms,
        "Throughput (tok/s)": 1e3 / report.latency_ms,
    }], title="Per-token decode latency"))
    breakdown = latency_breakdown(system, context_len=args.context)
    print()
    print(format_table(
        [{"Category": name, "Latency (ms)": value}
         for name, value in sorted(breakdown.items(), key=lambda kv: -kv[1])],
        title="Breakdown"))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    system = LoopLynxSystem.paper_configuration(num_nodes=args.nodes)
    report = system.run_scenario(args.prefill, args.decode)
    gpu = A100Model(ModelConfig.gpt2_medium())
    gpu_ms = gpu.scenario_latency_ms(args.prefill, args.decode)
    fpga_energy = FpgaPowerModel().report(args.nodes, report.total_ms,
                                          args.decode).energy_joules
    gpu_energy = GpuPowerModel().report(gpu_ms, args.decode).energy_joules
    print(format_table([
        {"Platform": f"LoopLynx {args.nodes}-node",
         "Latency (s)": report.total_ms / 1e3, "Energy (J)": fpga_energy},
        {"Platform": "Nvidia A100",
         "Latency (s)": gpu_ms / 1e3, "Energy (J)": gpu_energy},
    ], title=f"Scenario [{args.prefill}:{args.decode}]"))
    print(f"\nSpeed-up vs A100: {gpu_ms / report.total_ms:.2f}x, "
          f"energy fraction: {100 * fpga_energy / gpu_energy:.1f}%")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    node_counts: List[int] = []
    nodes = 1
    while nodes <= args.max_nodes:
        node_counts.append(nodes)
        nodes *= 2
    rows = throughput_table(tuple(node_counts), context_len=args.context)
    print(format_table([row.as_dict() for row in rows],
                       title="Throughput and scalability"))
    return 0


def _cmd_utilization(args: argparse.Namespace) -> int:
    rows = [entry.as_dict() for entry in architecture_comparison(args.context)]
    print(format_table(rows, title="Decode-time area utilization by architecture style"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.cluster import parse_cluster_spec
    from repro.workloads.traces import (bursty_trace, multi_tenant_trace,
                                        multi_turn_trace, replay_trace,
                                        synthetic_trace)

    generators = {
        "steady": synthetic_trace,
        "bursty": bursty_trace,
        "multitenant": multi_tenant_trace,
        "multiturn": multi_turn_trace,
    }
    try:
        if args.trace_file is not None:
            trace = replay_trace(args.trace_file)
            trace_label = f"replayed ({args.trace_file})"
        else:
            trace = generators[args.trace](args.requests, seed=args.seed)
            trace_label = args.trace
    except (OSError, ValueError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    # --instances accepts both a plain count ("4", homogeneous with --nodes)
    # and a cluster spec ("2x1n,2x2n,1x4n"); both build the engine from a
    # cluster spec (a count N becomes "Nx<nodes>n")
    cluster_spec = None
    if args.instances.isdigit():
        num_instances = int(args.instances)
        pool_label = f"{num_instances}x {args.nodes}-node instances"
    else:
        try:
            cluster_spec = parse_cluster_spec(args.instances)
        except ValueError as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        num_instances = cluster_spec.num_instances
        pool_label = (f"cluster {cluster_spec} "
                      f"({cluster_spec.total_nodes} nodes)")
    title = f"Serving {len(trace)} {trace_label} requests on {pool_label}"
    # one configuration for the single run and for every comparison row
    # (a --compare preset overrides only its own axis)
    kwargs: Dict[str, Any] = dict(
        policy=args.policy, num_instances=num_instances,
        num_nodes_per_instance=args.nodes, instances=cluster_spec,
        router=args.router, max_batch_size=args.max_batch,
        kv_budget_bytes=(None if args.kv_budget_mib is None
                         else args.kv_budget_mib * (1 << 20)),
        kv_mode=args.kv_mode, kv_block_size=args.kv_block_size,
        kv_prefix_sharing=args.kv_prefix_sharing,
        preemption_mode=args.preemption_mode,
        swap_priority=args.swap_priority,
        prefill_mode=args.prefill_mode,
        mixed_step_token_budget=args.mixed_step_token_budget)
    if args.metrics_mode != "full":
        # streaming runs count SLO attainment online, so the SLO pair
        # must be pinned before the run rather than queried after it
        kwargs.update(metrics_mode=args.metrics_mode,
                      slo=(args.ttft_slo, args.tpot_slo))
    if args.sanitize:
        kwargs["sanitize"] = True
    if args.pricing_cache is not None:
        kwargs["pricing_cache"] = args.pricing_cache
    try:
        if args.compare is not None:
            rows = compare(trace, args.compare, workers=args.workers,
                           **kwargs)
        else:
            metrics, records = run_policy(trace, **kwargs)
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    if args.compare is not None:
        print(format_table(
            rows, title=f"{title} — {COMPARISONS[args.compare].title}"))
        return 0
    rows = [{"Metric": name, "Value": value}
            for name, value in metrics.summary().items()]
    print(format_table(rows, title=f"{title} — policy {args.policy!r}, "
                                   f"KV {metrics.kv_mode}, "
                                   f"prefill {metrics.prefill_mode}, "
                                   f"metrics {metrics.metrics_mode}"))
    if cluster_spec is not None and cluster_spec.is_heterogeneous:
        print()
        print(format_table(class_breakdown(metrics),
                           title=f"Per-class breakdown (router {args.router})"))
    if metrics.has_token_metrics:
        slo = metrics.slo_goodput_rps(args.ttft_slo, args.tpot_slo)
        print(f"\nSLO goodput (TTFT<={args.ttft_slo}s, TPOT<={args.tpot_slo}s): "
              f"{slo:.3f} req/s "
              f"({100 * metrics.slo_attainment(args.ttft_slo, args.tpot_slo):.1f}% "
              "of requests)")
    if args.trace == "multitenant" and metrics.has_token_metrics:
        if records:
            print()
            print(format_table(tenant_breakdown(records, tenants=trace.tenants),
                               title="Per-tenant breakdown"))
        else:
            print("\n(per-tenant breakdown needs per-request records; "
                  "re-run with --metrics-mode full)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.serving.sweep import run_sweep

    def coerce(text: str) -> object:
        lowered = text.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    grid: dict = {}
    for axis in args.grid:
        name, sep, values = axis.partition("=")
        if not sep or not name.strip() or not values:
            print(f"sweep: malformed --grid {axis!r} (want AXIS=V1|V2)",
                  file=sys.stderr)
            return 2
        grid[name.strip()] = [coerce(value) for value in values.split("|")]
    if not grid:
        # no axes: a single-config "sweep" of the base configuration
        grid = {"router": ["round_robin"]}
    base = {"policy": args.policy, "instances": args.instances,
            "max_batch_size": args.max_batch,
            "metrics_mode": args.metrics_mode}
    if args.pricing_cache is not None:
        base["pricing_cache"] = args.pricing_cache
    spec = {
        "trace": {"name": args.trace, "num_requests": args.requests,
                  "seed": args.seed},
        "base": base,
        "grid": grid,
    }
    try:
        outcome = run_sweep(spec, workers=args.workers)
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = [{"label": r.label, "seed": r.seed,
                    "summary": r.summary,
                    "failure": (None if r.failure is None
                                else {"error_type": r.failure.error_type,
                                      "message": r.failure.message})}
                   for r in outcome.results]
        print(json_module.dumps({"workers": outcome.workers,
                                 "wall_s": outcome.wall_s,
                                 "results": payload}, indent=2))
    else:
        rows = [{"Config": r.label,
                 "Requests": int(r.summary["requests"]),
                 "Makespan (s)": r.summary["makespan_s"],
                 "Throughput (tok/s)": r.summary["throughput_tok_s"],
                 "P99 latency (s)": r.summary["p99_latency_s"]}
                for r in outcome.results if r.ok and r.summary is not None]
        if rows:
            print(format_table(
                rows,
                title=f"Sweep: {len(outcome.results)} configs x "
                      f"{args.requests} {args.trace} requests "
                      f"({outcome.workers} worker(s), "
                      f"{outcome.wall_s:.2f}s wall)"))
    failures = outcome.failures
    for result in failures:
        failure = result.failure
        assert failure is not None  # mypy narrowing  # repro-lint: disable=R005
        print(f"sweep: config {result.label!r} failed: "
              f"{failure.error_type}: {failure.message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    ids = None if args.experiments == ["all"] else args.experiments
    paths = export_all(args.output_dir, experiment_ids=ids)
    for experiment_id, path in sorted(paths.items()):
        print(f"{experiment_id}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LoopLynx reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("list", help="list reproducible artifacts")
    sub.set_defaults(func=_cmd_list)

    sub = subparsers.add_parser("experiment", help="regenerate a paper artifact")
    sub.add_argument("experiment_id", help="table1|table2|table3|fig5|fig7|fig8|all")
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser("latency", help="per-token decode latency report")
    sub.add_argument("--nodes", type=int, default=2)
    sub.add_argument("--context", type=int, default=512)
    sub.set_defaults(func=_cmd_latency)

    sub = subparsers.add_parser("scenario", help="end-to-end request vs the A100")
    sub.add_argument("--nodes", type=int, default=2)
    sub.add_argument("--prefill", type=int, default=64)
    sub.add_argument("--decode", type=int, default=512)
    sub.set_defaults(func=_cmd_scenario)

    sub = subparsers.add_parser("scaling", help="node-count sweep")
    sub.add_argument("--max-nodes", type=int, default=8)
    sub.add_argument("--context", type=int, default=512)
    sub.set_defaults(func=_cmd_scaling)

    sub = subparsers.add_parser("utilization", help="area-utilization comparison")
    sub.add_argument("--context", type=int, default=512)
    sub.set_defaults(func=_cmd_utilization)

    sub = subparsers.add_parser(
        "serve", help="run a request trace through the token-level serving engine")
    sub.add_argument("--trace",
                     choices=("steady", "bursty", "multitenant", "multiturn"),
                     default="steady",
                     help="workload generator; 'multiturn' replays chat "
                          "sessions whose every turn re-sends the prior "
                          "transcript (the prefix-sharing workload)")
    sub.add_argument("--trace-file", default=None, metavar="CSV",
                     help="replay a recorded trace instead of generating "
                          "one: CSV rows of arrival_s,prompt_tokens,"
                          "output_tokens[,tenant] (Azure-LLM style)")
    sub.add_argument("--requests", type=int, default=40)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--policy",
                     choices=("fifo-exclusive", "fifo", "sjf", "priority"),
                     default="fifo")
    sub.add_argument("--instances", default="1",
                     help="pool shape: a plain count (homogeneous, with "
                          "--nodes) or a cluster spec of "
                          "<count>x<nodes>n[@<size>MiB][:<role>] entries — "
                          "'2x1n,2x2n,1x4n' mixes instance classes, "
                          "'2x2n@32MiB' overrides a class's KV budget, "
                          "'1x4n:prefill,4x1n:decode' disaggregates "
                          "prefill from decode (requires --kv-mode paged)")
    sub.add_argument("--nodes", type=int, default=2,
                     help="accelerator nodes per instance (plain-count "
                          "--instances only; cluster specs carry their own)")
    sub.add_argument("--router",
                     choices=("round_robin", "least_loaded", "kv_aware",
                              "class_affinity", "disaggregated",
                              "prefix_aware"),
                     default="round_robin",
                     help="cluster-routing policy for heterogeneous "
                          "--instances specs (single-class pools behave "
                          "identically under every router); 'disaggregated' "
                          "matches requests to prefill/decode roles; "
                          "'prefix_aware' prefers the instance caching the "
                          "longest prompt prefix (use with "
                          "--kv-prefix-sharing)")
    sub.add_argument("--swap-priority", action="store_true",
                     help="paged swap mode: resume an instance's own "
                          "swapped-out requests ahead of new admissions "
                          "(their KV is already paid for)")
    sub.add_argument("--max-batch", type=int, default=8,
                     help="decode-batch ceiling per instance")
    sub.add_argument("--kv-budget-mib", type=int, default=None,
                     help="per-node KV-cache budget (MiB); enables admission "
                          "control (reserve mode) and caps the block pool "
                          "(paged mode)")
    sub.add_argument("--kv-mode", choices=("reserve", "paged"),
                     default="reserve",
                     help="KV capacity regime: worst-case reservations "
                          "(PR 1 behaviour) or on-demand paged blocks")
    sub.add_argument("--kv-block-size", type=int, default=16,
                     help="cached token positions per paged KV block")
    sub.add_argument("--kv-prefix-sharing", action="store_true",
                     help="paged mode: content-hash full prompt blocks so "
                          "requests sharing a prompt prefix reuse cached "
                          "blocks (copy-on-write on divergence) and skip "
                          "the matched prefill tokens")
    sub.add_argument("--preemption-mode", choices=("swap", "recompute"),
                     default="swap",
                     help="paged-mode eviction: swap blocks to host over "
                          "PCIe and resume, or discard and recompute prefill")
    sub.add_argument("--prefill-mode", choices=("exclusive", "mixed"),
                     default="exclusive",
                     help="exclusive: a prefill chunk occupies a step on its "
                          "own, stalling co-resident decodes (historical "
                          "behaviour); mixed: prompts stream in alongside "
                          "live decodes under a per-step token budget")
    sub.add_argument("--mixed-step-token-budget", type=int, default=256,
                     help="token capacity of one mixed step (decode tokens "
                          "plus prefill-chunk tokens)")
    sub.add_argument("--metrics-mode", choices=("full", "streaming"),
                     default="full",
                     help="full: keep one record per request (exact "
                          "percentiles, default); streaming: constant-memory "
                          "aggregates with <=0.5%% percentile error — for "
                          "million-request traces (pins the SLO pair at "
                          "run time)")
    sub.add_argument("--sanitize", action="store_true",
                     help="shadow-validate engine invariants (event-time "
                          "monotonicity, KV block/refcount conservation, "
                          "request conservation) after every event; "
                          "read-only, output stays bit-identical (also "
                          "reachable via REPRO_SANITIZE=1)")
    sub.add_argument("--ttft-slo", type=float, default=2.0,
                     help="TTFT SLO in seconds for goodput reporting")
    sub.add_argument("--tpot-slo", type=float, default=0.05,
                     help="TPOT SLO in seconds for goodput reporting")
    sub.add_argument("--compare", choices=tuple(COMPARISONS), default=None,
                     help="tabulate a comparison preset instead of one run: "
                          "policy (fifo-exclusive vs fifo vs sjf), kv "
                          "(reservation vs paged KV under --kv-budget-mib), "
                          "prefill (exclusive vs mixed), router (every "
                          "cluster router), disaggregation (a role-tagged "
                          "--instances spec vs its colocated twin); the "
                          "preset's axis overrides the matching flag, every "
                          "other flag applies to every row")
    sub.add_argument("--workers", type=int, default=1,
                     help="process-pool workers for the --compare table "
                          "(1 = in-process; results are bit-identical "
                          "either way)")
    sub.add_argument("--pricing-cache", default=None, metavar="DIR",
                     help="directory for the persistent pricing cache "
                          "(repeat runs start with warm price tables; "
                          "see docs/performance.md)")
    sub.set_defaults(func=_cmd_serve)

    sub = subparsers.add_parser(
        "sweep",
        help="expand a config grid and serve it, optionally in parallel")
    sub.add_argument("--trace",
                     choices=("azure", "bursty", "bursty_multi_tenant",
                              "multi_tenant", "multi_turn", "synthetic"),
                     default="azure",
                     help="trace recipe every config serves "
                          "(rebuilt per worker from --seed)")
    sub.add_argument("--requests", type=int, default=2000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--policy", default="fifo")
    sub.add_argument("--instances", default="4x2n",
                     help="base cluster spec (a grid axis named "
                          "'instances' overrides it per config)")
    sub.add_argument("--max-batch", type=int, default=8)
    sub.add_argument("--metrics-mode", choices=("full", "streaming"),
                     default="streaming",
                     help="streaming keeps worker results small; "
                          "full keeps per-request percentiles exact")
    sub.add_argument("--grid", action="append", default=[],
                     metavar="AXIS=V1|V2",
                     help="one cartesian axis, pipe-separated values "
                          "(e.g. --grid 'router=round_robin|least_loaded' "
                          "--grid 'instances=8x2n|2x4n,4x2n'); repeatable, "
                          "axes multiply in the order given")
    sub.add_argument("--workers", type=int, default=1,
                     help="process-pool size (1 = serial in-process; "
                          "parallel results are bit-identical to serial)")
    sub.add_argument("--pricing-cache", default=None, metavar="DIR",
                     help="persistent pricing-cache directory shared by "
                          "all workers")
    sub.add_argument("--json", action="store_true",
                     help="emit the full per-config summaries as JSON "
                          "instead of a table")
    sub.set_defaults(func=_cmd_sweep)

    sub = subparsers.add_parser("export", help="save experiment results as JSON")
    sub.add_argument("experiments", nargs="+",
                     help="experiment ids (or 'all')")
    sub.add_argument("--output-dir", default="results")
    sub.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
