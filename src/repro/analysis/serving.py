"""Serving-policy comparisons built on the token-level engine.

These helpers run one trace through several serving configurations and lay
the resulting :class:`~repro.serving.metrics.ServingMetrics` out as table
rows for the ``serve`` CLI subcommand, the chatbot-serving example and the
serving benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.serving.cluster import (
    ClusterSpec,
    InstanceSpec,
    ROUTER_NAMES,
    parse_cluster_spec,
)
from repro.serving.engine import PREFILL_MODES, ServedRequest, TokenServingEngine
from repro.serving.simulator import FIFO_EXCLUSIVE, ServingSimulator
from repro.workloads.traces import RequestTrace

#: KV capacity regimes accepted by :func:`run_policy` and the serve CLI.
KV_MODES = ("reserve", "paged")


def run_policy(trace: RequestTrace, policy: str,
               num_instances: int = 1, num_nodes_per_instance: int = 2,
               max_batch_size: int = 8,
               kv_budget_bytes: Optional[int] = None,
               kv_mode: str = "reserve",
               kv_block_size: int = 16,
               preemption_mode: str = "swap",
               prefill_mode: str = "exclusive",
               mixed_step_token_budget: Optional[int] = None,
               instances: Optional[Union[str, ClusterSpec]] = None,
               router: str = "round_robin",
               swap_priority: bool = False,
               kv_prefix_sharing: bool = False,
               **engine_kwargs: Any
               ) -> Tuple[ServingMetrics, List[ServedRequest]]:
    """Run ``trace`` under one policy and return ``(metrics, records)``.

    ``policy`` may be ``fifo-exclusive`` (whole-request compatibility mode;
    it serves one request at a time, so ``max_batch_size`` does not apply and
    KV options are rejected rather than silently ignored) or any token-level
    policy.

    The pool is ``num_instances`` × ``num_nodes_per_instance`` (the
    cluster spec ``ClusterSpec.homogeneous(num_instances,
    num_nodes_per_instance)``), or ``instances``, a cluster spec string or
    :class:`~repro.serving.cluster.ClusterSpec` (e.g.
    ``"2x1n,2x2n,1x4n"``) that replaces it.  ``router`` picks the
    cluster-routing policy (consulted on heterogeneous pools only —
    single-class pools give identical records under every router).  The KV
    options apply per instance class.  ``swap_priority`` makes each
    instance resume its own swapped-out requests ahead of new admissions
    (paged ``swap`` mode).

    ``prefill_mode`` selects how prompts share steps with running decodes:
    ``"exclusive"`` (one prefill chunk per step, decodes stall — the
    historical regime, bit-identical to the engine before mixed steps
    existed) or ``"mixed"`` (prompts stream in alongside decodes under a
    per-step token budget, ``mixed_step_token_budget``; ``None`` uses the
    engine default).  Like the KV options, mixed prefill is rejected for
    ``fifo-exclusive`` rather than silently ignored.

    KV capacity is controlled by ``kv_mode``:

    * ``"reserve"`` — with ``kv_budget_bytes`` set, the PR 1 worst-case
      reservation controller gates admission (per-node byte budget); with no
      budget, admission is unconstrained.  This mode is bit-identical to the
      engine before paged allocation existed.
    * ``"paged"`` — a :class:`~repro.memory.paged_kv.PagedKVManager` with
      ``kv_block_size``-token blocks allocates on demand;
      ``kv_budget_bytes`` defaults to the node's full HBM share net of
      weights.  ``preemption_mode`` picks what eviction does to a victim's
      blocks (``"swap"`` to host over PCIe, ``"recompute"`` discard).

    ``kv_prefix_sharing`` (paged mode only) content-hashes full prompt
    blocks into per-pool prefix indices so requests sharing a prompt prefix
    reuse cached blocks (copy-on-write on divergence) and skip the matched
    prefill tokens.  Off by default — historical runs stay bit-identical.
    """
    if kv_mode not in KV_MODES:
        raise ValueError(f"unknown kv mode {kv_mode!r}; "
                         f"known: {', '.join(KV_MODES)}")
    if kv_prefix_sharing and kv_mode != "paged":
        raise ValueError(
            "kv_prefix_sharing builds prefix indices into the paged block "
            "pools; it requires kv_mode='paged'")
    if policy == FIFO_EXCLUSIVE:
        if kv_budget_bytes is not None or kv_mode == "paged":
            raise ValueError(
                "fifo-exclusive has no KV admission control; drop the KV "
                "options or pick a token-level policy")
        if prefill_mode != "exclusive":
            raise ValueError(
                "fifo-exclusive serves whole requests and cannot mix "
                "prefill into decode steps; pick a token-level policy")
        if instances is not None:
            raise ValueError(
                "fifo-exclusive predates the cluster layer; pick a "
                "token-level policy to use --instances/--router")
        if swap_priority:
            raise ValueError(
                "fifo-exclusive never preempts, so swap_priority has "
                "nothing to prioritize; pick a token-level policy")
        if engine_kwargs.get("metrics_mode", "full") != "full":
            raise ValueError(
                "fifo-exclusive predates streaming metrics; pick a "
                "token-level policy to use metrics_mode")
        simulator = ServingSimulator(num_instances=num_instances,
                                     num_nodes_per_instance=num_nodes_per_instance)
        return simulator.run(trace)
    if mixed_step_token_budget is not None:
        engine_kwargs = dict(engine_kwargs,
                             mixed_step_token_budget=mixed_step_token_budget)
    if instances is None:
        instances = ClusterSpec.homogeneous(num_instances,
                                            num_nodes_per_instance)
    engine = TokenServingEngine(
        cluster=instances, router=router,
        policy=policy, max_batch_size=max_batch_size,
        prefill_mode=prefill_mode,
        kv_mode=("paged" if kv_mode == "paged"
                 else "reserve" if kv_budget_bytes is not None else None),
        kv_budget_bytes=kv_budget_bytes,
        kv_block_size=kv_block_size,
        kv_prefix_sharing=kv_prefix_sharing,
        preemption_mode=preemption_mode,
        swap_priority=swap_priority,
        **engine_kwargs)
    return engine.run(trace)


def metrics_row(label: str, metrics: ServingMetrics) -> Dict[str, object]:
    """One policy's summary as a flat table row."""
    summary = metrics.summary()
    row: Dict[str, object] = {
        "Policy": label,
        "Throughput (tok/s)": summary["throughput_tok_s"],
        "Mean queue delay (s)": summary["mean_queue_delay_s"],
        "P50 latency (s)": summary["p50_latency_s"],
        "P99 latency (s)": summary["p99_latency_s"],
    }
    if metrics.has_token_metrics:
        row["P50 TTFT (s)"] = summary["p50_ttft_s"]
        row["P95 TTFT (s)"] = summary["p95_ttft_s"]
        row["P99 TTFT (s)"] = summary["p99_ttft_s"]
        row["P50 TPOT (s)"] = summary["p50_tpot_s"]
        if metrics.preemptions:
            row["Preemptions"] = metrics.preemptions
    if metrics.mean_running_batch > 0:
        row["Mean batch"] = metrics.mean_running_batch
    if metrics.kv_mode == "paged":
        row["KV occupancy"] = metrics.mean_kv_occupancy
        row["Swaps"] = metrics.swap_out_count
    return row


def _sweep_metrics(trace: RequestTrace,
                   labeled_configs: Sequence[Tuple[str, Dict[str, Any]]],
                   workers: int) -> List[ServingMetrics]:
    """Run labelled run_policy configurations through the sweep engine.

    ``workers=1`` executes in-process in config order — byte-for-byte
    the behavior of the old serial for-loops; larger values fan the
    configs over a process pool (results stay in config order and
    bit-identical to serial).  A failing config raises, preserving the
    comparisons' fail-fast contract.
    """
    from repro.serving.sweep import SweepJob, run_jobs
    jobs = [SweepJob(index=i, label=label, trace=trace, params=params)
            for i, (label, params) in enumerate(labeled_configs)]
    outcome = run_jobs(jobs, workers=workers, keep_metrics=True)
    outcome.raise_failures()
    return [r.metrics for r in outcome.results if r.metrics is not None]


def policy_comparison(trace: RequestTrace,
                      policies: Sequence[str] = (FIFO_EXCLUSIVE, "fifo", "sjf"),
                      num_instances: int = 1,
                      num_nodes_per_instance: int = 2,
                      max_batch_size: int = 8,
                      kv_budget_bytes: Optional[int] = None,
                      kv_mode: str = "reserve",
                      kv_block_size: int = 16,
                      preemption_mode: str = "swap",
                      workers: int = 1
                      ) -> List[Dict[str, object]]:
    """Serve the same trace under each policy and tabulate the summaries.

    The KV options mirror :func:`run_policy` and apply to every token-level
    row.  With a KV budget or paged mode, ``fifo-exclusive`` is excluded
    (it has no admission control, so its row would not be comparable to the
    constrained ones).  ``workers`` fans the rows over a process pool
    (bit-identical to serial; see :mod:`repro.serving.sweep`).
    """
    if kv_budget_bytes is not None or kv_mode == "paged":
        policies = [p for p in policies if p != FIFO_EXCLUSIVE]
    configs = [(policy, dict(policy=policy, num_instances=num_instances,
                             num_nodes_per_instance=num_nodes_per_instance,
                             max_batch_size=max_batch_size,
                             kv_budget_bytes=kv_budget_bytes,
                             kv_mode=kv_mode, kv_block_size=kv_block_size,
                             preemption_mode=preemption_mode))
               for policy in policies]
    return [metrics_row(label, metrics)
            for (label, _), metrics
            in zip(configs, _sweep_metrics(trace, configs, workers))]


def kv_mode_comparison(trace: RequestTrace, kv_budget_bytes: int,
                       policy: str = "fifo",
                       num_instances: int = 1,
                       num_nodes_per_instance: int = 2,
                       max_batch_size: int = 8,
                       kv_block_size: int = 16,
                       preemption_mode: str = "swap",
                       workers: int = 1
                       ) -> List[Dict[str, object]]:
    """Serve one trace under the same KV byte budget in reservation mode and
    paged mode (plus paged/recompute when ``preemption_mode`` is ``swap``)
    and tabulate the summaries side by side.

    This is the comparison the paged subsystem exists to win: with identical
    capacity, on-demand block allocation sustains a higher running batch than
    worst-case reservations.
    """
    modes = [("reserve", "reserve", "swap"),
             (f"paged/{preemption_mode}", "paged", preemption_mode)]
    if preemption_mode == "swap":
        modes.append(("paged/recompute", "paged", "recompute"))
    configs = [(label, dict(policy=policy, num_instances=num_instances,
                            num_nodes_per_instance=num_nodes_per_instance,
                            max_batch_size=max_batch_size,
                            kv_budget_bytes=kv_budget_bytes,
                            kv_mode=kv_mode, kv_block_size=kv_block_size,
                            preemption_mode=mode))
               for label, kv_mode, mode in modes]
    return [metrics_row(label, metrics)
            for (label, _), metrics
            in zip(configs, _sweep_metrics(trace, configs, workers))]


def prefill_mode_comparison(trace: RequestTrace,
                            policy: str = "fifo",
                            num_instances: int = 1,
                            num_nodes_per_instance: int = 2,
                            max_batch_size: int = 8,
                            mixed_step_token_budget: Optional[int] = None,
                            kv_budget_bytes: Optional[int] = None,
                            kv_mode: str = "reserve",
                            kv_block_size: int = 16,
                            preemption_mode: str = "swap",
                            workers: int = 1
                            ) -> List[Dict[str, object]]:
    """Serve one trace under exclusive and mixed prefill and tabulate the
    summaries side by side.

    This is the comparison mixed steps exist to win: with prompts streaming
    in alongside live decodes instead of stalling them, tail TTFT drops on
    bursty traffic without giving up generated-token throughput (the
    benchmark suite asserts it).  The KV options mirror :func:`run_policy`
    and apply to both rows.
    """
    configs = [(prefill_mode,
                dict(policy=policy, num_instances=num_instances,
                     num_nodes_per_instance=num_nodes_per_instance,
                     max_batch_size=max_batch_size,
                     kv_budget_bytes=kv_budget_bytes,
                     kv_mode=kv_mode, kv_block_size=kv_block_size,
                     preemption_mode=preemption_mode,
                     prefill_mode=prefill_mode,
                     mixed_step_token_budget=mixed_step_token_budget))
               for prefill_mode in PREFILL_MODES]
    rows = []
    for (prefill_mode, _), metrics in zip(
            configs, _sweep_metrics(trace, configs, workers)):
        row = metrics_row(prefill_mode, metrics)
        # "stall" = pure-prefill steps, where no decode advances: the cost
        # exclusive mode pays for every prompt and mixed mode only pays
        # when nothing is decoding.  Mixed steps are reported separately —
        # their duration is mostly decode work, so folding them into a
        # prefill share would make the rows incomparable.
        row["Prefill-stall share"] = metrics.prefill_time_share
        row["Mixed-step share"] = metrics.mixed_time_share
        row["Utilization"] = metrics.instance_utilization
        rows.append(row)
    return rows


def router_comparison(trace: RequestTrace, instances: Union[str, ClusterSpec],
                      routers: Sequence[str] = ROUTER_NAMES,
                      policy: str = "fifo",
                      max_batch_size: int = 8,
                      kv_budget_bytes: Optional[int] = None,
                      kv_mode: str = "reserve",
                      kv_block_size: int = 16,
                      preemption_mode: str = "swap",
                      prefill_mode: str = "exclusive",
                      swap_priority: bool = False,
                      kv_prefix_sharing: bool = False,
                      workers: int = 1
                      ) -> List[Dict[str, object]]:
    """Serve one trace on the same cluster under each router and tabulate
    the summaries side by side.

    This is the comparison the routing layer exists to win: on a
    heterogeneous pool, placement-aware routers (``kv_aware``,
    ``class_affinity``) should beat shape-blind rotation on tail TTFT.  On
    a single-class pool every row is identical by construction — a useful
    smoke check that routing never costs anything when there is nothing to
    decide.
    """
    configs = [(router,
                dict(policy=policy, instances=instances,
                     router=router, max_batch_size=max_batch_size,
                     kv_budget_bytes=kv_budget_bytes,
                     kv_mode=kv_mode, kv_block_size=kv_block_size,
                     preemption_mode=preemption_mode,
                     prefill_mode=prefill_mode,
                     swap_priority=swap_priority,
                     kv_prefix_sharing=kv_prefix_sharing))
               for router in routers]
    rows = []
    for (router, _), metrics in zip(
            configs, _sweep_metrics(trace, configs, workers)):
        row = metrics_row(router, metrics)
        row["P95 TTFT (s)"] = metrics.ttft_percentile_s(0.95)
        if kv_prefix_sharing:
            row["Prefix hits"] = metrics.prefix_hits
            row["Prefill tokens saved"] = metrics.prefill_tokens_saved
        rows.append(row)
    return rows


def strip_roles(spec: Union[str, ClusterSpec]) -> ClusterSpec:
    """The colocated twin of a (possibly role-tagged) cluster spec: the
    same instance classes on the same hardware, with every role reset to
    ``"both"`` so each instance serves requests end-to-end.  This is the
    node-equivalent baseline a disaggregated cluster must beat — identical
    silicon, only the prefill/decode split removed."""
    if isinstance(spec, str):
        spec = parse_cluster_spec(spec)
    return ClusterSpec(tuple(
        InstanceSpec(s.count, s.num_nodes, s.kv_budget_bytes)
        for s in spec.specs))


def disaggregation_comparison(trace: RequestTrace,
                              instances: Union[str, ClusterSpec],
                              policy: str = "fifo",
                              max_batch_size: int = 8,
                              kv_budget_bytes: Optional[int] = None,
                              kv_block_size: int = 16,
                              preemption_mode: str = "swap",
                              prefill_mode: str = "exclusive",
                              mixed_step_token_budget: Optional[int] = None,
                              router: str = "disaggregated",
                              colocated_router: str = "least_loaded",
                              workers: int = 1
                              ) -> List[Dict[str, object]]:
    """Serve one trace on a disaggregated cluster and on its colocated
    twin (same instances, roles stripped) and tabulate the summaries.

    This is the comparison disaggregation exists to win: with prefill
    quarantined on the prefill class, the decode instances' steps are never
    stalled by a prompt streaming in, so tail TPOT drops — at the price of
    one priced KV handoff per request.  Both rows run paged KV (the
    handoff *is* a block-table move) under the same budget and block size.

    ``instances`` must be a role-tagged spec (e.g.
    ``"1x4n:prefill,4x1n:decode"``); raises ``ValueError`` otherwise.
    """
    if isinstance(instances, str):
        instances = parse_cluster_spec(instances)
    if not instances.has_roles:
        raise ValueError(
            f"cluster {instances} has no prefill/decode roles; "
            "disaggregation_comparison compares a role-tagged cluster "
            "against its colocated twin")
    colocated = strip_roles(instances)
    pairs = [
        (f"disaggregated ({instances})", instances, router),
        (f"colocated ({colocated})", colocated, colocated_router),
    ]
    configs = [(label,
                dict(policy=policy, instances=spec,
                     router=spec_router,
                     max_batch_size=max_batch_size,
                     kv_budget_bytes=kv_budget_bytes,
                     kv_mode="paged",
                     kv_block_size=kv_block_size,
                     preemption_mode=preemption_mode,
                     prefill_mode=prefill_mode,
                     mixed_step_token_budget=mixed_step_token_budget))
               for label, spec, spec_router in pairs]
    rows = []
    for (label, _), metrics in zip(
            configs, _sweep_metrics(trace, configs, workers)):
        row = metrics_row(label, metrics)
        row["P95 TPOT (s)"] = metrics.tpot_percentile_s(0.95)
        row["P99 TPOT (s)"] = metrics.tpot_percentile_s(0.99)
        row["Handoffs"] = metrics.handoff_count
        row["Handoff time (s)"] = metrics.handoff_time_s
        rows.append(row)
    return rows


def class_breakdown(metrics: ServingMetrics) -> List[Dict[str, object]]:
    """Per-instance-class rows from a cluster run's metrics.

    One row per instance class (``metrics.per_class``), showing how the
    cluster's classes divided the work: request counts, utilization,
    sustained batch, TTFT and swap traffic.  Requests that never ran
    (``instance_id=None``) belong to no class and appear in no row.  On a
    disaggregated cluster every row also carries the class's serving role
    and its share of the KV-handoff traffic — a prefill class completing
    zero requests while exporting every prompt is working as intended, and
    the role column is what makes that legible.
    """
    disaggregated = any(cls.role != "both" for cls in metrics.per_class)
    sharing = getattr(metrics, "kv_prefix_sharing", False)
    rows = []
    for cls in metrics.per_class:
        row: Dict[str, object] = {
            "Class": cls.label,
            "Instances": cls.num_instances,
            "Nodes/inst": cls.num_nodes,
            "Requests": cls.requests,
            "Utilization": cls.utilization,
            "Mean batch": cls.mean_running_batch,
            "Mean TTFT (s)": cls.mean_ttft_s,
            "P95 TTFT (s)": cls.ttft_percentile_s(0.95),
        }
        if disaggregated:
            row["Role"] = cls.role
            row["Handoffs out"] = cls.handoffs_out
            row["Handoffs in"] = cls.handoffs_in
            row["Handoff time (s)"] = cls.handoff_time_s
        if cls.kv_total_blocks:
            row["KV occupancy"] = cls.mean_kv_occupancy
            row["Swaps"] = cls.swap_out_count
        if sharing:
            row["Prefix hits"] = cls.prefix_hits
            row["Prefill saved"] = cls.prefill_tokens_saved
        rows.append(row)
    return rows


def instance_breakdown(records: Sequence[ServedRequest]
                       ) -> List[Dict[str, object]]:
    """Per-instance latency/TTFT means from token-level request records.

    Requests with ``instance_id=None`` never ran on any instance; they are
    excluded from every per-instance row (attributing them to a fake
    instance would corrupt the aggregates) and surfaced in a trailing
    ``(never ran)`` row instead, so rejected work stays visible.
    """
    by_instance: Dict[int, list] = {}
    never_ran = 0
    for record in records:
        if record.instance_id is None:
            never_ran += 1
            continue
        by_instance.setdefault(record.instance_id, []).append(record)
    rows = []
    for instance_id in sorted(by_instance):
        group = by_instance[instance_id]
        ttfts = [r.ttft_s for r in group if r.ttft_s is not None]
        rows.append({
            "Instance": instance_id,
            "Requests": len(group),
            "Mean TTFT (s)": sum(ttfts) / len(ttfts) if ttfts else 0.0,
            "Mean latency (s)": sum(r.end_to_end_latency_s
                                    for r in group) / len(group),
            "Preemptions": sum(r.preemptions for r in group),
        })
    if never_ran:
        rows.append({
            "Instance": "(never ran)",
            "Requests": never_ran,
            "Mean TTFT (s)": 0.0,
            "Mean latency (s)": 0.0,
            "Preemptions": 0,
        })
    return rows


def tenant_breakdown(records: Sequence[ServedRequest],
                     tenants: Optional[Sequence[str]] = None
                     ) -> List[Dict[str, object]]:
    """Per-tenant latency/TTFT means from token-level request records.

    ``tenants`` optionally names the tenants expected in the workload (e.g.
    ``trace.tenants``): a tenant with no completed requests — or none that
    generated a token — still gets a row with zeroed means instead of being
    silently dropped, so starvation is visible rather than invisible.
    """
    by_tenant: Dict[str, list] = {name: [] for name in (tenants or ())}
    for record in records:
        by_tenant.setdefault(record.tenant, []).append(record)
    rows = []
    for tenant in sorted(by_tenant):
        group = by_tenant[tenant]
        ttfts = [r.ttft_s for r in group if r.ttft_s is not None]
        rows.append({
            "Tenant": tenant,
            "Requests": len(group),
            "Mean TTFT (s)": sum(ttfts) / len(ttfts) if ttfts else 0.0,
            "Mean latency (s)": (sum(r.end_to_end_latency_s for r in group)
                                 / len(group)) if group else 0.0,
            "Preemptions": sum(r.preemptions for r in group),
        })
    return rows
