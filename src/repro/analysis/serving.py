"""Serving-policy comparisons built on the token-level engine.

:func:`run_policy` serves a trace under one configuration; :func:`compare`
runs one trace through the configurations of a named :data:`COMPARISONS`
preset (over the sweep engine) and lays the resulting
:class:`~repro.serving.metrics.ServingMetrics` out as table rows for the
``serve`` CLI subcommand and the chatbot-serving example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.serving.cluster import (
    ClusterSpec,
    InstanceSpec,
    ROUTER_NAMES,
    parse_cluster_spec,
)
from repro.serving.engine import PREFILL_MODES, ServedRequest, TokenServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import FIFO_EXCLUSIVE, ServingSimulator
from repro.serving.sweep import run_sweep
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
    if metrics.kv_prefix_sharing:
        row["Prefix hits"] = metrics.prefix_hits
        row["Prefill tokens saved"] = metrics.prefill_tokens_saved
    return row


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


#: A preset's rows: ``(label, run_policy overrides)`` per config.
Configs = List[Tuple[str, Dict[str, Any]]]


def _policy_configs(base: Mapping[str, Any]) -> Configs:
    # fifo-exclusive has no KV admission control, so its row would not be
    # comparable to the constrained ones
    policies = [FIFO_EXCLUSIVE, "fifo", "sjf"]
    if (base.get("kv_budget_bytes") is not None
            or base.get("kv_mode") == "paged"):
        policies.remove(FIFO_EXCLUSIVE)
    return [(policy, {"policy": policy}) for policy in policies]


def _kv_configs(base: Mapping[str, Any]) -> Configs:
    if base.get("kv_budget_bytes") is None:
        raise ValueError(
            "the kv comparison needs a KV budget (kv_budget_bytes, "
            "--kv-budget-mib): the same budget is applied to both KV modes")
    preemption = base.get("preemption_mode", "swap")
    modes = [("reserve", "reserve", "swap"),
             (f"paged/{preemption}", "paged", preemption)]
    if preemption == "swap":
        modes.append(("paged/recompute", "paged", "recompute"))
    return [(label, {"kv_mode": kv_mode, "preemption_mode": mode})
            for label, kv_mode, mode in modes]


def _prefill_configs(base: Mapping[str, Any]) -> Configs:
    return [(mode, {"prefill_mode": mode}) for mode in PREFILL_MODES]


def _prefill_columns(metrics: ServingMetrics) -> Dict[str, object]:
    # "stall" = pure-prefill steps, where no decode advances: the cost
    # exclusive mode pays for every prompt and mixed mode only pays when
    # nothing is decoding.  Mixed steps are reported separately — their
    # duration is mostly decode work, so folding them into a prefill share
    # would make the rows incomparable.
    return {"Prefill-stall share": metrics.prefill_time_share,
            "Mixed-step share": metrics.mixed_time_share,
            "Utilization": metrics.instance_utilization}


def _router_configs(base: Mapping[str, Any]) -> Configs:
    return [(router, {"router": router}) for router in ROUTER_NAMES]


def _disaggregation_configs(base: Mapping[str, Any]) -> Configs:
    # both rows run paged KV: the handoff *is* a block-table move
    spec = base.get("instances")
    if isinstance(spec, str):
        spec = parse_cluster_spec(spec)
    if spec is None or not spec.has_roles:
        raise ValueError(
            "the disaggregation comparison pits a role-tagged cluster spec "
            "like '1x4n:prefill,4x1n:decode' against its colocated twin; "
            f"{spec or 'a plain instance count'} has no prefill/decode roles")
    colocated = strip_roles(spec)
    return [(f"disaggregated ({spec})",
             {"instances": spec, "router": "disaggregated",
              "kv_mode": "paged"}),
            (f"colocated ({colocated})",
             {"instances": colocated, "router": "least_loaded",
              "kv_mode": "paged"})]


def _disaggregation_columns(metrics: ServingMetrics) -> Dict[str, object]:
    return {"P95 TPOT (s)": metrics.tpot_percentile_s(0.95),
            "P99 TPOT (s)": metrics.tpot_percentile_s(0.99),
            "Handoffs": metrics.handoff_count,
            "Handoff time (s)": metrics.handoff_time_s}


def _no_columns(metrics: ServingMetrics) -> Dict[str, object]:
    return {}


@dataclass(frozen=True)
class Comparison:
    """One preset of :data:`COMPARISONS`.

    ``configs`` maps the base :func:`run_policy` kwargs to the configs to
    run (a base the preset cannot compare raises ``ValueError``);
    ``columns`` adds the preset's own columns to each :func:`metrics_row`.
    """

    title: str
    configs: Callable[[Mapping[str, Any]], Configs]
    columns: Callable[[ServingMetrics], Dict[str, object]] = _no_columns


#: The named comparisons :func:`compare` runs (``serve --compare NAME``).
#: Each pits one trace against the configs a serving mechanism exists to
#: beat: continuous batching vs whole-request FIFO (``policy``; the
#: fifo-exclusive row is omitted under a KV budget or paged KV, which it
#: cannot model); on-demand paged KV vs worst-case reservations under one
#: budget (``kv``, higher running batch); mixed vs exclusive prefill
#: (``prefill``, lower tail TTFT on bursty traffic); placement-aware vs
#: shape-blind routers on a heterogeneous pool (``router``; on a
#: single-class pool every row is identical by construction); and a
#: disaggregated cluster vs its colocated twin (``disaggregation``, lower
#: tail TPOT for one priced KV handoff per request).
COMPARISONS: Dict[str, Comparison] = {
    "policy": Comparison("policy comparison", _policy_configs),
    "kv": Comparison("reservation vs paged KV", _kv_configs),
    "prefill": Comparison("exclusive vs mixed prefill", _prefill_configs,
                          columns=_prefill_columns),
    "router": Comparison("router comparison", _router_configs),
    "disaggregation": Comparison("disaggregated vs colocated",
                                 _disaggregation_configs,
                                 columns=_disaggregation_columns),
}


def compare(trace: RequestTrace, name: str, *, workers: int = 1,
            **run_policy_kwargs: Any) -> List[Dict[str, object]]:
    """Serve ``trace`` under every config of the :data:`COMPARISONS`
    preset ``name`` and tabulate one :func:`metrics_row` per config.

    ``run_policy_kwargs`` is the base configuration shared by every row
    (``policy`` defaults to ``"fifo"``); the preset's axis overrides the
    matching keys.  The configs run through
    :func:`repro.serving.sweep.run_sweep`: ``workers`` fans them over a
    process pool, with rows bit-identical to ``workers=1``.  A config that
    fails validation re-raises its ``ValueError`` with the original
    message; any other failure raises ``RuntimeError``.
    """
    if name not in COMPARISONS:
        raise ValueError(f"unknown comparison {name!r}; known: "
                         f"{', '.join(COMPARISONS)}")
    preset = COMPARISONS[name]
    base = dict(run_policy_kwargs)
    base.setdefault("policy", "fifo")
    configs = [dict(overrides, label=label)
               for label, overrides in preset.configs(base)]
    outcome = run_sweep({"trace": trace, "base": base, "configs": configs},
                        workers=workers, keep_metrics=True)
    first = next((r.failure for r in outcome.results
                  if r.failure is not None), None)
    if first is not None and first.error_type == "ValueError":
        raise ValueError(first.message)
    outcome.raise_failures()
    return [dict(metrics_row(r.label, r.metrics), **preset.columns(r.metrics))
            for r in outcome.results if r.metrics is not None]


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
