#!/usr/bin/env python3
"""Serving study: chatbot and code-generation workloads on LoopLynx vs A100.

The paper motivates LoopLynx with long-text-generation applications (chatbots,
code generation).  This example evaluates themed scenario sets and a synthetic
request trace, reporting end-to-end latency, sustained throughput, energy and
tokens/J for the 1/2/4-node deployments and the A100 baseline.

Run with::

    python examples/chatbot_serving.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import LoopLynxSystem, ModelConfig
from repro.analysis.report import format_table
from repro.baselines import A100Model
from repro.energy.power import FpgaPowerModel, GpuPowerModel
from repro.workloads.scenarios import chatbot_scenarios, code_generation_scenarios
from repro.workloads.traces import synthetic_trace


def scenario_study(title, scenarios):
    gpu = A100Model(ModelConfig.gpt2_medium())
    gpu_power = GpuPowerModel()
    fpga_power = FpgaPowerModel()
    systems = {n: LoopLynxSystem.paper_configuration(num_nodes=n) for n in (1, 2, 4)}

    rows = []
    for scenario in scenarios:
        gpu_ms = gpu.scenario_latency_ms(scenario.prefill_len, scenario.decode_len)
        row = {"Scenario": f"{scenario.label} {scenario.name}".strip(),
               "A100 (s)": gpu_ms / 1e3}
        for num_nodes, system in systems.items():
            report = system.run_scenario(scenario.prefill_len, scenario.decode_len)
            row[f"{num_nodes}-node (s)"] = report.total_ms / 1e3
            row[f"{num_nodes}-node speed-up"] = gpu_ms / report.total_ms
        rows.append(row)
    print(format_table(rows, title=title))
    print()

    # energy summary over the whole scenario set
    energy_rows = []
    total_tokens = sum(s.decode_len for s in scenarios)
    gpu_total_ms = sum(gpu.scenario_latency_ms(s.prefill_len, s.decode_len)
                       for s in scenarios)
    gpu_report = gpu_power.report(gpu_total_ms, total_tokens)
    energy_rows.append({"Platform": "Nvidia A100",
                        "Energy (J)": gpu_report.energy_joules,
                        "Tokens/J": gpu_report.tokens_per_joule})
    for num_nodes, system in systems.items():
        total_ms = sum(system.run_scenario(s.prefill_len, s.decode_len).total_ms
                       for s in scenarios)
        report = fpga_power.report(num_nodes, total_ms, total_tokens)
        energy_rows.append({"Platform": f"LoopLynx {num_nodes}-node",
                            "Energy (J)": report.energy_joules,
                            "Tokens/J": report.tokens_per_joule})
    print(format_table(energy_rows, title=f"{title} — energy over the whole set"))
    print()


def trace_study():
    """Sustained serving of a synthetic request trace with a pool of
    LoopLynx instances (queueing simulation, see :mod:`repro.serving`)."""
    from repro.serving.simulator import ServingSimulator

    trace = synthetic_trace(num_requests=30, seed=7, mean_prefill=48,
                            mean_decode=192, arrival_rate_per_s=1.5)
    rows = []
    for instances in (1, 2, 4):
        simulator = ServingSimulator(num_instances=instances,
                                     num_nodes_per_instance=2)
        metrics, _ = simulator.run(trace)
        summary = metrics.summary()
        rows.append({
            "2-node instances": instances,
            "Throughput (tok/s)": summary["throughput_tok_s"],
            "Mean queue delay (s)": summary["mean_queue_delay_s"],
            "P50 latency (s)": summary["p50_latency_s"],
            "P99 latency (s)": summary["p99_latency_s"],
            "Utilization (%)": 100 * summary["instance_utilization"],
            "Tokens/J": metrics.tokens_per_joule(),
        })
    print(format_table(rows, title="Synthetic request trace served by a pool of "
                                   "2-node LoopLynx instances"))


def engine_study():
    """Token-level serving: continuous batching vs the exclusive FIFO queue
    on a bursty trace, plus a priority-scheduled multi-tenant trace."""
    from repro.analysis.serving import compare, run_policy, tenant_breakdown
    from repro.workloads.traces import bursty_trace, multi_tenant_trace

    trace = bursty_trace(num_requests=32, seed=11, mean_prefill=48,
                         mean_decode=160, burst_size=8)
    rows = compare(trace, "policy", num_instances=1, max_batch_size=8)
    print(format_table(rows, title="Bursty trace: whole-request FIFO vs "
                                   "token-level continuous batching"))
    print()

    tenant_trace = multi_tenant_trace(num_requests=30, seed=13)
    _, records = run_policy(tenant_trace, "priority", num_instances=1,
                            max_batch_size=4)
    # pass the trace's tenant list so a tenant that completed nothing (or
    # generated no tokens) still shows up as a zeroed row instead of being
    # silently dropped from the table
    print(format_table(tenant_breakdown(records, tenants=tenant_trace.tenants),
                       title="Multi-tenant trace under the priority scheduler"))


def paged_kv_study():
    """Reservation vs paged KV admission under the same tight per-node HBM
    budget: on-demand block allocation packs a larger running batch (and
    swap-based preemption keeps throughput) where worst-case reservations
    leave the batch half empty."""
    from repro.analysis.serving import compare
    from repro.memory.kv_cache import KVCacheLayout
    from repro.workloads.traces import bursty_trace

    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
    budget = 640 * layout.bytes_per_token_per_node()
    trace = bursty_trace(num_requests=32, seed=11, mean_prefill=48,
                         mean_decode=160, burst_size=8)
    rows = compare(trace, "kv", kv_budget_bytes=budget, policy="fifo",
                   num_instances=1, max_batch_size=8)
    print(format_table(
        rows, title=f"Bursty trace under a {budget / (1 << 20):.0f} MiB/node "
                    "KV budget: reservation vs paged admission"))


def main() -> None:
    print("LoopLynx serving study — long-generation workloads\n")
    scenario_study("Chatbot scenarios", chatbot_scenarios())
    scenario_study("Code-generation scenarios", code_generation_scenarios())
    trace_study()
    print()
    engine_study()
    print()
    paged_kv_study()


if __name__ == "__main__":
    main()
