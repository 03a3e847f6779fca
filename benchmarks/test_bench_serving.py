"""Serving benchmarks: FIFO-exclusive vs continuous batching, and
reservation vs paged KV admission.

Each benchmark serves the same trace under the whole-request FIFO-exclusive
compatibility mode and under the continuous-batching engine, measuring the
simulation cost and asserting the serving-quality relationships the engine
exists to deliver: continuous batching sustains at least the exclusive
throughput everywhere and strictly wins on the bursty trace (PR 1), and —
under an identical per-node KV byte budget — paged block allocation sustains
a strictly higher steady-state batch occupancy than worst-case reservations
while reservation mode itself reproduces the PR 1 numbers exactly (PR 2).
Mixed prefill/decode steps strictly improve tail TTFT on the bursty trace
without giving up generated-token throughput, while exclusive prefill stays
bit-identical to the pre-mixed engine (PR 3).  A heterogeneous cluster with
class-affinity routing strictly improves p95 TTFT over a node-equivalent
homogeneous pool on the bursty multi-tenant trace (PR 4).  A disaggregated
prefill/decode cluster strictly improves p95 TPOT over its colocated twin
(same hardware, roles stripped) on bursty long-prompt traffic, with the KV
handoffs priced and accounted (PR 5).
"""

import pytest

from repro.analysis.serving import run_policy
from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.cluster import parse_cluster_spec
from repro.serving.engine import TokenServingEngine
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import (
    bursty_multi_tenant_trace,
    bursty_trace,
    multi_tenant_trace,
    multi_turn_trace,
    synthetic_trace,
)


def _steady():
    return synthetic_trace(32, seed=7, mean_prefill=48, mean_decode=128,
                           arrival_rate_per_s=2.0)


def _bursty():
    return bursty_trace(32, seed=7, mean_prefill=48, mean_decode=128,
                        burst_size=8, burst_rate_per_s=20.0, idle_gap_s=4.0)


def _multi_tenant():
    return multi_tenant_trace(32, seed=7)


TRACES = {
    "steady": _steady,
    "bursty": _bursty,
    "multi-tenant": _multi_tenant,
}


def _run_pair(trace):
    exclusive, _ = ServingSimulator(num_instances=1).run(trace)
    batched, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                    max_batch_size=8).run(trace)
    return exclusive, batched


@pytest.mark.parametrize("shape", sorted(TRACES))
def test_bench_fifo_exclusive(benchmark, shape):
    """Simulation cost of the whole-request FIFO queue per trace shape."""
    trace = TRACES[shape]()
    simulator = ServingSimulator(num_instances=1)
    metrics, _ = benchmark.pedantic(simulator.run, args=(trace,), rounds=3,
                                    iterations=1)
    assert metrics.num_requests == len(trace)


@pytest.mark.parametrize("shape", sorted(TRACES))
def test_bench_continuous_batching(benchmark, shape):
    """Simulation cost of the token-level engine per trace shape."""
    trace = TRACES[shape]()

    def run():
        engine = TokenServingEngine(cluster="1x2n", policy="fifo",
                                    max_batch_size=8)
        return engine.run(trace)

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


def _kv_budget_bytes(tokens, num_nodes=2):
    """Per-node byte budget holding ``tokens`` cached positions for the
    paper model — tight enough that the bursty burst contends for KV."""
    system = LoopLynxSystem.paper_configuration(num_nodes=num_nodes)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=num_nodes)
    return tokens * layout.bytes_per_token_per_node()


def test_bench_paged_kv_engine(benchmark):
    """Simulation cost of the paged-KV engine with swap preemption."""
    trace = _bursty()
    budget = _kv_budget_bytes(640)

    def run():
        return run_policy(trace, "fifo", kv_budget_bytes=budget,
                          kv_mode="paged", preemption_mode="swap")

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


@pytest.mark.parametrize("preemption_mode", ["swap", "recompute"])
def test_paged_beats_reservation_occupancy(preemption_mode):
    """The PR's acceptance criterion: under the same per-node KV budget the
    paged engine sustains strictly higher steady-state batch occupancy than
    worst-case reservations on the bursty trace, and with swap-based
    preemption it does so without giving up throughput."""
    trace = _bursty()
    budget = _kv_budget_bytes(640)
    reserve, _ = run_policy(trace, "fifo", kv_budget_bytes=budget,
                            kv_mode="reserve")
    paged, _ = run_policy(trace, "fifo", kv_budget_bytes=budget,
                          kv_mode="paged", preemption_mode=preemption_mode)
    assert paged.mean_running_batch > reserve.mean_running_batch
    assert paged.mean_kv_occupancy > 0
    if preemption_mode == "swap":
        assert (paged.throughput_tokens_per_second
                >= reserve.throughput_tokens_per_second * 0.999)
        assert paged.swap_in_count == paged.swap_out_count


def test_reservation_mode_reproduces_pr1_exactly():
    """``kv_mode="reserve"`` is the PR 1 admission controller, bit-identical:
    the run_policy helper and a directly-constructed engine agree on every
    timestamp."""
    trace = _bursty()
    budget = _kv_budget_bytes(640)
    helper_metrics, helper_records = run_policy(
        trace, "fifo", kv_budget_bytes=budget, kv_mode="reserve")
    engine = TokenServingEngine(
        cluster="1x2n", policy="fifo", max_batch_size=8,
        kv_mode="reserve", kv_budget_bytes=budget)
    direct_metrics, direct_records = engine.run(trace)
    assert helper_metrics.makespan_s == direct_metrics.makespan_s
    assert helper_metrics.kv_mode == "reserve"
    assert helper_metrics.swap_out_count == 0
    for a, b in zip(helper_records, direct_records):
        assert (a.admitted_s, a.first_token_s, a.finish_s) == \
            (b.admitted_s, b.first_token_s, b.finish_s)


def test_bench_mixed_prefill_engine(benchmark):
    """Simulation cost of the mixed prefill/decode engine on the bursty
    trace (the step planner and the mixed-latency memoization ride the hot
    path here)."""
    trace = _bursty()

    def run():
        return run_policy(trace, "fifo", prefill_mode="mixed")

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


def test_mixed_prefill_improves_tail_ttft():
    """The PR's acceptance criterion: on the bursty trace, mixed steps
    strictly improve p95 TTFT over exclusive prefill without reducing
    generated-token throughput — prompts stream in alongside live decodes
    instead of stalling them."""
    trace = _bursty()
    exclusive, _ = run_policy(trace, "fifo", prefill_mode="exclusive")
    mixed, _ = run_policy(trace, "fifo", prefill_mode="mixed")
    assert mixed.ttft_percentile_s(0.95) < exclusive.ttft_percentile_s(0.95)
    assert (mixed.throughput_tokens_per_second
            >= exclusive.throughput_tokens_per_second)
    # both modes computed every prompt token exactly once (no preemption
    # pressure in this configuration)
    assert (mixed.prefill_tokens_processed
            == exclusive.prefill_tokens_processed
            == trace.total_prefill_tokens)


def test_mixed_prefill_improves_ttft_under_paged_kv():
    """The win survives KV pressure: under a tight paged block pool with
    swap preemption, mixed steps still improve p95 TTFT at equal or better
    throughput."""
    trace = _bursty()
    budget = _kv_budget_bytes(640)
    exclusive, _ = run_policy(trace, "fifo", kv_budget_bytes=budget,
                              kv_mode="paged", prefill_mode="exclusive")
    mixed, _ = run_policy(trace, "fifo", kv_budget_bytes=budget,
                          kv_mode="paged", prefill_mode="mixed")
    assert mixed.ttft_percentile_s(0.95) < exclusive.ttft_percentile_s(0.95)
    assert (mixed.throughput_tokens_per_second
            >= exclusive.throughput_tokens_per_second * 0.999)


@pytest.mark.parametrize("shape", sorted(TRACES))
def test_bench_batching_quality(shape):
    """Continuous batching sustains at least exclusive throughput everywhere
    and strictly wins throughput + queueing delay on the bursty trace."""
    exclusive, batched = _run_pair(TRACES[shape]())
    assert (batched.throughput_tokens_per_second
            >= exclusive.throughput_tokens_per_second * 0.999)
    assert batched.ttft_percentile_s(0.99) > 0
    if shape == "bursty":
        assert (batched.throughput_tokens_per_second
                > exclusive.throughput_tokens_per_second)
        assert batched.mean_queueing_delay_s < exclusive.mean_queueing_delay_s
        assert batched.latency_percentile_s(0.99) <= \
            exclusive.latency_percentile_s(0.99) * 1.5


def test_bench_cluster_engine(benchmark):
    """Simulation cost of a heterogeneous cluster run (router placement
    checks and per-class bookkeeping ride the hot path here)."""
    trace = bursty_multi_tenant_trace(seed=8)

    def run():
        return run_policy(trace, "fifo", instances="4x1n,2x2n",
                          router="class_affinity")

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


def test_heterogeneous_class_affinity_beats_homogeneous_tail_ttft():
    """The PR's acceptance criterion: on the bursty multi-tenant trace, a
    heterogeneous cluster (four 1-node + two 2-node instances) routed with
    class affinity strictly improves p95 TTFT over the node-equivalent
    homogeneous pool (four 2-node instances, 8 nodes in both), at no
    material throughput cost.

    The mechanism: the rare long bulk prompts are quarantined on the
    2-node class (whose prefill is fastest), so the interactive mass on
    the 1-node class never stalls behind a bulk prefill, while the
    homogeneous pool exposes every instance to those stalls.
    """
    trace = bursty_multi_tenant_trace(seed=8)
    het, hom = "4x1n,2x2n", "4x2n"
    assert (parse_cluster_spec(het).total_nodes
            == parse_cluster_spec(hom).total_nodes)
    hom_metrics, _ = run_policy(trace, "fifo", instances=hom)
    het_metrics, _ = run_policy(trace, "fifo", instances=het,
                                router="class_affinity")
    assert (het_metrics.ttft_percentile_s(0.95)
            < hom_metrics.ttft_percentile_s(0.95))
    assert (het_metrics.throughput_tokens_per_second
            >= hom_metrics.throughput_tokens_per_second * 0.9)


def _bursty_long_prompts():
    """Bursty long-prompt traffic: the regime disaggregation exists for.
    Every burst carries several multi-hundred-token prompts, so a colocated
    pool keeps interrupting running decodes with exclusive prefill chunks
    while a disaggregated pool prefills elsewhere."""
    return bursty_trace(40, seed=7, mean_prefill=256, mean_decode=128,
                        burst_size=10, burst_rate_per_s=20.0, idle_gap_s=4.0)


def test_bench_disaggregated_engine(benchmark):
    """Simulation cost of a disaggregated cluster run (role gates, handoff
    events and the dual swap-out/swap-in pricing ride the hot path here)."""
    trace = _bursty_long_prompts()

    def run():
        return run_policy(trace, "fifo",
                          instances="1x4n:prefill,4x1n:decode",
                          router="disaggregated", kv_mode="paged")

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


def test_disaggregated_beats_colocated_p95_tpot():
    """The PR's acceptance criterion: at equal total node budget, the
    disaggregated cluster (one 4-node prefill instance + four 1-node decode
    instances) strictly beats the colocated node-equivalent pool (same
    instances, roles stripped) on p95 TPOT under bursty long-prompt
    traffic, and the KV handoffs that make it possible are priced: handoff
    transfer time is nonzero and flows into the busy-time/utilization
    accounting.

    The mechanism: colocated instances interleave exclusive prefill chunks
    with their running decodes, so every long prompt stalls its
    co-residents' inter-token gaps; the disaggregated decode instances
    never run a prefill chunk, paying only one PCIe block handoff per
    request.
    """
    trace = _bursty_long_prompts()
    dis, het = "1x4n:prefill,4x1n:decode", "1x4n,4x1n"
    assert (parse_cluster_spec(dis).total_nodes
            == parse_cluster_spec(het).total_nodes)
    dis_metrics, dis_records = run_policy(
        trace, "fifo", instances=dis, router="disaggregated",
        kv_mode="paged")
    col_metrics, _ = run_policy(
        trace, "fifo", instances=het, router="least_loaded",
        kv_mode="paged")
    assert (dis_metrics.tpot_percentile_s(0.95)
            < col_metrics.tpot_percentile_s(0.95))
    # the handoffs are real, priced, and accounted: one per generating
    # request, with nonzero PCIe time that lands in the swap/busy clocks
    generating = sum(1 for r in dis_records if r.decode_len > 0)
    assert dis_metrics.handoff_count == generating > 0
    assert dis_metrics.handoff_time_s > 0
    assert dis_metrics.swap_time_s > 0
    assert 0 < dis_metrics.instance_utilization <= 1.0
    # the colocated twin never hands off
    assert col_metrics.handoff_count == 0
    # disaggregation pays its transfers without giving up material
    # generated-token throughput on this trace
    assert (dis_metrics.throughput_tokens_per_second
            >= col_metrics.throughput_tokens_per_second * 0.9)


def _multi_turn():
    """Multi-turn conversations: every follow-up re-sends the growing
    transcript, so most of each prompt is a prefix some instance already
    computed — the regime prefix caching and cache-aware routing exist
    for."""
    return multi_turn_trace(60, seed=1)


def test_bench_prefix_sharing_engine(benchmark):
    """Simulation cost of a sharing-enabled cluster run (chain hashing,
    prefix-index lookups and the COW bookkeeping ride the hot path here)."""
    trace = _multi_turn()

    def run():
        return run_policy(trace, "fifo", instances="2x1n,2x2n",
                          router="prefix_aware", kv_mode="paged",
                          kv_prefix_sharing=True)

    metrics, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_requests == len(trace)


def test_prefix_aware_routing_beats_least_loaded_p95_ttft():
    """The PR's acceptance criterion: with prefix sharing enabled on a
    heterogeneous pool, cache-aware routing strictly beats least-loaded
    routing on p95 TTFT for multi-turn traffic, and the win comes from real
    reuse — both runs save prefill tokens, the cache-aware one saves more.

    The mechanism: least-loaded scatters a session's turns across
    instances, so each instance recomputes the shared transcript from
    scratch; prefix_aware lands follow-ups on the instance whose pool
    already holds their longest registered prefix, so prefill shrinks to
    the new tokens and the first token arrives sooner.
    """
    trace = _multi_turn()
    kwargs = dict(instances="2x1n,2x2n", kv_mode="paged",
                  kv_prefix_sharing=True)
    blind, _ = run_policy(trace, "fifo", router="least_loaded", **kwargs)
    aware, _ = run_policy(trace, "fifo", router="prefix_aware", **kwargs)
    assert aware.ttft_percentile_s(0.95) < blind.ttft_percentile_s(0.95)
    assert aware.prefill_tokens_saved > 0
    assert blind.prefill_tokens_saved > 0
    assert aware.prefill_tokens_saved > blind.prefill_tokens_saved
    # hits count prompts that matched at least one block; the routing win
    # is in match *depth* (tokens saved), so hits need only hold level
    assert aware.prefix_hits >= blind.prefix_hits > 0
    # routing never drops work: both runs generate every decode token
    assert aware.generated_tokens == blind.generated_tokens


def test_prefix_sharing_beats_sharing_off_on_multiturn():
    """Enabling sharing (same router, same pool) strictly cuts both the
    prefill compute and the p95 TTFT on multi-turn traffic, and the
    off-run's counters stay dark."""
    trace = _multi_turn()
    kwargs = dict(instances="2x1n,2x2n", router="prefix_aware",
                  kv_mode="paged")
    off, _ = run_policy(trace, "fifo", kv_prefix_sharing=False, **kwargs)
    on, _ = run_policy(trace, "fifo", kv_prefix_sharing=True, **kwargs)
    assert off.prefix_hits == off.prefill_tokens_saved == 0
    assert on.prefill_tokens_saved > 0
    assert on.prefill_tokens_processed < off.prefill_tokens_processed
    assert on.ttft_percentile_s(0.95) < off.ttft_percentile_s(0.95)
    # every prompt token was either computed or reused, never dropped
    assert (on.prefill_tokens_processed + on.prefill_tokens_saved
            >= off.prefill_tokens_processed)


def test_class_affinity_beats_shape_blind_routing_on_het_pool():
    """On the same heterogeneous pool, class-affinity routing beats
    shape-blind rotation on p95 TTFT: quarantining long prompts away from
    the small instances is where the heterogeneous win comes from."""
    trace = bursty_multi_tenant_trace(seed=8)
    affinity, _ = run_policy(trace, "fifo", instances="4x1n,2x2n",
                             router="class_affinity")
    rotation, _ = run_policy(trace, "fifo", instances="4x1n,2x2n",
                             router="round_robin")
    assert (affinity.ttft_percentile_s(0.95)
            < rotation.ttft_percentile_s(0.95))
