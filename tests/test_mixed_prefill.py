"""Tests for mixed prefill/decode steps and the serving-metrics accounting
fixes that landed with them.

The exclusive regime is pinned bit-identically against timestamps recorded
from the engine *before* mixed steps existed (the same way ``reserve`` was
pinned when paged KV landed): any drift in admission, first-token or finish
times on the seeded bursty / multi-tenant traces fails the golden test.
Mixed mode is covered by behavioural tests (prompts stream alongside
decodes, tail TTFT improves at no throughput cost) and by token-conservation
properties under preemption in both paged modes.
"""

import pytest

from repro.analysis.serving import prefill_mode_comparison, run_policy
from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.engine import TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_trace,
    multi_tenant_trace,
)

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial

# ---------------------------------------------------------------------------
# golden timestamps: (admitted_s, first_token_s, finish_s) per request id,
# recorded from the pre-mixed-prefill engine (PR 2 head) on seeded traces.
# ---------------------------------------------------------------------------
GOLDEN = {
    # bursty_trace(16, seed=7, mean_prefill=48, mean_decode=128, burst_size=8)
    # through TokenServingEngine(cluster="1x2n", policy="fifo",
    #                            max_batch_size=8)
    "bursty-fifo": [
        (0.03537646278959607, 1.1664274656766287, 3.847718447129387),
        (0.2096580055243091, 1.1664274656766287, 2.632573549408747),
        (0.2096580055243091, 1.1664274656766287, 3.222201363316521),
        (0.2096580055243091, 1.1664274656766287, 5.401959897004882),
        (0.2096580055243091, 1.1664274656766287, 4.364162654101877),
        (0.2096580055243091, 1.1664274656766287, 3.4024792642344623),
        (0.32972908204868046, 1.1664274656766287, 2.085263803550525),
        (0.32972908204868046, 1.1664274656766287, 5.052683619030796),
        (2.085263803550525, 2.1450277374756594, 5.303381188623658),
        (2.632573549408747, 2.809662599373139, 4.710017562043111),
        (3.222201363316521, 3.4024792642344623, 5.754624093953342),
        (3.4024792642344623, 3.6789525891525487, 5.848901236531414),
        (3.847718447129387, 4.1016379861379, 6.0381952044132765),
        (4.364162654101877, 4.541251704066269, 6.409665922484677),
        (4.710017562043111, 4.883917761053954, 6.883906415030026),
        (5.052683619030796, 5.303381188623658, 6.520609348777035),
    ],
    # multi_tenant_trace(16, seed=7) through
    # TokenServingEngine(cluster="1x2n", policy="priority", max_batch_size=2)
    "multitenant-priority": [
        (0.47168617052794765, 0.6491565642162102, 0.9147159132460281),
        (1.0684260795913896, 1.489705979254362, 1.7646527313701945),
        (1.188497156115761, 1.489705979254362, 2.040069042737942),
        (1.7646527313701945, 1.9628910070563068, 2.6783457376737436),
        (2.040069042737942, 2.1395522942503304, 2.588149626649826),
        (2.588149626649826, 2.6686984832135394, 3.34950886267558),
        (2.6783457376737436, 3.0022077021082287, 3.900479680814259),
        (4.119627662662869, 4.201664356979372, 4.319420013025967),
        (4.351876261597741, 4.5715961819450195, 5.797995443331467),
        (4.697010489927686, 5.407281637693161, 7.630937208620883),
        (4.430757223422798, 4.5715961819450195, 4.697010489927686),
        (5.797995443331467, 7.283636048053499, 9.091534932331223),
        (7.630937208620883, 8.068925959549484, 9.749114419632614),
        (6.000976644648126, 6.151382156030996, 6.6337448790412505),
        (15.181649939371257, 15.394263930472771, 17.823234267663924),
        (15.763413599143478, 16.08076538782245, 17.383144739950136),
    ],
}


def _bursty16():
    return bursty_trace(16, seed=7, mean_prefill=48, mean_decode=128,
                        burst_size=8)


def _trace(shapes, gap_s=0.0, priorities=None):
    requests = []
    for i, (prefill, decode) in enumerate(shapes):
        requests.append(Request(
            request_id=i, arrival_s=0.001 + i * gap_s,
            scenario=Scenario(prefill, decode),
            priority=0 if priorities is None else priorities[i]))
    return RequestTrace(requests=requests)


def _budget(tokens):
    """Per-node byte budget holding ``tokens`` cached positions on a
    2-node instance of the paper model."""
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
    return tokens * layout.bytes_per_token_per_node()


class TestExclusiveBitIdentical:
    """``prefill_mode="exclusive"`` must reproduce the pre-mixed engine
    timestamp-for-timestamp (exact float equality, no tolerance)."""

    def test_bursty_fifo_matches_golden(self):
        engine = TokenServingEngine(cluster="1x2n", policy="fifo",
                                    max_batch_size=8)
        assert engine.prefill_mode == "exclusive"  # the default
        _, records = engine.run(_bursty16())
        got = [(r.admitted_s, r.first_token_s, r.finish_s) for r in records]
        assert got == GOLDEN["bursty-fifo"]

    def test_multitenant_priority_matches_golden(self):
        engine = TokenServingEngine(cluster="1x2n", policy="priority",
                                    max_batch_size=2)
        _, records = engine.run(multi_tenant_trace(16, seed=7))
        got = [(r.admitted_s, r.first_token_s, r.finish_s) for r in records]
        assert got == GOLDEN["multitenant-priority"]

    def test_run_policy_exclusive_matches_golden(self):
        """The analysis helper's explicit ``prefill_mode="exclusive"`` path
        is the same engine (the surface the CLI flag drives)."""
        _, records = run_policy(_bursty16(), "fifo", max_batch_size=8,
                                prefill_mode="exclusive")
        got = [(r.admitted_s, r.first_token_s, r.finish_s) for r in records]
        assert got == GOLDEN["bursty-fifo"]


class TestMixedStepLatency:
    def test_degenerates_to_decode_step(self):
        """With no prefill tokens a mixed step is exactly a decode step."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        for batch in (1, 4, 8):
            assert system.mixed_step_latency_s([256] * batch, 0) == \
                pytest.approx(system.decode_step_latency_s(256, batch))

    def test_monotonic_in_prefill_tokens(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        lat = [system.mixed_step_latency_s([256] * 4, p)
               for p in (0, 16, 64, 256)]
        assert lat == sorted(lat)
        assert lat[-1] > lat[0]

    def test_piggybacked_prefill_is_cheaper_than_serial(self):
        """The reason mixed mode wins: chunk tokens riding a shared weight
        pass cost far less than the token-serial exclusive prefill."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        serial = system.prefill_latency_s(64)
        piggyback = (system.mixed_step_latency_s([256] * 4, 64)
                     - system.mixed_step_latency_s([256] * 4, 0))
        assert piggyback < serial * 0.8

    def test_validation(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        with pytest.raises(ValueError):
            system.mixed_step_latency_s([], 0)
        with pytest.raises(ValueError):
            system.mixed_step_latency_s([16], -1)
        with pytest.raises(ValueError):
            system.mixed_step_latency_s([-1], 4)


class TestMixedMode:
    def test_prompts_stream_alongside_decodes(self):
        """A long decode is NOT stalled by a later arrival's prefill: in
        exclusive mode the decode pauses for the whole prompt, in mixed mode
        it keeps emitting tokens, so its finish time improves."""
        trace = _trace([(16, 200), (256, 8)], gap_s=0.2)
        _, exclusive = TokenServingEngine(cluster="1x2n", policy="fifo",
                                          max_batch_size=4).run(trace)
        _, mixed = TokenServingEngine(cluster="1x2n", policy="fifo",
                                      max_batch_size=4,
                                      prefill_mode="mixed").run(trace)
        assert mixed[0].finish_s < exclusive[0].finish_s

    def test_improves_tail_ttft_at_no_throughput_cost(self):
        trace = _bursty16()
        exclusive, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                          max_batch_size=8).run(trace)
        mixed, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                      max_batch_size=8,
                                      prefill_mode="mixed").run(trace)
        assert mixed.ttft_percentile_s(0.95) < exclusive.ttft_percentile_s(0.95)
        assert (mixed.throughput_tokens_per_second
                >= exclusive.throughput_tokens_per_second)

    def test_prefill_tokens_and_step_shares(self):
        trace = _bursty16()
        mixed, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                      max_batch_size=8,
                                      prefill_mode="mixed").run(trace)
        assert mixed.prefill_mode == "mixed"
        assert mixed.prefill_tokens_processed == trace.total_prefill_tokens
        assert mixed.mixed_step_time_s > 0
        shares = (mixed.decode_time_share + mixed.prefill_time_share
                  + mixed.mixed_time_share)
        assert shares == pytest.approx(1.0)  # no swaps in this run
        summary = mixed.summary()
        assert summary["prefill_tokens"] == float(trace.total_prefill_tokens)
        assert summary["mixed_time_share"] == mixed.mixed_time_share

    def test_exclusive_never_builds_mixed_steps(self):
        exclusive, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                          max_batch_size=8).run(_bursty16())
        assert exclusive.prefill_mode == "exclusive"
        assert exclusive.mixed_step_time_s == 0.0
        assert exclusive.prefill_tokens_processed == \
            _bursty16().total_prefill_tokens

    def test_mixed_respects_step_token_budget_validation(self):
        with pytest.raises(ValueError):
            TokenServingEngine(mixed_step_token_budget=0)
        with pytest.raises(ValueError):
            TokenServingEngine(prefill_mode="interleaved")

    def test_run_policy_rejects_mixed_for_exclusive_policy(self):
        trace = _trace([(16, 16)] * 2, gap_s=0.01)
        with pytest.raises(ValueError):
            run_policy(trace, "fifo-exclusive", prefill_mode="mixed")

    def test_prefill_mode_comparison_rows(self):
        rows = prefill_mode_comparison(_bursty16(), policy="fifo",
                                       mixed_step_token_budget=128)
        assert [row["Policy"] for row in rows] == ["exclusive", "mixed"]
        for row in rows:
            assert 0.0 <= row["Utilization"] <= 1.0
            assert "P95 TTFT (s)" in row


class TestTokenConservation:
    """Property: every request's tokens are fully processed exactly once
    from the engine's point of view — generated tokens always match the
    trace, and prefill work matches it too unless a discarding preemption
    forces recomputation (then it can only exceed it)."""

    @pytest.mark.parametrize("preemption_mode", ["swap", "recompute"])
    def test_paged_mixed_conserves_tokens_under_preemption(self,
                                                           preemption_mode):
        trace = bursty_trace(24, seed=3, mean_prefill=48, mean_decode=128,
                             burst_size=8)
        engine = TokenServingEngine(
            cluster="1x2n", policy="fifo", max_batch_size=8,
            prefill_mode="mixed",
            kv_mode="paged", kv_budget_bytes=_budget(320),
            preemption_mode=preemption_mode)
        metrics, records = engine.run(trace)
        assert metrics.num_requests == len(trace)
        assert metrics.preemptions > 0  # the pool really was contended
        assert metrics.generated_tokens == trace.total_decode_tokens
        if preemption_mode == "swap":
            # swapped requests resume exactly where they stopped: every
            # prompt token is computed exactly once
            assert metrics.prefill_tokens_processed == \
                trace.total_prefill_tokens
            assert metrics.swap_in_count == metrics.swap_out_count
        else:
            # recompute pays for evictions with repeated prefill work
            assert metrics.prefill_tokens_processed > \
                trace.total_prefill_tokens
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0
            assert manager.swap_out_count == manager.swap_in_count

    def test_recompute_churn_terminates(self):
        """Regression: two requests too big to co-reside must not evict
        each other forever.  Mixed mode restricts equal-priority capacity
        eviction to members admitted no earlier than the grower, so the
        oldest resident always runs to completion."""
        # each request peaks at 160 cached positions = 10 of 12 blocks, so
        # the pool can only ever complete them one at a time
        trace = _trace([(32, 128), (32, 128)], gap_s=0.01)
        engine = TokenServingEngine(
            cluster="1x2n", policy="fifo", max_batch_size=4,
            prefill_mode="mixed",
            kv_mode="paged", kv_budget_bytes=_budget(192),
            preemption_mode="recompute")
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 2
        assert metrics.generated_tokens == trace.total_decode_tokens


class TestUtilizationAccounting:
    def test_engine_utilization_is_busy_over_capacity(self):
        trace = _bursty16()
        metrics, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                        max_batch_size=8).run(trace)
        assert metrics.busy_time_s > 0
        assert metrics.instance_utilization == pytest.approx(
            metrics.busy_time_s / (metrics.makespan_s * metrics.num_instances))
        assert metrics.instance_utilization <= 1.0

    def test_preemption_heavy_run_distinguishes_old_estimate(self):
        """The old service-time estimate counts a preempted request's
        re-queued wait as busy time, overstating utilization past 1.0; the
        busy-time accounting cannot exceed 1.0 by construction."""
        trace = _trace([(16, 300), (16, 32), (16, 32)], gap_s=0.1,
                       priorities=[0, 5, 5])
        metrics, records = TokenServingEngine(
            cluster="1x2n", policy="priority", max_batch_size=1).run(trace)
        assert metrics.preemptions >= 1
        old_estimate = (sum(metrics.service_times_s)
                        / (metrics.makespan_s * metrics.num_instances))
        assert old_estimate > metrics.instance_utilization
        assert old_estimate > 1.0  # the bug the clamp used to hide
        assert metrics.instance_utilization <= 1.0

    def test_mixed_busy_time_never_exceeds_capacity(self):
        for prefill_mode in ("exclusive", "mixed"):
            metrics, _ = TokenServingEngine(
                cluster="2x2n", policy="fifo", max_batch_size=4,
                prefill_mode=prefill_mode).run(_bursty16())
            assert metrics.instance_utilization <= 1.0
