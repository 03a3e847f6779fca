"""Tests for the token-level serving engine, scheduler policies and the
KV-capacity admission controller."""

import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.engine import TokenServingEngine
from repro.serving.schedulers import (
    FifoScheduler,
    KVAdmissionController,
    PriorityScheduler,
    ShortestJobFirstScheduler,
    make_scheduler,
)
from repro.serving.simulator import FIFO_EXCLUSIVE, ServingSimulator
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_trace,
    multi_tenant_trace,
    synthetic_trace,
)


def _token_bytes():
    """KV bytes one cached token occupies on each node of a 2-node
    instance of the paper model."""
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    return KVCacheLayout.for_model(system.config.model,
                                   num_nodes=2).bytes_per_token_per_node()


def _trace(shapes, gap_s=0.0, priorities=None):
    """Build a trace of (prefill, decode) shapes arriving ``gap_s`` apart."""
    requests = []
    for i, (prefill, decode) in enumerate(shapes):
        requests.append(Request(
            request_id=i, arrival_s=0.001 + i * gap_s,
            scenario=Scenario(prefill, decode),
            priority=0 if priorities is None else priorities[i]))
    return RequestTrace(requests=requests)


class _Entry:
    """Minimal stand-in for the engine's request state in policy unit tests."""

    def __init__(self, request, last_admitted_s=0.0):
        self.request = request
        self.last_admitted_s = last_admitted_s


def _entry(request_id, arrival_s, prefill=8, decode=8, priority=0):
    return _Entry(Request(request_id=request_id, arrival_s=arrival_s,
                          scenario=Scenario(prefill, decode),
                          priority=priority))


class TestSchedulerPolicies:
    def test_fifo_orders_by_arrival(self):
        scheduler = FifoScheduler()
        for entry in (_entry(2, 3.0), _entry(0, 1.0), _entry(1, 2.0)):
            scheduler.push(entry)
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [0, 1, 2]

    def test_sjf_orders_by_total_tokens(self):
        scheduler = ShortestJobFirstScheduler()
        scheduler.push(_entry(0, 1.0, prefill=64, decode=512))
        scheduler.push(_entry(1, 2.0, prefill=16, decode=32))
        scheduler.push(_entry(2, 3.0, prefill=32, decode=32))
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [1, 2, 0]

    def test_sjf_breaks_ties_by_arrival(self):
        scheduler = ShortestJobFirstScheduler()
        scheduler.push(_entry(1, 2.0, prefill=16, decode=16))
        scheduler.push(_entry(0, 1.0, prefill=16, decode=16))
        assert scheduler.pop().request.request_id == 0

    def test_priority_orders_by_priority_then_arrival(self):
        scheduler = PriorityScheduler()
        scheduler.push(_entry(0, 1.0, priority=0))
        scheduler.push(_entry(1, 2.0, priority=5))
        scheduler.push(_entry(2, 3.0, priority=5))
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [1, 2, 0]

    def test_priority_victim_is_strictly_lower_class(self):
        scheduler = PriorityScheduler()
        head = _entry(9, 0.0, priority=3)
        running = [_Entry(Request(0, 0.0, Scenario(8, 8), priority=3)),
                   _Entry(Request(1, 0.0, Scenario(8, 8), priority=1),
                          last_admitted_s=1.0),
                   _Entry(Request(2, 0.0, Scenario(8, 8), priority=1),
                          last_admitted_s=2.0)]
        victim = scheduler.preemption_victim(running, head)
        # lowest class, most recently admitted (least progress wasted)
        assert victim.request.request_id == 2
        # equal-priority running work is never preempted
        assert scheduler.preemption_victim(running[:1], head) is None

    def test_fifo_and_sjf_never_preempt(self):
        head = _entry(9, 0.0, priority=3)
        running = [_entry(0, 0.0, priority=0)]
        assert FifoScheduler().preemption_victim(running, head) is None
        assert ShortestJobFirstScheduler().preemption_victim(running, head) is None

    def test_make_scheduler(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("sjf").name == "sjf"
        assert make_scheduler("priority").name == "priority"
        with pytest.raises(ValueError):
            make_scheduler("round-robin")


class TestKVAdmission:
    def _layout(self):
        return KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                             max_seq_len=256, num_nodes=2)

    def test_capacity_from_budget(self):
        layout = self._layout()
        per_token = layout.bytes_per_token_per_node()
        controller = KVAdmissionController(layout, budget_bytes=10 * per_token)
        assert controller.capacity_tokens == 10

    def test_fits_accounts_reservations(self):
        layout = self._layout()
        controller = KVAdmissionController(
            layout, budget_bytes=100 * layout.bytes_per_token_per_node())
        request = Request(0, 0.0, Scenario(30, 30))
        assert controller.reservation_tokens(request) == 60
        assert controller.fits(request, used_tokens=0)
        assert controller.fits(request, used_tokens=40)
        assert not controller.fits(request, used_tokens=41)

    def test_validate_rejects_impossible_requests(self):
        layout = self._layout()
        controller = KVAdmissionController(
            layout, budget_bytes=16 * layout.bytes_per_token_per_node())
        with pytest.raises(ValueError):
            controller.validate([Request(0, 0.0, Scenario(20, 20))])

    def test_for_system_defaults(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        controller = KVAdmissionController.for_system(system)
        # the U50 share net of weights holds far more than one max context
        assert controller.capacity_tokens > system.config.model.max_seq_len

    def test_priority_preempts_on_kv_exhaustion_with_free_slots(self):
        """A KV-blocked high-priority head evicts low-priority work even when
        batch slots are free (no priority inversion through the cache)."""
        # room for one 64-token reservation plus a little, not two
        trace = _trace([(16, 48), (16, 48)], gap_s=0.05, priorities=[0, 5])
        engine = TokenServingEngine(cluster="1x2n", policy="priority",
                                    max_batch_size=4, kv_mode="reserve",
                                    kv_budget_bytes=80 * _token_bytes())
        metrics, records = engine.run(trace)
        low, high = records
        assert low.preemptions >= 1
        assert high.finish_s < low.finish_s

    def test_no_futile_eviction_when_head_still_would_not_fit(self):
        """When evicting one victim cannot free enough KV for the head, the
        victim keeps its progress (no work thrown away for nothing)."""
        # resident lows: 68 + 20 of 150 tokens; the preemption victim is the
        # most recently admitted (the 20-token one), and evicting it cannot
        # fit the 96-token head (150 - 88 + 20 = 82 < 96), so it must be
        # spared and allowed to finish its own decode
        # gaps wide enough that both lows are resident before the high
        # arrives (admission happens at step boundaries)
        trace = _trace([(8, 60), (8, 12), (16, 80)], gap_s=0.05,
                       priorities=[0, 0, 5])
        engine = TokenServingEngine(cluster="1x2n", policy="priority",
                                    max_batch_size=4, kv_mode="reserve",
                                    kv_budget_bytes=150 * _token_bytes())
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 3
        low_long, low_short, high = records
        # the futile victim kept its progress and finished unpreempted
        assert low_short.preemptions == 0
        assert low_short.finish_s <= high.admitted_s
        # once the short low released its KV, evicting the long low DID free
        # enough for the head — a beneficial preemption the policy allows
        assert low_long.preemptions == 1
        assert high.finish_s < low_long.finish_s

    def test_admission_blocks_when_cache_full(self):
        """With room for only one max-context request, the second queues for
        the whole duration of the first even though batch slots are free."""
        trace = _trace([(16, 48), (16, 48)])
        blocked = TokenServingEngine(cluster="1x2n", policy="fifo",
                                     max_batch_size=4, kv_mode="reserve",
                                     kv_budget_bytes=64 * _token_bytes())
        metrics, records = blocked.run(trace)
        assert metrics.num_requests == 2
        # second request admitted only once the first released its KV
        assert records[1].admitted_s == pytest.approx(records[0].finish_s)

        roomy = TokenServingEngine(cluster="1x2n", policy="fifo",
                                   max_batch_size=4)
        _, free_records = roomy.run(trace)
        assert free_records[1].admitted_s < records[1].admitted_s


class TestTokenServingEngine:
    def test_every_request_served_once(self):
        trace = synthetic_trace(10, seed=3, mean_prefill=32, mean_decode=48)
        engine = TokenServingEngine(cluster="2x2n", policy="fifo")
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 10
        assert [r.request_id for r in records] == list(range(10))
        assert metrics.generated_tokens == trace.total_decode_tokens

    def test_token_timeline_invariants(self):
        trace = synthetic_trace(8, seed=9, mean_prefill=24, mean_decode=40)
        _, records = TokenServingEngine(cluster="1x2n").run(trace)
        for record in records:
            assert record.admitted_s >= record.arrival_s
            assert record.first_token_s is not None
            assert record.first_token_s > record.admitted_s
            assert record.finish_s >= record.first_token_s
            assert record.ttft_s > 0
            if record.decode_len > 1:
                assert record.tpot_s > 0
            else:
                assert record.tpot_s is None

    def test_ttft_less_than_latency(self):
        trace = synthetic_trace(6, seed=2, mean_decode=64)
        metrics, records = TokenServingEngine(cluster="1x2n").run(trace)
        for record in records:
            if record.decode_len > 1:
                assert record.ttft_s < record.end_to_end_latency_s
        assert len(metrics.ttfts_s) == len(records)
        assert len(metrics.tpots_s) == len(records)

    def test_batched_decode_step_is_sublinear(self):
        """The core batching primitive: stepping 8 requests costs less than 8
        single steps (weight streaming amortizes across the batch)."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        single = system.decode_step_latency_s(256, batch_size=1)
        batched = system.decode_step_latency_s(256, batch_size=8)
        assert batched < 8 * single * 0.8
        assert batched > single

    def test_decode_step_matches_token_report_at_batch_one(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        report = system.decode_token_report(context_len=256)
        assert system.decode_step_latency_ms(256, 1) == pytest.approx(
            report.latency_ms)
        assert system.prefill_latency_s(32) == pytest.approx(
            system.prefill_latency_ms(32) / 1e3)

    def test_continuous_batching_beats_exclusive_on_bursty_trace(self):
        """The PR's acceptance criterion: strictly higher throughput and
        strictly lower mean queueing delay on a bursty trace."""
        trace = bursty_trace(24, seed=3, mean_prefill=48, mean_decode=128,
                             burst_size=8)
        exclusive, _ = ServingSimulator(num_instances=1).run(trace)
        batched, _ = TokenServingEngine(cluster="1x2n", policy="fifo",
                                        max_batch_size=8).run(trace)
        assert (batched.throughput_tokens_per_second
                > exclusive.throughput_tokens_per_second)
        assert batched.mean_queueing_delay_s < exclusive.mean_queueing_delay_s

    def test_compatibility_mode_reproduces_simulator_exactly(self):
        """Property test: batching disabled (batch=1, whole-prompt prefill,
        exact context timing) reproduces the whole-request FIFO simulator."""
        for seed, instances in ((4, 1), (5, 2)):
            trace = synthetic_trace(10, seed=seed, mean_prefill=24,
                                    mean_decode=48)
            old_metrics, old_records = ServingSimulator(
                num_instances=instances).run(trace)
            engine = TokenServingEngine(cluster=f"{instances}x2n",
                                        policy="fifo",
                                        max_batch_size=1,
                                        prefill_chunk_tokens=None,
                                        context_bucket=1)
            new_metrics, new_records = engine.run(trace)
            old_records = sorted(old_records, key=lambda r: r.request_id)
            for old, new in zip(old_records, new_records):
                assert new.admitted_s == pytest.approx(old.start_s, rel=1e-9)
                assert new.finish_s == pytest.approx(old.finish_s, rel=1e-9)
            assert new_metrics.makespan_s == pytest.approx(
                old_metrics.makespan_s, rel=1e-9)
            assert new_metrics.mean_queueing_delay_s == pytest.approx(
                old_metrics.mean_queueing_delay_s, rel=1e-9, abs=1e-12)

    def test_join_and_leave_at_step_boundaries(self):
        """A request arriving mid-flight joins the running batch instead of
        waiting for the first request to finish."""
        trace = _trace([(16, 200), (16, 40)], gap_s=0.2)
        _, records = TokenServingEngine(cluster="1x2n", policy="fifo",
                                        max_batch_size=4).run(trace)
        first, second = records
        # the long request is still running when the short one starts and ends
        assert second.admitted_s < first.finish_s
        assert second.finish_s < first.finish_s

    def test_no_priority_inversion(self):
        """With the priority policy, a high-priority arrival overtakes every
        queued low-priority request (no inversion through the queue)."""
        shapes = [(16, 64)] * 6
        priorities = [0, 0, 0, 0, 0, 5]
        trace = _trace(shapes, gap_s=0.01, priorities=priorities)
        _, records = TokenServingEngine(cluster="1x2n", policy="priority",
                                        max_batch_size=1).run(trace)
        urgent = records[5]
        queued_lows = [r for r in records[1:5]]
        assert all(urgent.first_token_s < low.first_token_s
                   for low in queued_lows)

    def test_priority_preemption_restarts_victim(self):
        trace = _trace([(16, 300), (16, 32)], gap_s=0.1,
                       priorities=[0, 5])
        metrics, records = TokenServingEngine(
            cluster="1x2n", policy="priority", max_batch_size=1).run(trace)
        low, high = records
        assert metrics.preemptions >= 1
        assert low.preemptions >= 1
        # the preempted request finishes after the high-priority one
        assert high.finish_s < low.finish_s

    def test_sjf_reorders_queued_requests(self):
        """A short job queued behind a long one finishes first under SJF."""
        shapes = [(16, 400), (16, 400), (16, 16)]
        trace = _trace(shapes, gap_s=0.01)
        _, fifo_records = TokenServingEngine(
            cluster="1x2n", policy="fifo", max_batch_size=1).run(trace)
        _, sjf_records = TokenServingEngine(
            cluster="1x2n", policy="sjf", max_batch_size=1).run(trace)
        assert sjf_records[2].first_token_s < fifo_records[2].first_token_s
        # under SJF the short job overtakes the second long job
        assert sjf_records[2].finish_s < sjf_records[1].first_token_s

    def test_multi_tenant_priority_orders_ttft(self):
        trace = multi_tenant_trace(24, seed=2)
        _, records = TokenServingEngine(cluster="1x2n", policy="priority",
                                        max_batch_size=2).run(trace)
        mean_ttft = {}
        for record in records:
            mean_ttft.setdefault(record.tenant, []).append(record.ttft_s)
        mean_ttft = {t: sum(v) / len(v) for t, v in mean_ttft.items()}
        assert mean_ttft["interactive"] < mean_ttft["batch"]
        assert mean_ttft["interactive"] < mean_ttft["background"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenServingEngine(cluster="0x2n")
        with pytest.raises(ValueError):
            TokenServingEngine(max_batch_size=0)
        with pytest.raises(ValueError):
            TokenServingEngine(prefill_chunk_tokens=0)
        with pytest.raises(ValueError):
            TokenServingEngine(context_bucket=0)
        with pytest.raises(ValueError):
            TokenServingEngine(policy="lifo")
        with pytest.raises(ValueError):
            TokenServingEngine(preemption_mode="discard")
        with pytest.raises(ValueError):
            TokenServingEngine().run(RequestTrace())
        with pytest.raises(ValueError):
            ServingSimulator(num_instances=0)
        # SLO pins must be finite and non-negative; the error names the
        # bad value (a NaN or negative pin would count zero SLO-good
        # requests without complaint)
        for bad, named in (((float("nan"), 0.05), "nan"),
                           ((-1.0, 0.05), "-1.0"),
                           ((2.0, float("inf")), "inf")):
            with pytest.raises(ValueError, match=named):
                TokenServingEngine(metrics_mode="streaming", slo=bad)
        TokenServingEngine(metrics_mode="streaming", slo=(0.0, 0.0))
        # the same rule guards after-the-fact SLO queries
        metrics, _ = TokenServingEngine().run(_trace([(16, 8)]))
        with pytest.raises(ValueError, match="nan"):
            metrics.slo_attainment(float("nan"), 0.05)
        with pytest.raises(ValueError, match="-0.5"):
            metrics.slo_goodput_rps(1.0, -0.5)

    def test_run_policy_rejects_kv_budget_for_exclusive(self):
        from repro.analysis.serving import policy_comparison, run_policy

        trace = synthetic_trace(4, seed=1, mean_decode=32)
        with pytest.raises(ValueError):
            run_policy(trace, FIFO_EXCLUSIVE, kv_budget_bytes=1 << 30)
        # comparison drops the exclusive row instead of mixing regimes
        rows = policy_comparison(trace, policies=(FIFO_EXCLUSIVE, "fifo"),
                                 kv_budget_bytes=1 << 30)
        assert [row["Policy"] for row in rows] == ["fifo"]

    def test_metrics_slo_goodput(self):
        trace = synthetic_trace(8, seed=6, mean_decode=48)
        metrics, _ = TokenServingEngine(cluster="2x2n").run(trace)
        generous = metrics.slo_goodput_rps(1e9, 1e9)
        assert generous == pytest.approx(metrics.requests_per_second)
        assert metrics.slo_goodput_rps(0.0, 0.0) == 0.0
        assert 0.0 <= metrics.slo_attainment(1.0, 0.05) <= 1.0

    def test_single_token_requests_do_not_bias_tpot(self):
        """Single-token requests have no inter-token gap: their TPOT entry
        is None, the TPOT percentiles skip them instead of absorbing a 0.0,
        and they pass the TPOT SLO vacuously (only via slo_attainment)."""
        trace = _trace([(16, 1), (16, 1), (16, 1), (16, 40)], gap_s=0.05)
        metrics, records = TokenServingEngine(cluster="1x2n", policy="fifo",
                                              max_batch_size=4).run(trace)
        assert [r.tpot_s is None for r in records] == [True, True, True, False]
        assert len(metrics.tpots_s) == len(metrics.ttfts_s) == 4
        assert metrics.tpots_s.count(None) == 3
        # the percentile distribution holds exactly one real sample, so
        # every fraction returns it — not a zero-diluted mixture
        real_tpot = records[3].tpot_s
        assert metrics.tpot_percentile_s(0.0) == pytest.approx(real_tpot)
        assert metrics.tpot_percentile_s(0.5) == pytest.approx(real_tpot)
        # an impossible TPOT SLO fails only the request that has a TPOT
        assert metrics.slo_attainment(1e9, 1e-12) == pytest.approx(3 / 4)
        assert metrics.slo_attainment(1e9, 1e9) == pytest.approx(1.0)

    def test_slo_attainment_rejects_mismatched_lists(self):
        """Hand-built metrics with misaligned per-request lists raise
        instead of silently zip-truncating (which overstated attainment)."""
        from repro.serving.metrics import ServingMetrics

        metrics = ServingMetrics(
            num_requests=3, num_instances=1, num_nodes_per_instance=2,
            makespan_s=1.0, generated_tokens=30,
            ttfts_s=[0.1, 0.2, 9.9], tpots_s=[0.01, 0.02])
        with pytest.raises(ValueError):
            metrics.slo_attainment(1.0, 0.05)
        # empty tpots_s stays valid: TPOT is vacuously met for every request
        metrics.tpots_s = []
        assert metrics.slo_attainment(1.0, 0.05) == pytest.approx(2 / 3)
