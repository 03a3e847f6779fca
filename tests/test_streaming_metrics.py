"""Streaming metrics mode: bounded-memory aggregates vs full fidelity.

``metrics_mode="streaming"`` trades per-request records for O(1)-memory
incremental aggregates.  The contract pinned here: every *counter* the two
modes share (requests, tokens, preemptions, swaps, handoffs, makespan) is
exactly equal, every *percentile* is within the estimator's construction
bound (0.5% relative by default; the issue's acceptance bar is 1%), and
joint SLO attainment against the pair pinned at run time matches the full
mode's after-the-fact answer exactly.
"""

import numpy as np
import pytest

from repro.serving.engine import TokenServingEngine
from repro.serving.metrics import StreamingQuantile
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_trace,
    multi_turn_trace,
)

TTFT_SLO_S = 2.0
TPOT_SLO_S = 0.05


class TestStreamingQuantile:
    def test_percentiles_within_construction_bound(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-1.0, sigma=1.2, size=20_000)
        q = StreamingQuantile(relative_error=0.005)
        for v in samples:
            q.add(float(v))
        for p in (0.10, 0.50, 0.90, 0.99, 0.999):
            exact = float(np.quantile(samples, p, method="lower"))
            assert q.percentile(p) == pytest.approx(exact, rel=0.005)

    def test_exact_moments_and_extremes(self):
        values = [0.5, 1.5, 0.25, 3.0]
        q = StreamingQuantile()
        for v in values:
            q.add(v)
        assert q.count == 4
        assert q.total == sum(values)
        assert q.min == 0.25
        assert q.max == 3.0

    def test_zeros_are_first_class(self):
        """Queueing delays on an idle pool are exactly 0.0 — the estimator
        must rank them below every positive sample, not drop them."""
        q = StreamingQuantile()
        for v in (0.0, 0.0, 0.0, 1.0, 1.0):
            q.add(v)
        assert q.percentile(0.5) == 0.0
        assert q.percentile(0.9) == pytest.approx(1.0, rel=0.01)
        assert q.percentile(1.0) == 1.0  # exact max is tracked
        assert q.min == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StreamingQuantile(relative_error=0.0)
        with pytest.raises(ValueError):
            StreamingQuantile(relative_error=1.0)
        with pytest.raises(ValueError):
            StreamingQuantile().add(-0.1)
        with pytest.raises(ValueError):
            StreamingQuantile().percentile(1.5)


def _run_both_modes(trace, **kwargs):
    full_engine = TokenServingEngine(metrics_mode="full", **kwargs)
    full_metrics, full_records = full_engine.run(trace)
    stream_engine = TokenServingEngine(
        metrics_mode="streaming", slo=(TTFT_SLO_S, TPOT_SLO_S), **kwargs)
    stream_metrics, stream_records = stream_engine.run(trace)
    assert stream_records == []
    assert len(full_records) == len(trace)
    return full_metrics, stream_metrics


def _assert_counters_exact(full, stream):
    assert stream.num_requests == full.num_requests
    assert stream.generated_tokens == full.generated_tokens
    assert stream.prefill_tokens_processed == full.prefill_tokens_processed
    assert stream.preemptions == full.preemptions
    assert stream.swap_out_count == full.swap_out_count
    assert stream.swap_in_count == full.swap_in_count
    assert stream.handoff_count == full.handoff_count
    assert stream.makespan_s == full.makespan_s


class TestStreamingVsFullParity:
    def test_50k_bursty_trace_percentiles_within_one_percent(self):
        """The issue's acceptance workload: 50k bursty requests."""
        trace = bursty_trace(50_000, seed=4, mean_prefill=64,
                             mean_decode=48, burst_rate_per_s=40.0)
        full, stream = _run_both_modes(trace, cluster="4x2n",
                                       max_batch_size=8)
        _assert_counters_exact(full, stream)
        for p in (0.50, 0.90, 0.99):
            assert stream.ttft_percentile_s(p) == pytest.approx(
                full.ttft_percentile_s(p), rel=0.01)
            assert stream.tpot_percentile_s(p) == pytest.approx(
                full.tpot_percentile_s(p), rel=0.01)
            assert stream.latency_percentile_s(p) == pytest.approx(
                full.latency_percentile_s(p), rel=0.01)
        # means come from exactly tracked sums; only summation order differs
        assert stream.mean_ttft_s == pytest.approx(full.mean_ttft_s,
                                                   rel=1e-9)
        assert stream.mean_queueing_delay_s == pytest.approx(
            full.mean_queueing_delay_s, rel=1e-9)
        # joint SLO attainment: per-request pair counting is identical in
        # both modes, so the pinned pair answers exactly
        assert stream.slo_attainment(TTFT_SLO_S, TPOT_SLO_S) \
            == full.slo_attainment(TTFT_SLO_S, TPOT_SLO_S)

    def test_streaming_counts_swaps_and_handoffs_exactly(self):
        """Counters that only move under pressure: run a disaggregated
        paged cluster where handoffs (and possibly swaps) actually occur,
        so the equality is not 0 == 0."""
        trace = bursty_trace(400, seed=6, mean_prefill=48, mean_decode=64)
        full, stream = _run_both_modes(
            trace, cluster="1x2n:prefill,2x1n:decode", kv_mode="paged",
            kv_budget_bytes=64 << 20, max_batch_size=4)
        _assert_counters_exact(full, stream)
        assert full.handoff_count > 0

    def test_multiturn_prefix_sharing_parity(self):
        """Multi-turn trace on a sharing-enabled paged cluster: the new
        prefix counters must be exactly equal across modes (they sum the
        same per-manager lifetime counters), and the latency quantiles
        stay within the 1% acceptance bound."""
        trace = multi_turn_trace(600, seed=13, session_rate_per_s=1.5,
                                 think_time_s=1.0)
        full, stream = _run_both_modes(
            trace, cluster="2x1n,1x2n", policy="fifo", max_batch_size=4,
            kv_mode="paged", router="prefix_aware", kv_prefix_sharing=True)
        _assert_counters_exact(full, stream)
        assert full.prefix_hits > 0  # the parity is not 0 == 0
        assert stream.kv_prefix_sharing == full.kv_prefix_sharing is True
        assert stream.prefix_hits == full.prefix_hits
        assert stream.prefill_tokens_saved == full.prefill_tokens_saved
        assert stream.cow_copies == full.cow_copies
        assert stream.mean_kv_shared_fraction == pytest.approx(
            full.mean_kv_shared_fraction, rel=1e-9)
        for p in (0.50, 0.90, 0.99):
            assert stream.ttft_percentile_s(p) == pytest.approx(
                full.ttft_percentile_s(p), rel=0.01)
            assert stream.latency_percentile_s(p) == pytest.approx(
                full.latency_percentile_s(p), rel=0.01)
        # per-class prefix breakdowns stream identically too
        full_by_class = {c.label: (c.prefix_hits, c.prefill_tokens_saved)
                         for c in full.per_class}
        stream_by_class = {c.label: (c.prefix_hits, c.prefill_tokens_saved)
                           for c in stream.per_class}
        assert stream_by_class == full_by_class

    def test_streaming_counts_preemptions_exactly(self):
        base = bursty_trace(300, seed=8, mean_prefill=40, mean_decode=80)
        trace = RequestTrace(requests=[
            Request(request_id=r.request_id, arrival_s=r.arrival_s,
                    scenario=r.scenario, priority=i % 3)
            for i, r in enumerate(base.requests)])
        full, stream = _run_both_modes(trace, cluster="1x2n",
                                       policy="priority", max_batch_size=2)
        _assert_counters_exact(full, stream)
        assert full.preemptions > 0

    def test_unpinned_slo_query_raises(self):
        trace = bursty_trace(50, seed=1)
        engine = TokenServingEngine(cluster="1x2n",
                                    metrics_mode="streaming")
        metrics, _ = engine.run(trace)
        with pytest.raises(ValueError, match="pin"):
            metrics.slo_attainment(TTFT_SLO_S, TPOT_SLO_S)

    def test_mismatched_slo_query_raises(self):
        trace = bursty_trace(50, seed=1)
        engine = TokenServingEngine(cluster="1x2n",
                                    metrics_mode="streaming",
                                    slo=(TTFT_SLO_S, TPOT_SLO_S))
        metrics, _ = engine.run(trace)
        with pytest.raises(ValueError, match="pinned"):
            metrics.slo_attainment(TTFT_SLO_S * 2, TPOT_SLO_S)

    def test_slo_pin_requires_streaming_mode(self):
        with pytest.raises(ValueError, match="streaming"):
            TokenServingEngine(cluster="1x2n",
                               slo=(TTFT_SLO_S, TPOT_SLO_S))


class TestMergeAcrossShards:
    """Satellite of the parallel-sweep issue: streaming aggregates from
    independent shards of a workload must merge into one estimator that
    answers like a single stream over all samples."""

    def test_quantile_merge_is_lossless_vs_single_stream(self):
        """The histogram merge adds bucket counts, so a merged estimator
        is *exactly* the single-stream estimator over the concatenated
        samples — and both stay within the 1% acceptance bound of the
        true order statistic."""
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-1.0, sigma=1.3, size=24_000)
        single = StreamingQuantile()
        for v in samples:
            single.add(float(v))
        shards = [StreamingQuantile() for _ in range(5)]
        for i, v in enumerate(samples):
            shards[i % 5].add(float(v))
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.count == single.count == len(samples)
        assert merged.total == pytest.approx(single.total, rel=1e-12)
        assert merged.min == single.min
        assert merged.max == single.max
        for p in (0.10, 0.50, 0.90, 0.99, 0.999):
            assert merged.percentile(p) == single.percentile(p)
            exact = float(np.quantile(samples, p, method="lower"))
            assert merged.percentile(p) == pytest.approx(exact, rel=0.01)

    def test_quantile_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            StreamingQuantile(relative_error=0.005).merge(
                StreamingQuantile(relative_error=0.01))

    def test_metrics_merge_matches_pooled_full_records(self):
        """Run three independent trace shards through the same config in
        both modes; the merged streaming aggregate must answer within 1%
        of the percentile over the *pooled* full-mode records, and every
        shared counter must be an exact sum."""
        from repro.serving.metrics import merge_streaming_metrics

        shards = [bursty_trace(2_000, seed=s, mean_prefill=48,
                               mean_decode=64) for s in (21, 22, 23)]
        kwargs = dict(cluster="2x2n", max_batch_size=4)
        parts, pooled_ttfts, pooled_latencies = [], [], []
        full_counts = {"num_requests": 0, "generated_tokens": 0,
                       "preemptions": 0}
        for shard in shards:
            full, stream = _run_both_modes(shard, **kwargs)
            parts.append(stream)
            full_counts["num_requests"] += full.num_requests
            full_counts["generated_tokens"] += full.generated_tokens
            full_counts["preemptions"] += full.preemptions
        for shard in shards:
            engine = TokenServingEngine(metrics_mode="full", **kwargs)
            _, records = engine.run(shard)
            for r in records:
                if r.first_token_s is not None:
                    pooled_ttfts.append(r.first_token_s - r.arrival_s)
                pooled_latencies.append(r.finish_s - r.arrival_s)

        merged = merge_streaming_metrics(parts)
        assert merged.num_requests == full_counts["num_requests"]
        assert merged.generated_tokens == full_counts["generated_tokens"]
        assert merged.preemptions == full_counts["preemptions"]
        assert merged.makespan_s == max(p.makespan_s for p in parts)
        for p in (0.50, 0.90, 0.99):
            assert merged.ttft_percentile_s(p) == pytest.approx(
                float(np.quantile(pooled_ttfts, p, method="lower")),
                rel=0.01)
            assert merged.latency_percentile_s(p) == pytest.approx(
                float(np.quantile(pooled_latencies, p, method="lower")),
                rel=0.01)

    def test_merge_rejects_mixed_configurations(self):
        from repro.serving.metrics import merge_streaming_metrics

        trace = bursty_trace(60, seed=2)
        engines = [
            TokenServingEngine(cluster=f"{n}x2n", metrics_mode="streaming",
                               slo=(TTFT_SLO_S, TPOT_SLO_S))
            for n in (1, 2)
        ]
        parts = [engine.run(trace)[0] for engine in engines]
        with pytest.raises(ValueError):
            merge_streaming_metrics(parts)

    def test_merge_rejects_full_mode_parts(self):
        from repro.serving.metrics import merge_streaming_metrics

        trace = bursty_trace(60, seed=2)
        metrics, _ = TokenServingEngine(cluster="1x2n").run(trace)
        with pytest.raises(ValueError):
            merge_streaming_metrics([metrics])


def _streaming_part(*, makespan_s, num_instances=2, **extra):
    """A hand-built streaming-mode part with empty latency streams.

    The merge audit cares about the *recombination arithmetic* (weighted
    means, exact unit conversions), which an engine run would obscure
    behind simulated traffic; synthetic parts make the expected numbers
    exact."""
    from repro.serving.metrics import ServingMetrics, StreamingQuantile

    streams = {name: StreamingQuantile() for name in
               ("queueing_delay", "latency", "service_time", "ttft", "tpot")}
    return ServingMetrics(
        num_requests=extra.pop("num_requests", 0),
        num_instances=num_instances,
        num_nodes_per_instance=1,
        makespan_s=makespan_s,
        generated_tokens=extra.pop("generated_tokens", 0),
        metrics_mode="streaming",
        streams=streams,
        **extra,
    )


class TestMergeWeightingAndUnitsAudit:
    """Regression pins from the dimensional audit of the merge path.

    ``merge_streaming_metrics`` recombines every time-weighted mean as
    "accumulated quantity over accumulated time" and ``summary()``
    converts bytes to MiB by an exact power of two.  These tests pin
    both against the classic failure modes: mean-of-means (wrong unless
    all parts weigh the same) and decimal-vs-binary megabyte drift.
    """

    def test_merged_class_ttft_is_weighted_recompute_not_mean_of_means(self):
        from repro.serving.metrics import (
            InstanceClassMetrics,
            merge_streaming_metrics,
        )

        # Deliberately lopsided shards: one TTFT sample of 10 s vs nine
        # samples averaging 1 s.  The pooled mean is 19/10 = 1.9 s; a
        # mean-of-means would report (10 + 1) / 2 = 5.5 s.
        part_a = _streaming_part(
            makespan_s=10.0,
            per_class=[InstanceClassMetrics(
                label="pool", num_instances=2, num_nodes=1,
                makespan_s=10.0, ttft_count=1, ttft_sum_s=10.0)])
        part_b = _streaming_part(
            makespan_s=10.0,
            per_class=[InstanceClassMetrics(
                label="pool", num_instances=2, num_nodes=1,
                makespan_s=10.0, ttft_count=9, ttft_sum_s=9.0)])

        merged = merge_streaming_metrics([part_a, part_b])
        (pool,) = merged.per_class
        assert pool.ttft_count == 10
        assert pool.ttft_sum_s == pytest.approx(19.0)
        assert pool.mean_ttft_s == pytest.approx(1.9)
        assert pool.mean_ttft_s != pytest.approx(5.5)  # mean-of-means

    def test_merged_time_weighted_means_recombine_by_pool_time(self):
        from repro.serving.metrics import merge_streaming_metrics

        # Pool times 20 and 10 instance-seconds; busy times 10 and 5 s.
        part_a = _streaming_part(
            makespan_s=10.0, busy_time_s=10.0, mean_running_batch=4.0,
            mean_kv_occupancy=0.5, mean_kv_fragmentation=0.2)
        part_b = _streaming_part(
            makespan_s=5.0, busy_time_s=5.0, mean_running_batch=1.0,
            mean_kv_occupancy=0.2, mean_kv_fragmentation=0.5)

        merged = merge_streaming_metrics([part_a, part_b])
        assert merged.makespan_s == 10.0  # max, not sum
        assert merged.busy_time_s == pytest.approx(15.0)
        # (4.0 * 20 + 1.0 * 10) / 30, not the naive (4.0 + 1.0) / 2
        assert merged.mean_running_batch == pytest.approx(3.0)
        assert merged.mean_running_batch != pytest.approx(2.5)
        # (0.5 * 20 + 0.2 * 10) / 30
        assert merged.mean_kv_occupancy == pytest.approx(0.4)
        # busy-normalized: (0.2 * 10 + 0.5 * 5) / 15
        assert merged.mean_kv_fragmentation == pytest.approx(0.3)

    def test_summary_swapped_mib_is_exact_mebibytes(self):
        from repro.serving.metrics import ServingMetrics

        metrics = ServingMetrics(
            num_requests=0, num_instances=1, num_nodes_per_instance=1,
            makespan_s=1.0, generated_tokens=0, kv_mode="paged",
            swapped_bytes=5 * 2**20 + 2**19)
        # Binary mebibytes (2**20), not decimal megabytes (1e6): 5.5 MiB
        # exactly, with no floating-point slack.
        assert metrics.summary()["swapped_mib"] == 5.5

    def test_merge_preserves_exact_byte_counters(self):
        from repro.serving.metrics import merge_streaming_metrics

        part_a = _streaming_part(makespan_s=1.0, kv_mode="paged",
                                 swapped_bytes=3 * 2**20)
        part_b = _streaming_part(makespan_s=1.0, kv_mode="paged",
                                 swapped_bytes=2**19)
        merged = merge_streaming_metrics([part_a, part_b])
        assert merged.swapped_bytes == 3 * 2**20 + 2**19
        assert merged.summary()["swapped_mib"] == 3.5
