"""Fidelity guarantees behind the fast event loop.

The perf work on the engine makes three behavioural claims, each pinned
here so a future optimisation cannot quietly trade correctness for speed:

1. Fast-forward folding (``multistep=True``) changes *when* Python
   executes decode/prefill steps, never what the simulation records:
   per-request records — every timestamp, token count, preemption and
   handoff — and every summary key are bit-identical with folding on or
   off.  The time-weighted step aggregates (busy/decode/prefill/batch
   time) come from each instance's integer step ledger, which a fold
   fills per price window and the per-step engine per step with the same
   integers, so they are exact too.
2. The step-pricing caches shared across runs are pure memoization: a run
   against a warm cache is bit-identical to a cold-cache run, under paged
   KV, mixed prefill and disaggregated prefill/decode configurations
   alike (cache hit == cold compute, to the last bit).
3. A lazy trace is a transport, not a semantic: streaming requests into
   the engine reproduces the materialized run exactly.
"""

import math

import pytest

from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import (
    RequestTrace,
    StreamingTrace,
    bursty_trace,
    synthetic_azure_trace,
)

def _assert_summaries_match(summary_a, summary_b):
    assert summary_a.keys() == summary_b.keys()
    for key, value in summary_a.items():
        assert value == summary_b[key], key


class TestMultistepFolding:
    """Claim 1: folding is invisible in the records."""

    @pytest.mark.parametrize("kwargs", [
        dict(policy="fifo"),
        dict(policy="fifo", prefill_mode="mixed"),
        dict(policy="priority"),  # preemption interleaves with folding
        dict(policy="fifo", prefill_chunk_tokens=16),  # many-chunk prefills
    ], ids=["fifo", "mixed", "priority", "chunked"])
    def test_records_bit_identical_with_folding_on_or_off(self, kwargs):
        trace = bursty_trace(400, seed=11, mean_prefill=48, mean_decode=96)
        runs = {}
        for multistep in (True, False):
            engine = TokenServingEngine(cluster="2x2n", max_batch_size=4,
                                        multistep=multistep, **kwargs)
            runs[multistep] = engine.run(trace)
        metrics_on, records_on = runs[True]
        metrics_off, records_off = runs[False]
        assert records_on == records_off
        assert metrics_on.makespan_s == metrics_off.makespan_s
        assert metrics_on.generated_tokens == metrics_off.generated_tokens
        assert metrics_on.preemptions == metrics_off.preemptions
        assert metrics_on.ttfts_s == metrics_off.ttfts_s
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary())
        assert metrics_on.per_class == metrics_off.per_class

    def test_folding_actually_engages(self):
        """The equivalence above must not pass vacuously: a quiet queue on
        a fifo pool is exactly where folding fires."""
        trace = bursty_trace(200, seed=11, mean_prefill=48, mean_decode=96)
        engine = TokenServingEngine(cluster="2x2n", max_batch_size=4)
        runs = engine._build_runtimes()
        assert all(r.allow_multistep for r in runs)
        # paged pools fold in swap mode (the default) whatever their
        # classes: a swapped victim is pinned to its own instance, and on
        # heterogeneous and role-tagged pools the role-aware horizon
        # (arrivals, handoffs, prefill-role completions) bounds each fold.
        # A recompute-mode victim re-enters the shared queue with no
        # arrival to bound it, so recompute pools stay per-step, as do
        # non-paged heterogeneous pools
        def folds(cluster, **kwargs):
            engine = TokenServingEngine(cluster=cluster, **kwargs)
            flags = {r.allow_multistep for r in engine._build_runtimes()}
            assert len(flags) == 1
            return flags.pop()

        paged = dict(kv_mode="paged", kv_budget_bytes=64 << 20)
        recompute = dict(paged, preemption_mode="recompute")
        for cluster in ("2x2n", "1x1n,1x2n", "1x2n:prefill,2x1n:decode"):
            assert folds(cluster, **paged), cluster
            assert not folds(cluster, **recompute), cluster
        assert not folds("1x1n,1x2n")
        del trace


class TestWarmCacheBitIdentity:
    """Claim 2 (and the issue's satellite): warm cache == cold cache."""

    CONFIGS = {
        "paged": dict(cluster="2x1n", kv_mode="paged",
                      kv_budget_bytes=16 << 20, max_batch_size=4),
        "mixed": dict(cluster="2x2n", prefill_mode="mixed",
                      max_batch_size=4),
        "disaggregated": dict(cluster="1x2n:prefill,2x1n:decode",
                              kv_mode="paged", kv_budget_bytes=64 << 20,
                              max_batch_size=4),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_second_run_on_shared_cache_matches_cold_run(self, name):
        kwargs = self.CONFIGS[name]
        trace = bursty_trace(250, seed=5, mean_prefill=40, mean_decode=64)
        warm_engine = TokenServingEngine(policy="fifo", **kwargs)
        warm_engine.run(trace)  # populate the shared pricing caches
        assert any(any(cache) for cache in warm_engine._caches), \
            "first run should have populated at least one pricing cache"
        metrics_warm, records_warm = warm_engine.run(trace)
        cold_engine = TokenServingEngine(policy="fifo", **kwargs)
        metrics_cold, records_cold = cold_engine.run(trace)
        assert records_warm == records_cold
        _assert_summaries_match(metrics_warm.summary(),
                                metrics_cold.summary())

    def test_disaggregated_config_exercises_handoffs(self):
        """Guard the parametrization above against going vacuous: the
        disaggregated config must actually hand KV off."""
        trace = bursty_trace(250, seed=5, mean_prefill=40, mean_decode=64)
        engine = TokenServingEngine(policy="fifo",
                                    **self.CONFIGS["disaggregated"])
        metrics, _ = engine.run(trace)
        assert metrics.handoff_count > 0


class TestLazyTraceEquivalence:
    """Claim 3: streaming a trace changes memory, not results."""

    def test_streaming_trace_matches_materialized_run(self):
        lazy = synthetic_azure_trace(2_000, seed=3, mean_rate_per_s=8.0,
                                     diurnal_amplitude=0.3)
        assert isinstance(lazy, StreamingTrace)
        materialized = RequestTrace(requests=list(lazy))
        results = {}
        for label, trace in (("lazy", lazy), ("materialized", materialized)):
            engine = TokenServingEngine(cluster="4x2n", max_batch_size=8)
            results[label] = engine.run(trace)
        metrics_lazy, records_lazy = results["lazy"]
        metrics_mat, records_mat = results["materialized"]
        assert records_lazy == records_mat
        _assert_summaries_match(metrics_lazy.summary(), metrics_mat.summary())

    def test_azure_trace_is_replayable_and_sorted(self):
        trace = synthetic_azure_trace(1_000, seed=9, mean_rate_per_s=20.0)
        first = list(trace)
        second = list(trace)  # fresh iterator, identical draw
        assert first == second
        assert len(trace) == 1_000
        arrivals = [r.arrival_s for r in first]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in first] == list(range(1_000))
        assert all(math.isfinite(a) and a >= 0.0 for a in arrivals)

    def test_out_of_order_stream_is_rejected(self):
        shuffled = bursty_trace(20, seed=2).requests[::-1]
        stream = StreamingTrace(factory=lambda: iter(shuffled), length=20)
        engine = TokenServingEngine(cluster="1x2n")
        with pytest.raises(ValueError, match="sorted by arrival"):
            engine.run(stream)


class TestIdleGapFolding:
    """The event-loop round-2 extension: on a quiet homogeneous pool,
    folding may run an instance past the next arrival as long as enough
    *other* instances sit idle to absorb the interleaving arrivals
    instantly.  The claim is the usual one — invisible in the records —
    plus a non-vacuity check that the extension actually removes events.
    """

    TRACE_KW = dict(seed=7, arrival_rate_per_s=0.5, mean_prefill=48,
                    mean_decode=96)

    def _run(self, multistep, monkeypatch=None, counter=None):
        from repro.serving import engine as engine_module
        if monkeypatch is not None:
            real_queue = engine_module.BucketedEventQueue

            class CountingQueue(real_queue):
                def push(self, event):
                    counter[0] += 1
                    super().push(event)

            monkeypatch.setattr(engine_module, "BucketedEventQueue",
                                CountingQueue)
        from repro.workloads.traces import synthetic_trace
        trace = synthetic_trace(400, **self.TRACE_KW)
        engine = TokenServingEngine(cluster="4x2n", max_batch_size=4,
                                    policy="fifo", multistep=multistep)
        return engine.run(trace)

    def test_idle_pool_records_bit_identical_with_folding(self):
        metrics_on, records_on = self._run(True)
        metrics_off, records_off = self._run(False)
        assert records_on == records_off
        assert metrics_on.makespan_s == metrics_off.makespan_s
        assert metrics_on.ttfts_s == metrics_off.ttfts_s
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary())

    def test_extension_actually_removes_events(self, monkeypatch):
        """Folding across idle-cluster gaps must post measurably fewer
        events than the per-step loop on the same quiet workload — the
        equivalence above must not pass because nothing folded."""
        counts = {}
        for multistep in (True, False):
            counter = [0]
            self._run(multistep, monkeypatch, counter)
            counts[multistep] = counter[0]
            monkeypatch.undo()
        assert counts[True] < 0.85 * counts[False], counts


class TestPagedFolding:
    """Paged swap-mode pools fold too: the records equal the per-step run
    (the generated-config differential check lives in
    ``tests/test_paged_fold_fuzz.py``), and folding must actually remove
    events on a quiet paged trace, or that equality passes vacuously."""

    @staticmethod
    def _count_events(monkeypatch, multistep):
        from repro.serving import engine as engine_module
        from repro.workloads.traces import synthetic_trace
        real_queue = engine_module.BucketedEventQueue
        counter = [0]

        class CountingQueue(real_queue):
            def push(self, event):
                counter[0] += 1
                super().push(event)

        monkeypatch.setattr(engine_module, "BucketedEventQueue",
                            CountingQueue)
        trace = synthetic_trace(200, seed=7, arrival_rate_per_s=0.5,
                                mean_prefill=48, mean_decode=96)
        engine = TokenServingEngine(cluster="4x2n", max_batch_size=4,
                                    policy="fifo", kv_mode="paged",
                                    multistep=multistep)
        result = engine.run(trace)
        monkeypatch.undo()
        return counter[0], result

    def test_paged_folding_removes_events(self, monkeypatch):
        folded, (metrics_on, records_on) = self._count_events(
            monkeypatch, True)
        per_step, (metrics_off, records_off) = self._count_events(
            monkeypatch, False)
        assert records_on == records_off
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary())
        assert folded * 5 <= per_step, (folded, per_step)
