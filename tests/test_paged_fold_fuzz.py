"""Differential check of paged fast-forward folding over generated configs.

A single-class paged pool in ``preemption_mode="swap"`` folds inert decode
runs (and exclusive chunked prefills) into one event each.  The claim is
that nothing observable changes: per-request records and *every* summary
key, including the KV occupancy, fragmentation and shared-fraction
aggregates and the step-time aggregates, must equal the one-event-per-step
reference run with the sanitizer on.  Paged folds replay each step's
statistics add by add, so unlike non-paged folds they need no
float-rounding allowance.

The configurations are drawn by ``hypothesis`` over the axes the fold
interacts with: cluster size, KV budget (down to one worst-case request
per pool, so growth evictions and swaps happen), batch size, scheduler,
prefill mode and chunk, prefix sharing, swap priority and the trace family.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.memory.paged_kv import PagedKVManager
from repro.core.multi_node import LoopLynxSystem
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import (
    RequestTrace,
    bursty_trace,
    multi_turn_trace,
    synthetic_azure_trace,
)

_BLOCK_BYTES = {
    nodes: PagedKVManager.for_system(
        LoopLynxSystem.paper_configuration(num_nodes=nodes)
    ).bytes_per_block_per_node
    for nodes in (1, 2)
}


def _trace(family: str, seed: int, n: int) -> RequestTrace:
    if family == "bursty":
        return bursty_trace(n, seed=seed, mean_prefill=48, mean_decode=96,
                            max_seq_len=512)
    if family == "azure":
        return RequestTrace(requests=list(synthetic_azure_trace(
            n, seed=seed, mean_rate_per_s=4.0, max_seq_len=512)))
    return multi_turn_trace(n, seed=seed, session_rate_per_s=0.5,
                            max_seq_len=512)


@st.composite
def paged_configs(draw):
    nodes = draw(st.sampled_from((1, 2)))
    family = draw(st.sampled_from(("bursty", "azure", "multi_turn")))
    trace = _trace(family, draw(st.integers(0, 10_000)),
                   draw(st.integers(12, 40)))
    block_size = 16
    # the pool must hold the largest request alone; scale up from there
    worst = max(-(-min(r.prefill_len + r.decode_len, 512) // block_size)
                for r in trace)
    pool_blocks = worst + draw(st.integers(0, 3 * worst))
    kwargs = dict(
        cluster=f"{draw(st.integers(1, 4))}x{nodes}n",
        kv_mode="paged",
        kv_block_size=block_size,
        kv_budget_bytes=pool_blocks * _BLOCK_BYTES[nodes],
        max_batch_size=draw(st.integers(1, 8)),
        policy=draw(st.sampled_from(("fifo", "priority", "sjf"))),
        prefill_mode=draw(st.sampled_from(("exclusive", "mixed"))),
        prefill_chunk_tokens=draw(st.sampled_from((16, 32, 64, None))),
        kv_prefix_sharing=draw(st.booleans()),
        swap_priority=draw(st.booleans()),
    )
    return kwargs, trace


def _run(kwargs, trace, **overrides):
    engine = TokenServingEngine(**{**kwargs, **overrides})
    return engine.run(trace)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(paged_configs())
def test_paged_folding_matches_per_step_reference(config):
    kwargs, trace = config
    metrics_on, records_on = _run(kwargs, trace, multistep=True)
    metrics_off, records_off = _run(kwargs, trace, multistep=False,
                                    sanitize=True)
    assert records_on == records_off
    summary_on, summary_off = metrics_on.summary(), metrics_off.summary()
    assert summary_on.keys() == summary_off.keys()
    for key, value in summary_on.items():
        assert value == summary_off[key], key
    for class_on, class_off in zip(metrics_on.per_class,
                                   metrics_off.per_class):
        assert class_on == class_off


@pytest.mark.parametrize("policy", ["priority", "fifo"])
def test_prefix_match_admission_gate_regression(policy):
    """The admission gate must price the allocation ``admit`` actually
    makes: the prefix match moves a mixed first chunk's target and can
    resurrect reclaimable blocks.  This configuration used to crash with
    ``admission gate admitted an unallocatable request``."""
    trace = multi_turn_trace(100, seed=62, session_rate_per_s=0.5)
    engine = TokenServingEngine(
        cluster="3x1n", kv_mode="paged", max_batch_size=8, policy=policy,
        prefill_mode="mixed", prefill_chunk_tokens=64,
        kv_budget_bytes=24 << 20, kv_prefix_sharing=True)
    metrics, records = engine.run(trace)
    assert len(records) == 100
    assert metrics.prefix_hits > 0


def test_idle_instance_is_offered_its_own_swapped_victim(monkeypatch):
    """After every event no idle instance may sit behind its own swapped
    victim at the head of the queue.  A single id-order pass used to leave
    one there: instance 0 refused a head pinned to instance 2, instance 2
    then admitted it, and instance 0's victim reached the head only after
    instance 0 had been passed over.  A fold on a fourth instance would
    skip the boundary that un-strands it, so the pump repeats the pass."""
    from repro import sanitize

    stranded = []
    real_after_event = sanitize.EngineSanitizer.after_event

    def after_event(self, now, event, *, scheduler, runtimes, **kwargs):
        head = scheduler.peek()
        if head is not None:
            stranded.extend((now, r.instance_id) for r in runtimes
                            if not r.busy and head.swapped_on == r.instance_id)
        real_after_event(self, now, event, scheduler=scheduler,
                         runtimes=runtimes, **kwargs)

    monkeypatch.setattr(sanitize.EngineSanitizer, "after_event", after_event)
    trace = bursty_trace(166, seed=114265, mean_prefill=48, mean_decode=96,
                         max_seq_len=512)
    engine = TokenServingEngine(
        cluster="3x1n", kv_mode="paged", kv_budget_bytes=43 * _BLOCK_BYTES[1],
        max_batch_size=5, policy="priority", prefill_mode="mixed",
        multistep=False, sanitize=True)
    metrics, _ = engine.run(trace)
    assert metrics.swap_out_count > 0
    assert stranded == []
