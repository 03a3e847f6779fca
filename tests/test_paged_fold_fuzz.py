"""Differential check of paged fast-forward folding over generated configs.

A paged pool in ``preemption_mode="swap"`` folds inert decode runs (and
exclusive chunked prefills) into one event each, on single-class pools and
on heterogeneous and disaggregated (role-tagged) pools alike.  The claim is
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
Heterogeneous pools add the cluster shape (prefill/decode roles, an
optional role-``both`` class, or role-less mixed node counts) and every
router.  Two hazards are drawn on purpose.  A folded event takes its
sequence number when the fold starts, not at its last boundary, so "twin"
traces repeat every request at the same instant: equal shapes then run in
lockstep on different instances and finish steps at equal timestamps.  And
tight budgets without swap priority put swapped victims in the shared
queue, where a router-ordered pump could leave an idle instance behind a
head it can take (its own victim, or any head that reaches the front after
the instance was passed over).  The shrunk counterexamples are kept below
as named regression tests.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.memory.paged_kv import PagedKVManager
from repro.core.multi_node import LoopLynxSystem
from repro.serving.cluster import ROUTER_NAMES
from repro.serving.engine import TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
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


def _twins(trace: RequestTrace, copies: int) -> RequestTrace:
    """Every request ``copies`` times at the same instant: equal shapes
    admitted together run in lockstep, so steps complete at equal times."""
    requests = []
    for request in trace:
        for _ in range(copies):
            requests.append(dataclasses.replace(request,
                                                request_id=len(requests)))
    return RequestTrace(requests=requests)


@st.composite
def paged_configs(draw):
    nodes = draw(st.sampled_from((1, 2)))
    family = draw(st.sampled_from(("bursty", "azure", "multi_turn")))
    trace = _trace(family, draw(st.integers(0, 10_000)),
                   draw(st.integers(12, 40)))
    if draw(st.booleans()):
        trace = _twins(trace, 2)
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


@st.composite
def heterogeneous_paged_configs(draw):
    family = draw(st.sampled_from(("bursty", "azure", "multi_turn")))
    trace = _trace(family, draw(st.integers(0, 10_000)),
                   draw(st.integers(8, 24)))
    if draw(st.booleans()):
        trace = _twins(trace, draw(st.integers(2, 3)))
    node_choice = st.sampled_from((1, 2))
    if draw(st.booleans()):
        classes = [
            f"{draw(st.integers(1, 2))}x{draw(node_choice)}n:prefill",
            f"{draw(st.integers(1, 3))}x{draw(node_choice)}n:decode",
        ]
        if draw(st.booleans()):
            classes.append(f"1x{draw(node_choice)}n:both")
    else:
        small = draw(st.integers(1, 3))
        classes = [f"{small}x1n", f"{draw(st.integers(1, 2))}x2n"]
    cluster = ",".join(classes)
    block_size = 16
    worst = max(-(-min(r.prefill_len + r.decode_len, 512) // block_size)
                for r in trace)
    pool_blocks = worst + draw(st.integers(0, 3 * worst))
    kwargs = dict(
        cluster=cluster,
        router=draw(st.sampled_from(ROUTER_NAMES)),
        kv_mode="paged",
        kv_block_size=block_size,
        # every class holds at least ``pool_blocks`` (1-node blocks are
        # the largest per node)
        kv_budget_bytes=pool_blocks * _BLOCK_BYTES[1],
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


def _assert_folding_matches_reference(kwargs, trace):
    metrics_on, records_on = _run(kwargs, trace, multistep=True)
    metrics_off, records_off = _run(kwargs, trace, multistep=False,
                                    sanitize=True)
    assert records_on == records_off
    summary_on, summary_off = metrics_on.summary(), metrics_off.summary()
    assert summary_on.keys() == summary_off.keys()
    for key, value in summary_on.items():
        assert value == summary_off[key], key
    assert metrics_on.per_class == metrics_off.per_class


_FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


@_FUZZ
@given(paged_configs())
def test_paged_folding_matches_per_step_reference(config):
    _assert_folding_matches_reference(*config)


@_FUZZ
@given(heterogeneous_paged_configs())
def test_heterogeneous_folding_matches_per_step_reference(config):
    _assert_folding_matches_reference(*config)


def _shapes(*shapes) -> RequestTrace:
    """A trace from ``(arrival_s, prefill_len, decode_len)`` triples."""
    return RequestTrace(requests=[
        Request(request_id=i, arrival_s=arrival,
                scenario=Scenario(prefill, decode))
        for i, (arrival, prefill, decode) in enumerate(shapes)])


@pytest.mark.parametrize("cluster", ["3x1n", "2x1n,1x2n"])
def test_lockstep_instances_keep_their_per_step_order(cluster):
    """Each request arrives twice at one instant, so two 1-node instances
    run equal shapes in lockstep and finish steps at equal timestamps;
    per step, instance 0 completes first at every shared boundary.
    Instance 1's fold started at the arrival (instance 0's first step did
    not fold: its twin still waited), so the folded event took the earlier
    sequence number and, at the shared boundary where a request waited,
    instance 1 admitted it instead of instance 0.  A fold now ends where
    another instance's pending step completes."""
    trace = _twins(_shapes(
        (0.05365145131862695, 72, 113), (0.3224232949490333, 75, 120),
        (0.4124131492318227, 64, 115), (0.4138988213299365, 48, 126),
        (0.42542892089739814, 44, 75), (0.4647416968492232, 48, 82),
        (0.4878598969894044, 42, 96), (0.5435856145213932, 91, 158)), 2)
    _assert_folding_matches_reference(dict(
        cluster=cluster, router="round_robin", kv_mode="paged",
        kv_budget_bytes=12 << 20, max_batch_size=1, policy="fifo",
        prefill_chunk_tokens=16), trace)


def test_idle_instance_is_reoffered_the_head_it_can_take():
    """Class-affinity routing offers the 1-node instance first; it refuses
    a head that prefers the 2-node class, the 2-node instance admits it,
    and the next head — one the 1-node instance takes — reached the front
    after it had been passed over.  The 2-node instance's next boundary
    used to wake it; folding skips that boundary, so the pump repeats its
    idle pass while it admits."""
    trace = _shapes(
        (0.03399659519844548, 44, 132), (0.03411006153250689, 36, 115),
        (0.06778920916586849, 77, 67), (0.37067686318799714, 35, 98),
        (0.48413159640134257, 43, 51), (0.5265782478785694, 36, 81),
        (0.5419338048599868, 80, 90), (0.5487003454708472, 34, 114))
    _assert_folding_matches_reference(dict(
        cluster="1x1n,1x2n", router="class_affinity", kv_mode="paged",
        kv_budget_bytes=8650752, max_batch_size=1, policy="fifo",
        prefill_chunk_tokens=16), trace)


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
