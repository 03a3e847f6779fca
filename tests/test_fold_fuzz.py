"""Differential check of non-paged fast paths over generated configs.

Pools without paged KV take the engine's fastest paths: single-class pools
complete steps through the inlined ``fast_completer``, fold inert decode
runs and exclusive chunked prefills into one event each, and extend a fold
across idle-cluster gaps (``_fold_horizon``) when no KV gate exists;
heterogeneous pools run one event per step under every router, so they
exercise each step's own ledger tally.  The claim is the one
``tests/test_paged_fold_fuzz.py`` pins for paged pools: nothing observable
changes.  Per-request records, *every* summary key (the busy, batch and
step-kind time aggregates included: each instance's integer step ledger
makes a folded run's tallies equal the per-step run's) and the per-class
metrics must equal a reference run with one event per step and the
sanitizer on.

``hypothesis`` draws the axes the fast paths interact with: pool shape and
size, batch size, scheduler, prefill mode and chunk, context bucket,
reservation-gated KV or none, the trace family (with "twin" traces that
run equal shapes in lockstep), full or streaming metrics, and a cold or a
warm run of the engine's shared pricing memos (the second run of one
engine reuses the memo tables the first filled).
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serving.cluster import ROUTER_NAMES
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import (
    RequestTrace,
    bursty_trace,
    multi_turn_trace,
    synthetic_azure_trace,
)


def _trace(family: str, seed: int, n: int) -> RequestTrace:
    if family == "bursty":
        return bursty_trace(n, seed=seed, mean_prefill=48, mean_decode=96,
                            max_seq_len=512)
    if family == "azure":
        return RequestTrace(requests=list(synthetic_azure_trace(
            n, seed=seed, mean_rate_per_s=4.0, max_seq_len=512)))
    return multi_turn_trace(n, seed=seed, session_rate_per_s=0.5,
                            max_seq_len=512)


def _twins(trace: RequestTrace) -> RequestTrace:
    """Every request twice at the same instant (lockstep instances)."""
    return RequestTrace(requests=[
        dataclasses.replace(request, request_id=2 * i + copy)
        for i, request in enumerate(trace) for copy in range(2)])


@st.composite
def _common(draw, max_requests):
    trace = _trace(draw(st.sampled_from(("bursty", "azure", "multi_turn"))),
                   draw(st.integers(0, 10_000)),
                   draw(st.integers(8, max_requests)))
    if draw(st.booleans()):
        trace = _twins(trace)
    kwargs = dict(
        max_batch_size=draw(st.integers(1, 8)),
        policy=draw(st.sampled_from(("fifo", "priority", "sjf"))),
        prefill_mode=draw(st.sampled_from(("exclusive", "mixed"))),
        prefill_chunk_tokens=draw(st.sampled_from((16, 32, 64, None))),
        context_bucket=draw(st.sampled_from((1, 32))),
        kv_mode=draw(st.sampled_from((None, "reserve"))),
        metrics_mode=draw(st.sampled_from(("full", "streaming"))),
    )
    return kwargs, trace, draw(st.booleans())


@st.composite
def single_class_configs(draw):
    kwargs, trace, warm = draw(_common(48))
    kwargs["cluster"] = (f"{draw(st.integers(1, 4))}x"
                         f"{draw(st.sampled_from((1, 2)))}n")
    return kwargs, trace, warm


@st.composite
def heterogeneous_configs(draw):
    kwargs, trace, warm = draw(_common(24))
    classes = [f"{draw(st.integers(1, 3))}x1n",
               f"{draw(st.integers(1, 2))}x2n"]
    if draw(st.booleans()):
        classes.append("1x4n")
    kwargs["cluster"] = ",".join(classes)
    kwargs["router"] = draw(st.sampled_from(ROUTER_NAMES))
    return kwargs, trace, warm


def _assert_matches_reference(kwargs, trace, warm):
    engine = TokenServingEngine(**kwargs)
    if warm:
        engine.run(trace)   # fills the engine's shared pricing memos
    metrics, records = engine.run(trace)
    reference = TokenServingEngine(**{**kwargs, "multistep": False,
                                      "sanitize": True})
    ref_metrics, ref_records = reference.run(trace)
    assert records == ref_records
    summary, ref_summary = metrics.summary(), ref_metrics.summary()
    assert summary.keys() == ref_summary.keys()
    for key, value in summary.items():
        assert value == ref_summary[key], key
    assert metrics.per_class == ref_metrics.per_class


_FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


@_FUZZ
@given(single_class_configs())
def test_single_class_folding_matches_per_step_reference(config):
    _assert_matches_reference(*config)


@_FUZZ
@given(heterogeneous_configs())
def test_heterogeneous_pools_match_per_step_reference(config):
    _assert_matches_reference(*config)


def test_single_class_fuzz_folds():
    """The differential above must not pass vacuously: a quiet single-class
    pool folds, so it posts fewer step events than the per-step run."""
    from repro.serving import engine as engine_module

    counts = {}
    for multistep in (True, False):
        pushed = [0]
        real_queue = engine_module.BucketedEventQueue

        class CountingQueue(real_queue):
            def push(self, event, pushed=pushed):
                pushed[0] += 1
                super().push(event)

        engine_module.BucketedEventQueue = CountingQueue
        try:
            TokenServingEngine(cluster="2x2n", max_batch_size=4,
                               multistep=multistep).run(
                _trace("bursty", 7, 40))
        finally:
            engine_module.BucketedEventQueue = real_queue
        counts[multistep] = pushed[0]
    assert counts[True] < 0.5 * counts[False], counts
