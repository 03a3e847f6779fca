"""The benchmark's workload recipes: one trace recipe plus one engine
configuration per workload.

Every workload is an open-loop arrival schedule on the simulated clock;
the benchmark drives it closed-loop on the host (one ``engine.run`` at a
time, each in a fresh process).  Request counts are sized so every
workload has at least 60 TTFT samples beyond its p99 (>= 6,000 requests)
and one ``engine.run`` stays within a few host seconds.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Union

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.serving.engine import TokenServingEngine  # noqa: E402
from repro.workloads.traces import (  # noqa: E402
    RequestTrace,
    StreamingTrace,
    multi_turn_trace,
    synthetic_azure_trace,
)

Trace = Union[RequestTrace, StreamingTrace]

#: The SLO pair the benchmark scores (the pair
#: ``benchmarks/test_bench_perf.py`` already pins): TTFT <= 2.0 s and
#: TPOT <= 50 ms.
SLO = (2.0, 0.05)

#: The trace seed of the work-property check; seed 1 is held out.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_trace(seed, n)`` builds the trace; ``engine_kwargs`` configure
    the measured engine.  ``materialized`` says whether the trace is a
    list (``RequestTrace``) or a lazy ``StreamingTrace``.
    ``check_prefix`` is how many leading requests the reference engine
    (one event per step, sanitizer on, full metrics) replays for the
    differential check.  The sanitizer re-walks every block pool after
    every event, so its cost grows with the pool: the default paged pools
    (~10k blocks per instance) allow only a few requests within seconds.
    """

    name: str
    why: str
    num_requests: int
    make_trace: Callable[[int, int], Trace]
    engine_kwargs: Dict[str, Any]
    materialized: bool
    check_prefix: int

    def trace(self, seed: int, num_requests: int = 0) -> Trace:
        return self.make_trace(seed, num_requests or self.num_requests)

    def engine(self, **overrides: Any) -> TokenServingEngine:
        kwargs = dict(self.engine_kwargs)
        kwargs.update(overrides)
        return TokenServingEngine(**kwargs)

    @property
    def streaming_metrics(self) -> bool:
        return self.engine_kwargs.get("metrics_mode") == "streaming"


def _azure(rate: float, materialize: bool) -> Callable[[int, int], Trace]:
    def make(seed: int, n: int) -> Trace:
        stream = synthetic_azure_trace(n, seed=seed, mean_rate_per_s=rate,
                                       diurnal_amplitude=0.3)
        if materialize:
            return RequestTrace(requests=list(stream))
        return stream
    return make


def _multi_turn(seed: int, n: int) -> Trace:
    return multi_turn_trace(n, seed=seed, session_rate_per_s=0.5)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="azure_fast",
        why="folded homogeneous FIFO fast path: event loop, queue, trace "
            "generation and metrics do the work; no paged KV, no routing",
        num_requests=30_000,
        make_trace=_azure(8.0, materialize=True),
        engine_kwargs=dict(cluster="8x2n", max_batch_size=8, policy="fifo",
                           sanitize=False),
        materialized=True,
        check_prefix=240,
    ),
    Workload(
        name="paged_azure",
        why="same trace and pool with paged KV: folding is off, so dispatch, "
            "complete_step and allocate run once per step",
        num_requests=6_400,
        make_trace=_azure(8.0, materialize=True),
        engine_kwargs=dict(cluster="8x2n", max_batch_size=8, policy="fifo",
                           kv_mode="paged", prefill_mode="exclusive",
                           sanitize=False),
        materialized=True,
        check_prefix=4,
    ),
    Workload(
        name="kv_pressure",
        why="paged KV under contention: failed allocations, swap-out/in, "
            "mixed-step planner, cold pricing, streaming metrics and trace",
        # 4.75 req/s rather than 5.5: at 5.5 the pool runs at the edge of
        # saturation and p99 TTFT swings 1.8-32 s from seed to seed, far
        # beyond any regression bound; 4.75 still fills the pool and
        # preempts on every seed tried.  9,600 requests put 96 samples
        # beyond p99, so one short burst of swap preemptions no longer
        # sets the tail on its own.
        num_requests=9_600,
        make_trace=_azure(4.75, materialize=False),
        engine_kwargs=dict(cluster="4x2n", max_batch_size=16, policy="fifo",
                           kv_mode="paged", kv_budget_bytes=48 * 2**20,
                           prefill_mode="mixed", preemption_mode="swap",
                           metrics_mode="streaming", slo=SLO,
                           sanitize=False),
        materialized=False,
        check_prefix=120,
    ),
    Workload(
        name="disagg_prefix",
        why="disaggregated prefill/decode with prefix sharing: one handoff "
            "and one prefix lookup per request, router-ordered pumps",
        num_requests=6_400,
        make_trace=_multi_turn,
        engine_kwargs=dict(cluster="2x2n:prefill,6x2n:decode",
                           max_batch_size=8, policy="fifo", kv_mode="paged",
                           kv_prefix_sharing=True, router="disaggregated",
                           sanitize=False),
        materialized=True,
        check_prefix=8,
    ),
)}


def prefix_trace(workload: Workload, seed: int, num_requests: int) -> List:
    """The first ``num_requests`` arrivals of the workload's trace."""
    return list(itertools.islice(iter(workload.trace(seed)), num_requests))
