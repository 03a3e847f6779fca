"""Queueing simulation of a pool of LoopLynx instances serving a trace.

Each *instance* is one LoopLynx deployment (1, 2 or 4 accelerator nodes).
This is the historical whole-request model, the ``fifo-exclusive`` policy:
each instance serves one request at a time, so the pool behaves as a
multi-server FIFO queue over whole-request service times from the cycle
model (:meth:`repro.core.multi_node.LoopLynxSystem.run_scenario`), memoized
because traces repeat request shapes.

Token-level policies (``fifo``, ``sjf``, ``priority``) run on
:class:`repro.serving.engine.TokenServingEngine`, which schedules at
decode-step granularity with continuous batching;
:func:`repro.analysis.serving.run_policy` is the one switch between the two
models.  With batching disabled (``max_batch_size=1``, whole-prompt
prefill, exact context timing) the engine reproduces the FIFO-exclusive
numbers — a property the test suite checks.

The simulation is event-based over request arrivals and completions — no
wall-clock time is involved, so results are exact and reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.multi_node import LoopLynxSystem
from repro.serving.metrics import ServingMetrics
from repro.workloads.traces import RequestTrace

#: Policy name of the whole-request, one-request-per-instance FIFO mode.
FIFO_EXCLUSIVE = "fifo-exclusive"


@dataclass(frozen=True)
class CompletedRequest:
    """Timing record of one served request."""

    request_id: int
    instance_id: int
    arrival_s: float
    start_s: float
    finish_s: float
    prefill_len: int
    decode_len: int

    @property
    def queueing_delay_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def service_time_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def end_to_end_latency_s(self) -> float:
        return self.finish_s - self.arrival_s


class ServingSimulator:
    """Whole-request, one-request-per-instance FIFO serving simulation
    (the ``fifo-exclusive`` policy)."""

    def __init__(self, num_instances: int = 1, num_nodes_per_instance: int = 2,
                 system: Optional[LoopLynxSystem] = None) -> None:
        if num_instances <= 0:
            raise ValueError("num_instances must be positive")
        self.num_instances = num_instances
        self.num_nodes_per_instance = num_nodes_per_instance
        self.system = system or LoopLynxSystem.paper_configuration(
            num_nodes=num_nodes_per_instance)
        self._service_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def service_time_s(self, prefill_len: int, decode_len: int) -> float:
        """Service time of one request (memoized cycle-model evaluation)."""
        key = (prefill_len, decode_len)
        if key not in self._service_cache:
            report = self.system.run_scenario(prefill_len, decode_len)
            self._service_cache[key] = report.total_ms / 1e3
        return self._service_cache[key]

    def run(self, trace: RequestTrace
            ) -> Tuple[ServingMetrics, List[CompletedRequest]]:
        """Serve the trace and return aggregate metrics plus per-request
        records in arrival order."""
        if len(trace) == 0:
            raise ValueError("trace is empty")
        # each instance is represented by the time it becomes free
        free_at = [(0.0, instance_id) for instance_id in range(self.num_instances)]
        heapq.heapify(free_at)

        completed: List[CompletedRequest] = []
        for request in sorted(trace, key=lambda r: r.arrival_s):
            instance_free_at, instance_id = heapq.heappop(free_at)
            start = max(request.arrival_s, instance_free_at)
            service = self.service_time_s(request.prefill_len, request.decode_len)
            finish = start + service
            heapq.heappush(free_at, (finish, instance_id))
            completed.append(CompletedRequest(
                request_id=request.request_id,
                instance_id=instance_id,
                arrival_s=request.arrival_s,
                start_s=start,
                finish_s=finish,
                prefill_len=request.prefill_len,
                decode_len=request.decode_len,
            ))

        makespan = max(record.finish_s for record in completed)
        metrics = ServingMetrics(
            num_requests=len(completed),
            num_instances=self.num_instances,
            num_nodes_per_instance=self.num_nodes_per_instance,
            makespan_s=makespan,
            generated_tokens=sum(record.decode_len for record in completed),
            queueing_delays_s=[record.queueing_delay_s for record in completed],
            end_to_end_latencies_s=[record.end_to_end_latency_s for record in completed],
            service_times_s=[record.service_time_s for record in completed],
        )
        return metrics, completed

    # ------------------------------------------------------------------
    def capacity_requests_per_second(self, mean_prefill: int, mean_decode: int) -> float:
        """Rough sustained capacity of the pool for an average request shape."""
        service = self.service_time_s(mean_prefill, mean_decode)
        if service <= 0:
            return 0.0
        return self.num_instances / service
