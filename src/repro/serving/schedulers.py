"""Pluggable scheduling policies for the token-level serving engine.

A policy owns the *waiting* queue: the engine pushes requests on arrival (and
back on preemption, and again when a prefill→decode KV handoff lands on a
disaggregated cluster — a handed-off request competes under the same
ordering as everything else, it is merely pinned to the instance holding
its blocks) and, at every step boundary, admits from the head of the
queue into an instance's running batch.  Policies are strictly head-of-line:
when the head cannot be admitted (no batch slot, KV capacity exhausted, or
an instance whose serving role does not match the head) the engine stops
admitting there until the situation changes, which keeps every policy
starvation-free with respect to its own ordering.

Provided policies:

* :class:`FifoScheduler` — arrival order;
* :class:`ShortestJobFirstScheduler` — fewest total tokens first (the trace
  carries oracle generation lengths, standing in for a length predictor);
* :class:`PriorityScheduler` — higher ``Request.priority`` first, FIFO within
  a class; may preempt a strictly lower-priority running request when the
  batch is full;
* :class:`KVAdmissionController` — not an ordering but an admission gate: a
  request only joins the batch when its worst-case KV-cache reservation
  (``prefill_len + decode_len`` cached positions) fits the instance's free
  capacity, computed from :class:`repro.memory.kv_cache.KVCacheLayout` against
  the node's share of the Alveo U50 HBM
  (:func:`repro.memory.hbm.kv_budget_bytes_per_node`).  This is the
  *reservation* KV regime; the *paged* regime
  (:class:`repro.memory.paged_kv.PagedKVManager`) gates on prompt-sized
  block allocations instead and lives with the block manager it needs.

All scheduler interactions happen at **step boundaries** (between decode
steps / prefill chunks of an instance): the engine pushes on arrival and
preemption, peeks/pops during admission, and never reorders a running batch
mid-step.  Quantities are tokens (lengths), seconds (arrival times) and
plain integers (priorities; larger = more urgent).
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.memory.hbm import kv_budget_bytes_per_node
from repro.memory.kv_cache import KVCacheLayout
from repro.workloads.traces import Request

if TYPE_CHECKING:  # pragma: no cover - schedulers is imported by instance
    from repro.core.multi_node import LoopLynxSystem
    from repro.serving.instance import RequestState

#: Admission-order key: heterogeneous tuples of ints/floats compared
#: lexicographically; the policy heap adds a sequence number for ties.
SortKey = Tuple[float, ...]

#: Token-level policy names accepted by the engine.  The CLI and
#: :func:`repro.analysis.serving.run_policy` also accept ``fifo-exclusive``,
#: which ``run_policy`` serves on the whole-request
#: :class:`repro.serving.simulator.ServingSimulator` instead.
POLICY_NAMES = ("fifo", "sjf", "priority")


class SchedulerPolicy:
    """Base class: a keyed heap over waiting request states.

    Subclasses define :meth:`sort_key`; the insertion sequence number breaks
    ties so equal-key requests stay in push order.
    """

    name = "base"

    #: True when :meth:`preemption_victim` can never return a victim — the
    #: engine's fast-forward optimisation relies on this to prove that a
    #: full batch makes step boundaries inert (nothing to admit, nothing to
    #: preempt).  Subclasses that override :meth:`preemption_victim` must
    #: clear it.
    never_preempts = True

    def __init__(self) -> None:
        self._heap: List[Tuple[SortKey, int, "RequestState"]] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def sort_key(self, entry: "RequestState") -> SortKey:
        """Admission-order key for one waiting entry (an engine request
        state exposing ``.request``); smaller sorts first."""
        raise NotImplementedError

    def push(self, entry: "RequestState") -> None:
        """Enqueue a waiting entry (called on arrival and on preemption; a
        preempted entry competes again under the same ordering)."""
        heapq.heappush(self._heap, (self.sort_key(entry), next(self._seq), entry))

    def peek(self) -> Optional["RequestState"]:
        """The next request to admit, or None when the queue is empty.

        Policies are strictly head-of-line: the engine admits (or blocks on)
        exactly this entry at each step boundary.
        """
        return self._heap[0][2] if self._heap else None

    def pop(self) -> "RequestState":
        """Remove and return the head (the entry :meth:`peek` showed)."""
        if not self._heap:
            raise IndexError("scheduler queue is empty")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        """Number of waiting (not running) entries."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def preemption_victim(self, running: List["RequestState"],
                          head: "RequestState"
                          ) -> Optional["RequestState"]:
        """A running entry the waiting ``head`` may displace, or None.

        Consulted at a step boundary when the head is blocked (no batch
        slot, or KV capacity exhausted).  What eviction *costs* the victim
        is the engine's business: reservation mode discards its KV cache and
        recomputes prefill; paged ``swap`` mode parks its blocks in host
        memory and resumes it later without recomputation.

        The default (FIFO, SJF) never preempts: a request that joined the
        batch keeps its KV capacity until it finishes.
        """
        return None


class FifoScheduler(SchedulerPolicy):
    """Admit in arrival order."""

    name = "fifo"

    def sort_key(self, entry: "RequestState") -> SortKey:
        return (entry.request.arrival_s, entry.request.request_id)


class ShortestJobFirstScheduler(SchedulerPolicy):
    """Admit the request with the fewest total tokens first.

    Uses the trace's known ``prefill_len + decode_len`` as the job size (an
    oracle standing in for the output-length predictors production stacks
    train); ties fall back to arrival order.
    """

    name = "sjf"

    def sort_key(self, entry: "RequestState") -> SortKey:
        return (entry.request.total_tokens, entry.request.arrival_s,
                entry.request.request_id)


class PriorityScheduler(SchedulerPolicy):
    """Admit the highest-priority request first (FIFO within a class) and
    preempt strictly lower-priority running work when the batch is full."""

    name = "priority"
    never_preempts = False

    def sort_key(self, entry: "RequestState") -> SortKey:
        return (-entry.request.priority, entry.request.arrival_s,
                entry.request.request_id)

    def preemption_victim(self, running: List["RequestState"],
                          head: "RequestState"
                          ) -> Optional["RequestState"]:
        candidates = [e for e in running
                      if e.request.priority < head.request.priority]
        if not candidates:
            return None
        # evict the lowest class; within it, the most recently admitted entry
        # has the least progress to throw away
        return min(candidates,
                   key=lambda e: (e.request.priority, -e.last_admitted_s))


def make_scheduler(policy: str) -> SchedulerPolicy:
    """Instantiate a scheduler policy by name."""
    policies = {
        "fifo": FifoScheduler,
        "sjf": ShortestJobFirstScheduler,
        "priority": PriorityScheduler,
    }
    if policy not in policies:
        raise ValueError(f"unknown scheduler policy {policy!r}; "
                         f"known: {', '.join(sorted(policies))}")
    return policies[policy]()


class KVAdmissionController:
    """KV-capacity admission gate for one instance class.

    Capacity is accounted in cached token positions per node: admitting a
    request reserves its worst-case context (``prefill_len + decode_len``)
    up front, so a running batch can never overflow the cache mid-request and
    excess requests queue instead.  The default budget is the node's share of
    the card's HBM minus the resident weights
    (:func:`repro.memory.hbm.kv_budget_bytes_per_node`).
    """

    def __init__(self, layout: KVCacheLayout,
                 budget_bytes: Optional[int] = None) -> None:
        self.layout = layout
        if budget_bytes is None:
            budget_bytes = layout.capacity_bytes_per_node()
        if budget_bytes < 0:
            raise ValueError("budget cannot be negative")
        self.budget_bytes = int(budget_bytes)
        self.capacity_tokens = layout.max_cached_tokens(self.budget_bytes)

    @staticmethod
    def for_system(system: "LoopLynxSystem",
                   budget_bytes: Optional[int] = None,
                   kv_bytes_per_element: int = 1) -> "KVAdmissionController":
        """Build a controller for a :class:`~repro.core.multi_node.LoopLynxSystem`.

        ``budget_bytes`` defaults to the node's HBM share net of weights.
        """
        layout = KVCacheLayout.for_model(
            system.config.model, num_nodes=system.num_nodes,
            bytes_per_element=kv_bytes_per_element)
        if budget_bytes is None:
            budget_bytes = kv_budget_bytes_per_node(
                system.node.weight_bytes_per_token(),
                nodes_per_card=system.config.nodes_per_card)
        return KVAdmissionController(layout, budget_bytes)

    # ------------------------------------------------------------------
    def reservation_tokens(self, request: Request) -> int:
        """Cached positions a request occupies at its maximum context."""
        return min(request.prefill_len + request.decode_len,
                   self.layout.max_seq_len)

    def fits(self, request: Request, used_tokens: int) -> bool:
        """Admission gate, evaluated at step boundaries: does the request's
        worst-case reservation fit next to ``used_tokens`` already-reserved
        cached positions (both in tokens per node)?"""
        return used_tokens + self.reservation_tokens(request) <= self.capacity_tokens

    def validate(self, requests: Iterable[Request]) -> None:
        """Reject traces containing a request that could never be admitted
        (it would block the queue head forever)."""
        for request in requests:
            if self.reservation_tokens(request) > self.capacity_tokens:
                raise ValueError(
                    f"request {request.request_id} needs "
                    f"{self.reservation_tokens(request)} cached tokens but the "
                    f"KV budget only holds {self.capacity_tokens}")
