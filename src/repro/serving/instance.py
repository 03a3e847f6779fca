"""Per-instance serving runtime: one LoopLynx deployment at step granularity.

This module is the *instance* half of the serving engine's two-layer split:

* :class:`InstanceRuntime` (here) owns everything that happens **inside one
  instance** — the running batch, step formation (pure decode, exclusive
  prefill chunks, or token-budgeted mixed steps), KV-capacity admission
  gates (worst-case reservation or paged block growth), and preemption
  mechanics (swap-to-host or discard-and-recompute).  Every runtime owns its
  own :class:`~repro.core.multi_node.LoopLynxSystem`, so instances in one
  cluster may differ in node count, KV budget and block pool;
* the *cluster* half (:mod:`repro.serving.cluster` +
  :class:`~repro.serving.engine.TokenServingEngine`) owns everything that
  happens **between** instances: the shared waiting queue, routing of work
  to instances, and the discrete-event clock.

The boundary is the *step boundary*: the engine calls :meth:`dispatch` when
an instance is at one (idle, or just completed a step) and the runtime
returns the next step to execute — the engine never reaches into a batch
mid-step, and the runtime never touches the event heap.

All the logic here is extracted verbatim from the pre-cluster
``TokenServingEngine`` (PR 1–3); homogeneous pools remain bit-identical to
those engines, a property pinned by golden-timestamp tests.

Units match the engine: seconds (simulated clock), tokens (lengths), cached
positions or blocks per node (KV), bytes summed over nodes (swap traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Dict, List, Optional, Sequence, Tuple

from repro.core.multi_node import LoopLynxSystem
from repro.memory.paged_kv import PagedKVManager
from repro.serving import lifecycle
from repro.serving.cluster import INSTANCE_ROLES
from repro.serving.schedulers import KVAdmissionController, SchedulerPolicy
from repro.units import Blocks, Seconds, Tokens
from repro.workloads.traces import Request


def kv_capacity_admits(kv_controller: Optional[KVAdmissionController],
                       kv: Optional[PagedKVManager],
                       request: Request,
                       role: str = "both") -> bool:
    """Could a KV configuration serve ``request`` running alone and empty?

    The single source of truth for whole-request feasibility, shared by
    the engine's trace validation, each runtime's admission gate and the
    class-affinity router's feasibility bump — if these ever disagreed, a
    request could pass validation yet block the queue head forever.

    ``role`` bounds the context the instance must hold: a ``"prefill"``
    instance hands the KV off the moment the prompt is computed, so only
    the prompt itself must fit; ``"decode"`` and ``"both"`` instances carry
    the request to its full context.
    """
    if kv_controller is not None:
        tokens = (min(request.prefill_len, kv_controller.layout.max_seq_len)
                  if role == "prefill"
                  else kv_controller.reservation_tokens(request))
        return tokens <= kv_controller.capacity_tokens
    if kv is not None:
        tokens = (min(request.prefill_len, kv.layout.max_seq_len)
                  if role == "prefill"
                  else kv.max_request_tokens(request))
        return kv.blocks_needed(tokens) <= kv.total_blocks
    return True


class RequestState:
    """Mutable in-flight bookkeeping for one request."""

    __slots__ = ("request", "prefill_len", "decode_len", "prefill_done",
                 "decode_done", "admitted_s",
                 "last_admitted_s", "first_token_s", "preemptions",
                 "swap_outs", "instance_id", "swapped_on", "handoffs",
                 "handoff_pending", "phase")

    def __init__(self, request: Request) -> None:
        self.request = request
        # request lengths cached as plain ints: the step-formation loop
        # reads them once per batch member per step, and two attribute
        # hops through the frozen Request/Scenario pair are measurable
        # at a million requests
        self.prefill_len = request.prefill_len
        self.decode_len = request.decode_len
        self.prefill_done = 0
        self.decode_done = 0
        self.admitted_s: Optional[float] = None
        self.last_admitted_s = 0.0
        self.first_token_s: Optional[float] = None
        self.preemptions = 0
        self.swap_outs = 0
        #: Prefill→decode handoffs this request went through (0 outside
        #: disaggregated clusters; >1 only if a recompute preemption sent
        #: it back through the prefill pool).
        self.handoffs = 0
        #: True between a handoff's KV import and the decode instance's
        #: swap-in — lets the resuming instance attribute that transfer to
        #: handoff accounting rather than preemption traffic.
        self.handoff_pending = False
        #: Instance that served (or is serving) this request; None until the
        #: first admission — a request that never ran keeps None, and the
        #: engine surfaces that as ``ServedRequest.instance_id = None``
        #: rather than a fake id.
        self.instance_id: Optional[int] = None
        #: Instance holding this request's host-tier blocks after a swap-out
        #: (None otherwise).  A swapped request has instance affinity: its KV
        #: lives in that instance's host pool, so only that instance may
        #: resume it.
        self.swapped_on: Optional[int] = None
        #: Where in the declared request state machine this request sits
        #: (see :mod:`repro.serving.lifecycle`); every later write goes
        #: through ``lifecycle.transition`` — simcheck's L-pass rejects
        #: any other assignment.
        self.phase = lifecycle.INITIAL_PHASE

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_len - self.prefill_done

    @property
    def context_len(self) -> Tokens:
        """Cached positions the next decode step attends over."""
        return self.prefill_done + self.decode_done

    def reset_progress(self) -> None:
        """Drop all computed state (a discarding preemption releases the KV
        cache, so prefill must be recomputed on re-admission)."""
        self.prefill_done = 0
        self.decode_done = 0


#: Step kinds of the ledger, each priced into its own time aggregate.
STEP_KINDS = ("decode_time", "prefill_time", "mixed_time")
#: Ledger kind of the swap transfers serialized ahead of a step: priced
#: into the busy and occupancy aggregates, not into a step kind's.
SWAP_KIND = "swap"


@dataclass
class InstanceStats:
    """Step accounting for one instance; the engine sums the runtimes'
    copies in instance-id order for pool totals and per class.

    The integer ledger is keyed by a step's exact price: its kind (one of
    :data:`STEP_KINDS`) and its memoized seconds, plus a
    :data:`SWAP_KIND` entry for the swap seconds serialized ahead of it.
    Per key it tallies steps, Σ advancing requests, Σ used and Σ shared
    KV blocks.  :meth:`times` prices it as Σ price × tally in sorted key
    order, so a fold that tallies once per price window and the per-step
    engine produce the same integers, hence the same floats.
    Fragmentation, a ratio with a varying denominator, stays one float
    add per step in step order (:attr:`frag_time`).
    """

    total_blocks: Blocks = 0     # KV pool size (0 without paged KV)
    #: kind -> price -> [steps, Σ advancing, Σ used blocks, Σ shared blocks]
    ledger: Dict[str, Dict[float, List[int]]] = field(
        default_factory=lambda: {kind: {} for kind in
                                 STEP_KINDS + (SWAP_KIND,)})
    frag_time: float = 0.0       # Σ fragmentation fraction × step seconds
    peak_kv_occupancy: float = 0.0
    swap_time_s: Seconds = 0.0     # Σ PCIe transfer seconds spent swapping
    prefill_tokens: Tokens = 0      # prompt tokens computed (recomputes count)
    # prefill→decode handoffs (disaggregated clusters)
    handoff_out_count: int = 0   # prompts exported to a decode instance
    handoff_in_count: int = 0    # handed-off prompts resumed here
    handoff_time_s: Seconds = 0.0  # Σ PCIe seconds of handoff transfers

    def add(self, kind: str, price: Seconds, steps: int, advancing: int,
            used: Blocks, shared: Blocks) -> None:
        """Tally ``steps`` steps of one price (the sums are over them)."""
        prices = self.ledger[kind]
        tally = prices.get(price)
        if tally is None:
            prices[price] = [steps, advancing, used, shared]
        else:
            tally[0] += steps
            tally[1] += advancing
            if used:
                tally[2] += used
                tally[3] += shared

    def times(self) -> Dict[str, float]:
        """The time aggregates, priced from the ledger: ``busy_time``
        (Σ step seconds, swaps included), ``batch_time`` (× advancing
        requests), ``kv_occ_time`` and ``shared_kv_time`` (× used and
        shared fractions of the pool), the per-kind step seconds of
        :data:`STEP_KINDS`, plus :attr:`frag_time` and
        :attr:`swap_time_s`."""
        out = dict.fromkeys(("busy_time", "batch_time", "kv_occ_time",
                             "shared_kv_time") + STEP_KINDS, 0.0)
        total = self.total_blocks
        for kind, prices in self.ledger.items():
            for price in sorted(prices):
                steps, advancing, used, shared = prices[price]
                if kind != SWAP_KIND:
                    out[kind] += price * steps
                out["busy_time"] += price * steps
                out["batch_time"] += price * advancing
                if total:
                    out["kv_occ_time"] += price * used / total
                    out["shared_kv_time"] += price * shared / total
        out["frag_time"] = self.frag_time
        out["swap_time_s"] = self.swap_time_s
        return out


@dataclass
class StepLaunch:
    """One step an instance is about to execute, priced and planned.

    The engine turns this into a step-completion event ``duration_s`` ahead
    of the current clock; ``payload`` round-trips back into
    :meth:`InstanceRuntime.complete_step`.  A fast-forwarded launch (several
    provably identical decode steps folded into one event) carries the
    absolute completion time in ``completes_at_s`` — accumulated one step
    at a time so the float arithmetic matches the event-per-step chain
    bit for bit.
    """

    duration_s: Seconds
    payload: Tuple
    completes_at_s: Optional[Seconds] = None


class InstanceRuntime:
    """One LoopLynx deployment running a batch of requests at step
    granularity.

    Parameters
    ----------
    instance_id:
        Position of this instance in the cluster (stable across the run).
    system:
        The instance's own cycle model; node count, and therefore step
        timing, is per-instance state — this is what lets one cluster mix
        1/2/4-node instances.
    class_label:
        Instance-class tag (e.g. ``"2n"``) used for per-class metrics and
        class-affinity routing; instances built from the same
        :class:`~repro.serving.cluster.InstanceSpec` share it.
    role:
        Serving role (``"both"``, ``"prefill"``, ``"decode"``).  A prefill
        runtime only admits requests whose prompt is not yet computed and
        hands each finished prompt's paged KV blocks off instead of
        decoding; a decode runtime only admits requests whose prompt is
        done (their KV arrives via handoff).  Both restricted roles
        require a paged block pool — the handoff *is* a block-table move —
        and ``"both"`` is the historical, bit-identical behaviour.
    max_batch_size, prefill_chunk_tokens, prefill_mode,
    mixed_step_token_budget, preemption_mode, context_bucket:
        Step-formation knobs, exactly as on the engine (see
        :class:`~repro.serving.engine.TokenServingEngine`).
    kv_controller:
        Reservation-mode admission gate (may be shared across instances of
        one class; it is stateless, the per-instance reservation count lives
        here in ``kv_used_tokens``).
    kv:
        This instance's own paged block pool (never shared), or None.
    swap_priority:
        When True (paged swap mode), preemption victims are parked on this
        instance and resumed ahead of new admissions — their KV is already
        paid for, so admitting fresh work first would just churn the pool.
    step_cache, mixed_step_cache, prefill_cache, transfer_cache:
        Memoization dicts for step, prefill-chunk and swap/handoff-transfer
        timings; instances of the same class share them (the cycle model
        and the PCIe pricing are pure functions of shape, so sharing only
        saves evaluations — cache hits are bit-identical to cold computes).
    """

    def __init__(self, instance_id: int, system: LoopLynxSystem, *,
                 class_label: str = "",
                 role: str = "both",
                 max_batch_size: int = 8,
                 prefill_chunk_tokens: Optional[int] = 64,
                 prefill_mode: str = "exclusive",
                 mixed_step_token_budget: int = 256,
                 kv_controller: Optional[KVAdmissionController] = None,
                 kv: Optional[PagedKVManager] = None,
                 preemption_mode: str = "swap",
                 context_bucket: int = 32,
                 swap_priority: bool = False,
                 step_cache: Optional[Dict] = None,
                 mixed_step_cache: Optional[Dict] = None,
                 prefill_cache: Optional[Dict] = None,
                 transfer_cache: Optional[Dict] = None) -> None:
        self.instance_id = instance_id
        self.system = system
        self.num_nodes = system.num_nodes
        self.class_label = class_label or f"{system.num_nodes}n"
        if role not in INSTANCE_ROLES:
            raise ValueError(f"unknown instance role {role!r}; "
                             f"known: {', '.join(INSTANCE_ROLES)}")
        if role != "both" and kv is None:
            raise ValueError(
                "prefill/decode roles hand off paged KV block tables; "
                "build the runtime with a PagedKVManager (kv=...)")
        self.role = role
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.prefill_mode = prefill_mode
        self.mixed_step_token_budget = mixed_step_token_budget
        self.kv_controller = kv_controller
        self.kv = kv
        self.preemption_mode = preemption_mode
        self.context_bucket = context_bucket
        self.swap_priority = swap_priority
        self._step_cache: Dict[Tuple[int, int], float] = (
            step_cache if step_cache is not None else {})
        self._mixed_step_cache: Dict[Tuple[int, int, int], float] = (
            mixed_step_cache if mixed_step_cache is not None else {})
        self._prefill_cache: Dict[Tuple[int, int], float] = (
            prefill_cache if prefill_cache is not None else {})
        self._transfer_cache: Dict[int, float] = (
            transfer_cache if transfer_cache is not None else {})
        #: Set by the engine when fast-forwarding batched decode steps is
        #: provably identical to one-event-per-step execution (paged pools
        #: that preempt by swapping, non-paged single-class pools; see
        #: :meth:`dispatch`).
        self.allow_multistep = False
        #: True when every waiting request is trivially admissible here —
        #: no role constraint and no KV gate of either kind — letting the
        #: admission loop skip the per-head checks.
        self._admits_all = (role == "both" and kv_controller is None
                            and kv is None)
        # ---- mutable per-run state ----
        self.batch: List[RequestState] = []
        #: Batch members whose prompt is not fully computed — maintained
        #: incrementally so step formation skips the per-step batch scan.
        self._num_prefilling = 0
        self.kv_used_tokens = 0
        self.busy = False
        #: Pending swap-transfer seconds to serialize before the next step.
        self.pending_delay_s = 0.0
        #: Swap-priority holding pen: this instance's swapped-out victims,
        #: resumed ahead of new admissions (eviction order).
        self.parked: List[RequestState] = []
        #: Requests ever admitted here (re-admissions count) — the
        #: round-robin router's rotation key.
        self.admission_count = 0
        #: Handoffs produced by the last completed step: ``(state,
        #: cached_tokens, transfer_s)`` records the engine drains via
        #: :meth:`take_handoffs` and turns into handoff events.
        self.pending_handoffs: List[Tuple[RequestState, int, float]] = []
        self.stats = InstanceStats(
            total_blocks=kv.total_blocks if kv is not None else 0)

    # ------------------------------------------------------------------
    # step timing (memoized cycle-model evaluations)
    # ------------------------------------------------------------------
    def _bucketed(self, context_len: int) -> int:
        bucket = self.context_bucket
        if bucket <= 1 or context_len == 0:
            return context_len
        return -(-context_len // bucket) * bucket

    def step_latency_s(self, context_len: Tokens, batch_size: int) -> Seconds:
        """Seconds for one decode step over ``context_len`` cached positions
        with ``batch_size`` co-resident requests (memoized per bucket)."""
        bucket = self.context_bucket
        if bucket > 1 and context_len:
            context_len = -(-context_len // bucket) * bucket
        key = (context_len, batch_size)
        cached = self._step_cache.get(key)
        if cached is None:
            cached = self._step_cache[key] = \
                self.system.decode_step_latency_s(context_len, batch_size)
        return cached

    def prefill_chunk_latency_s(self, start_pos: int, chunk_len: Tokens) -> Seconds:
        """Seconds of token-serial prefill for ``chunk_len`` prompt tokens
        starting at cached position ``start_pos`` (same per-position cost as
        a decode step, which is how the paper's pipeline streams prompts).
        Memoized on ``(start_pos, chunk_len)``: the per-position sum is a
        pure function of the chunk shape, so a cache hit returns the exact
        float a cold compute would."""
        key = (start_pos, chunk_len)
        cached = self._prefill_cache.get(key)
        if cached is None:
            cached = self._prefill_cache[key] = sum(
                self.step_latency_s(pos, 1)
                for pos in range(start_pos, start_pos + chunk_len))
        return cached

    def swap_transfer_s(self, num_blocks: Blocks) -> Seconds:
        """Seconds one swap/handoff transfer of ``num_blocks`` device
        blocks occupies the PCIe link — the block manager's pricing,
        memoized per block count (it is a pure function of the count and
        the class's fixed block geometry)."""
        cached = self._transfer_cache.get(num_blocks)
        if cached is None:
            cached = self._transfer_cache[num_blocks] = \
                self.kv.swap_transfer_s(num_blocks)
        return cached

    def mixed_step_latency_s(self, max_context: int, num_decode: int,
                             prefill_tokens: Tokens) -> Seconds:
        """Seconds for one mixed step advancing ``num_decode`` requests by a
        token each while streaming ``prefill_tokens`` prompt tokens through
        the same weight pass.  ``max_context`` is the longest cached prefix
        in the step — decode contexts and prefill chunk-end positions alike
        (memoized per context bucket, like :meth:`step_latency_s`)."""
        key = (self._bucketed(max_context), num_decode, prefill_tokens)
        cached = self._mixed_step_cache.get(key)
        if cached is None:
            cached = self._mixed_step_cache[key] = \
                self.system.mixed_step_latency_s(
                    [key[0]] * num_decode, prefill_tokens,
                    prefill_context=key[0])
        return cached

    def _next_prefill_chunk(self, state: RequestState,
                            prefill_done: Optional[Tokens] = None) -> int:
        """Prompt tokens ``state`` would stream in its next mixed step,
        before the step's token budget is split (per-request chunk cap and
        the whole-step budget both apply); ``prefill_done`` overrides the
        request's computed prompt positions."""
        if prefill_done is None:
            prefill_done = state.prefill_done
        chunk = min(state.prefill_len - prefill_done,
                    self.mixed_step_token_budget)
        if self.prefill_chunk_tokens is not None:
            chunk = min(chunk, self.prefill_chunk_tokens)
        return chunk

    # ------------------------------------------------------------------
    # KV admission gates (mode-aware)
    # ------------------------------------------------------------------
    def _paged_admit_target(self, state: RequestState,
                            prefill_done: Optional[Tokens] = None) -> int:
        """Cached positions a (non-swapped) request must cover at admission.

        Exclusive prefill claims the whole prompt plus one slot for the
        first decode append (the prompt is computed before any other step
        of the instance runs, so its blocks are needed up front).  Mixed
        prefill streams the prompt in chunk by chunk, so admission only
        claims the first chunk and the table grows per step alongside the
        decode appends.  Both are clamped to the context window.
        ``prefill_done`` overrides the request's computed prompt positions
        (the offset a prefix-cache match will credit at admission).
        """
        request = state.request
        if prefill_done is None:
            prefill_done = state.prefill_done
        if self.prefill_mode == "mixed" and prefill_done < state.prefill_len:
            tokens = (prefill_done + state.decode_done
                      + self._next_prefill_chunk(state, prefill_done))
        elif self.role == "prefill":
            # a prefill instance never appends a decode token: the prompt
            # hands off the moment it completes, so no +1 growth slot
            tokens = request.prefill_len
        else:
            tokens = request.prefill_len + (1 if request.decode_len > 0 else 0)
        return min(tokens, self.kv.layout.max_seq_len)

    def _paged_admit_blocks(self, kv: PagedKVManager,
                            state: RequestState) -> int:
        """Device blocks the queue head must acquire to join the batch: the
        host-tier restore for a swapped-out request (plus any growth block
        its very next decode append needs), or its prompt allocation."""
        rid = state.request.request_id
        if kv.holds(rid) and kv.table(rid).is_swapped:
            restore = kv.table(rid).host_blocks
            if self.prefill_mode == "mixed" and state.prefill_remaining > 0:
                # a request swapped out mid-prefill appends a whole chunk in
                # its next mixed step, not a single decode token; budgeting
                # only context+1 would re-admit it without room to grow and
                # re-evict it at the same boundary (churn, PCIe both ways)
                next_tokens = state.context_len + self._next_prefill_chunk(state)
            else:
                next_tokens = state.context_len + 1
            next_target = min(next_tokens, kv.layout.max_seq_len)
            return restore + max(0, kv.blocks_needed(next_target) - restore)
        plain = kv.blocks_missing(rid, self._paged_admit_target(state))
        credit = self._prefix_credit(state)
        if credit is None:
            return plain
        # Dry-run the prefix allocation admit() will make: the matched
        # offset moves a mixed first chunk's target, and reused blocks
        # resurrected from the reclaimable tier (plus a COW copy) also
        # leave the free pool, so pricing only the plain reservation could
        # admit a request admit() cannot allocate.  The plain reservation
        # stays a floor: a prefix match saves prefill work, not admission
        # headroom (an exclusive prompt admitted on its cached blocks alone
        # can leave two requests that cannot co-reside evicting each other
        # forever in recompute mode).
        return max(plain, kv.prefix_claim_blocks(
            self._paged_admit_target(state, credit),
            state.request.prompt_token_ids))

    def _prefix_credit(self, state: RequestState) -> Optional[Tokens]:
        """Prompt positions admission credits ``state`` from this pool's
        prefix cache, or None when the request takes the plain allocation
        path (sharing off, no token ids, or a prompt already under way)."""
        kv = self.kv
        token_ids = state.request.prompt_token_ids
        if (not kv.prefix_sharing or state.prefill_done != 0
                or token_ids is None
                or kv.holds(state.request.request_id)):
            return None
        matched = kv.match_prefix_tokens(token_ids)
        # the last prompt token is always recomputed, for its logits
        return min(matched, state.prefill_len - 1) if matched > 0 else 0

    def _paged_growth_headroom(self, kv: PagedKVManager,
                               batch: Sequence[RequestState]) -> int:
        """Blocks the current batch members will claim for their next
        decode appends.  Admission must leave this headroom free, or a
        newly admitted (or swapped-in) request would be re-evicted by
        :meth:`_ensure_decode_capacity` at the same step boundary — pure
        churn, with PCIe transfers both ways in swap mode."""
        max_seq = kv.layout.max_seq_len
        headroom = 0
        for member in batch:
            if member.prefill_remaining > 0:
                if self.prefill_mode != "mixed":
                    continue  # prompt blocks were claimed at admission
                # mixed mode grows prefilling tables per step too
                target = member.context_len + self._next_prefill_chunk(member)
            else:
                target = member.context_len + 1
            headroom += kv.blocks_missing(
                member.request.request_id, min(target, max_seq))
        return headroom

    def can_ever_serve(self, request: Request) -> bool:
        """Could this instance serve ``request`` running alone and empty?

        In a homogeneous pool the engine-level trace validation rules out
        impossible requests up front; in a heterogeneous pool a request may
        exceed the *smallest* class's capacity while fitting a larger one,
        so each instance must also refuse such requests at its own gate
        (admitting one would strand it mid-growth).  A prefill-role
        instance only ever holds the prompt (the KV hands off at prompt
        completion), so only the prompt must fit.
        """
        return kv_capacity_admits(self.kv_controller, self.kv, request,
                                  role=self.role)

    def role_admits(self, state: RequestState) -> bool:
        """Does this instance's serving role accept ``state`` at all?

        Enforced in the runtime itself (not only in the disaggregated
        router) so role constraints hold under *every* router: a prefill
        instance only takes requests whose prompt still needs computing,
        a decode instance only takes requests whose prompt is done (their
        KV arrives via handoff — or was computed here before a swap).  A
        recompute-preempted victim loses its prompt progress, so it flows
        back through the prefill pool automatically.
        """
        if self.role == "prefill":
            return state.prefill_remaining > 0
        if self.role == "decode":
            return state.prefill_remaining == 0
        return True

    def refuses_outright(self, state: RequestState,
                         gate: Optional[Callable[["InstanceRuntime",
                                                  RequestState], bool]]
                         ) -> bool:
        """Would the admission loop of :meth:`dispatch` stop at ``state``
        on its cheap checks — serving role, a KV pin to another instance
        (a swapped victim or a handed-off prompt), the router's veto?  An
        idle instance with nothing parked then does nothing at all at a
        boundary (preempting for a head needs a running batch), so the
        engine need not dispatch it."""
        if not self.role_admits(state):
            return True
        if (state.swapped_on is not None
                and state.swapped_on != self.instance_id):
            return True
        return gate is not None and not gate(self, state)

    def kv_admits(self, state: RequestState) -> bool:
        """Does the instance's KV capacity admit ``state`` right now?

        A swapped-out request may only be resumed by the instance whose
        host tier holds its blocks (KV state cannot teleport between
        instances); every other instance reports it inadmissible.
        """
        if self.kv_controller is not None:
            return self.kv_controller.fits(state.request, self.kv_used_tokens)
        if self.kv is not None:
            if (state.swapped_on is not None
                    and state.swapped_on != self.instance_id):
                return False
            if not self.can_ever_serve(state.request):
                return False
            kv = self.kv
            need = (self._paged_admit_blocks(kv, state)
                    + self._paged_growth_headroom(kv, self.batch))
            return need <= kv.free_blocks
        return True

    def head_fits_after_eviction(self, victim: RequestState,
                                 head: RequestState) -> bool:
        """Would evicting ``victim`` make ``head`` admissible?  The batch
        slot is always freed; with KV admission the freed capacity (token
        reservation or device blocks) must also cover the head's."""
        if self.kv_controller is not None:
            freed = (self.kv_used_tokens
                     - self.kv_controller.reservation_tokens(victim.request))
            return self.kv_controller.fits(head.request, freed)
        if self.kv is not None:
            if (head.swapped_on is not None
                    and head.swapped_on != self.instance_id):
                return False  # the head's KV lives on another instance
            if not self.can_ever_serve(head.request):
                return False
            kv = self.kv
            freed = len(kv.table(victim.request.request_id).device_blocks)
            need = (self._paged_admit_blocks(kv, head)
                    + self._paged_growth_headroom(
                        kv, [s for s in self.batch if s is not victim]))
            return need <= kv.free_blocks + freed
        return True

    @property
    def kv_free_fraction(self) -> float:
        """Free fraction of this instance's KV capacity (1.0 when admission
        is unconstrained) — the KV-aware router's ranking key."""
        if self.kv is not None:
            if self.kv.total_blocks == 0:
                return 0.0
            return self.kv.free_blocks / self.kv.total_blocks
        if self.kv_controller is not None:
            if self.kv_controller.capacity_tokens == 0:
                return 0.0
            return 1.0 - self.kv_used_tokens / self.kv_controller.capacity_tokens
        return 1.0

    @property
    def load(self) -> int:
        """Requests this instance is responsible for right now (running
        batch plus parked swap-priority victims) — the least-loaded
        router's ranking key."""
        return len(self.batch) + len(self.parked)

    def holds_swapped(self, state: RequestState) -> bool:
        """Does this instance's host tier hold ``state``'s swapped blocks?"""
        return (state.swapped_on is not None
                and state.swapped_on == self.instance_id)

    def matched_prefix_tokens(self, request: Request) -> Tokens:
        """Prompt positions this instance's prefix cache could serve for
        ``request`` right now (0 without a sharing-enabled paged pool) —
        the cache-aware router's ranking signal."""
        kv = self.kv
        if kv is None or not kv.prefix_sharing:
            return 0
        token_ids = request.prompt_token_ids
        if not token_ids:
            return 0
        return kv.match_prefix_tokens(token_ids)

    # ------------------------------------------------------------------
    # batch membership
    # ------------------------------------------------------------------
    def release(self, state: RequestState) -> None:
        """Return a finished request's KV capacity to the pool."""
        if self.kv_controller is not None:
            self.kv_used_tokens -= \
                self.kv_controller.reservation_tokens(state.request)
        if self.kv is not None:
            self.kv.free(state.request.request_id)

    def admit(self, state: RequestState, now: float) -> None:
        """Move a waiting request into the running batch, claiming KV
        capacity (and paying the swap-in transfer for a swapped-out
        victim resuming in paged ``swap`` mode)."""
        if state.phase == lifecycle.QUEUED:
            lifecycle.transition(state, "admit")
        elif state.phase == lifecycle.EVICTED_SWAP:
            # a swapped victim resumes exactly where it stopped; a
            # handed-off prompt arrives with its prefill fully computed,
            # so it takes the decode resume edge
            lifecycle.transition(
                state, "resume_swap_prefill"
                if state.prefill_len > state.prefill_done
                else "resume_swap_decode")
        else:
            lifecycle.transition(state, "readmit_recompute")
        if state.admitted_s is None:
            state.admitted_s = now
        state.last_admitted_s = now
        state.instance_id = self.instance_id
        self.admission_count += 1
        if self.kv_controller is not None:
            self.kv_used_tokens += \
                self.kv_controller.reservation_tokens(state.request)
        if self.kv is not None:
            kv = self.kv
            rid = state.request.request_id
            if kv.holds(rid) and kv.table(rid).is_swapped:
                blocks, _ = kv.swap_in(rid)
                transfer = self.swap_transfer_s(blocks)
                self.pending_delay_s += transfer
                if state.handoff_pending:
                    # the restore of a handed-off prompt is the receiving
                    # half of the handoff transfer, not preemption traffic
                    state.handoff_pending = False
                    self.stats.handoff_in_count += 1
                    self.stats.handoff_time_s += transfer
                state.swapped_on = None
            else:
                credit = self._prefix_credit(state)
                if credit is None:
                    allocated = kv.allocate(rid,
                                            self._paged_admit_target(state))
                else:
                    # credit the reused prompt positions as already
                    # computed: prefill resumes at the matched offset, so
                    # both prefill_tokens_processed and TTFT genuinely drop
                    state.prefill_done = credit
                    allocated = kv.allocate_prefix(
                        rid, self._paged_admit_target(state),
                        state.request.prompt_token_ids) is not None
                if not allocated:
                    raise RuntimeError("admission gate admitted an "
                                       "unallocatable request")  # pragma: no cover
        self.batch.append(state)
        if state.prefill_len > state.prefill_done:
            self._num_prefilling += 1

    def evict(self, victim: RequestState, now: float,
              scheduler: SchedulerPolicy) -> None:
        """Remove ``victim`` from the batch and re-queue it.  Paged
        ``swap`` mode parks its blocks in the host tier (PCIe transfer
        serializes with the instance's next step); every other mode
        discards its KV state and progress.  With ``swap_priority`` a
        swapped victim waits in this instance's parked list (resumed ahead
        of new admissions) instead of re-entering the shared queue."""
        self.batch.remove(victim)
        if victim.prefill_len > victim.prefill_done:
            self._num_prefilling -= 1
        swapped = False
        if self.kv is not None and self.preemption_mode == "swap":
            lifecycle.transition(
                victim, "evict_swap_prefill"
                if victim.phase == lifecycle.PREFILLING
                else "evict_swap_decode")
            blocks, _ = self.kv.swap_out(victim.request.request_id)
            self.pending_delay_s += self.swap_transfer_s(blocks)
            victim.swap_outs += 1
            victim.swapped_on = self.instance_id
            swapped = True
        else:
            lifecycle.transition(
                victim, "evict_recompute_prefill"
                if victim.phase == lifecycle.PREFILLING
                else "evict_recompute_decode")
            self.release(victim)
            victim.reset_progress()
        victim.preemptions += 1
        if swapped and self.swap_priority:
            self.parked.append(victim)
        else:
            scheduler.push(victim)

    # ------------------------------------------------------------------
    # prefill→decode handoff (prefill-role instances)
    # ------------------------------------------------------------------
    def _begin_handoff(self, state: RequestState) -> None:
        """Export a finished prompt's KV blocks for a decode instance.

        The export is a swap-out on this instance's PCIe link: the
        transfer serializes ahead of the next step here (the link is
        busy), and the engine delays the request's arrival at its decode
        instance by its *ready offset* — when one step completes several
        prompts (mixed mode), their transfers share the one link, so the
        k-th handoff is ready only after the k-1 before it have drained,
        exactly matching the serial ``pending_delay_s`` charge.  The
        decode instance pays its own swap-in when it admits the request.
        """
        lifecycle.transition(state, "handoff_export")
        self.batch.remove(state)
        num_blocks, cached_tokens, _ = \
            self.kv.export_handoff(state.request.request_id)
        transfer = self.swap_transfer_s(num_blocks)
        self.pending_delay_s += transfer
        state.handoffs += 1
        self.stats.handoff_out_count += 1
        self.stats.handoff_time_s += transfer
        ready_offset = transfer + (self.pending_handoffs[-1][2]
                                   if self.pending_handoffs else 0.0)
        self.pending_handoffs.append((state, cached_tokens, ready_offset))

    def take_handoffs(self) -> List[Tuple[RequestState, int, float]]:
        """Drain the handoffs produced by the last completed step (the
        engine routes each to a decode instance and schedules its arrival
        at its serialized ready offset ahead of the clock)."""
        handoffs, self.pending_handoffs = self.pending_handoffs, []
        return handoffs

    # ------------------------------------------------------------------
    # paged growth at step boundaries
    # ------------------------------------------------------------------
    def _grow_to(self, state: RequestState, target: int, now: float,
                 scheduler: SchedulerPolicy) -> bool:
        """Paged mode: allocate blocks so ``state`` covers ``target``
        cached positions before its next append.  When the pool runs
        dry, evict the lowest-priority, most recently admitted member of
        an *equal or lower* priority class than the grower and retry
        (its blocks swap out or drop per the preemption mode).  Capacity
        pressure never evicts a strictly higher-priority member — when
        the grower itself is the lowest class present, it is the one
        that yields (no priority inversion through block growth).

        Mixed mode additionally requires an equal-priority victim to
        have been admitted *no earlier* than the grower.  Without this,
        two requests too big to co-reside can destroy each other
        forever: the newcomer's chunk growth evicts the old resident
        (discarding its nearly-finished context), the resident
        re-admits and returns the favour, and neither ever finishes —
        a livelock chunked admission makes reachable because it admits
        on first-chunk fit rather than whole-prompt fit.  Restricting
        equal-priority eviction to members no older than the grower
        makes the oldest-admitted member of the highest class
        un-evictable, so it always advances and the run provably
        terminates.  Exclusive mode keeps the PR 2 rule unchanged (the
        bit-identical regime).

        Returns whether any member was evicted."""
        kv = self.kv
        mixed = self.prefill_mode == "mixed"
        evicted = False
        while (state in self.batch
               and not kv.allocate(state.request.request_id, target)):
            others = [s for s in self.batch if s is not state]
            if not others:
                raise RuntimeError(
                    "KV block pool cannot hold a single request; "
                    "validate() should have rejected this trace")
            candidates = [
                s for s in others
                if s.request.priority < state.request.priority
                or (s.request.priority == state.request.priority
                    and (not mixed
                         or s.last_admitted_s >= state.last_admitted_s))]
            victim = (min(candidates,
                          key=lambda s: (s.request.priority,
                                         -s.last_admitted_s))
                      if candidates else state)
            self.evict(victim, now, scheduler)
            evicted = True
        return evicted

    def _ensure_decode_capacity(self, now: float,
                                scheduler: SchedulerPolicy) -> None:
        """Paged mode, before a pure decode step: every batch member
        needs a block slot for the token position it is about to
        append."""
        kv = self.kv
        max_seq = kv.layout.max_seq_len
        for state in list(self.batch):
            if state not in self.batch:
                continue  # already evicted to make room
            target = min(state.context_len + 1, max_seq)
            if not kv.allocate(state.request.request_id, target):
                self._grow_to(state, target, now, scheduler)

    def _plan_mixed_step(self) -> Tuple[List[RequestState],
                                        List[Tuple[RequestState, int]]]:
        """Split the mixed-step token budget over the batch: one decode
        token per running decode first, then prefill-chunk tokens for
        requests still prefilling, in admission (batch) order.  Decode
        tokens are never dropped to fit the budget; prefill chunks take
        whatever budget remains."""
        if not self._num_prefilling:
            # pure decode (the steady-state hot path): every member
            # advances, no chunks to plan
            return self.batch.copy(), []
        decoders = [s for s in self.batch if s.prefill_len == s.prefill_done]
        remaining = self.mixed_step_token_budget - len(decoders)
        chunks: List[Tuple[RequestState, int]] = []
        for state in self.batch:
            if state.prefill_len == state.prefill_done or remaining <= 0:
                continue
            chunk = min(self._next_prefill_chunk(state), remaining)
            chunks.append((state, chunk))
            remaining -= chunk
        return decoders, chunks

    def _ensure_mixed_capacity(self, now: float, scheduler: SchedulerPolicy
                               ) -> Tuple[List[RequestState],
                                          List[Tuple[RequestState, int]]]:
        """Paged mode, before a mixed step: every request advancing in
        the step needs blocks for the positions it appends (one per
        decode, a whole chunk per prefilling member).  An eviction frees
        budget and invalidates the split, so replan until one whole pass
        allocates without evicting; the batch shrinks on every eviction,
        so the loop terminates.  Returns the final ``(decoders,
        chunks)`` plan."""
        max_seq = self.kv.layout.max_seq_len
        while True:
            decoders, chunks = self._plan_mixed_step()
            evicted = False
            targets = [(s, s.context_len + 1) for s in decoders]
            targets += [(s, s.context_len + c) for s, c in chunks]
            for state, target in targets:
                if state not in self.batch:
                    continue  # already evicted to make room
                if self._grow_to(state, min(target, max_seq), now, scheduler):
                    evicted = True
            if not evicted:
                return decoders, chunks

    def _record(self, kind: str, price: Seconds, pending: Seconds,
                advancing: int) -> None:
        """Tally one unfolded step in the ledger, with its fragmentation
        and occupancy read off a paged pool."""
        kv = self.kv
        stats = self.stats
        if kv is None:
            stats.add(kind, price, 1, advancing, 0, 0)
            return
        # the pool's used_blocks and internal_fragmentation_fraction,
        # read off its counters (this runs once per unfolded step)
        used = kv.total_blocks - len(kv._free) - len(kv._reclaimable)
        shared = (kv.shared_blocks + kv.cached_blocks
                  if kv.prefix_sharing else 0)
        stats.add(kind, price, 1, advancing, used, shared)
        if pending > 0.0:
            stats.add(SWAP_KIND, pending, 1, advancing, used, shared)
        if kv.allocated_tokens:
            stats.frag_time += ((1.0 - kv.cached_tokens / kv.allocated_tokens)
                                * (price + pending))
        if used / kv.total_blocks > stats.peak_kv_occupancy:
            stats.peak_kv_occupancy = used / kv.total_blocks

    def _fold_decode(self, t: Seconds, limit: Seconds, d: Seconds,
                     kind: str, advancing: int,
                     members: List[RequestState], context: Tokens,
                     mixed: bool, pending_times: Container[float],
                     kmax: int) -> Tuple[int, Seconds]:
        """Record a planned pure decode step, priced ``d`` and completing
        at ``t``, and extend it into a run of inert steps; returns the
        run's step count and the completion time of its last step.

        The run extends while no member finishes (``kmax`` steps), each
        boundary stays before ``limit`` and off the pending completions of
        other instances (the folded event takes its sequence number now,
        so running past such a boundary could overtake, at a later equal
        timestamp, a lockstep instance the per-step chain orders first),
        and a paged pool's growth fits its free list.  Between price
        window edges and growth events only the clock moves: the loop
        chains ``t += d`` (the timestamps) and, on a paged pool, the one
        per-step fragmentation add; the ledger tallies per price window.

        On a paged pool member ``j`` entered step 0 at context ``ctx`` and
        holds step 0's blocks; step ``i`` appends position ``ctx + i + 1``,
        so its table crosses a block boundary every block size steps from
        step ``held - ctx`` on, while below ``max_seq - ctx`` (where the
        window clamps).  The run stops before the first step whose
        crossings exceed the free list (it never reclaims cached prefix
        blocks, so the shared fraction and the prefix index stay constant)
        and, at its end, takes each crossing's block from the free list
        step-major in batch order — the block ids per-step
        :meth:`PagedKVManager.allocate` calls give.  This growth is
        written against the pool's internals because it runs once per
        folded event, where every call is measurable.
        """
        stats = self.stats
        kv = self.kv
        bucket = self.context_bucket
        # the first step priced outside the first step's bucket window
        next_win = (1 + -(-context // bucket) * bucket - context
                    if bucket > 1 and context else 1)
        next_cross = next_change = kmax   # never, without paged KV
        rate = used = shared = cached = allocated = 0
        frag = 0.0
        if kv is not None:
            size = kv.block_size_tokens
            max_seq = kv.layout.max_seq_len
            pool = kv._tables
            tables = []
            contexts = []
            due = []        # each member's next crossing step
            changes = []    # (step, change) of the growth rate, latest first
            for s in members:
                table = pool[s.request.request_id]
                ctx = s.prefill_done + s.decode_done
                tables.append(table)
                contexts.append(ctx)
                held = len(table.device_blocks) * size
                due.append(held - ctx if held < max_seq else kmax)
                stop = max_seq - ctx
                grows_from = table.cached_tokens - ctx
                if grows_from <= 1:
                    if stop > 1:
                        rate += 1
                        if stop < kmax:
                            changes.append((stop, -1))
                elif grows_from < stop:
                    changes += ((grows_from, 1), (stop, -1))
            if changes:
                changes.sort(reverse=True)
                next_change = changes[-1][0]
            next_cross = min(due)
            free = len(kv._free)
            used = kv.total_blocks - free - len(kv._reclaimable)
            if kv.prefix_sharing:
                shared = kv.shared_blocks + kv.cached_blocks
            cached, allocated = kv.cached_tokens, kv.allocated_tokens
            frag = stats.frag_time + (1.0 - cached / allocated) * d
        steps = window = 1      # untallied steps priced ``d``, Σ used blocks
        used_sum = used
        # without paged KV the run checks one bound per step: the limit,
        # or another instance's nearest pending completion
        stop_at = limit
        if kv is None:
            for pending in pending_times:
                if t < pending < stop_at:
                    stop_at = pending
        while True:
            if steps == next_cross:
                taken = 0
                for j, step in enumerate(due):
                    if step == steps:
                        taken += 1
                        step += size
                        due[j] = (step if step + contexts[j] < max_seq
                                  else kmax)
                if taken > free:
                    break
                free -= taken
                used += taken
                allocated += taken * size
                next_cross = min(due)
            if steps == next_change:
                while changes and changes[-1][0] == steps:
                    rate += changes.pop()[1]
                next_change = changes[-1][0] if changes else kmax
            if steps == next_win:
                c = context + steps
                price = (self.mixed_step_latency_s(c, advancing, 0)
                         if mixed else self.step_latency_s(c, advancing))
                next_win = steps + (-(-c // bucket) * bucket - c + 1
                                    if bucket > 1 else 1)
                if price != d:
                    stats.add(kind, d, window, advancing * window,
                              used_sum, shared * window)
                    d = price
                    window = used_sum = 0
            start = steps
            end = min(next_win, next_cross, next_change, kmax) + 1
            if kv is None:
                for steps in range(steps + 1, end):
                    t += d
                    if t >= stop_at:
                        break
            else:
                for steps in range(steps + 1, end):
                    t += d
                    cached += rate
                    frag += (1.0 - cached / allocated) * d
                    if t >= limit or t in pending_times:
                        break
            window += steps - start
            used_sum += used * (steps - start)
            if steps >= kmax or t >= limit or t in pending_times:
                break
            if t >= stop_at:
                # stepped over a pending completion: the next one bounds
                stop_at = min([limit] + [p for p in pending_times if p > t])
        stats.add(kind, d, window, advancing * window, used_sum,
                  shared * window)
        if kv is not None:
            applied = steps - 1
            crossings = []   # (step, member) of every block taken
            for j, (table, ctx) in enumerate(zip(tables, contexts)):
                first = len(table.device_blocks) * size - ctx
                last = min(applied, max_seq - ctx - 1)
                if first <= last:
                    crossings += [(step, j)
                                  for step in range(first, last + 1, size)]
                if ctx + applied + 1 > table.cached_tokens:
                    cached_now = min(ctx + applied + 1, max_seq)
                    kv.cached_tokens += cached_now - table.cached_tokens
                    table.cached_tokens = cached_now
            if crossings:
                if len(tables) > 1:
                    crossings.sort()
                blocks = kv._free
                for _, j in crossings:
                    block = blocks.pop()
                    if kv.prefix_sharing:
                        kv._ref[block] = 1
                    tables[j].device_blocks.append(block)
                kv.allocated_tokens = allocated
                if used > kv.peak_used_blocks:
                    kv.peak_used_blocks = used
            stats.frag_time = frag
            if used / kv.total_blocks > stats.peak_kv_occupancy:
                stats.peak_kv_occupancy = used / kv.total_blocks
        return steps, t

    def _fold_prefill(self, t: Seconds, limit: Seconds,
                      state: RequestState, total: Tokens,
                      pending_times: Container[float]
                      ) -> Tuple[int, Seconds, Tokens]:
        """Chain the next chunks of an exclusive chunked prefill after a
        recorded chunk of ``total`` tokens completing at ``t``: the
        batch-order scan re-picks this member at every inert boundary,
        and the stalled decoders never change.  Each chunk has its own
        price, so each is its own ledger tally.  Stops as
        :meth:`_fold_decode` does; returns the chunk count, the last
        chunk's completion time and the token total."""
        cap = self.prefill_chunk_tokens
        done = state.prefill_done + total
        remaining = state.prefill_len - done
        steps = 1
        while remaining > 0 and t < limit and t not in pending_times:
            c = cap if cap < remaining else remaining
            d = self.prefill_chunk_latency_s(done, c)
            self._record("prefill_time", d, 0.0, 1)
            t += d
            done += c
            total += c
            remaining -= c
            steps += 1
        return steps, t, total

    # ------------------------------------------------------------------
    # step boundary: admission, preemption, step formation
    # ------------------------------------------------------------------
    def dispatch(self, scheduler: SchedulerPolicy, now: float,
                 gate: Optional[Callable[["InstanceRuntime", RequestState],
                                         bool]] = None,
                 horizon_s: Optional[Seconds] = None,
                 horizon_fn: Optional[Callable[["InstanceRuntime"], float]]
                 = None,
                 pending_times: Container[float] = ()
                 ) -> Optional[StepLaunch]:
        """Admit/preempt at a step boundary, then form the next step.

        ``gate`` is the cluster router's placement veto (None on
        single-class pools): a head the gate rejects is neither admitted
        here nor preempted for — it waits for an instance the router likes.
        Returns the planned step, or None when the batch is empty (the
        instance goes idle).  The step's time-weighted statistics go to
        the runtime's own :attr:`stats`.

        ``horizon_s`` is the next trace arrival's timestamp (None when the
        engine cannot bound it).  With :attr:`allow_multistep` set, a pure
        decode step whose following step boundaries are provably inert —
        the waiting queue is empty until the horizon, or the batch is full
        under a scheduler that never preempts — is fast-forwarded: up to k
        identical steps fold into one event, with k bounded so no batch
        member finishes early (and, on a paged pool, so the fold's block
        growth fits the free list; see :meth:`_fold_decode`).  The folded
        launch carries its absolute completion time in
        :attr:`StepLaunch.completes_at_s`, accumulated one step at a time
        so the timestamps match the event-per-step chain bit for bit.
        ``pending_times`` holds the completion times of the other
        instances' pending steps; a fold ends at the first boundary
        that coincides with one.  Every step, folded or not, is tallied
        in the ledger of :attr:`stats` (:class:`InstanceStats`).
        """
        batch = self.batch
        max_batch = self.max_batch_size
        while True:
            if self.parked:
                # swap-priority: resume this instance's own swapped victims
                # before admitting anything new — their blocks are a PCIe
                # round-trip away, not a recompute, and new admissions would
                # claim the very capacity the resume needs.  A parked head
                # that does not fit blocks new admissions entirely.
                admitted = False
                while self.parked and len(batch) < max_batch:
                    resume = self.parked[0]
                    if not self.kv_admits(resume):
                        break
                    self.parked.pop(0)
                    self.admit(resume, now)
                    admitted = True
                if admitted:
                    continue
                break
            # admissions from the head of the waiting queue
            head = scheduler.peek()
            if self._admits_all and gate is None:
                while head is not None and len(batch) < max_batch:
                    scheduler.pop()
                    self.admit(head, now)
                    head = scheduler.peek()
            else:
                while head is not None and len(batch) < max_batch:
                    if not self.role_admits(head):
                        break
                    if gate is not None and not gate(self, head):
                        break
                    if not self.kv_admits(head):
                        break
                    scheduler.pop()
                    self.admit(head, now)
                    head = scheduler.peek()
            # preemption: a blocked head (no batch slot, or KV capacity
            # exhausted) may evict strictly lower-priority work — but only
            # when evicting one victim actually makes the head admissible;
            # otherwise the victim's computed state would be thrown away
            # (or shuttled over PCIe) for nothing.  Schedulers that never
            # preempt make this block a provable no-op — skip it.
            if (not scheduler.never_preempts
                    and head is not None and batch
                    and self.role_admits(head)
                    and (gate is None or gate(self, head))):
                slots_full = len(batch) >= max_batch
                kv_full = not self.kv_admits(head)
                victim = None
                if slots_full or kv_full:
                    victim = scheduler.preemption_victim(batch, head)
                if (victim is not None
                        and self.head_fits_after_eviction(victim, head)):
                    self.evict(victim, now, scheduler)
                    continue  # retry admission for the head
            break

        if not batch:
            self.busy = False
            return None
        ff_members = None   # pure-decode members, when fast-forwardable
        ff_context = 0
        ff_mixed = False    # price folded steps through the mixed model
        ff_prefill = None   # chunked exclusive prefill, when foldable
        if self.prefill_mode == "mixed":
            if self.kv is not None:
                decoders, chunks = self._ensure_mixed_capacity(now, scheduler)
            else:
                decoders, chunks = self._plan_mixed_step()
            if chunks:
                prefill_tokens = sum(chunk for _, chunk in chunks)
                max_context = max(
                    [s.prefill_done + s.decode_done for s in decoders]
                    + [s.prefill_done + s.decode_done + chunk
                       for s, chunk in chunks])
                duration = self.mixed_step_latency_s(
                    max_context, len(decoders), prefill_tokens)
                payload = ("mixed", self, (decoders, chunks), prefill_tokens)
                advancing = len(decoders) + len(chunks)
                kind_attr = "mixed_time" if decoders else "prefill_time"
            else:
                # all prompts done: a mixed step degenerates to pure decode
                # (priced through the same mixed-step model, bit-identical
                # to the historical path)
                context = 0
                for s in decoders:
                    c = s.prefill_done + s.decode_done
                    if c > context:
                        context = c
                duration = self.mixed_step_latency_s(context,
                                                     len(decoders), 0)
                payload = ("mixed", self, (decoders, chunks), 0)
                advancing = len(decoders)
                kind_attr = "decode_time"
                ff_members = decoders
                ff_context = context
                ff_mixed = True
        else:
            prefilling = None
            if self._num_prefilling:
                for s in batch:
                    if s.prefill_len > s.prefill_done:
                        prefilling = s
                        break
            if prefilling is not None:
                chunk = prefilling.prefill_len - prefilling.prefill_done
                cap = self.prefill_chunk_tokens
                if cap is not None:
                    if cap < chunk:
                        chunk = cap
                    ff_prefill = prefilling
                duration = self.prefill_chunk_latency_s(
                    prefilling.prefill_done, chunk)
                payload = ("prefill", self, prefilling, chunk)
                # only the prefilling request advances; co-resident
                # decodes stall for the duration of the chunk
                advancing = 1
                kind_attr = "prefill_time"
            else:
                if self.kv is not None:
                    self._ensure_decode_capacity(now, scheduler)
                context = 0
                for s in batch:
                    c = s.prefill_done + s.decode_done
                    if c > context:
                        context = c
                members = batch.copy()
                duration = self.step_latency_s(context, len(members))
                payload = ("decode", self, members, 0)
                advancing = len(members)
                kind_attr = "decode_time"
                ff_members = members
                ff_context = context
        price = duration
        pending = self.pending_delay_s
        if pending > 0.0:
            # swap transfers contend for the same HBM/PCIe datapath, so
            # they serialize ahead of the next step
            duration += pending
            self.pending_delay_s = 0.0
            self.stats.swap_time_s += pending
        completes_at = None
        kmax = 0    # decode steps a fold may take (under 2: no fold)
        chain = False   # the next prefill chunks may fold
        if (self.allow_multistep and pending == 0.0
                and horizon_s is not None and not self.parked
                and (ff_members is not None or ff_prefill is not None)):
            # Fast-forward: fold provably inert step boundaries into one
            # event.  Boundaries inside the fold must change nothing —
            # no admission, preemption or step-shape change could happen at
            # them.  Two regimes qualify: the waiting queue is empty until
            # the next arrival (``horizon_s``), or the batch is full under
            # a scheduler that never preempts (a boundary then has nothing
            # to do even when requests are waiting).  Parked swap-priority
            # victims are retried at every boundary, so those stay real.
            # A decode fold may cross context-bucket boundaries and a
            # prefill fold marches the prompt chunk by chunk: every
            # per-step price is a memoized pure function of shape, so
            # repricing at each window or chunk edge reproduces the
            # per-event chain exactly.
            limit = None
            if scheduler.peek() is None:
                # the engine's horizon function (when set) may extend the
                # fold past arrivals other idle instances absorb, or bound
                # it by handoffs; without one the next arrival bounds it
                limit = (horizon_s if horizon_fn is None
                         else horizon_fn(self))
            elif (scheduler.never_preempts
                    and len(batch) >= max_batch):
                limit = float("inf")
            t = now + duration
            if (limit is not None and t < limit
                    and t not in pending_times):
                chain = ff_prefill is not None
                if not chain:
                    kmax = ff_members[0].decode_len - ff_members[0].decode_done
                    for s in ff_members:
                        r = s.decode_len - s.decode_done
                        if r < kmax:
                            kmax = r
        if kmax > 1:
            steps, t = self._fold_decode(
                t, limit, price, kind_attr, advancing, ff_members,
                ff_context, ff_mixed, pending_times, kmax)
            if steps > 1:
                payload = ("decode_k", self,
                           (ff_members, steps, now + duration), 0)
                completes_at = t
        else:
            self._record(kind_attr, price, pending, advancing)
            if chain:
                steps, t, total = self._fold_prefill(
                    t, limit, ff_prefill, payload[3], pending_times)
                if steps > 1:
                    payload = ("prefill", self, ff_prefill, total)
                    completes_at = t
        self.busy = True
        return StepLaunch(duration_s=duration, payload=payload,
                          completes_at_s=completes_at)

    def _finish(self, state: RequestState,
                finished: List[RequestState]) -> None:
        self.batch.remove(state)
        self.release(state)
        finished.append(state)

    def _prefill_completed(self, state: RequestState,
                           finished: List[RequestState]) -> None:
        """A prompt just finished: a request with nothing to generate
        is done; on a prefill-role instance one with decode work hands
        its KV off instead of decoding here."""
        kv = self.kv
        if kv is not None and kv.prefix_sharing:
            # the prompt's full blocks now hold real KV — index them so
            # later matching prompts (the conversation's next turn) reuse
            # them instead of re-prefilling
            token_ids = state.request.prompt_token_ids
            if token_ids:
                kv.register_prefix(state.request.request_id, token_ids)
        if state.decode_len == 0:
            lifecycle.transition(state, "finish_prefill_only")
            self._finish(state, finished)
        elif self.role == "prefill":
            self._begin_handoff(state)
        else:
            lifecycle.transition(state, "prefill_complete")

    def complete_step(self, payload: Tuple, now: float) -> List[RequestState]:
        """Apply one finished step's token bookkeeping and return the
        requests that completed with it (the engine records them)."""
        kind, _, target, chunk = payload
        finished: List[RequestState] = []
        if kind == "decode":
            for state in target:
                state.decode_done += 1
                if state.first_token_s is None:
                    state.first_token_s = now
                if state.decode_done >= state.decode_len:
                    lifecycle.transition(state, "finish_decode")
                    self._finish(state, finished)
        elif kind == "decode_k":
            # k folded decode steps completing at once: the first token of
            # a still-tokenless member was produced at the fold's first
            # step boundary (carried in the payload), not at ``now``
            members, steps, t_first = target
            for state in members:
                if state.first_token_s is None:
                    state.first_token_s = t_first
                state.decode_done += steps
                if state.decode_done >= state.decode_len:
                    lifecycle.transition(state, "finish_decode")
                    self._finish(state, finished)
        elif kind == "prefill":
            target.prefill_done += chunk
            self.stats.prefill_tokens += chunk
            if target.prefill_len == target.prefill_done:
                self._num_prefilling -= 1
                self._prefill_completed(target, finished)
        else:  # mixed
            decoders, chunks = target
            for state in decoders:
                state.decode_done += 1
                if state.first_token_s is None:
                    state.first_token_s = now
                if state.decode_done >= state.decode_len:
                    lifecycle.transition(state, "finish_decode")
                    self._finish(state, finished)
            for state, tokens in chunks:
                state.prefill_done += tokens
                self.stats.prefill_tokens += tokens
                if state.prefill_len == state.prefill_done:
                    self._num_prefilling -= 1
                    self._prefill_completed(state, finished)
        return finished
