"""Token-level serving engine: the cluster event loop.

Where :class:`repro.serving.simulator.ServingSimulator` treats each request
as one opaque service-time blob, this engine advances a **cluster** of
instances one *step* at a time.  The machinery is split across two layers:

* :class:`~repro.serving.instance.InstanceRuntime` owns everything inside
  one instance — batch formation, KV admission (worst-case reservation or
  paged blocks), paged growth, swap/recompute preemption, and
  exclusive/mixed step building.  Each runtime owns its own
  :class:`~repro.core.multi_node.LoopLynxSystem`, so a cluster may mix
  instance classes (1/2/4-node instances, different KV budgets);
* :class:`TokenServingEngine` (here) owns everything between instances —
  the shared waiting queue (a :class:`~repro.serving.schedulers.
  SchedulerPolicy`), the discrete-event clock over arrivals and step
  completions, and **routing**: on heterogeneous pools a pluggable
  :class:`~repro.serving.cluster.Router` decides which boundary instance
  pulls work next and where a request may be placed.

Behaviour preserved from the pre-cluster engines (PR 1–3), pinned by
golden-timestamp tests:

* **continuous batching** — requests join the running batch at any step
  boundary and leave the moment their last token is generated;
* **mixed prefill/decode steps** — ``prefill_mode="mixed"`` streams prompts
  in alongside live decodes under a per-step token budget;
* **pluggable scheduling** — admission order comes from a
  :class:`~repro.serving.schedulers.SchedulerPolicy` (FIFO, SJF, priority);
* **KV-capacity admission and preemption** — reservation or paged regimes,
  with swap-to-host or discard-and-recompute eviction;
* **bit-identical homogeneous pools** — a single-class cluster runs the
  exact pre-cluster dispatch order regardless of router, so every
  homogeneous configuration reproduces the PR 1–3 timestamps exactly.

Request lifecycle (every transition happens at a step boundary)::

               push     route+admit           last token
    arrival ─────▶ QUEUED ───────────▶ RUNNING ────────▶ FINISHED
                     ▲                   │  ▲
                     │   preempt (evict) │  │ re-admit (swap: resume;
                     └────────── PREEMPTED──┘  recompute: prefill restarts)

On a **disaggregated** cluster (role-tagged specs like
``"1x4n:prefill,4x1n:decode"``) a prompt finishing on a prefill-role
instance takes one extra hop: its paged KV blocks are exported (a swap-out
on the prefiller), a *handoff event* delays the request by the PCIe
transfer, and it re-enters the queue pinned to the least-loaded
decode-capable instance, which pays its own swap-in at admission —
capacity, fragmentation and transfer-time accounting all ride the existing
swap machinery.

The discrete-event loop reuses the sequence-counter idiom of
:mod:`repro.dataflow.engine`: step completions and KV handoffs share one
time-ordered :class:`~repro.serving.events.BucketedEventQueue`, while
request arrivals are lazy-merged into it straight off the sorted trace, so
results are exact and reproducible (no wall-clock time).

Units, throughout this module: timestamps and durations are **seconds** on
the simulated clock, lengths are **tokens**, KV quantities are **cached
token positions per node** (reservation mode) or **fixed-size blocks per
node** (paged mode), and swap traffic is **bytes summed over all nodes**.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.multi_node import LoopLynxSystem
from repro.core.pricing_cache import (
    PricingCacheStore,
    PricingTables,
    config_fingerprint,
)
from repro.memory.paged_kv import PagedKVManager
from repro.serving import lifecycle
from repro.serving.events import BucketedEventQueue, Event
from repro.serving.cluster import ClusterSpec, Router, make_router, parse_cluster_spec
from repro.serving.instance import (
    InstanceRuntime,
    RequestState,
    kv_capacity_admits,
)
from repro.serving.metrics import (
    METRICS_MODES,
    InstanceClassMetrics,
    ServingMetrics,
    StreamingMetricsCollector,
    check_slo,
)
from repro.serving.schedulers import (
    KVAdmissionController,
    make_scheduler,
)
from repro.sanitize import EngineSanitizer, sanitize_enabled
from repro.units import Seconds, Tokens
from repro.workloads.traces import Request, RequestTrace, StreamingTrace

#: Accepted values for ``TokenServingEngine(preemption_mode=...)`` (paged
#: KV mode only; reservation mode always recomputes).
PREEMPTION_MODES = ("swap", "recompute")

#: Accepted values for ``TokenServingEngine(prefill_mode=...)``:
#: ``"exclusive"`` runs one request's prefill chunk per step (all co-resident
#: decodes stall while a prompt streams in — the PR 1 regime, kept
#: bit-identical); ``"mixed"`` packs one decode token per running request
#: plus prefill-chunk tokens into a single token-budgeted step, so prompts
#: stream in alongside live decodes.
PREFILL_MODES = ("exclusive", "mixed")

#: Default token budget of one mixed step (decode tokens + prefill-chunk
#: tokens); production chunked-prefill schedulers run 256–2048.
DEFAULT_MIXED_STEP_TOKEN_BUDGET = 256

#: KV recipe names accepted by ``TokenServingEngine(kv_mode=...)``
#: (``None`` = unconstrained admission).
KV_RECIPE_MODES = ("reserve", "paged")


def _is_arrival_sorted(requests: List[Request]) -> bool:
    """True when the requests are already ordered by ``(arrival_s,
    request_id)`` — the invariant every finalized trace satisfies — so the
    engine can skip re-sorting them on every run."""
    prev_arrival = float("-inf")
    prev_id = -1
    for request in requests:
        arrival = request.arrival_s
        if (arrival, request.request_id) < (prev_arrival, prev_id):
            return False
        prev_arrival = arrival
        prev_id = request.request_id
    return True


def _is_id_sorted(records: List["ServedRequest"]) -> bool:
    """True when completion order already equals id order (common for
    near-FIFO runs), so the final record sort can be skipped."""
    prev = -1
    for record in records:
        rid = record.request_id
        if rid < prev:
            return False
        prev = rid
    return True


def _stall_report(missing: int, head: Optional[RequestState],
                  runtimes: List[InstanceRuntime],
                  gate: Optional[Callable[[InstanceRuntime, RequestState],
                                          bool]]) -> str:
    """The end-of-run stall error: how many requests never finished, the
    blocked queue head (request id, lifecycle phase, the instance its KV
    is pinned to) and why each instance refuses it."""
    text = (f"engine stalled: {missing} requests never finished "
            "(scheduler head permanently blocked)")
    if head is None:
        parked = [f"instance {r.instance_id} parks {len(r.parked)}"
                  for r in runtimes if r.parked]
        return f"{text}; the queue is empty; " + (", ".join(parked)
                                                  or "nothing is parked")
    reasons = []
    for runtime in runtimes:
        if not runtime.role_admits(head):
            reason = f"role {runtime.role}"
        elif gate is not None and not gate(runtime, head):
            reason = "router veto"
        elif len(runtime.batch) >= runtime.max_batch_size:
            reason = "batch full"
        elif not runtime.kv_admits(head):
            reason = "KV"
        else:
            reason = "admits"
        reasons.append(f"instance {runtime.instance_id}: {reason}")
    return (f"{text}; head request {head.request.request_id} "
            f"(phase {head.phase}, swapped_on {head.swapped_on}); "
            + ", ".join(reasons))


@dataclass(frozen=True, slots=True)
class ServedRequest:
    """Token-level timing record of one served request.

    All timestamps are seconds on the simulated clock; ``prefill_len`` and
    ``decode_len`` are token counts.  ``instance_id`` is the instance that
    completed the request — ``None`` for a request that never ran (it was
    never admitted anywhere, so inventing an instance id would corrupt
    per-instance aggregation; analysis helpers skip ``None`` records).
    ``preemptions`` counts every eviction from a running batch;
    ``swap_outs`` counts the subset whose KV blocks were swapped to host
    memory instead of discarded (paged ``swap`` mode), so ``preemptions -
    swap_outs`` prefills were recomputed.  ``handoffs`` counts
    prefill→decode KV handoffs (disaggregated clusters only; on such a
    cluster ``instance_id`` is the *decode* instance that generated the
    request's tokens).
    """

    request_id: int
    instance_id: Optional[int]
    arrival_s: Seconds
    admitted_s: Seconds
    first_token_s: Optional[Seconds]
    finish_s: Seconds
    prefill_len: Tokens
    decode_len: Tokens
    tenant: str = "default"
    priority: int = 0
    preemptions: int = 0
    swap_outs: int = 0
    handoffs: int = 0

    @property
    def queueing_delay_s(self) -> Seconds:
        """Seconds from arrival until first admission into a batch."""
        return self.admitted_s - self.arrival_s

    @property
    def service_time_s(self) -> Seconds:
        """Seconds from first admission to completion (includes any
        re-queued time after a preemption)."""
        return self.finish_s - self.admitted_s

    @property
    def end_to_end_latency_s(self) -> Seconds:
        """Seconds from arrival to the last generated token."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[Seconds]:
        """Time to first token in seconds, measured from *arrival* (None
        when the request generated nothing)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[Seconds]:
        """Mean seconds per output token after the first (``None`` when fewer
        than two tokens were generated — a single token has no inter-token
        gap, and a 0.0 here would drag TPOT percentiles toward zero)."""
        if self.first_token_s is None or self.decode_len <= 1:
            return None
        return (self.finish_s - self.first_token_s) / (self.decode_len - 1)


class TokenServingEngine:
    """Discrete-event simulation of a cluster of instances at step
    granularity.

    The pool comes from a cluster spec (``cluster="2x1n,2x2n,1x4n"`` or a
    :class:`~repro.serving.cluster.ClusterSpec`; the default ``"1x2n"`` is
    one 2-node instance).  It may be heterogeneous: each instance class
    gets its own cycle model, and KV admission is built per class from the
    recipe knobs (``kv_mode``, ``kv_budget_bytes``, ``kv_block_size``,
    ``kv_prefix_sharing``).  ``router`` picks the cluster-routing policy
    (consulted only on heterogeneous pools; single-class pools run the
    exact pre-cluster dispatch order whatever the router).

    Parameters
    ----------
    cluster:
        Cluster spec string or :class:`~repro.serving.cluster.ClusterSpec`
        (``"Nx2n"`` is ``N`` homogeneous 2-node instances).
    policy:
        Scheduler policy name (``fifo``, ``sjf``, ``priority``); a fresh
        :class:`SchedulerPolicy` instance per run is built from the name.
    max_batch_size:
        Decode-batch ceiling per instance; 1 disables batching (the
        compatibility regime matching the whole-request simulator).
    prefill_chunk_tokens:
        Prompt tokens processed per prefill step.  Smaller chunks interleave
        prefill with running decodes sooner; ``None`` runs each prompt to
        completion in one step.
    prefill_mode, mixed_step_token_budget:
        Exclusive vs mixed prefill and the mixed-step token budget (see
        :data:`PREFILL_MODES`).
    preemption_mode:
        What happens to a paged-mode victim's KV state: ``"swap"`` moves its
        blocks to the host tier over PCIe and the request later resumes
        without recomputation; ``"recompute"`` discards the blocks and the
        request restarts from prefill.
    context_bucket:
        Decode-step timings are memoized with the context length rounded up
        to this multiple (1 = exact).
    router:
        Router name (see :data:`~repro.serving.cluster.ROUTER_NAMES`) or a
        :class:`~repro.serving.cluster.Router` instance.
    kv_mode, kv_budget_bytes, kv_block_size:
        Per-class KV recipe: ``None`` (no admission control),
        ``"reserve"`` (worst-case reservations against a per-node byte
        budget; without a budget admission stays unconstrained) or
        ``"paged"`` (block pool, budget defaults to each node's HBM share
        net of weights).  A class's ``@<size>MiB`` spec override wins over
        ``kv_budget_bytes``.
    kv_prefix_sharing:
        Paged recipe only: content-hash full prompt blocks into a
        per-pool prefix index so later requests whose
        ``prompt_token_ids`` share a prefix reuse the cached blocks
        (copy-on-write on divergence) and skip the matched prefill
        tokens.  Off by default — with it off every historical
        configuration is bit-identical to before the feature existed.
    swap_priority:
        Paged ``swap`` mode only: park preemption victims on their
        instance and resume them ahead of new admissions (their KV is
        already paid for), instead of sending them back through the shared
        queue.  Off by default — the PR 2/3 regime.
    metrics_mode:
        ``"full"`` (default) keeps one record per request — exact
        percentiles, the golden regime.  ``"streaming"`` folds every
        finished request into O(1)-memory aggregates
        (:class:`~repro.serving.metrics.StreamingMetricsCollector`) and
        returns an *empty* record list, so million-request replays hold no
        per-request state; percentiles then carry a bounded relative error
        (``quantile_error``) while counters, means and extremes stay exact.
    slo:
        Optional ``(ttft_slo_s, tpot_slo_s)`` pair pinned for streaming
        runs: joint SLO attainment needs per-request TTFT/TPOT *pairs*,
        which marginal aggregates cannot recover, so streaming counts
        attainment online against exactly this pin.  Both values must be
        finite and non-negative.  Full mode answers arbitrary SLO queries
        after the fact and rejects a pin.
    quantile_error:
        Guaranteed relative error of streaming-mode percentile estimates
        (default 0.5% — see :class:`~repro.serving.metrics.StreamingQuantile`).
    multistep:
        Allow the event loop to fast-forward provably identical
        consecutive pure-decode steps into single events (see
        :meth:`~repro.serving.instance.InstanceRuntime.dispatch`).  Only
        engaged where it is exact — paged pools with
        ``preemption_mode="swap"`` of any shape, non-paged single-class
        pools — and produces bit-identical timestamps there; the switch
        exists so equivalence tests can compare against the
        one-event-per-step execution.
    sanitize:
        Opt-in shadow validation (see :mod:`repro.sanitize`): re-verify
        event-time monotonicity, paged-KV block/refcount conservation and
        queue/request conservation after every processed event, raising
        :class:`~repro.errors.SanitizerError` with the offending event
        attached.  ``None`` (default) defers to the ``REPRO_SANITIZE``
        environment variable.  The checks are read-only, so sanitized
        runs stay bit-identical to unsanitized ones.

    :meth:`run` also accepts a
    :class:`~repro.workloads.traces.StreamingTrace`: arrivals are then
    drawn lazily (never materialized), the stream must be arrival-sorted,
    and KV validation happens per request as it is drawn rather than up
    front.

    After :meth:`run`, ``last_kv_managers`` holds each instance's block pool
    (paged mode; for inspection of occupancy/swap counters in tests).
    """

    def __init__(self, cluster: Union[str, ClusterSpec] = "1x2n",
                 policy: str = "fifo",
                 max_batch_size: int = 8,
                 prefill_chunk_tokens: Optional[int] = 64,
                 prefill_mode: str = "exclusive",
                 mixed_step_token_budget: int = DEFAULT_MIXED_STEP_TOKEN_BUDGET,
                 preemption_mode: str = "swap",
                 context_bucket: int = 32,
                 router: Union[str, Router] = "round_robin",
                 kv_mode: Optional[str] = None,
                 kv_budget_bytes: Optional[int] = None,
                 kv_block_size: int = 16,
                 kv_prefix_sharing: bool = False,
                 swap_priority: bool = False,
                 metrics_mode: str = "full",
                 slo: Optional[Tuple[float, float]] = None,
                 quantile_error: float = 0.005,
                 multistep: bool = True,
                 sanitize: Optional[bool] = None,
                 pricing_cache: Optional[
                     Union[str, "os.PathLike[str]", PricingCacheStore]
                 ] = None) -> None:
        if metrics_mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {metrics_mode!r}; "
                f"known: {', '.join(METRICS_MODES)}")
        if slo is not None:
            if metrics_mode != "streaming":
                raise ValueError(
                    "an SLO pin only applies to metrics_mode='streaming' "
                    "(full mode answers arbitrary SLO queries after the "
                    "fact)")
            if len(slo) != 2:
                raise ValueError("slo must be a (ttft_slo_s, tpot_slo_s) "
                                 "pair")
            slo = check_slo(slo[0], slo[1])
        if not 0.0 < quantile_error < 1.0:
            raise ValueError("quantile_error must be in (0, 1)")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if prefill_chunk_tokens is not None and prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive")
        if prefill_mode not in PREFILL_MODES:
            raise ValueError(
                f"unknown prefill mode {prefill_mode!r}; "
                f"known: {', '.join(PREFILL_MODES)}")
        if mixed_step_token_budget <= 0:
            raise ValueError("mixed_step_token_budget must be positive")
        if context_bucket <= 0:
            raise ValueError("context_bucket must be positive")
        if preemption_mode not in PREEMPTION_MODES:
            raise ValueError(
                f"unknown preemption mode {preemption_mode!r}; "
                f"known: {', '.join(PREEMPTION_MODES)}")
        if kv_mode is not None and kv_mode not in KV_RECIPE_MODES:
            raise ValueError(f"unknown kv mode {kv_mode!r}; "
                             f"known: {', '.join(KV_RECIPE_MODES)}")
        if swap_priority and preemption_mode != "swap":
            raise ValueError(
                "swap_priority prioritizes resuming swapped-out requests; "
                "it requires preemption_mode='swap'")
        if swap_priority and kv_mode != "paged":
            raise ValueError(
                "swap_priority requires kv_mode='paged'; nothing is ever "
                "swapped out otherwise")
        if kv_prefix_sharing and kv_mode != "paged":
            raise ValueError(
                "kv_prefix_sharing builds prefix indices into the "
                "per-class paged block pools; it requires kv_mode='paged'")
        if isinstance(cluster, str):
            cluster = parse_cluster_spec(cluster)
        if kv_mode is None and (
                kv_budget_bytes is not None
                or any(spec.kv_budget_bytes is not None
                       for spec in cluster.specs)):
            raise ValueError(
                "a KV budget without kv_mode would be silently "
                "unenforced; pick kv_mode='reserve' or 'paged'")
        if cluster.has_roles:
            if kv_mode != "paged":
                raise ValueError(
                    "prefill/decode roles hand off paged KV block "
                    "tables between instances; role-tagged clusters "
                    "require kv_mode='paged'")
            roles = {spec.role for spec in cluster.specs}
            if not roles & {"prefill", "both"}:
                raise ValueError(
                    f"cluster {cluster} has no prefill-capable class; "
                    "nothing could ever compute a prompt")
            if not roles & {"decode", "both"}:
                raise ValueError(
                    f"cluster {cluster} has no decode-capable class; "
                    "handed-off prompts could never generate")
        self.policy = policy
        make_scheduler(policy)  # fail fast on unknown names
        self.router = make_router(router)
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.prefill_mode = prefill_mode
        self.mixed_step_token_budget = mixed_step_token_budget
        self.preemption_mode = preemption_mode
        self.context_bucket = context_bucket
        self.kv_prefix_sharing = kv_prefix_sharing
        self.swap_priority = swap_priority
        self.metrics_mode = metrics_mode
        self.slo = slo
        self.quantile_error = quantile_error
        self.multistep = multistep
        #: resolved at construction: explicit argument wins over the
        #: ``REPRO_SANITIZE`` environment switch (see :mod:`repro.sanitize`)
        self.sanitize = sanitize_enabled(sanitize)
        self.cluster = cluster
        self.num_instances = cluster.num_instances
        # ---- per-class prototypes: (spec, system, controller, manager) ----
        self._protos = []
        for spec in cluster.specs:
            class_system = LoopLynxSystem.paper_configuration(
                num_nodes=spec.num_nodes)
            budget = (spec.kv_budget_bytes
                      if spec.kv_budget_bytes is not None
                      else kv_budget_bytes)
            controller = manager = None
            if kv_mode == "paged":
                manager = PagedKVManager.for_system(
                    class_system, block_size_tokens=kv_block_size,
                    budget_bytes=budget,
                    prefix_sharing=kv_prefix_sharing)
            elif kv_mode == "reserve" and budget is not None:
                controller = KVAdmissionController.for_system(
                    class_system, budget_bytes=budget)
            self._protos.append((spec, class_system, controller, manager))
        spec_nodes = {spec.num_nodes for spec in cluster.specs}
        #: Nodes per instance (0 when classes differ — use per-class
        #: metrics then).  pop() is order-independent here: only taken on
        #: a singleton set.
        self.num_nodes_per_instance = (spec_nodes.pop()  # repro-lint: disable=R006
                                       if len(spec_nodes) == 1 else 0)
        self._paged = kv_mode == "paged"
        self._kv_mode = ("paged" if self._paged
                         else "reserve" if any(proto[2] is not None
                                               for proto in self._protos)
                         else "none")
        # step-timing memo dicts (decode, mixed, prefill-chunk, transfer),
        # shared per class and across runs (the cycle model and the PCIe
        # pricing are pure, so sharing only saves evaluations)
        self._caches: List[PricingTables] = [
            ({}, {}, {}, {}) for _ in self._protos]
        # persistent pricing-cache plumbing (opt-in): warm each class's
        # memo dicts from disk now; save back after a run that grew them
        self._pricing_store: Optional[PricingCacheStore] = None
        self._pricing_fps: List[str] = []
        self._pricing_loaded_counts: List[Tuple[int, int, int, int]] = []
        #: entries loaded from / tables saved to the persistent pricing
        #: cache, and cache files it rejected (each also warns)
        self.pricing_cache_stats: Dict[str, int] = {
            "loaded": 0, "saved": 0, "rejected": 0}
        if pricing_cache is not None:
            store = (pricing_cache
                     if isinstance(pricing_cache, PricingCacheStore)
                     else PricingCacheStore(pricing_cache))
            self._pricing_store = store
            for (_, class_system, _, manager), caches in zip(
                    self._protos, self._caches):
                probe = (manager.swap_transfer_s(1)
                         if manager is not None else None)
                fp = config_fingerprint(class_system.config, probe)
                self._pricing_fps.append(fp)
                loaded = store.load(fp)
                if store.last_rejection is not None:
                    self.pricing_cache_stats["rejected"] += 1
                if loaded is not None:
                    for table, warm in zip(caches, loaded):
                        table.update(warm)
                        self.pricing_cache_stats["loaded"] += len(warm)
                self._pricing_loaded_counts.append(
                    (len(caches[0]), len(caches[1]),
                     len(caches[2]), len(caches[3])))
        self.last_kv_managers: List[PagedKVManager] = []

    def _save_pricing_caches(self) -> None:
        """Persist any pricing table that grew since it was last synced
        with the store (no-op without a configured store)."""
        store = self._pricing_store
        if store is None:
            return
        for i, (fp, caches) in enumerate(zip(self._pricing_fps,
                                             self._caches)):
            counts = (len(caches[0]), len(caches[1]),
                      len(caches[2]), len(caches[3]))
            if counts != self._pricing_loaded_counts[i]:
                store.save(fp, caches)
                self._pricing_loaded_counts[i] = counts
                self.pricing_cache_stats["saved"] += 1

    # ------------------------------------------------------------------
    # cluster construction and validation
    # ------------------------------------------------------------------
    def _build_runtimes(self) -> List[InstanceRuntime]:
        """Fresh per-run instance runtimes, ids in spec order."""
        runtimes: List[InstanceRuntime] = []
        instance_id = 0
        # A fold skips step boundaries, so it is exact only where no
        # skipped boundary could have admitted anything.  A paged fold
        # stops before its block growth could evict, but in recompute mode
        # another instance's growth eviction puts its victim back in the
        # shared queue with no arrival to bound it; a swapped victim is
        # pinned to its own instance.  Swap-mode paged pools therefore
        # fold whatever their classes: on a heterogeneous pool the fold is
        # bounded by the role-aware horizon of :meth:`run`, and a busy
        # instance is only dispatched at its own boundaries, where routers
        # rank it as a pure function of its state.  Non-paged
        # heterogeneous pools stay per-step.
        allow_multistep = self.multistep and (
            self.preemption_mode == "swap" if self._paged
            else not self.cluster.is_heterogeneous)
        for (spec, class_system, controller, manager), caches in zip(
                self._protos, self._caches):
            for _ in range(spec.count):
                runtime = InstanceRuntime(
                    instance_id, class_system,
                    class_label=spec.label,
                    role=spec.role,
                    max_batch_size=self.max_batch_size,
                    prefill_chunk_tokens=self.prefill_chunk_tokens,
                    prefill_mode=self.prefill_mode,
                    mixed_step_token_budget=self.mixed_step_token_budget,
                    kv_controller=controller,
                    kv=(manager.clone_empty() if manager is not None
                        else None),
                    preemption_mode=self.preemption_mode,
                    context_bucket=self.context_bucket,
                    swap_priority=self.swap_priority,
                    step_cache=caches[0],
                    mixed_step_cache=caches[1],
                    prefill_cache=caches[2],
                    transfer_cache=caches[3])
                runtime.allow_multistep = allow_multistep
                runtimes.append(runtime)
                instance_id += 1
        return runtimes

    @property
    def _needs_validation(self) -> bool:
        """Whether any instance class constrains admission at all (with no
        KV admission anywhere, every request is trivially servable and
        validation can skip the trace scan entirely)."""
        return any(controller is not None or manager is not None
                   for _, _, controller, manager in self._protos)

    def _validate(self, trace: Iterable[Request]) -> None:
        """Reject traces containing a request no instance class could ever
        serve (it would block the queue head forever)."""
        if not self._needs_validation:
            return
        for request in trace:
            self._validate_request(request)

    def _validate_request(self, request: Request) -> None:
        """Per-request slice of :meth:`_validate` — streaming traces
        validate each request lazily as it is drawn."""
        if len(self._protos) == 1:
            # single class: the prototype's own validation carries the
            # precise error message
            _, _, controller, manager = self._protos[0]
            if controller is not None:
                controller.validate((request,))
            if manager is not None:
                manager.validate((request,))
            return
        if self.cluster.has_roles:
            # disaggregated: a request needs a place to *start* (a prefill
            # class holding its prompt, or a role-both class holding its
            # full context) and a place to *finish* (a decode-capable
            # class holding its full context)
            starts = any(
                kv_capacity_admits(c, m, request, role="prefill")
                for spec, _, c, m in self._protos
                if spec.role == "prefill")
            finishes = any(
                kv_capacity_admits(c, m, request)
                for spec, _, c, m in self._protos
                if spec.role == "decode")
            whole = any(
                kv_capacity_admits(c, m, request)
                for spec, _, c, m in self._protos
                if spec.role == "both")
            if not ((starts and (finishes or whole)) or whole):
                raise ValueError(
                    f"request {request.request_id} cannot be served by "
                    f"cluster {self.cluster} under the KV budget: it "
                    "needs a prefill-capable class holding its prompt "
                    "and a decode-capable class holding its full "
                    "context")
            return
        if not any(kv_capacity_admits(controller, manager, request)
                   for _, _, controller, manager in self._protos):
            raise ValueError(
                f"request {request.request_id} fits no instance class "
                f"of cluster {self.cluster} under the KV budget")

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, trace: Union[RequestTrace, StreamingTrace]
            ) -> Tuple[ServingMetrics, List[ServedRequest]]:
        """Serve the trace and return aggregate metrics plus per-request
        records (sorted by request id).

        A :class:`~repro.workloads.traces.StreamingTrace` is consumed
        lazily: arrivals merge into the event loop straight off the
        iterator (the stream contract says they come pre-sorted; an
        out-of-order arrival raises), and KV validation runs per request
        as it is drawn.  In ``metrics_mode="streaming"`` the returned
        record list is empty — all aggregates live in the metrics object —
        so memory stays bounded however long the trace is.

        Raises ``ValueError`` for an empty trace or one containing a request
        that could never be admitted (KV validation), and ``RuntimeError``
        if the scheduler head deadlocks (a bug, not a workload property).
        """
        streaming_trace = isinstance(trace, StreamingTrace)
        if not streaming_trace:
            if len(trace) == 0:
                raise ValueError("trace is empty")
            self._validate(trace)

        scheduler = make_scheduler(self.policy)
        runtimes = self._build_runtimes()
        self.last_kv_managers = [r.kv for r in runtimes if r.kv is not None]
        multi_class = self.cluster.is_heterogeneous
        has_roles = self.cluster.has_roles
        router = self.router
        gate = router.placement_ok if multi_class else None
        if multi_class:
            # routers may precompute placement from the trace; a
            # StreamingTrace is re-iterable by contract, so this pass does
            # not consume the engine's arrival stream
            router.prepare(runtimes, trace)
        # two-level bucketed queue (near-future ring + far heap); pops
        # come out in exactly heapq's (time, seq) order, so the replay
        # is bit-identical to the old global heap
        events = BucketedEventQueue()
        push_event, pop_event = events.push, events.pop
        peek_event_time = events.peek_time
        seq = itertools.count()
        _STEP_DONE, _HANDOFF = 1, 2

        # ---- arrival stream ----------------------------------------------
        # Arrivals never enter the event heap: the loop below lazy-merges
        # the (sorted) arrival iterator with the heap, processing an
        # arrival whenever it is due no later than the earliest event —
        # exactly the order the old push-everything-first loop produced,
        # without a million heap entries or the re-sort of an
        # already-sorted trace.
        if streaming_trace:
            validate = (self._validate_request if self._needs_validation
                        else None)

            def arrival_states() -> Iterator[RequestState]:
                last = float("-inf")
                for request in trace:
                    if request.arrival_s < last:
                        raise ValueError(
                            "streaming traces must be sorted by arrival "
                            f"time; request {request.request_id} at "
                            f"{request.arrival_s}s follows one at {last}s")
                    last = request.arrival_s
                    if validate is not None:
                        validate(request)
                    yield RequestState(request)

            arrivals = arrival_states()
        else:
            requests = (trace.requests if isinstance(trace, RequestTrace)
                        else list(trace))
            if not _is_arrival_sorted(requests):
                requests = sorted(requests,
                                  key=lambda r: (r.arrival_s, r.request_id))
            arrivals = map(RequestState, requests)
        next_state = next(arrivals, None)
        if next_state is None:
            raise ValueError("trace is empty")
        next_arrival_t = next_state.request.arrival_s
        num_arrivals = 0
        # index of next_state within the sorted request list (list-trace
        # runs only; feeds the idle-gap fold horizon below)
        arr_index = 0

        records: List[ServedRequest] = []
        collector: Optional[StreamingMetricsCollector] = None
        if self.metrics_mode == "streaming":
            collector = StreamingMetricsCollector(
                slo=self.slo, quantile_error=self.quantile_error,
                class_of_instance={r.instance_id: r.class_label
                                   for r in runtimes})
            record = collector.add
        else:
            def record(state: RequestState, now: float) -> None:
                request = state.request
                records.append(ServedRequest(
                    request_id=request.request_id,
                    instance_id=state.instance_id,
                    arrival_s=request.arrival_s,
                    admitted_s=(state.admitted_s
                                if state.admitted_s is not None else now),
                    first_token_s=state.first_token_s,
                    finish_s=now,
                    prefill_len=state.prefill_len,
                    decode_len=state.decode_len,
                    tenant=request.tenant,
                    priority=request.priority,
                    preemptions=state.preemptions,
                    swap_outs=state.swap_outs,
                    handoffs=state.handoffs,
                ))

        # single-class non-paged pools take the straight-line path in the
        # main loop: a completed step only ever re-dispatches its own
        # instance, so the pump/dispatch closures are inlined out of the
        # hot loop
        fast_completer = (not multi_class and not self._paged
                          and not has_roles)

        # ---- idle-gap fold horizon ---------------------------------------
        # In the fast regime with no KV admission gate anywhere (every
        # runtime ``_admits_all``) and a materialized trace, an arrival
        # that lands while some *other* instance is idle is absorbed by
        # that instance the moment it arrives (the arrival pump offers
        # idle instances the queue in id order, and an admit-all idle
        # instance always takes the head), so the queue stays empty and
        # none of the folding instance's skipped boundaries could have
        # admitted anything.  A folding instance may therefore run past
        # the next ``spare`` arrivals — one per other idle instance — and
        # stop only at the first arrival that could actually reach *its*
        # queue.  This extends fast-forward folding across idle-cluster
        # gaps; timestamps are unchanged because the fold still walks
        # boundary by boundary, it just stops later.
        horizon_fn: Optional[Callable[[InstanceRuntime], float]] = None
        if (fast_completer and self.multistep and not streaming_trace
                and self._protos[0][2] is None):
            fold_requests: List[Request] = requests
            num_fold_requests = len(fold_requests)

            def _fold_horizon(active: InstanceRuntime) -> float:
                if next_state is None:
                    return float("inf")
                spare = 0
                for r in runtimes:
                    if not r.busy and r is not active:
                        spare += 1
                if spare == 0:
                    return next_arrival_t
                absorbed_until = arr_index + spare
                if absorbed_until >= num_fold_requests:
                    return float("inf")
                return fold_requests[absorbed_until].arrival_s

            horizon_fn = _fold_horizon

        # ---- role-aware fold horizon -------------------------------------
        # On a heterogeneous swap-mode paged pool a fold starts with the
        # queue empty.  Swap victims are pinned to the instance that
        # evicted them, so only three events can later queue a request the
        # folding instance could admit: a trace arrival, a handoff arrival,
        # and the step completion of a busy prefill-role instance (which
        # launches handoffs).  The earliest pending one bounds the fold.
        handoffs_due: List[float] = []   # heap of pending handoff times
        step_due = [0.0] * len(runtimes)   # pending completion, by id
        if multi_class and runtimes[0].allow_multistep:
            prefillers = [r for r in runtimes if r.role == "prefill"]

            def _role_horizon(active: InstanceRuntime) -> float:
                limit = next_arrival_t
                if handoffs_due and handoffs_due[0] < limit:
                    limit = handoffs_due[0]
                for r in prefillers:
                    if r.busy and r is not active:
                        due = step_due[r.instance_id]
                        if due < limit:
                            limit = due
                return limit

            horizon_fn = _role_horizon

        # ---- pending step completions, by time --------------------------
        # A paged fold ends at the first boundary that coincides with
        # another instance's pending step completion (instances running in
        # lockstep keep their one-event-per-step order at equal times).
        pending_due: Dict[float, int] = {}
        track_due = self._paged and runtimes[0].allow_multistep

        def dispatch(runtime: InstanceRuntime, now: float) -> None:
            launch = runtime.dispatch(scheduler, now, gate=gate,
                                      horizon_s=next_arrival_t,
                                      horizon_fn=horizon_fn,
                                      pending_times=pending_due)
            if launch is not None:
                completes = launch.completes_at_s
                if completes is None:
                    completes = now + launch.duration_s
                step_due[runtime.instance_id] = completes
                if track_due:
                    pending_due[completes] = pending_due.get(completes, 0) + 1
                push_event((completes, next(seq), _STEP_DONE,
                            launch.payload))

        def offer_idle(now: float) -> None:
            """Paged single-class pools: offer the queue to every idle
            instance in id order, and again while a pass admitted work
            and requests still wait.  Swap affinity pins a victim to the
            instance holding its blocks, so an admission can bring an
            idle instance's own victim to the head after that instance
            was passed over; repeating the pass leaves every idle instance
            refusing the current head, which is what makes the boundaries
            a fast-forward skips provably inert.  An idle instance with
            nothing parked does nothing once the queue is empty, so it is
            not dispatched."""
            while True:
                admitted = False
                for runtime in runtimes:
                    if not runtime.busy and (runtime.parked or len(scheduler)):
                        dispatch(runtime, now)
                        admitted = admitted or runtime.busy
                if not (admitted and len(scheduler)):
                    return

        # Heterogeneous pools.  ``settled``: with the queue empty, no
        # dispatch can queue a request another instance could admit (an
        # eviction needs a waiting head, or pins its swapped victim to the
        # evicting instance), so an idle instance holding no parked victim
        # would dispatch as a no-op and is not offered at all.  Recompute
        # paged pools can queue an unpinned growth victim mid-pump.
        # ``reoffer``: swap-mode paged pools repeat the idle pass while it
        # admits (see :func:`pump`).
        reoffer = self._paged and self.preemption_mode == "swap"
        settled = reoffer or not self._paged

        def pump(completer: Optional[InstanceRuntime], now: float) -> None:
            """Offer the queue to every instance at a step boundary.

            Single-class pools replay the exact pre-cluster order: the
            completing instance first, then — paged mode only, where
            swap affinity can strand work on an idle instance — every idle
            instance (:func:`offer_idle`); arrivals offer to idle
            instances in id order.  Heterogeneous pools let the router
            order the completer and the idle instances (idle ones are
            always woken while requests wait: a vetoed head must be able
            to reach its preferred class the moment it has a boundary).
            On swap-mode paged pools the idle instances are offered the
            queue again, router-ordered, while a pass admitted and
            requests still wait: an admission can bring a head an idle
            instance would take (its own swapped victim, or one the
            router's veto lets through) to the front after that instance
            was passed over, and the repeated pass leaves no idle instance
            able to admit the head, which is what makes the boundaries a
            fold skips inert.
            """
            if not multi_class:
                if completer is not None:
                    dispatch(completer, now)
                    if self._paged and len(scheduler):
                        offer_idle(now)
                elif self._paged:
                    offer_idle(now)
                else:
                    # without paged KV an idle instance holds no batch and
                    # no parked work, so once the queue drains the
                    # remaining idle dispatches would be no-ops — skip them
                    qlen = scheduler.__len__
                    for runtime in runtimes:
                        if not qlen():
                            break
                        if not runtime.busy:
                            dispatch(runtime, now)
                return
            while True:
                if settled and not len(scheduler):
                    candidates = [r for r in runtimes if r is completer
                                  or (not r.busy and r.parked)]
                else:
                    candidates = [r for r in runtimes
                                  if r is completer or not r.busy]
                if len(candidates) > 1:
                    # the rank keys are taken before any dispatch and the
                    # order is total, so dropping no-op candidates keeps
                    # the relative order of the rest
                    candidates = router.dispatch_order(candidates,
                                                       scheduler.peek())
                admitted = False
                for runtime in candidates:
                    if runtime is completer:
                        count = runtime.admission_count
                        dispatch(runtime, now)
                        admitted = (admitted
                                    or runtime.admission_count != count)
                    elif not runtime.busy:
                        if not runtime.parked:
                            # an idle instance's batch is empty: with
                            # nothing parked it only ever acts on the head
                            head = scheduler.peek()
                            if (head is None
                                    or runtime.refuses_outright(head, gate)):
                                continue
                        dispatch(runtime, now)
                        admitted = admitted or runtime.busy
                if not (reoffer and admitted and len(scheduler)):
                    return
                completer = None

        def launch_handoffs(runtime: InstanceRuntime, now: float) -> None:
            """Route every prompt the completed step finished on a
            prefill-role instance: import its KV into the least-loaded
            decode-capable instance's host tier (so the blocks always live
            on exactly one instance) and schedule the request's arrival in
            the queue at its ready offset — the runtime serializes
            same-step transfers over the one PCIe link, so the offsets
            already stack."""
            batch: List[Event] = []
            for state, cached_tokens, ready_s in runtime.take_handoffs():
                target = router.handoff_target(runtimes, state)
                if target is None:  # pragma: no cover - validation forbids
                    raise RuntimeError(
                        f"no decode-capable instance can hold request "
                        f"{state.request.request_id}; validate() should "
                        "have rejected this trace")
                target.kv.import_handoff(state.request.request_id,
                                         cached_tokens)
                state.swapped_on = target.instance_id
                state.handoff_pending = True
                batch.append((now + ready_s, next(seq), _HANDOFF, state))
                heapq.heappush(handoffs_due, now + ready_s)
            if batch:
                # one boundary's handoffs post together (they share the
                # step's timestamp base and resolve buckets in one pass)
                events.push_many(batch)

        # ---- shadow validation (opt-in, read-only) -----------------------
        sanitizer = EngineSanitizer() if self.sanitize else None

        def sanitize_check(now: float, event: object) -> None:
            """Re-verify the engine invariants after one processed event
            (only ever called with the sanitizer enabled)."""
            assert sanitizer is not None  # mypy narrowing  # repro-lint: disable=R005
            completed = len(records) if collector is None else collector.count
            in_flight = sum(1 for entry in events if entry[2] == _HANDOFF)
            sanitizer.after_event(
                now, event, scheduler=scheduler, runtimes=runtimes,
                num_arrivals=num_arrivals, completed=completed,
                in_flight_handoffs=in_flight)

        while True:
            if next_state is not None and (
                    not events or next_arrival_t <= peek_event_time()):
                now = next_arrival_t
                scheduler.push(next_state)
                num_arrivals += 1
                arrived = next_state
                # peel the following arrival *before* pumping so the
                # dispatch horizon already points past this one
                next_state = next(arrivals, None)
                next_arrival_t = (next_state.request.arrival_s
                                  if next_state is not None
                                  else float("inf"))
                arr_index += 1
                pump(None, now)
                if sanitizer is not None:
                    sanitize_check(now, ("arrival",
                                         arrived.request.request_id, now))
                continue
            if not events:
                break
            now, _, kind, payload = pop_event()
            if kind == _HANDOFF:
                heapq.heappop(handoffs_due)
                lifecycle.transition(payload, "handoff_arrive")
                scheduler.push(payload)
                pump(None, now)
                if sanitizer is not None:
                    sanitize_check(now, ("handoff",
                                         payload.request.request_id, now))
            else:
                runtime = payload[1]
                if track_due:
                    left = pending_due.pop(now) - 1
                    if left:
                        pending_due[now] = left
                for state in runtime.complete_step(payload, now):
                    record(state, now)
                if fast_completer:
                    launch = runtime.dispatch(scheduler, now, None,
                                              next_arrival_t,
                                              horizon_fn=horizon_fn)
                    if launch is not None:
                        completes = launch.completes_at_s
                        if completes is None:
                            completes = now + launch.duration_s
                        push_event((completes, next(seq), _STEP_DONE,
                                    launch.payload))
                else:
                    if has_roles:
                        launch_handoffs(runtime, now)
                    pump(runtime, now)
                if sanitizer is not None:
                    sanitize_check(now, ("step-done",
                                         runtime.instance_id, now))

        completed = len(records) if collector is None else collector.count
        if completed != num_arrivals:
            raise RuntimeError(_stall_report(num_arrivals - completed,
                                             scheduler.peek(), runtimes,
                                             gate))

        self._save_pricing_caches()
        if collector is not None:
            return self._metrics_streaming(collector, runtimes), []
        if not _is_id_sorted(records):
            records.sort(key=lambda r: r.request_id)
        return self._metrics(records, runtimes), records

    # ------------------------------------------------------------------
    # metrics assembly
    # ------------------------------------------------------------------
    def _kv_pool_shape(self) -> Tuple[int, int]:
        """``(kv_block_size, kv_total_blocks)`` of the paged pools (0, 0
        outside paged mode)."""
        if self._kv_mode != "paged":
            return 0, 0
        managers = self.last_kv_managers
        # the pop()s are order-independent: only taken on singleton sets
        block_sizes = {m.block_size_tokens for m in managers}
        kv_block_size = (block_sizes.pop()  # repro-lint: disable=R006
                         if len(block_sizes) == 1 else 0)
        # per-instance pool size on a single class; the cluster-wide
        # total when classes have different pools
        totals = {m.total_blocks for m in managers}
        kv_total_blocks = (totals.pop() if len(totals) == 1  # repro-lint: disable=R006
                           else sum(m.total_blocks for m in managers))
        return kv_block_size, kv_total_blocks

    def _pool_fields(self, runtimes: List[InstanceRuntime],
                     makespan: Seconds) -> Dict[str, Any]:
        """The :class:`ServingMetrics` fields full and streaming assembly
        share: pool shape, step accounting and the KV, swap, handoff and
        prefix counters (all exact in both modes).  Pool-wide time
        aggregates are the runtimes' own ledger prices added in
        instance-id order, so they do not depend on how steps interleave
        across instances (or on which of them folded)."""
        pool_time = makespan * self.num_instances
        times = [r.stats.times() for r in runtimes]

        def total(attr: str) -> float:
            return sum(t[attr] for t in times)

        busy_time = total("busy_time")
        managers = self.last_kv_managers
        kv_block_size, kv_total_blocks = self._kv_pool_shape()
        return dict(
            num_instances=self.num_instances,
            num_nodes_per_instance=self.num_nodes_per_instance,
            makespan_s=makespan,
            policy=self.policy,
            prefill_mode=self.prefill_mode,
            busy_time_s=busy_time,
            prefill_tokens_processed=sum(r.stats.prefill_tokens
                                         for r in runtimes),
            decode_step_time_s=total("decode_time"),
            prefill_step_time_s=total("prefill_time"),
            mixed_step_time_s=total("mixed_time"),
            kv_mode=self._kv_mode,
            kv_block_size=kv_block_size,
            kv_total_blocks=kv_total_blocks,
            mean_running_batch=(total("batch_time") / pool_time
                                if pool_time > 0 else 0.0),
            mean_kv_occupancy=(total("kv_occ_time") / pool_time
                               if pool_time > 0 else 0.0),
            peak_kv_occupancy=max(r.stats.peak_kv_occupancy
                                  for r in runtimes),
            mean_kv_fragmentation=(total("frag_time") / busy_time
                                   if busy_time > 0 else 0.0),
            swap_out_count=sum(m.swap_out_count for m in managers),
            swap_in_count=sum(m.swap_in_count for m in managers),
            swapped_bytes=sum(m.swapped_bytes_total for m in managers),
            swap_time_s=total("swap_time_s"),
            handoff_count=sum(r.stats.handoff_out_count for r in runtimes),
            handoff_time_s=sum(r.stats.handoff_time_s for r in runtimes),
            kv_prefix_sharing=self.kv_prefix_sharing,
            prefix_hits=sum(m.prefix_hits for m in managers),
            prefill_tokens_saved=sum(m.prefix_tokens_reused
                                     for m in managers),
            cow_copies=sum(m.cow_copies for m in managers),
            mean_kv_shared_fraction=(total("shared_kv_time") / busy_time
                                     if busy_time > 0 else 0.0),
            cluster=str(self.cluster),
            router=self.router.name,
        )

    def _metrics(self, records: List[ServedRequest],
                 runtimes: List[InstanceRuntime]) -> ServingMetrics:
        """Full-mode metrics assembly: exact per-request latency lists."""
        makespan = max(r.finish_s for r in records)

        def record_fields(group: List[InstanceRuntime]) -> Dict[str, Any]:
            # records with instance_id=None never ran on any instance and
            # are excluded
            ids = {r.instance_id for r in group}
            class_records = [r for r in records
                             if r.instance_id is not None
                             and r.instance_id in ids]
            return dict(
                requests=len(class_records),
                generated_tokens=sum(r.decode_len for r in class_records),
                ttfts_s=[r.ttft_s for r in class_records
                         if r.ttft_s is not None],
                tpots_s=[r.tpot_s for r in class_records
                         if r.ttft_s is not None],
                preemptions=sum(r.preemptions for r in class_records))

        return ServingMetrics(
            num_requests=len(records),
            generated_tokens=sum(r.decode_len for r in records),
            queueing_delays_s=[r.queueing_delay_s for r in records],
            end_to_end_latencies_s=[r.end_to_end_latency_s for r in records],
            service_times_s=[r.service_time_s for r in records],
            ttfts_s=[r.ttft_s for r in records if r.ttft_s is not None],
            tpots_s=[r.tpot_s for r in records if r.ttft_s is not None],
            preemptions=sum(r.preemptions for r in records),
            per_class=self._per_class(runtimes, makespan, record_fields),
            **self._pool_fields(runtimes, makespan),
        )

    def _metrics_streaming(self, collector: StreamingMetricsCollector,
                           runtimes: List[InstanceRuntime]) -> ServingMetrics:
        """Streaming-mode metrics assembly: counters and step accounting
        are exact (identical to full mode), latency distributions come as
        :class:`~repro.serving.metrics.StreamingQuantile` aggregates, and
        the per-request lists stay empty.  Per-class request and token
        counters come from the collector's per-class tallies; per-class
        latency *percentiles* are full-fidelity only, but the mean TTFT
        survives via the count/sum pair."""
        makespan = collector.max_finish_s

        def tally_fields(group: List[InstanceRuntime]) -> Dict[str, Any]:
            tally = collector.per_class.get(group[0].class_label,
                                            [0, 0, 0, 0, 0.0])
            return dict(requests=tally[0], generated_tokens=tally[1],
                        preemptions=tally[2], ttft_count=tally[3],
                        ttft_sum_s=tally[4])

        return ServingMetrics(
            num_requests=collector.count,
            generated_tokens=collector.generated_tokens,
            preemptions=collector.preemptions,
            per_class=self._per_class(runtimes, makespan, tally_fields),
            metrics_mode="streaming",
            streams=collector.streams(),
            slo_pin=collector.slo,
            slo_good_requests=collector.slo_good,
            **self._pool_fields(runtimes, makespan),
        )

    @staticmethod
    def _per_class(runtimes: List[InstanceRuntime], makespan: Seconds,
                   request_fields: Callable[[List[InstanceRuntime]],
                                            Dict[str, Any]]
                   ) -> List[InstanceClassMetrics]:
        """Aggregate the per-runtime accumulators by instance class (spec
        order); ``request_fields`` supplies the per-request counters of
        one class's runtimes, from records or from streaming tallies."""
        by_label: Dict[str, List[InstanceRuntime]] = {}
        for runtime in runtimes:
            by_label.setdefault(runtime.class_label, []).append(runtime)
        out: List[InstanceClassMetrics] = []
        for label, group in by_label.items():
            class_time = makespan * len(group)
            times = [r.stats.times() for r in group]
            out.append(InstanceClassMetrics(
                label=label,
                num_instances=len(group),
                num_nodes=group[0].num_nodes,
                role=group[0].role,
                makespan_s=makespan,
                busy_time_s=sum(t["busy_time"] for t in times),
                batch_time_s=sum(t["batch_time"] for t in times),
                mean_kv_occupancy=(sum(t["kv_occ_time"] for t in times)
                                   / class_time if class_time > 0 else 0.0),
                peak_kv_occupancy=max(
                    (r.stats.peak_kv_occupancy for r in group), default=0.0),
                kv_total_blocks=(group[0].kv.total_blocks
                                 if group[0].kv is not None else 0),
                swap_out_count=sum(r.kv.swap_out_count for r in group
                                   if r.kv is not None),
                swap_in_count=sum(r.kv.swap_in_count for r in group
                                  if r.kv is not None),
                prefix_hits=sum(r.kv.prefix_hits for r in group
                                if r.kv is not None),
                prefill_tokens_saved=sum(r.kv.prefix_tokens_reused
                                         for r in group
                                         if r.kv is not None),
                handoffs_out=sum(r.stats.handoff_out_count for r in group),
                handoffs_in=sum(r.stats.handoff_in_count for r in group),
                handoff_time_s=sum(r.stats.handoff_time_s for r in group),
                **request_fields(group),
            ))
        return out
