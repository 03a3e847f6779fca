"""Opt-in runtime invariant sanitizer for the serving simulator.

The PR 7 fuzz harness caught a real ``allocate()`` side-effect bug — but
only at test time, and only for op sequences the fuzzer happened to draw.
This module promotes those checks into the simulator itself as a *shadow
validation* layer: with ``REPRO_SANITIZE=1`` (or ``--sanitize`` on the
``serve`` CLI, or ``TokenServingEngine(..., sanitize=True)``) the engine
re-verifies its structural invariants after **every** event it processes:

* **event-time monotonicity** — simulated time never moves backwards
  (``event-time-monotonic``);
* **paged-KV block/refcount conservation** — the free list, reclaimable
  cache, and live block tables partition every pool exactly, refcounts
  equal table references, and the prefix index mirrors the block-hash map
  (``kv-*`` checks, promoted from ``tests/test_paged_kv_fuzz.py``),
  including the pool's incremental allocated/cached token counters
  against a full recount (``kv-counters``), so counter drift fails at the
  event that caused it;
* **queue/request conservation** — every arrival is accounted for:
  queued, batched, parked, mid-handoff, or completed
  (``request-conservation``);
* **lifecycle-phase consistency** — each request's declared lifecycle
  phase (:mod:`repro.serving.lifecycle`) matches where the engine
  actually holds it: batch members are prefilling or decoding (whichever
  their progress says), parked victims are swapped out, exported prompts
  are mid-handoff (``lifecycle-phase``).

A violation raises :class:`repro.errors.SanitizerError` with the
offending engine event attached, so the failure names *where* in the
event stream the state machine broke, not just that it eventually did.

The sanitizer is strictly read-only: it inspects engine and pool state
and never mutates it, so a sanitized run is bit-identical to an
unsanitized one (pinned by ``tests/test_sanitize.py``).  The cost is one
full state walk per event — measurable, which is why it is opt-in rather
than always-on.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Sized

from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.memory.paged_kv import PagedKVManager
    from repro.serving.instance import InstanceRuntime

__all__ = ["sanitize_enabled", "check_kv_invariants", "EngineSanitizer"]

#: Environment switch: any value other than empty/``0`` enables the
#: sanitizer for engines that did not pass an explicit ``sanitize=``.
ENV_VAR = "REPRO_SANITIZE"


def sanitize_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the sanitizer switch: explicit argument wins, then
    ``REPRO_SANITIZE`` in the environment, default off."""
    if explicit is not None:
        return explicit
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def _fail(message: str, *, check: str, event: Optional[Any]) -> None:
    raise SanitizerError(message, check=check, event=event)


def check_kv_invariants(manager: "PagedKVManager", *,
                        event: Optional[Any] = None) -> None:
    """Verify one paged pool's block-accounting invariants.

    This is the white-box checker the paged-KV fuzz battery pins, promoted
    into the library so sanitized engine runs (and any embedder) can apply
    it after every state transition.  Raises :class:`SanitizerError` on
    the first violated invariant; returns ``None`` when all hold.
    """
    free_list = manager._free
    free_set = set(free_list)
    if len(free_set) != len(free_list):
        _fail("duplicate block in the free list",
              check="kv-free-list-unique", event=event)
    reclaimable = set(manager._reclaimable)
    if free_set & reclaimable:
        _fail(f"blocks {sorted(free_set & reclaimable)} are both free and "
              "reclaimable", check="kv-tier-disjoint", event=event)

    table_refs: Counter = Counter()
    for rid, table in manager._tables.items():
        blocks = table.device_blocks
        if len(set(blocks)) != len(blocks):
            _fail(f"request {rid}'s table lists a block twice",
                  check="kv-table-unique", event=event)
        if table.is_swapped and blocks:
            _fail(f"request {rid} is swapped out but still holds device "
                  f"blocks {list(blocks)}", check="kv-swapped-holds-device",
                  event=event)
        for block in blocks:
            table_refs[block] += 1
    held = set(table_refs)

    # invariant 1: no block simultaneously free/reclaimable and in a table
    if free_set & held:
        _fail(f"blocks {sorted(free_set & held)} are simultaneously free "
              "and referenced by a table", check="kv-block-conservation",
              event=event)
    if reclaimable & held:
        _fail(f"reclaimable blocks {sorted(reclaimable & held)} are still "
              "referenced by a table", check="kv-block-conservation",
              event=event)

    # invariant 2: the three tiers partition the physical pool exactly
    if len(free_set) + len(reclaimable) + len(held) != manager.total_blocks:
        _fail(f"tiers do not partition the pool: {len(free_set)} free + "
              f"{len(reclaimable)} reclaimable + {len(held)} held != "
              f"{manager.total_blocks} total", check="kv-block-conservation",
              event=event)
    if manager.used_blocks + manager.free_blocks != manager.total_blocks:
        _fail(f"used ({manager.used_blocks}) + free ({manager.free_blocks}) "
              f"!= total ({manager.total_blocks})",
              check="kv-block-conservation", event=event)
    if manager.used_blocks != len(held):
        _fail(f"used_blocks reports {manager.used_blocks} but tables hold "
              f"{len(held)} blocks", check="kv-block-conservation",
              event=event)
    if not all(0 <= b < manager.total_blocks
               for b in free_set | reclaimable | held):
        _fail("a tier references a block outside the physical pool",
              check="kv-block-conservation", event=event)

    # the O(1) fragmentation counters equal a full recount of the tables
    allocated = manager.block_size_tokens * sum(
        len(table.device_blocks) for table in manager._tables.values())
    cached = sum(table.cached_tokens for table in manager._tables.values()
                 if not table.is_swapped)
    if (manager.allocated_tokens, manager.cached_tokens) != (allocated,
                                                             cached):
        _fail(f"incremental counters report {manager.allocated_tokens} "
              f"allocated / {manager.cached_tokens} cached tokens, the "
              f"tables hold {allocated} / {cached}", check="kv-counters",
              event=event)

    # invariant 3: refcounts equal the number of tables referencing a block
    if manager.prefix_sharing:
        if dict(table_refs) != manager._ref:
            _fail("refcounts diverge from table references",
                  check="kv-refcount", event=event)
        shared = sum(1 for count in table_refs.values() if count >= 2)
        if manager.shared_blocks != shared:
            _fail(f"shared_blocks reports {manager.shared_blocks}, tables "
                  f"say {shared}", check="kv-refcount", event=event)
        # index consistency: hash->block and block->hash mirror each other,
        # and only registered blocks may linger in the reclaimable tier
        if set(manager._block_hash) != set(manager._prefix_index.values()):
            _fail("prefix index and block-hash map diverge",
                  check="kv-prefix-index", event=event)
        for chain_hash, block in manager._prefix_index.items():
            if manager._block_hash.get(block) != chain_hash:
                _fail(f"block {block} hash does not mirror its index entry",
                      check="kv-prefix-index", event=event)
        if not reclaimable <= set(manager._block_hash):
            _fail("an unregistered block sits in the reclaimable tier",
                  check="kv-prefix-index", event=event)
    else:
        if any(count != 1 for count in table_refs.values()):
            _fail("sharing is off but a block appears in two tables",
                  check="kv-refcount", event=event)
        if manager._ref or manager._reclaimable:
            _fail("sharing is off but refcounts/reclaimable state exist",
                  check="kv-refcount", event=event)
        if manager._prefix_index or manager._block_hash:
            _fail("sharing is off but the prefix index is populated",
                  check="kv-prefix-index", event=event)


class EngineSanitizer:
    """Shadow validator the engine consults after every processed event.

    Strictly read-only; every hook either returns ``None`` or raises
    :class:`SanitizerError` with the offending event attached.
    """

    def __init__(self) -> None:
        # deferred: engine imports this module at load time, and the
        # lifecycle spec lives inside the serving package engine belongs
        # to — importing it here at module scope would close that cycle
        from repro.serving import lifecycle
        self._lifecycle = lifecycle
        self.last_time_s = float("-inf")
        #: number of events validated (exposed for overhead accounting
        #: and the sanitizer's own tests)
        self.events_checked = 0

    def after_event(self, now: float, event: Any, *,
                    scheduler: Sized,
                    runtimes: Sequence["InstanceRuntime"],
                    num_arrivals: int, completed: int,
                    in_flight_handoffs: int) -> None:
        """Validate engine state just after ``event`` was processed at
        simulated time ``now``."""
        if now < self.last_time_s:
            _fail(f"simulated time moved backwards: {now} after "
                  f"{self.last_time_s}", check="event-time-monotonic",
                  event=event)
        self.last_time_s = now

        in_system = len(scheduler) + in_flight_handoffs
        for runtime in runtimes:
            in_system += (len(runtime.batch) + len(runtime.parked)
                          + len(runtime.pending_handoffs))
        if num_arrivals != completed + in_system:
            _fail(f"request conservation broke: {num_arrivals} arrivals != "
                  f"{completed} completed + {in_system} in the system",
                  check="request-conservation", event=event)

        lifecycle = self._lifecycle
        for runtime in runtimes:
            for state in runtime.batch:
                expected = (lifecycle.PREFILLING
                            if state.prefill_done < state.prefill_len
                            else lifecycle.DECODING)
                if state.phase != expected:
                    _fail(f"request {state.request.request_id} sits in "
                          f"instance {runtime.instance_id}'s batch with "
                          f"prefill {state.prefill_done}/{state.prefill_len} "
                          f"but phase {state.phase!r} (expected "
                          f"{expected!r})", check="lifecycle-phase",
                          event=event)
            for state in runtime.parked:
                if state.phase != lifecycle.EVICTED_SWAP:
                    _fail(f"request {state.request.request_id} is parked on "
                          f"instance {runtime.instance_id} but in phase "
                          f"{state.phase!r} (expected "
                          f"{lifecycle.EVICTED_SWAP!r})",
                          check="lifecycle-phase", event=event)
            for state, _, _ in runtime.pending_handoffs:
                if state.phase != lifecycle.HANDOFF:
                    _fail(f"request {state.request.request_id} awaits "
                          f"handoff from instance {runtime.instance_id} but "
                          f"is in phase {state.phase!r} (expected "
                          f"{lifecycle.HANDOFF!r})",
                          check="lifecycle-phase", event=event)
            if runtime.kv is not None:
                check_kv_invariants(runtime.kv, event=event)
        self.events_checked += 1
