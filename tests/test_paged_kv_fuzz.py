"""Randomized property tests for :class:`PagedKVManager`.

Each test case drives one seeded random sequence of operations —
allocate / allocate_prefix / grow / free / register_prefix / swap_out /
swap_in / export_handoff→import_handoff — against a pair of pools (so
handoffs cross pools, as on a disaggregated cluster) and a lightweight
reference model, and checks the block-accounting invariants after *every*
operation:

* no block is simultaneously free and in a table (and never in two tiers
  at once: free list, reclaimable cache, live tables are disjoint);
* ``used_blocks + free_blocks == total_blocks`` and the three tiers
  partition the physical pool exactly;
* with sharing on, every block's refcount equals the number of block
  tables referencing it (and ``shared_blocks`` counts the ≥2 ones);
* freeing or handing off a request never releases a block another
  request still holds.

The whole battery runs with prefix sharing both off (the historical
private-blocks manager) and on (hash-indexed reuse + copy-on-write), 100
seeds each — ≥200 distinct op sequences per CI run.
"""

import random

import pytest

from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.sanitize import check_kv_invariants

BLOCK_SIZE = 4
POOL_BLOCKS = 24
MAX_SEQ = 256
OPS_PER_SEQUENCE = 60
SEEDS = range(100)

#: Shared prompt vocabularies: prompts drawn from the same family share a
#: prefix, which is what exercises matching, refcounts and COW.
FAMILIES = 4


def _manager(prefix_sharing, max_seq=MAX_SEQ):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=max_seq, num_nodes=2)
    budget = POOL_BLOCKS * BLOCK_SIZE * layout.bytes_per_token_per_node()
    return PagedKVManager(layout, block_size_tokens=BLOCK_SIZE,
                          budget_bytes=budget,
                          prefix_sharing=prefix_sharing)


def check_invariants(manager):
    """The four pinned invariants (plus index consistency), white-box.

    PR 8 promoted the checker itself into the library —
    :func:`repro.sanitize.check_kv_invariants` — so sanitized engine runs
    apply exactly what this battery pins; the fuzz harness now drives the
    promoted checker (a violation surfaces as ``SanitizerError``)."""
    check_kv_invariants(manager)


def _blocks_held_by_others(manager, request_id):
    """Device blocks any *other* request's table references."""
    held = set()
    for rid, table in manager._tables.items():
        if rid != request_id:
            held.update(table.device_blocks)
    return held


def _prompt_ids(rng):
    """A prompt from one of a few shared families: a common family prefix
    (drives matches and refcounts) plus an optional divergent tail (drives
    partial matches and copy-on-write)."""
    family = rng.randrange(FAMILIES)
    prefix_len = rng.randint(1, 10 * BLOCK_SIZE)
    ids = [family * 100_000 + i for i in range(prefix_len)]
    if rng.random() < 0.5:
        tail = rng.randint(1, 3 * BLOCK_SIZE)
        ids += [900_000 + rng.randrange(1_000_000) for _ in range(tail)]
    return tuple(ids)


class Reference:
    """Minimal mirror of the documented per-request contract: which pool
    holds each request, whether it is swapped, and its cached-token floor
    (sharing can only raise ``cached_tokens``, never lower it)."""

    def __init__(self):
        self.state = {}  # rid -> [pool_index, swapped, cached_floor]

    def check(self, managers):
        for rid, (pool, swapped, floor) in self.state.items():
            manager = managers[pool]
            assert manager.holds(rid)
            table = manager.table(rid)
            assert table.is_swapped == swapped
            assert table.cached_tokens >= floor
            if not swapped:
                assert len(table.device_blocks) * manager.block_size_tokens \
                    >= table.cached_tokens
        for pool, manager in enumerate(managers):
            for rid in manager._tables:
                assert rid in self.state and self.state[rid][0] == pool


@pytest.mark.parametrize("prefix_sharing", [False, True],
                         ids=["sharing-off", "sharing-on"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_op_sequences(seed, prefix_sharing):
    rng = random.Random(seed * 2 + int(prefix_sharing))
    managers = [_manager(prefix_sharing), _manager(prefix_sharing)]
    reference = Reference()
    prompts = {}  # rid -> token ids
    next_rid = 0

    def live(predicate):
        matches = [rid for rid, s in reference.state.items() if predicate(s)]
        return rng.choice(matches) if matches else None

    for _ in range(OPS_PER_SEQUENCE):
        op = rng.choice(("new", "new", "new", "grow", "grow", "free", "free",
                         "register", "swap_out", "swap_in", "handoff"))
        if op == "new":
            pool = rng.randrange(2)
            manager = managers[pool]
            rid = next_rid
            ids = _prompt_ids(rng)
            target = len(ids)
            before_free = manager.free_blocks
            if prefix_sharing:
                matched = manager.allocate_prefix(rid, target, ids)
                ok = matched is not None
            else:
                ok = manager.allocate(rid, target)
                matched = 0 if ok else None
            if ok:
                next_rid += 1
                prompts[rid] = ids
                reference.state[rid] = [pool, False, target]
                assert (matched or 0) <= max(0, len(ids) - 1)
            else:
                # all-or-nothing: a refused allocation has no side effects
                assert not manager.holds(rid)
                assert manager.free_blocks == before_free
        elif op == "grow":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool, _, floor = reference.state[rid]
            manager = managers[pool]
            target = min(manager.table(rid).cached_tokens
                         + rng.randint(1, 2 * BLOCK_SIZE), MAX_SEQ)
            if manager.allocate(rid, target):
                reference.state[rid][2] = max(floor, target)
        elif op == "free":
            rid = live(lambda s: True)
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            others = _blocks_held_by_others(manager, rid)
            released = manager.free(rid)
            assert released >= 0
            # invariant 4: nothing another request holds was released
            assert not others & set(manager._free)
            assert not others & set(manager._reclaimable)
            for table in manager._tables.values():
                assert others >= others & set(table.device_blocks)
            del reference.state[rid]
        elif op == "register":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            managers[pool].register_prefix(rid, prompts[rid])
        elif op == "swap_out":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            if not manager.table(rid).device_blocks:
                continue
            others = _blocks_held_by_others(manager, rid)
            manager.swap_out(rid)
            assert not others & set(manager._free)
            reference.state[rid][1] = True
        elif op == "swap_in":
            rid = live(lambda s: s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            if manager.can_swap_in(rid):
                manager.swap_in(rid)
                reference.state[rid][1] = False
            else:
                with pytest.raises(RuntimeError):
                    manager.swap_in(rid)
        elif op == "handoff":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            source = managers[pool]
            if not source.table(rid).device_blocks:
                continue
            others = _blocks_held_by_others(source, rid)
            _, cached_tokens, _ = source.export_handoff(rid)
            assert not others & set(source._free)
            assert not others & set(source._reclaimable) or prefix_sharing
            assert not source.holds(rid)
            target = managers[1 - pool]
            target.import_handoff(rid, cached_tokens)
            reference.state[rid] = [1 - pool, True, 0]
        for manager in managers:
            check_invariants(manager)
        reference.check(managers)

    # drain: freeing everything returns the pool to a clean state
    for rid in list(reference.state):
        pool = reference.state[rid][0]
        managers[pool].free(rid)
        del reference.state[rid]
        for manager in managers:
            check_invariants(manager)
    for manager in managers:
        assert manager.used_blocks == 0
        assert manager.free_blocks == manager.total_blocks
        if not prefix_sharing:
            assert len(manager._free) == manager.total_blocks


def test_sequence_count_meets_ci_floor():
    """The parametrization above is the CI contract: ≥200 randomized op
    sequences per run, split evenly across sharing off/on."""
    assert len(SEEDS) * 2 >= 200


def _populated(seed, prefix_sharing, max_seq=MAX_SEQ):
    """A pool with a few live (some shared, some swapped) tables and a
    registered prefix cache, plus the ids of the device-resident tables."""
    rng = random.Random(seed)
    manager = _manager(prefix_sharing, max_seq)
    live = []
    for rid in range(rng.randint(1, 6)):
        ids = _prompt_ids(rng)
        target = min(len(ids) + 1, max_seq)
        if manager.allocate_prefix(rid, target, ids) is None:
            continue
        manager.register_prefix(rid, ids)
        live.append(rid)
    if len(live) > 1 and rng.random() < 0.3:
        manager.swap_out(live.pop(0))
    if live and rng.random() < 0.3:
        manager.free(live.pop())
    return manager, live, rng


@pytest.mark.parametrize("max_seq", [MAX_SEQ, 40],
                         ids=["open-window", "clamped-window"])
@pytest.mark.parametrize("prefix_sharing", [False, True],
                         ids=["sharing-off", "sharing-on"])
@pytest.mark.parametrize("seed", range(30))
def test_fold_growth_matches_per_step_allocation(seed, prefix_sharing,
                                                 max_seq):
    """A decode run folded into one event (``InstanceRuntime._fold_decode``)
    must leave the pool exactly as per-step ``allocate`` calls in batch
    order do — same block ids per table, same free list, counters and
    peak — and account each step's fragmentation and used blocks as the
    per-step path reads them off the pool; it stops before the first step
    whose crossings exceed the free list.  Members may start with cached
    positions past their next append (a table restored at a later
    context), and the small window clamps growth mid-fold."""
    import copy

    from repro.core.multi_node import LoopLynxSystem
    from repro.serving.instance import InstanceRuntime, RequestState
    from repro.workloads.scenarios import Scenario
    from repro.workloads.traces import Request

    folded, members, rng = _populated(seed, prefix_sharing, max_seq)
    if not members:
        return
    rng.shuffle(members)
    contexts = [max(0, folded.table(rid).cached_tokens - 1
                    - rng.randint(0, 5)) for rid in members]
    reference = copy.deepcopy(folded)
    runtime = InstanceRuntime(0, LoopLynxSystem.paper_configuration(),
                              kv=folded)
    context = max(contexts)

    def price(step):
        return runtime.step_latency_s(context + step, len(members))

    expected_frag = reference.internal_fragmentation_fraction * price(0)
    expected_used = reference.used_blocks
    expected_steps = 0
    for step in range(1, max_seq + 2):
        targets = [min(ctx + step + 1, max_seq) for ctx in contexts]
        crossings = sum(reference.blocks_missing(rid, target)
                        for rid, target in zip(members, targets))
        if crossings > len(reference._free):
            break
        for rid, target in zip(members, targets):
            assert reference.allocate(rid, target)
        expected_steps = step
    limit = rng.randint(0, expected_steps + 1)
    states = []
    for rid, ctx in zip(members, contexts):
        state = RequestState(Request(request_id=rid, arrival_s=0.0,
                                     scenario=Scenario(1, ctx + limit + 2)))
        state.prefill_done = min(ctx, 1)
        state.decode_done = ctx - state.prefill_done
        states.append(state)
    steps, _ = runtime._fold_decode(
        1.0, float("inf"), price(0), "decode_time", len(members), states,
        context, False, (), limit + 1)
    applied = min(limit, expected_steps)
    assert steps == applied + 1
    # replay the reference up to the same step count for the state check
    reference = _populated(seed, prefix_sharing, max_seq)[0]
    for step in range(1, applied + 1):
        for rid, ctx in zip(members, contexts):
            assert reference.allocate(rid, min(ctx + step + 1, max_seq))
        expected_frag += reference.internal_fragmentation_fraction \
            * price(step)
        expected_used += reference.used_blocks
    for rid in members:
        assert folded.table(rid) == reference.table(rid)
    assert folded._free == reference._free
    assert folded._ref == reference._ref
    assert (folded.allocated_tokens, folded.cached_tokens,
            folded.peak_used_blocks) == (reference.allocated_tokens,
                                         reference.cached_tokens,
                                         reference.peak_used_blocks)
    tallies = runtime.stats.ledger["decode_time"].values()
    assert sum(tally[0] for tally in tallies) == steps
    assert sum(tally[2] for tally in tallies) == expected_used
    assert runtime.stats.frag_time == expected_frag
    check_invariants(folded)


@pytest.mark.parametrize("seed", range(40))
def test_prefix_claim_blocks_is_allocate_prefix_dry_run(seed):
    """The admission gate's dry run must predict ``allocate_prefix``
    exactly: it succeeds iff the claim fits the free pool, and then takes
    exactly the claimed blocks out of it."""
    manager, _, rng = _populated(seed, True)
    for rid in range(100, 110):
        ids = _prompt_ids(rng)
        target = rng.randint(1, len(ids) + 8)
        claim = manager.prefix_claim_blocks(target, ids)
        free_before = manager.free_blocks
        reused = manager.allocate_prefix(rid, target, ids)
        assert (reused is not None) == (claim <= free_before)
        if reused is not None:
            assert free_before - manager.free_blocks == claim
        check_invariants(manager)
