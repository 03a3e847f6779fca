"""Prefix-sharing paged KV: golden bit-identity guard, sharing/COW unit
tests, the cache-aware router, and composition with swap / recompute /
disaggregated handoff.

The guard half pins the feature's most important property: **off by
default, invisible when off**.  Every pre-existing golden timestamp pin
must stay byte-identical even when requests carry ``prompt_token_ids``
(the sharing machinery must not observe them while disabled), under every
router including the new ``prefix_aware`` one.  The second half pins a
shared-mode multi-turn run so future PRs cannot drift the sharing
semantics silently.
"""

import dataclasses

import pytest

from test_cluster import GOLDEN, _bursty24, _paged, _timestamps

from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.serving.cluster import ROUTER_NAMES, make_router
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import (
    RequestTrace,
    multi_tenant_trace,
    multi_turn_trace,
)

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial


def _with_prompt_ids(trace: RequestTrace) -> RequestTrace:
    """The same trace with synthetic prompt token ids attached — every
    request shares one long prefix, the worst case for a sharing
    implementation that fails to stay inert while disabled."""
    return RequestTrace(requests=[
        dataclasses.replace(r,
                            prompt_token_ids=tuple(range(r.prefill_len)))
        for r in trace.requests])


def _sharing_manager(blocks=24, block_size=4):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=256, num_nodes=2)
    budget = blocks * block_size * layout.bytes_per_token_per_node()
    return PagedKVManager(layout, block_size_tokens=block_size,
                          budget_bytes=budget, prefix_sharing=True)


# ---------------------------------------------------------------------------
# golden guard: sharing off (the default) is byte-identical everywhere,
# even with prompt token ids present on every request
# ---------------------------------------------------------------------------
class TestGoldenGuardSharingOff:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_cluster_golden_with_ids_attached(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="fifo",
                                    max_batch_size=4, router=router)
        _, records = engine.run(_with_prompt_ids(_bursty24()))
        assert _timestamps(records) == GOLDEN["cluster-bursty-fifo"]

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_paged_swap_golden_with_ids_attached(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="fifo",
                                    max_batch_size=4, **_paged(),
                                    preemption_mode="swap", router=router)
        assert engine.kv_prefix_sharing is False
        metrics, records = engine.run(_with_prompt_ids(_bursty24()))
        assert _timestamps(records) == GOLDEN["cluster-bursty-fifo-paged"]
        assert metrics.kv_prefix_sharing is False
        assert metrics.prefix_hits == 0
        assert metrics.prefill_tokens_saved == 0

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_multitenant_golden_with_ids_attached(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="priority",
                                    max_batch_size=2, router=router)
        trace = _with_prompt_ids(multi_tenant_trace(24, seed=11))
        _, records = engine.run(trace)
        assert _timestamps(records) == GOLDEN["cluster-multitenant-priority"]

    def test_multiturn_sharing_off_ignores_prompt_ids(self):
        """With sharing off, a paged engine serves the multi-turn trace
        identically whether or not the requests carry prompt ids."""
        trace = multi_turn_trace(20, seed=3)
        stripped = RequestTrace(requests=[
            dataclasses.replace(r, prompt_token_ids=None)
            for r in trace.requests])
        engines = [TokenServingEngine(cluster="2x1n,1x2n", policy="fifo",
                                      max_batch_size=4, kv_mode="paged",
                                      router="prefix_aware")
                   for _ in range(2)]
        _, with_ids = engines[0].run(trace)
        _, without = engines[1].run(stripped)
        assert _timestamps(with_ids) == _timestamps(without)

    def test_summary_hides_prefix_rows_when_off(self):
        engine = TokenServingEngine(cluster="2x1n,1x2n", kv_mode="paged")
        metrics, _ = engine.run(multi_turn_trace(10, seed=0))
        assert "prefix_hits" not in metrics.summary()


# ---------------------------------------------------------------------------
# shared-mode golden: pin a multi-turn run so sharing semantics can't drift
# ---------------------------------------------------------------------------
GOLDEN_SHARED_MULTITURN = [
    # multi_turn_trace(12, seed=7) through
    # TokenServingEngine(cluster="2x1n,1x2n", router="prefix_aware",
    #                    policy="fifo", max_batch_size=4,
    #                    kv_mode="paged", kv_prefix_sharing=True)
    (1.415058511583843, 1.8656871088897427, 2.1072055434772903),
    (3.56245983501311, 3.7056282878324804, 4.1052780583510025),
    (4.51276764273957, 4.667953725825765, 4.794138843627414),
    (5.815497965964495, 6.250893830112151, 6.422760860469403),
    (6.434512472559498, 6.947540876816715, 7.174043887707731),
    (7.058909411122852, 7.78140731585469, 7.952599392435015),
    (8.376648522778915, 8.81898682184797, 9.179656086419888),
    (11.695944072079548, 12.174940037442408, 12.36863779812439),
    (12.369146599880585, 12.889415417381201, 13.106477894244563),
    (17.481153107292734, 18.008521981469556, 18.11938046897869),
    (19.254644700901963, 19.48893154109544, 19.820345583796442),
    (20.574830074473965, 21.082344948496566, 21.15886860936467),
]


class TestSharedModeGolden:
    def test_shared_multiturn_matches_golden(self):
        engine = TokenServingEngine(cluster="2x1n,1x2n",
                                    router="prefix_aware", policy="fifo",
                                    max_batch_size=4, kv_mode="paged",
                                    kv_prefix_sharing=True)
        metrics, records = engine.run(multi_turn_trace(12, seed=7))
        assert _timestamps(records) == GOLDEN_SHARED_MULTITURN
        assert metrics.kv_prefix_sharing is True
        assert metrics.prefix_hits == 10
        assert metrics.prefill_tokens_saved == 1168
        assert metrics.prefill_tokens_processed == 827
        summary = metrics.summary()
        assert summary["prefix_hits"] == 10.0
        assert summary["prefill_tokens_saved"] == 1168.0


# ---------------------------------------------------------------------------
# manager-level sharing semantics: matching, refcounts, COW, reclaim
# ---------------------------------------------------------------------------
class TestPrefixSharingManager:
    def test_match_requires_registration(self):
        manager = _sharing_manager()
        ids = tuple(range(8))
        assert manager.allocate_prefix(0, 8, ids) == 0
        # allocation alone does not publish: prefill must complete first
        assert manager.match_prefix_tokens(ids) == 0
        assert manager.register_prefix(0, ids) == 2
        assert manager.match_prefix_tokens(ids) == 7  # last token recomputed

    def test_shared_allocation_bumps_refcounts(self):
        manager = _sharing_manager()
        ids = tuple(range(12))  # 3 full blocks
        manager.allocate_prefix(0, 12, ids)
        manager.register_prefix(0, ids)
        matched = manager.allocate_prefix(1, 12, ids)
        assert matched == 11  # min(3 * 4, 12 - 1)
        table0 = manager.table(0).device_blocks
        table1 = manager.table(1).device_blocks
        # first two blocks shared physically, last one copied (COW)
        assert table1[:2] == table0[:2]
        assert table1[2] != table0[2]
        assert manager.shared_blocks == 2
        assert manager.cow_copies == 1
        assert manager.prefix_hits == 1
        assert manager.prefix_tokens_reused == 11

    def test_full_block_match_needs_no_cow(self):
        manager = _sharing_manager()
        ids = tuple(range(9))  # 2 full blocks + 1 tail token
        manager.allocate_prefix(0, 9, ids)
        manager.register_prefix(0, ids)
        matched = manager.allocate_prefix(1, 9, ids)
        # 2 full blocks = 8 tokens < len-1: fully reused, write goes to the
        # request's own fresh tail block
        assert matched == 8
        assert manager.cow_copies == 0
        assert manager.table(1).device_blocks[:2] == \
            manager.table(0).device_blocks[:2]

    def test_divergent_prompt_shares_only_common_blocks(self):
        manager = _sharing_manager()
        ids = tuple(range(12))
        manager.allocate_prefix(0, 12, ids)
        manager.register_prefix(0, ids)
        fork = ids[:4] + tuple(range(500, 508))
        matched = manager.allocate_prefix(1, 12, fork)
        assert matched == 4  # only the first block's chunk matches
        assert manager.table(1).device_blocks[0] == \
            manager.table(0).device_blocks[0]
        assert not set(manager.table(1).device_blocks[1:]) & \
            set(manager.table(0).device_blocks)

    def test_free_keeps_registered_blocks_reclaimable(self):
        manager = _sharing_manager()
        ids = tuple(range(8))
        manager.allocate_prefix(0, 8, ids)
        manager.register_prefix(0, ids)
        released = manager.free(0)
        assert released == 2  # exclusively held
        # the registered blocks linger in the cache tier, still matchable
        assert manager.cached_blocks == 2
        assert manager.used_blocks == 0
        assert manager.free_blocks == manager.total_blocks
        assert manager.match_prefix_tokens(ids) == 7
        # ... and a later arrival resurrects them
        assert manager.allocate_prefix(1, 8, ids) == 7
        assert manager.cached_blocks == 0

    def test_pool_pressure_recycles_cache_lru(self):
        manager = _sharing_manager(blocks=4, block_size=4)
        ids = tuple(range(8))
        manager.allocate_prefix(0, 8, ids)
        manager.register_prefix(0, ids)
        manager.free(0)
        assert manager.cached_blocks == 2
        # a non-matching request needs the whole pool: the cache yields
        assert manager.allocate(1, 16)
        assert manager.cached_blocks == 0
        assert manager.match_prefix_tokens(ids) == 0

    def test_shared_free_never_releases_others_blocks(self):
        manager = _sharing_manager()
        ids = tuple(range(8))
        manager.allocate_prefix(0, 8, ids)
        manager.register_prefix(0, ids)
        manager.allocate_prefix(1, 8, ids)
        shared = set(manager.table(0).device_blocks) & \
            set(manager.table(1).device_blocks)
        assert shared
        manager.free(0)
        # request 1 still holds the shared block; it must not be free
        assert shared <= set(manager.table(1).device_blocks)
        assert not shared & set(manager._free)

    def test_swap_out_drops_references_not_blocks(self):
        manager = _sharing_manager()
        ids = tuple(range(8))
        manager.allocate_prefix(0, 8, ids)
        manager.register_prefix(0, ids)
        manager.allocate_prefix(1, 8, ids)
        held_by_0 = list(manager.table(0).device_blocks)
        manager.swap_out(1)
        # request 0 keeps every block; nothing it holds went free
        assert manager.table(0).device_blocks == held_by_0
        assert not set(held_by_0) & set(manager._free)
        # swap-in restores a private snapshot (no sharing, no registration)
        manager.swap_in(1)
        assert not set(manager.table(1).device_blocks) & set(held_by_0)
        assert manager.shared_blocks == 0

    def test_allocate_prefix_is_all_or_nothing(self):
        manager = _sharing_manager(blocks=3, block_size=4)
        ids = tuple(range(8))
        manager.allocate_prefix(0, 8, ids)
        manager.register_prefix(0, ids)
        free_before = manager.free_blocks
        hits_before = manager.prefix_hits
        # shares 2 blocks but the divergent tail needs 2 fresh: pool dry
        tail = tuple(range(900, 908))
        assert manager.allocate_prefix(1, 16, ids + tail) is None
        assert not manager.holds(1)
        assert manager.free_blocks == free_before
        assert manager.prefix_hits == hits_before

    def test_allocate_prefix_rejects_resident_request(self):
        manager = _sharing_manager()
        manager.allocate(0, 8)
        with pytest.raises(RuntimeError):
            manager.allocate_prefix(0, 8, tuple(range(8)))

    def test_sharing_off_allocate_prefix_degrades_to_allocate(self):
        layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                               max_seq_len=256, num_nodes=2)
        manager = PagedKVManager(
            layout, block_size_tokens=4,
            budget_bytes=8 * 4 * layout.bytes_per_token_per_node())
        assert manager.allocate_prefix(0, 8, tuple(range(8))) == 0
        assert manager.register_prefix(0, tuple(range(8))) == 0
        assert manager.match_prefix_tokens(tuple(range(8))) == 0

    def test_failed_allocate_leaves_no_empty_table(self):
        manager = _sharing_manager(blocks=2, block_size=4)
        assert not manager.allocate(0, 64)
        assert not manager.holds(0)

    def test_clone_empty_carries_the_flag(self):
        manager = _sharing_manager()
        clone = manager.clone_empty()
        assert clone.prefix_sharing is True
        assert clone.prefix_hits == 0


# ---------------------------------------------------------------------------
# router + engine integration
# ---------------------------------------------------------------------------
class _StubRuntime:
    def __init__(self, matched, load=0, swapped=False):
        self._matched = matched
        self.load = load
        self._swapped = swapped

    def holds_swapped(self, head):
        return self._swapped

    def matched_prefix_tokens(self, request):
        return self._matched


class _StubHead:
    request = None


class TestPrefixAwareRouter:
    def test_registered_in_names_and_factory(self):
        assert "prefix_aware" in ROUTER_NAMES
        assert make_router("prefix_aware").name == "prefix_aware"

    def test_rank_prefers_longest_match_then_load(self):
        router = make_router("prefix_aware")
        head = _StubHead()
        cold = _StubRuntime(matched=0, load=1)
        warm = _StubRuntime(matched=64, load=5)
        warmer = _StubRuntime(matched=128, load=9)
        ranks = [router.rank(r, head) for r in (cold, warm, warmer)]
        assert sorted(ranks) == [router.rank(warmer, head),
                                 router.rank(warm, head),
                                 router.rank(cold, head)]
        # swap affinity outranks any prefix match
        holder = _StubRuntime(matched=0, load=99, swapped=True)
        assert router.rank(holder, head) < router.rank(warmer, head)

    def test_rank_without_head_falls_back_to_load(self):
        router = make_router("prefix_aware")
        light = _StubRuntime(matched=0, load=1)
        heavy = _StubRuntime(matched=0, load=7)
        assert router.rank(light, None) < router.rank(heavy, None)


class TestEngineIntegration:
    def test_sharing_credits_prefill_and_cuts_ttft(self):
        trace = multi_turn_trace(40, seed=1)
        runs = {}
        for sharing in (False, True):
            engine = TokenServingEngine(cluster="2x1n,1x2n", policy="fifo",
                                        max_batch_size=4, kv_mode="paged",
                                        router="prefix_aware",
                                        kv_prefix_sharing=sharing)
            runs[sharing] = engine.run(trace)
        metrics_off, records_off = runs[False]
        metrics_on, records_on = runs[True]
        assert len(records_on) == len(records_off) == len(trace)
        assert metrics_on.prefix_hits > 0
        assert metrics_on.prefill_tokens_saved > 0
        assert metrics_on.prefill_tokens_processed \
            + metrics_on.prefill_tokens_saved \
            >= metrics_off.prefill_tokens_processed
        assert metrics_on.prefill_tokens_processed < \
            metrics_off.prefill_tokens_processed
        assert metrics_on.mean_ttft_s < metrics_off.mean_ttft_s
        assert metrics_on.mean_kv_shared_fraction > 0.0
        # per-class rows carry the breakdown and sum to the totals
        assert sum(c.prefix_hits for c in metrics_on.per_class) == \
            metrics_on.prefix_hits
        assert sum(c.prefill_tokens_saved for c in metrics_on.per_class) == \
            metrics_on.prefill_tokens_saved

    # enough concurrent sessions that a 12 MiB pool must preempt, while
    # every individual context still fits (admission is per-request)
    PRESSURE_TRACE = dict(seed=5, session_rate_per_s=3.0, think_time_s=0.3)

    def test_sharing_composes_with_recompute_preemption(self):
        trace = multi_turn_trace(40, **self.PRESSURE_TRACE)
        engine = TokenServingEngine(cluster="2x1n,1x2n", policy="fifo",
                                    max_batch_size=8, kv_mode="paged",
                                    kv_budget_bytes=12 << 20,
                                    preemption_mode="recompute",
                                    router="prefix_aware",
                                    kv_prefix_sharing=True)
        metrics, records = engine.run(trace)
        assert len(records) == len(trace)
        assert metrics.preemptions > 0  # the pressure actually bit
        assert metrics.prefix_hits > 0
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0
            assert manager.free_blocks == manager.total_blocks

    def test_sharing_composes_with_swap_preemption(self):
        trace = multi_turn_trace(40, **self.PRESSURE_TRACE)
        engine = TokenServingEngine(cluster="2x1n,1x2n", policy="fifo",
                                    max_batch_size=8, kv_mode="paged",
                                    kv_budget_bytes=12 << 20,
                                    preemption_mode="swap",
                                    router="prefix_aware",
                                    kv_prefix_sharing=True)
        metrics, records = engine.run(trace)
        assert len(records) == len(trace)
        assert metrics.swap_out_count > 0
        assert metrics.prefix_hits > 0
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0

    def test_sharing_composes_with_disaggregated_handoff(self):
        trace = multi_turn_trace(24, seed=9)
        engine = TokenServingEngine(cluster="1x2n:prefill,2x1n:decode",
                                    policy="fifo", max_batch_size=4,
                                    kv_mode="paged", router="disaggregated",
                                    kv_prefix_sharing=True)
        metrics, records = engine.run(trace)
        assert len(records) == len(trace)
        assert metrics.handoff_count == len(trace)
        assert metrics.prefix_hits > 0  # the prefill pool's cache hits
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0

    def test_sharing_requires_paged_mode(self):
        with pytest.raises(ValueError):
            TokenServingEngine(cluster="2x1n,1x2n", kv_prefix_sharing=True)
        with pytest.raises(ValueError):
            TokenServingEngine(cluster="2x1n,1x2n", kv_mode="reserve",
                               kv_budget_bytes=8 << 20,
                               kv_prefix_sharing=True)

    def test_run_policy_threads_the_flag(self):
        from repro.analysis.serving import run_policy
        trace = multi_turn_trace(15, seed=2)
        metrics, _ = run_policy(trace, "fifo", instances="2x1n,1x2n",
                                router="prefix_aware", kv_mode="paged",
                                kv_prefix_sharing=True)
        assert metrics.kv_prefix_sharing is True
        assert metrics.prefix_hits > 0
        with pytest.raises(ValueError):
            run_policy(trace, "fifo", kv_mode="reserve",
                       kv_prefix_sharing=True)

    def test_run_policy_classic_paged_surface(self):
        from repro.analysis.serving import run_policy
        trace = multi_turn_trace(15, seed=2)
        metrics, _ = run_policy(trace, "fifo", num_instances=2,
                                kv_mode="paged", kv_prefix_sharing=True)
        assert metrics.kv_prefix_sharing is True
        assert metrics.prefix_hits > 0
