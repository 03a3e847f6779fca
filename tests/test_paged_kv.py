"""Tests for the paged KV-cache block manager and the engine's paged
admission / swap-preemption modes, including the KV accounting invariants:
allocated blocks never exceed capacity, blocks are fully freed on
finish/preempt, and reservation mode is unchanged (PR 1 regression guard)."""

import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import DEFAULT_HOST_LINK, PagedKVManager
from repro.serving.engine import TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import Request, RequestTrace, bursty_trace


def _layout(max_seq_len=256, num_nodes=2):
    return KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                         max_seq_len=max_seq_len, num_nodes=num_nodes)


def _manager(blocks=10, block_size=16, **kwargs):
    layout = _layout()
    budget = blocks * block_size * layout.bytes_per_token_per_node()
    return PagedKVManager(layout, block_size_tokens=block_size,
                          budget_bytes=budget, **kwargs)


def _trace(shapes, gap_s=0.0, priorities=None):
    requests = []
    for i, (prefill, decode) in enumerate(shapes):
        requests.append(Request(
            request_id=i, arrival_s=0.001 + i * gap_s,
            scenario=Scenario(prefill, decode),
            priority=0 if priorities is None else priorities[i]))
    return RequestTrace(requests=requests)


def _system_layout(system):
    return KVCacheLayout.for_model(system.config.model,
                                   num_nodes=system.num_nodes)


class TestPagedKVManager:
    def test_pool_sizing_from_budget(self):
        manager = _manager(blocks=10, block_size=16)
        assert manager.total_blocks == 10
        assert manager.free_blocks == 10
        assert manager.used_blocks == 0
        assert manager.bytes_per_block_per_node == \
            16 * _layout().bytes_per_token_per_node()

    def test_blocks_needed_rounds_up(self):
        manager = _manager(block_size=16)
        assert manager.blocks_needed(0) == 0
        assert manager.blocks_needed(1) == 1
        assert manager.blocks_needed(16) == 1
        assert manager.blocks_needed(17) == 2
        with pytest.raises(ValueError):
            manager.blocks_needed(-1)

    def test_allocate_grows_and_is_idempotent(self):
        manager = _manager(blocks=10, block_size=16)
        assert manager.allocate(0, 20)       # 2 blocks
        assert manager.used_blocks == 2
        assert manager.allocate(0, 30)       # still 2 blocks
        assert manager.used_blocks == 2
        assert manager.allocate(0, 33)       # grow to 3
        assert manager.used_blocks == 3
        assert manager.table(0).cached_tokens == 33

    def test_allocate_is_all_or_nothing(self):
        manager = _manager(blocks=4, block_size=16)
        assert manager.allocate(0, 48)       # 3 of 4 blocks
        free_before = manager.free_blocks
        assert not manager.allocate(1, 40)   # needs 3, only 1 free
        assert manager.free_blocks == free_before
        assert not manager.holds(1) or \
            not manager.table(1).device_blocks

    def test_free_returns_all_blocks(self):
        manager = _manager(blocks=6, block_size=16)
        manager.allocate(0, 40)
        manager.allocate(1, 16)
        assert manager.free(0) == 3
        assert manager.free_blocks == 5
        assert not manager.holds(0)
        assert manager.free(0) == 0          # double-free is a no-op

    def test_occupancy_and_fragmentation(self):
        manager = _manager(blocks=10, block_size=16)
        assert manager.occupancy_fraction == 0.0
        assert manager.internal_fragmentation_fraction == 0.0
        manager.allocate(0, 24)              # 2 blocks for 24 of 32 positions
        assert manager.occupancy_fraction == pytest.approx(0.2)
        assert manager.internal_fragmentation_fraction == pytest.approx(8 / 32)

    def test_swap_round_trip(self):
        manager = _manager(blocks=6, block_size=16)
        manager.allocate(0, 40)              # 3 blocks
        blocks, swapped = manager.swap_out(0)
        assert blocks == 3
        assert swapped == 3 * manager.bytes_per_block_per_node * 2  # 2 nodes
        assert manager.free_blocks == 6
        assert manager.table(0).is_swapped
        assert manager.table(0).cached_tokens == 40
        with pytest.raises(RuntimeError):
            manager.allocate(0, 41)          # must swap_in first
        assert manager.can_swap_in(0)
        blocks_in, _ = manager.swap_in(0)
        assert blocks_in == 3
        assert manager.used_blocks == 3
        assert not manager.table(0).is_swapped
        assert manager.swap_out_count == 1
        assert manager.swap_in_count == 1
        assert manager.swapped_bytes_total == 2 * swapped

    def test_swap_in_requires_free_blocks(self):
        manager = _manager(blocks=4, block_size=16)
        manager.allocate(0, 48)
        manager.swap_out(0)
        manager.allocate(1, 48)              # steal 3 of 4 blocks
        assert not manager.can_swap_in(0)
        with pytest.raises(RuntimeError):
            manager.swap_in(0)

    def test_swap_transfer_time_scales_with_blocks(self):
        manager = _manager(blocks=8, block_size=16)
        assert manager.swap_transfer_s(0) == 0.0
        one = manager.swap_transfer_s(1)
        four = manager.swap_transfer_s(4)
        assert one > 0
        assert four > one
        # fixed hop latency means the cost is affine, not linear
        assert four < 4 * one

    def test_swap_uses_pcie_not_hbm_speeds(self):
        manager = _manager(blocks=8)
        # a block transfer should take at least bytes/bandwidth seconds
        per_card_bytes = manager.bytes_per_block_per_node * 2  # both nodes, 1 card
        floor_s = per_card_bytes / DEFAULT_HOST_LINK.bandwidth_bytes_per_s
        assert manager.swap_transfer_s(1) >= floor_s * 0.99

    def test_validate_rejects_oversized_request(self):
        manager = _manager(blocks=2, block_size=16)  # 32 positions
        manager.validate([Request(0, 0.0, Scenario(16, 16))])
        with pytest.raises(ValueError):
            manager.validate([Request(0, 0.0, Scenario(20, 20))])

    def test_clone_empty_shares_nothing(self):
        manager = _manager(blocks=5)
        manager.allocate(0, 16)
        clone = manager.clone_empty()
        assert clone.total_blocks == manager.total_blocks
        assert clone.used_blocks == 0
        assert not clone.holds(0)

    def test_for_system_defaults(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        manager = PagedKVManager.for_system(system)
        # the U50 share net of weights holds far more than one max context
        assert manager.total_blocks * manager.block_size_tokens > \
            system.config.model.max_seq_len

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PagedKVManager(_layout(), block_size_tokens=0)
        with pytest.raises(ValueError):
            PagedKVManager(_layout(), budget_bytes=-1)
        with pytest.raises(ValueError):
            PagedKVManager(_layout(), nodes_per_card=0)


def _budget(tokens):
    """Per-node byte budget holding ``tokens`` cached positions on a
    2-node instance of the paper model."""
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    return tokens * _system_layout(system).bytes_per_token_per_node()


class TestEnginePagedMode:
    def _run(self, trace, tokens=256, policy="fifo", preemption_mode="swap",
             max_batch_size=4):
        engine = TokenServingEngine(
            cluster="1x2n", policy=policy, max_batch_size=max_batch_size,
            kv_mode="paged", kv_budget_bytes=_budget(tokens),
            preemption_mode=preemption_mode)
        metrics, records = engine.run(trace)
        return engine, metrics, records

    def test_accounting_invariants_under_pressure(self):
        """Allocated blocks never exceed capacity and every block is freed
        by the end of the run, even with heavy swapping."""
        trace = _trace([(24, 60)] * 6, gap_s=0.01)
        engine, metrics, records = self._run(trace, tokens=192)
        assert metrics.num_requests == 6
        for manager in engine.last_kv_managers:
            assert 0 < manager.peak_used_blocks <= manager.total_blocks
            assert manager.used_blocks == 0
            assert manager.free_blocks == manager.total_blocks
            assert manager.swap_out_count == manager.swap_in_count

    def test_swap_preemption_resumes_without_recompute(self):
        """Capacity pressure forces swaps, yet swapped requests finish and
        the engine records swap (not recompute) preemptions."""
        trace = _trace([(24, 80)] * 5, gap_s=0.01)
        _, metrics, records = self._run(trace, tokens=176)
        assert metrics.kv_mode == "paged"
        assert metrics.swap_out_count > 0
        assert metrics.swap_in_count == metrics.swap_out_count
        assert metrics.swapped_bytes > 0
        assert metrics.swap_time_s > 0
        assert sum(r.swap_outs for r in records) == metrics.swap_out_count
        assert metrics.preemptions == metrics.swap_out_count

    def test_recompute_preemption_discards_blocks(self):
        trace = _trace([(24, 80)] * 5, gap_s=0.01)
        _, metrics, records = self._run(trace, tokens=176,
                                        preemption_mode="recompute")
        assert metrics.preemptions > 0
        assert metrics.swap_out_count == 0
        assert metrics.swapped_bytes == 0
        assert all(r.swap_outs == 0 for r in records)

    def test_swap_finishes_no_later_than_recompute(self):
        """Resuming from swapped blocks skips the recomputed prefills, so
        under identical pressure the swap run's makespan can't be worse by
        more than the PCIe transfer overhead."""
        trace = _trace([(32, 64)] * 5, gap_s=0.01)
        _, swap_metrics, _ = self._run(trace, tokens=176)
        _, rec_metrics, _ = self._run(trace, tokens=176,
                                      preemption_mode="recompute")
        assert swap_metrics.makespan_s <= rec_metrics.makespan_s * 1.02

    def test_paged_admits_more_than_reservation(self):
        """The tentpole property: with identical capacity, on-demand block
        allocation runs a bigger batch than worst-case reservations."""
        trace = _trace([(16, 96)] * 6, gap_s=0.01)
        budget = _budget(288)
        paged = TokenServingEngine(
            cluster="1x2n", policy="fifo", max_batch_size=8,
            kv_mode="paged", kv_budget_bytes=budget)
        reserve = TokenServingEngine(
            cluster="1x2n", policy="fifo", max_batch_size=8,
            kv_mode="reserve", kv_budget_bytes=budget)
        paged_metrics, _ = paged.run(trace)
        reserve_metrics, _ = reserve.run(trace)
        assert paged_metrics.mean_running_batch > \
            reserve_metrics.mean_running_batch

    def test_block_growth_never_evicts_higher_priority(self):
        """Capacity-driven eviction respects priority: when the pool runs
        dry mid-decode, the low-priority co-residents are evicted and the
        high-priority request rides through untouched (no priority
        inversion through block growth)."""
        trace = _trace([(16, 120), (16, 120), (16, 120)], gap_s=0.01,
                       priorities=[0, 0, 5])
        _, metrics, records = self._run(trace, tokens=176, policy="priority")
        high = records[2]
        assert metrics.preemptions > 0       # the pool really was contended
        assert high.preemptions == 0
        assert high.swap_outs == 0
        assert all(r.preemptions > 0 for r in records[:2])

    def test_swapped_requests_have_instance_affinity(self):
        """A request swapped out on one instance may only resume there —
        its KV cannot teleport to another instance's pool for free.  Every
        swap-out is therefore matched by a swap-in even with multiple
        instances competing for the queue."""
        trace = bursty_trace(24, seed=3, mean_prefill=48, mean_decode=128,
                             burst_size=8)
        engine = TokenServingEngine(
            cluster="2x2n", policy="fifo", max_batch_size=8,
            kv_mode="paged", kv_budget_bytes=_budget(320),
            preemption_mode="swap")
        metrics, records = engine.run(trace)
        assert metrics.num_requests == len(trace)
        assert metrics.swap_out_count > 0
        assert metrics.swap_in_count == metrics.swap_out_count
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0
            assert manager.swap_out_count == manager.swap_in_count

    def test_priority_preemption_swaps_victim(self):
        """A high-priority arrival evicts a low-priority running request;
        in swap mode the victim resumes without losing progress."""
        trace = _trace([(16, 300), (16, 32)], gap_s=0.1, priorities=[0, 5])
        _, metrics, records = self._run(trace, tokens=512, policy="priority",
                                        max_batch_size=1)
        low, high = records
        assert low.preemptions >= 1
        assert low.swap_outs >= 1
        assert high.finish_s < low.finish_s

    def test_occupancy_metrics_populated(self):
        trace = _trace([(24, 48)] * 4, gap_s=0.01)
        _, metrics, _ = self._run(trace, tokens=256)
        assert metrics.kv_total_blocks == 16
        assert metrics.kv_block_size == 16
        assert 0 < metrics.mean_kv_occupancy <= 1.0
        assert metrics.mean_kv_occupancy <= metrics.peak_kv_occupancy <= 1.0
        assert 0 <= metrics.mean_kv_fragmentation < 1.0
        assert metrics.mean_running_batch > 1.0
        summary = metrics.summary()
        assert summary["mean_kv_occupancy"] == metrics.mean_kv_occupancy
        assert summary["swap_outs"] == float(metrics.swap_out_count)

    def test_validate_rejects_impossible_trace(self):
        trace = _trace([(200, 200)])
        with pytest.raises(ValueError):
            self._run(trace, tokens=128)


class TestReservationRegression:
    """Reservation mode must reproduce PR 1 behaviour exactly — the paged
    subsystem is additive."""

    def test_run_policy_reserve_matches_direct_controller(self):
        from repro.analysis.serving import run_policy

        trace = bursty_trace(16, seed=7, mean_prefill=48, mean_decode=128,
                             burst_size=8)
        budget = _budget(640)
        via_helper, helper_records = run_policy(
            trace, "fifo", kv_budget_bytes=budget, kv_mode="reserve")
        engine = TokenServingEngine(cluster="1x2n", policy="fifo",
                                    max_batch_size=8, kv_mode="reserve",
                                    kv_budget_bytes=budget)
        direct, direct_records = engine.run(trace)
        assert via_helper.makespan_s == direct.makespan_s
        assert via_helper.kv_mode == direct.kv_mode == "reserve"
        for a, b in zip(helper_records, direct_records):
            assert a.admitted_s == b.admitted_s
            assert a.first_token_s == b.first_token_s
            assert a.finish_s == b.finish_s
            assert a.swap_outs == b.swap_outs == 0

    def test_no_kv_engine_reports_mode_none(self):
        trace = _trace([(16, 32)] * 3, gap_s=0.01)
        metrics, _ = TokenServingEngine(cluster="1x2n").run(trace)
        assert metrics.kv_mode == "none"
        assert metrics.swap_out_count == 0
        assert metrics.swapped_bytes == 0
        assert metrics.kv_total_blocks == 0
        assert metrics.mean_running_batch > 0
