"""Paged KV-cache block manager with a modeled host-memory swap tier.

PR 1's :class:`~repro.serving.schedulers.KVAdmissionController` admits a
request only when its *worst-case* context (``prefill_len + decode_len``
cached positions) fits the free KV capacity.  That reservation is safe but
pessimistic: a request that will eventually hold 500 positions occupies all
500 from its first prefill chunk, so steady-state batch occupancy is capped
well below what the HBM actually holds at any instant.

Production engines (vLLM, rtp-llm) instead allocate the cache in fixed-size
**token blocks** on demand: a request holds only the blocks covering the
positions it has actually cached, growing block-by-block as decode proceeds.
This module models that scheme on top of the head-wise
:class:`~repro.memory.kv_cache.KVCacheLayout`:

* a **block** spans ``block_size_tokens`` cached positions; on every node it
  occupies ``block_size_tokens * layout.bytes_per_token_per_node()`` bytes
  (each node stores the K/V vectors of the heads it owns for those
  positions, so one logical block is physically striped across nodes);
* every request has a **block table** mapping it to the device blocks it
  holds plus the number of positions actually cached (the last block is
  usually partially filled — *internal fragmentation*);
* when the device pool runs dry, a victim's blocks can be **swapped** to a
  modeled host-memory tier over PCIe
  (:func:`PagedKVManager.swap_transfer_s` prices the transfer with the same
  :class:`~repro.network.link.LinkConfig` cycle model the ring links use)
  and later swapped back in, resuming the request without recomputation;
* with ``prefix_sharing=True`` the pool additionally keeps a **prefix
  index**: every full block of a *completed* prompt is registered under a
  chain hash (``hash((parent_hash, token_chunk))`` over the request's
  ``prompt_token_ids``), later requests whose prompt matches reuse the
  physical blocks with a per-block **refcount**, the final partially-reused
  block is **copied on write** before the matching request recomputes its
  last prompt token, and blocks whose refcount drops to zero linger in an
  LRU *reclaimable* tier (still indexed, still device-resident) until pool
  pressure recycles them — so a finished conversation turn can seed the
  next turn's arrival, vLLM / rtp-llm flexlb style.

Units: capacities are counted in blocks and cached token positions per node
(the most-loaded node under uneven head splits), byte figures are per-node
unless suffixed ``_total``, and all transfer times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.memory.hbm import kv_budget_bytes_per_node
from repro.memory.kv_cache import KVCacheLayout
from repro.network.link import LinkConfig
from repro.units import Blocks, Bytes, Seconds, Tokens

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.multi_node import LoopLynxSystem
    from repro.workloads.traces import Request

#: Effective bandwidth of the host link used for KV swaps.  The Alveo U50 is
#: a PCIe Gen3 x16 card: 15.754 GB/s raw, derated to ~12 GB/s sustained DMA
#: throughput (the usual fraction achieved by streaming DMA engines).
PCIE_SWAP_BANDWIDTH_BYTES_PER_S = 12.0e9

#: Default host link: PCIe bandwidth, kernel clock for cycle accounting, and
#: a generous per-message latency (descriptor setup + doorbell + interrupt).
DEFAULT_HOST_LINK = LinkConfig(
    bandwidth_bytes_per_s=PCIE_SWAP_BANDWIDTH_BYTES_PER_S,
    clock_hz=285.0e6,
    hop_latency_cycles=2048,
    datapack_bytes=64,
)

#: Seed of the per-block chain hash.  The chain folds each full block's
#: token-id chunk over its parent's hash, so equal hashes imply equal
#: *whole prefixes*, not just equal blocks.  ``hash`` over int tuples is
#: deterministic across processes (only str/bytes hashing is salted), so
#: shared-mode runs stay bit-reproducible.
PREFIX_HASH_SEED = 0x9E3779B9


@dataclass
class BlockTable:
    """Per-request block accounting.

    Attributes
    ----------
    request_id:
        The owning request.
    device_blocks:
        Ids of the fixed-size blocks this request holds in device HBM.
    host_blocks:
        Number of blocks currently parked in the host-memory swap tier
        (host capacity is modeled as unbounded, so ids are not tracked).
    cached_tokens:
        Cached positions the table covers (≤ ``len(device_blocks) *
        block_size``; the shortfall in the last block is internal
        fragmentation).
    """

    request_id: int
    device_blocks: List[Blocks] = field(default_factory=list)
    host_blocks: Blocks = 0
    cached_tokens: Tokens = 0

    @property
    def is_swapped(self) -> bool:
        return self.host_blocks > 0


class PagedKVManager:
    """Fixed-size-block KV allocator for one serving instance.

    Parameters
    ----------
    layout:
        Head-wise cache layout (gives bytes per cached token per node).
    block_size_tokens:
        Cached positions per block.  Smaller blocks waste less capacity on
        partially-filled tails but mean more allocation churn; 16–32 is the
        production sweet spot.
    budget_bytes:
        Per-node HBM byte budget for the cache; defaults to the layout's
        full-sequence footprint (same default as
        :class:`~repro.serving.schedulers.KVAdmissionController`).
    host_link:
        :class:`~repro.network.link.LinkConfig` pricing block swaps over
        PCIe; ``None`` uses :data:`DEFAULT_HOST_LINK`.
    nodes_per_card:
        Accelerator nodes sharing one card (and therefore one PCIe link);
        swaps of a multi-card deployment proceed card-parallel.
    prefix_sharing:
        Enable the hash-indexed prefix cache (OFF by default — with the
        flag off every code path is byte-identical to the private-blocks
        manager, which the golden-timestamp pins rely on).
    """

    def __init__(self, layout: KVCacheLayout, block_size_tokens: int = 16,
                 budget_bytes: Optional[int] = None,
                 host_link: Optional[LinkConfig] = None,
                 nodes_per_card: int = 2,
                 prefix_sharing: bool = False) -> None:
        if block_size_tokens <= 0:
            raise ValueError("block_size_tokens must be positive")
        if nodes_per_card <= 0:
            raise ValueError("nodes_per_card must be positive")
        self.layout = layout
        self.block_size_tokens = int(block_size_tokens)
        if budget_bytes is None:
            budget_bytes = layout.capacity_bytes_per_node()
        if budget_bytes < 0:
            raise ValueError("budget cannot be negative")
        self.budget_bytes = int(budget_bytes)
        self.host_link = host_link or DEFAULT_HOST_LINK
        self.nodes_per_card = int(nodes_per_card)
        self.prefix_sharing = bool(prefix_sharing)
        capacity_tokens = layout.max_cached_tokens(self.budget_bytes)
        #: Total device blocks in the pool (per node; every node holds its
        #: head-share of each block, so the count is uniform across nodes).
        self.total_blocks = capacity_tokens // self.block_size_tokens
        #: Free block ids, popped from the end.  Besides :meth:`allocate`,
        #: ``InstanceRuntime._fold_decode`` takes a folded decode run's
        #: crossing blocks from it, step-major in batch order.
        self._free: List[int] = list(range(self.total_blocks - 1, -1, -1))
        self._tables: Dict[int, BlockTable] = {}
        # prefix-sharing state (all empty and untouched when the flag is off)
        self._ref: Dict[int, int] = {}           # block id -> live refcount
        self._prefix_index: Dict[int, int] = {}  # chain hash -> block id
        self._block_hash: Dict[int, int] = {}    # registered block -> hash
        #: ref==0 registered blocks, insertion order == LRU reclaim order
        self._reclaimable: Dict[int, None] = {}
        self._multi_ref = 0                      # blocks with refcount >= 2
        #: Block capacity of every live table (Σ device blocks × block
        #: size; a shared block counts once per holder) and the positions
        #: the device-resident tables cache — kept incrementally so
        #: :attr:`internal_fragmentation_fraction` is O(1) per step.
        self.allocated_tokens: Tokens = 0
        self.cached_tokens: Tokens = 0
        # lifetime counters (monotonic; survive free())
        self.peak_used_blocks = 0
        self.swap_out_count = 0
        self.swap_in_count = 0
        self.swapped_bytes_total = 0
        self.prefix_hits = 0
        self.prefix_tokens_reused = 0
        self.cow_copies = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def for_system(system: "LoopLynxSystem", block_size_tokens: Tokens = 16,
                   budget_bytes: Optional[Bytes] = None,
                   kv_bytes_per_element: int = 1,
                   host_link: Optional[LinkConfig] = None,
                   prefix_sharing: bool = False) -> "PagedKVManager":
        """Build a manager for a :class:`~repro.core.multi_node.LoopLynxSystem`.

        ``budget_bytes`` defaults to the node's HBM share net of resident
        weights (:func:`~repro.memory.hbm.kv_budget_bytes_per_node`), the
        same default the reservation controller uses — so reserve vs. paged
        comparisons run against identical capacity.
        """
        layout = KVCacheLayout.for_model(
            system.config.model, num_nodes=system.num_nodes,
            bytes_per_element=kv_bytes_per_element)
        if budget_bytes is None:
            budget_bytes = kv_budget_bytes_per_node(
                system.node.weight_bytes_per_token(),
                nodes_per_card=system.config.nodes_per_card)
        return PagedKVManager(layout, block_size_tokens=block_size_tokens,
                              budget_bytes=budget_bytes, host_link=host_link,
                              nodes_per_card=system.config.nodes_per_card,
                              prefix_sharing=prefix_sharing)

    def clone_empty(self) -> "PagedKVManager":
        """A fresh manager with the same configuration and no allocations
        (the engine gives each instance, and each run, its own pool)."""
        return PagedKVManager(self.layout, self.block_size_tokens,
                              self.budget_bytes, self.host_link,
                              self.nodes_per_card, self.prefix_sharing)

    # ------------------------------------------------------------------
    # sizes and occupancy
    # ------------------------------------------------------------------
    @property
    def bytes_per_block_per_node(self) -> int:
        """HBM bytes one block occupies on each node (its head-share of
        ``block_size_tokens`` cached positions)."""
        return self.block_size_tokens * self.layout.bytes_per_token_per_node()

    @property
    def used_blocks(self) -> Blocks:
        """Blocks referenced by at least one live block table (excludes the
        reclaimable prefix-cache tier, which is free capacity on demand)."""
        return self.total_blocks - self.free_blocks

    @property
    def free_blocks(self) -> Blocks:
        """Blocks an allocation could take right now: the free list plus
        ref==0 cached prefix blocks (reclaimed LRU-first under pressure)."""
        return len(self._free) + len(self._reclaimable)

    @property
    def cached_blocks(self) -> Blocks:
        """Device-resident prefix-cache blocks no request references."""
        return len(self._reclaimable)

    @property
    def shared_blocks(self) -> Blocks:
        """Device blocks currently referenced by two or more requests."""
        return self._multi_ref

    @property
    def shared_block_fraction(self) -> float:
        """Fraction of the pool serving the prefix cache: blocks referenced
        by multiple requests plus idle cached blocks awaiting reuse."""
        if self.total_blocks == 0:
            return 0.0
        return (self._multi_ref + len(self._reclaimable)) / self.total_blocks

    @property
    def occupancy_fraction(self) -> float:
        """Fraction of the device block pool currently allocated."""
        if self.total_blocks == 0:
            return 0.0
        return self.used_blocks / self.total_blocks

    @property
    def internal_fragmentation_fraction(self) -> float:
        """Fraction of allocated block capacity not covering cached tokens
        (partially-filled tail blocks of device-resident requests)."""
        allocated_tokens = self.allocated_tokens
        if allocated_tokens == 0:
            return 0.0
        return 1.0 - self.cached_tokens / allocated_tokens

    def blocks_needed(self, num_tokens: Tokens) -> int:
        """Blocks covering ``num_tokens`` cached positions."""
        if num_tokens < 0:
            raise ValueError("negative token count")
        return -(-num_tokens // self.block_size_tokens)

    def holds(self, request_id: int) -> bool:
        return request_id in self._tables

    def table(self, request_id: int) -> BlockTable:
        return self._tables[request_id]

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def blocks_missing(self, request_id: int, target_tokens: Tokens) -> int:
        """Device blocks ``request_id`` still lacks to cover
        ``target_tokens`` cached positions (0 when already covered).  This
        is the single source of truth for the engine's admission gate and
        its eviction what-if check."""
        held = len(self._tables[request_id].device_blocks) \
            if request_id in self._tables else 0
        return max(0, self.blocks_needed(target_tokens) - held)

    def can_allocate(self, request_id: int, target_tokens: Tokens) -> bool:
        """Would :meth:`allocate` for ``target_tokens`` positions succeed?"""
        return self.blocks_missing(request_id, target_tokens) <= self.free_blocks

    def allocate(self, request_id: int, target_tokens: Tokens) -> bool:
        """Grow ``request_id``'s block table to cover ``target_tokens``
        cached positions; allocation is all-or-nothing (no partial grow).

        Returns False without side effects when the free pool cannot supply
        the missing blocks — the caller must preempt someone and retry.
        """
        table = self._tables.get(request_id)
        if table is not None and table.host_blocks > 0:
            raise RuntimeError(
                f"request {request_id} is swapped out; swap_in() it first")
        if target_tokens < 0:
            raise ValueError("negative token count")
        # blocks_needed and is_swapped inlined: this runs at every decode
        # step boundary of every batch member
        held = 0 if table is None else len(table.device_blocks)
        missing = -(-target_tokens // self.block_size_tokens) - held
        if missing > 0 and missing > self.free_blocks:
            return False
        if table is None:
            table = self._tables[request_id] = BlockTable(request_id)
        if missing > 0:
            if self.prefix_sharing:
                for _ in range(missing):
                    block = self._take_block()
                    self._ref[block] = 1
                    table.device_blocks.append(block)
            else:
                for _ in range(missing):
                    table.device_blocks.append(self._free.pop())
            self.allocated_tokens += missing * self.block_size_tokens
            # only a call that takes blocks can raise the peak
            self.peak_used_blocks = max(self.peak_used_blocks,
                                        self.used_blocks)
        if target_tokens > table.cached_tokens:
            self.cached_tokens += target_tokens - table.cached_tokens
            table.cached_tokens = target_tokens
        return True

    def free(self, request_id: int) -> int:
        """Release every block (device and host) a request holds; returns
        the number of device blocks this request held exclusively (shared
        prefix blocks merely drop a reference — blocks other requests still
        hold, and registered blocks whose refcount hits zero, stay
        device-resident)."""
        table = self._tables.pop(request_id, None)
        if table is None:
            return 0
        self.allocated_tokens -= len(table.device_blocks) * self.block_size_tokens
        if not table.is_swapped:
            self.cached_tokens -= table.cached_tokens
        if not self.prefix_sharing:
            released = len(table.device_blocks)
            self._free.extend(reversed(table.device_blocks))
            return released
        released = 0
        for block in table.device_blocks:
            if self._ref[block] == 1:
                released += 1
            self._deref(block)
        return released

    # ------------------------------------------------------------------
    # prefix sharing (hash-indexed block reuse with copy-on-write)
    # ------------------------------------------------------------------
    def _take_block(self) -> int:
        """Pop a physical block: the free list first, then the oldest
        reclaimable cached block (which is deregistered from the index)."""
        if self._free:
            return self._free.pop()
        block = next(iter(self._reclaimable))
        del self._reclaimable[block]
        chain_hash = self._block_hash.pop(block)
        del self._prefix_index[chain_hash]
        return block

    def _addref(self, block: int) -> None:
        refs = self._ref.get(block, 0) + 1
        self._ref[block] = refs
        if refs == 2:
            self._multi_ref += 1
        elif refs == 1:
            self._reclaimable.pop(block, None)

    def _deref(self, block: int) -> None:
        refs = self._ref[block] - 1
        if refs == 0:
            del self._ref[block]
            if block in self._block_hash:
                self._reclaimable[block] = None
            else:
                self._free.append(block)
        else:
            self._ref[block] = refs
            if refs == 1:
                self._multi_ref -= 1

    def _match_chain(self, token_ids: Sequence[int]) -> List[int]:
        """Block ids of the longest indexed chain-hash prefix of
        ``token_ids`` (full blocks only — a partial tail never matches)."""
        matched: List[int] = []
        chain = PREFIX_HASH_SEED
        size = self.block_size_tokens
        index = self._prefix_index
        for i in range(len(token_ids) // size):
            chain = hash((chain, tuple(token_ids[i * size:(i + 1) * size])))
            block = index.get(chain)
            if block is None:
                break
            matched.append(block)
        return matched

    def match_prefix_tokens(self, token_ids: Sequence[int]) -> Tokens:
        """Prompt positions a request with this token-id prefix could reuse
        from the pool right now (read-only; the cache-aware router's score).

        Always leaves at least one prompt token to recompute — a fully
        matched prompt still needs a prefill step to produce its first
        logits, exactly like vLLM's recompute-the-last-block rule.
        """
        if not self.prefix_sharing or not token_ids:
            return 0
        matched = len(self._match_chain(token_ids))
        if not matched:
            return 0
        return min(matched * self.block_size_tokens, len(token_ids) - 1)

    def _prefix_plan(self, target_tokens: Tokens,
                     token_ids: Sequence[int]
                     ) -> Tuple[List[int], Tokens, bool, int, int]:
        """What :meth:`allocate_prefix` would do for a fresh table right
        now: ``(matched block ids, reused positions, COW copy?, fresh
        blocks, resurrected reclaimable blocks)``.  Read-only."""
        matched_ids = self._match_chain(token_ids) if token_ids else []
        matched_tokens = 0
        if matched_ids:
            matched_tokens = min(len(matched_ids) * self.block_size_tokens,
                                 len(token_ids) - 1)
        # COW: the last matched block is only partially reused (the final
        # prompt token will be recomputed and rewritten); if another request
        # also references it, the write must go to a private copy.
        cow = bool(matched_ids) \
            and matched_tokens < len(matched_ids) * self.block_size_tokens \
            and self._ref.get(matched_ids[-1], 0) >= 1
        fresh = max(0, self.blocks_needed(target_tokens) - len(matched_ids))
        resurrected = sum(1 for b in matched_ids if b in self._reclaimable)
        return matched_ids, matched_tokens, cow, fresh, resurrected

    def prefix_claim_blocks(self, target_tokens: Tokens,
                            token_ids: Sequence[int]) -> Blocks:
        """Free blocks :meth:`allocate_prefix` for ``target_tokens``
        positions would consume right now (fresh blocks, the COW copy and
        every matched block resurrected from the reclaimable tier): the
        allocation succeeds exactly when this is at most
        :attr:`free_blocks`.  The dry run of the admission gate."""
        if not self.prefix_sharing:
            return self.blocks_needed(target_tokens)
        _, _, cow, fresh, resurrected = self._prefix_plan(target_tokens,
                                                          token_ids)
        return fresh + (1 if cow else 0) + resurrected

    def allocate_prefix(self, request_id: int, target_tokens: Tokens,
                        token_ids: Sequence[int]) -> Optional[int]:
        """First allocation for a request carrying prompt token ids: reuse
        every indexed prefix block (bumping refcounts), copy-on-write the
        final matched block when the request must rewrite its last prompt
        token into a block someone else holds, and allocate fresh blocks up
        to ``target_tokens``.

        Returns the number of reused prompt positions, or ``None`` without
        side effects when the pool cannot supply the fresh blocks (same
        contract as :meth:`allocate` returning False).
        """
        if not self.prefix_sharing:
            return 0 if self.allocate(request_id, target_tokens) else None
        table = self._tables.get(request_id)
        if table is not None and (table.device_blocks or table.is_swapped
                                  or table.cached_tokens):
            raise RuntimeError(
                f"request {request_id} already holds KV here; prefix "
                "allocation only applies to a fresh table")
        matched_ids, matched_tokens, cow, fresh, resurrected = \
            self._prefix_plan(target_tokens, token_ids)
        takes = fresh + (1 if cow else 0)
        if takes > self.free_blocks - resurrected:
            return None
        shared = matched_ids[:-1] if cow else matched_ids
        for block in shared:
            self._addref(block)
        blocks = list(shared)
        if cow:
            copy = self._take_block()
            self._ref[copy] = 1
            blocks.append(copy)
            self.cow_copies += 1
        for _ in range(fresh):
            block = self._take_block()
            self._ref[block] = 1
            blocks.append(block)
        if table is None:
            table = self._tables.setdefault(request_id,
                                            BlockTable(request_id))
        table.device_blocks = blocks
        table.cached_tokens = max(target_tokens, matched_tokens)
        self.allocated_tokens += len(blocks) * self.block_size_tokens
        self.cached_tokens += table.cached_tokens
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        if matched_tokens > 0:
            self.prefix_hits += 1
            self.prefix_tokens_reused += matched_tokens
        return matched_tokens

    def register_prefix(self, request_id: int,
                        token_ids: Sequence[int]) -> int:
        """Index the full prompt blocks of a *completed* prefill so later
        matching prompts can reuse them; returns the number of newly
        registered blocks.  Idempotent: blocks whose chain hash is already
        indexed (including blocks this request itself reused) are skipped.
        """
        if not self.prefix_sharing or not token_ids:
            return 0
        table = self._tables.get(request_id)
        if table is None or table.is_swapped:
            return 0
        size = self.block_size_tokens
        full_blocks = min(len(token_ids) // size, len(table.device_blocks))
        chain = PREFIX_HASH_SEED
        registered = 0
        for i in range(full_blocks):
            chain = hash((chain, tuple(token_ids[i * size:(i + 1) * size])))
            if chain in self._prefix_index:
                continue
            block = table.device_blocks[i]
            if block in self._block_hash:
                continue
            self._prefix_index[chain] = block
            self._block_hash[block] = chain
            registered += 1
        return registered

    # ------------------------------------------------------------------
    # swap tier
    # ------------------------------------------------------------------
    def swap_out(self, request_id: int) -> Tuple[int, int]:
        """Move a request's device blocks to the host tier.

        Returns ``(num_blocks, bytes_total)`` where ``bytes_total`` is the
        PCIe traffic summed over all nodes.  The request keeps its cached
        token count, so it can resume without recomputation after
        :meth:`swap_in`.
        """
        table = self._tables[request_id]
        if table.is_swapped:
            raise RuntimeError(f"request {request_id} is already swapped out")
        num_blocks = len(table.device_blocks)
        self.allocated_tokens -= num_blocks * self.block_size_tokens
        self.cached_tokens -= table.cached_tokens
        if self.prefix_sharing:
            # The host snapshot is private and complete (full PCIe bytes);
            # device-side, shared prefix blocks just drop this request's
            # reference and stay resident for the other holders / the
            # reclaimable cache.
            for block in table.device_blocks:
                self._deref(block)
        else:
            self._free.extend(reversed(table.device_blocks))
        table.device_blocks = []
        table.host_blocks = num_blocks
        bytes_total = self._swap_bytes_total(num_blocks)
        self.swap_out_count += 1
        self.swapped_bytes_total += bytes_total
        return num_blocks, bytes_total

    def can_swap_in(self, request_id: int) -> bool:
        table = self._tables.get(request_id)
        if table is None or not table.is_swapped:
            return False
        return table.host_blocks <= self.free_blocks

    def swap_in(self, request_id: int) -> Tuple[int, int]:
        """Bring a swapped request's blocks back to the device.

        Returns ``(num_blocks, bytes_total)``; raises when the free pool is
        too small (check :meth:`can_swap_in` first).
        """
        table = self._tables[request_id]
        if not table.is_swapped:
            raise RuntimeError(f"request {request_id} is not swapped out")
        if table.host_blocks > self.free_blocks:
            raise RuntimeError(
                f"cannot swap request {request_id} in: needs "
                f"{table.host_blocks} blocks, {self.free_blocks} free")
        num_blocks = table.host_blocks
        if self.prefix_sharing:
            # Swap-in restores a private snapshot: the request no longer
            # shares blocks with anyone (its prefix references were dropped
            # at swap-out) and its prompt blocks are not re-registered.
            for _ in range(num_blocks):
                block = self._take_block()
                self._ref[block] = 1
                table.device_blocks.append(block)
        else:
            for _ in range(num_blocks):
                table.device_blocks.append(self._free.pop())
        table.host_blocks = 0
        self.allocated_tokens += num_blocks * self.block_size_tokens
        self.cached_tokens += table.cached_tokens
        bytes_total = self._swap_bytes_total(num_blocks)
        self.swap_in_count += 1
        self.swapped_bytes_total += bytes_total
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        return num_blocks, bytes_total

    # ------------------------------------------------------------------
    # prefill→decode handoff (disaggregated serving)
    # ------------------------------------------------------------------
    def export_handoff(self, request_id: int) -> Tuple[int, int, int]:
        """Release a finished prompt's blocks for transfer to another
        instance (a prefill→decode handoff).

        The export *is* a swap-out — the blocks leave the device over the
        same PCIe link, so it reuses :meth:`swap_out` and its counters —
        except the table is dropped afterwards: the KV now belongs to the
        importing instance (:meth:`import_handoff`), not to this pool's
        host tier.  Returns ``(num_blocks, cached_tokens, bytes_total)``.
        """
        num_blocks, bytes_total = self.swap_out(request_id)
        table = self._tables.pop(request_id)
        return num_blocks, table.cached_tokens, bytes_total

    def import_handoff(self, request_id: int, cached_tokens: Tokens) -> int:
        """Register a handed-off request's KV in this pool's host tier.

        The blocks arrive swapped (host-resident): the importing instance
        pays its own swap-in — device allocation, PCIe transfer, counters —
        when it admits the request, exactly like resuming a preempted
        victim.  The block count is recomputed for *this* layout (a 4-node
        prefiller and a 1-node decoder hold the same cached positions in
        the same number of same-token-size blocks, but per-node byte shares
        differ).  Returns the host block count.
        """
        if cached_tokens <= 0:
            raise ValueError("handoff must carry at least one cached token")
        if request_id in self._tables:
            raise RuntimeError(
                f"request {request_id} already holds blocks here; a handoff "
                "may only land on an instance that does not hold it")
        blocks = self.blocks_needed(cached_tokens)
        self._tables[request_id] = BlockTable(
            request_id, host_blocks=blocks, cached_tokens=cached_tokens)
        return blocks

    def _swap_bytes_total(self, num_blocks: int) -> int:
        """PCIe bytes to move ``num_blocks`` blocks, summed over all nodes
        (each node transfers its own head-share)."""
        return num_blocks * self.bytes_per_block_per_node * self.layout.num_nodes

    def swap_transfer_s(self, num_blocks: Blocks) -> Seconds:
        """Seconds to move ``num_blocks`` blocks between device and host.

        Nodes on the same card share one PCIe link; cards transfer in
        parallel, so the makespan is the per-card share priced by the host
        :class:`~repro.network.link.LinkConfig` cycle model.
        """
        if num_blocks < 0:
            raise ValueError("negative block count")
        if num_blocks == 0:
            return 0.0
        bytes_total = self._swap_bytes_total(num_blocks)
        num_cards = -(-self.layout.num_nodes // self.nodes_per_card)
        per_card = -(-bytes_total // num_cards)
        stream_cycles = per_card / self.host_link.bytes_per_cycle
        cycles = stream_cycles + self.host_link.hop_latency_cycles
        return cycles / self.host_link.clock_hz

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def max_request_tokens(self, request: "Request") -> Tokens:
        """Cached positions a request occupies at its maximum context."""
        return min(request.prefill_len + request.decode_len,
                   self.layout.max_seq_len)

    def validate(self, requests: Iterable["Request"]) -> None:
        """Reject traces containing a request whose maximum context cannot
        fit the device pool even running alone (it could never finish)."""
        for request in requests:
            needed = self.blocks_needed(self.max_request_tokens(request))
            if needed > self.total_blocks:
                raise ValueError(
                    f"request {request.request_id} needs {needed} KV blocks "
                    f"at full context but the pool only has "
                    f"{self.total_blocks}")

