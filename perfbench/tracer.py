"""Outside-in layer tracing for the benchmark's traced run.

The program has no tracing of its own, so this module wraps the public
entry points of each simulator layer's module from the outside (class
attributes are swapped for timing wrappers before ``engine.run``) and
aggregates spans in memory by ``(name, parent)`` into call count,
inclusive time and self time.  Self time is a span's duration minus the
time its direct child spans cover.  Nothing is recorded per call: the
disaggregated workload makes millions of calls, so only the aggregates
exist, and they are read once when the run ends.

Tracing changes wall time, never results: the wrappers call the original
function with the original arguments and return its result unchanged.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "<root>"

#: Span names of the pricing lookups (outermost ``InstanceRuntime``
#: pricing calls) and of the cycle-model evaluations behind a miss.
LOOKUP_PREFIX = "multi_node.lookup."
MISS_PREFIX = "multi_node.miss."


class Tracer:
    """In-memory span aggregator plus the few counters a span cannot
    express (outcomes read from arguments and results)."""

    def __init__(self) -> None:
        #: (name, parent) -> [count, inclusive_s, self_s]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        # each frame is [name, time covered by direct children]
        self._stack: List[List[Any]] = [[ROOT, 0.0]]
        self.counters: Dict[str, float] = {
            "events.pushed_items": 0,
            "instance.launches": 0,
            "instance.steps": 0,
            "paged_kv.allocate_fails": 0,
            "multi_node.lookups": 0,
            "multi_node.missed_lookups": 0,
            "multi_node.misses": 0,
            "multi_node.miss_s": 0.0,
        }
        self._lookup_depth = 0
        self._miss_depth = 0
        self._installed: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``observe(args, result)`` (when
        given) reads the call's outcome after it returns."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                entry = spans.get(key)
                if entry is None:
                    spans[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def patch(self, cls: type, attr: str, name: str,
              observe: Optional[Callable[[tuple, Any], None]] = None,
              wrapper: Optional[Callable[[Callable], Callable]] = None
              ) -> None:
        """Replace ``cls.attr`` (a method or property defined on ``cls``
        itself) with its traced version; :meth:`uninstall` restores it."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            traced = self.wrap(name, original.fget, observe)
            replacement: Any = property(traced, original.fset, original.fdel,
                                        original.__doc__)
        else:
            replacement = self.wrap(name, original, observe)
            if wrapper is not None:
                replacement = wrapper(replacement)
        self._installed.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_all(self, module: Any, attr: str, name: str) -> None:
        """Patch ``attr`` on every class of ``module`` that defines it
        itself (a base method and its overrides alike)."""
        for value in list(vars(module).values()):
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and attr in value.__dict__):
                self.patch(value, attr, name)

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def _lookup(self, traced: Callable) -> Callable:
        """Count an outermost pricing lookup, and whether any cycle-model
        evaluation (a miss) happened inside it."""
        counters = self.counters

        @functools.wraps(traced)
        def lookup(*args: Any, **kwargs: Any) -> Any:
            if self._lookup_depth:
                return traced(*args, **kwargs)
            self._lookup_depth = 1
            before = counters["multi_node.misses"]
            try:
                return traced(*args, **kwargs)
            finally:
                self._lookup_depth = 0
                counters["multi_node.lookups"] += 1
                if counters["multi_node.misses"] != before:
                    counters["multi_node.missed_lookups"] += 1
        return lookup

    def _miss(self, traced: Callable) -> Callable:
        """Count an outermost cycle-model evaluation and its time."""
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(traced)
        def miss(*args: Any, **kwargs: Any) -> Any:
            if self._miss_depth:
                return traced(*args, **kwargs)
            self._miss_depth = 1
            start = clock()
            try:
                return traced(*args, **kwargs)
            finally:
                self._miss_depth = 0
                counters["multi_node.misses"] += 1
                counters["multi_node.miss_s"] += clock() - start
        return miss

    def install(self) -> None:
        """Wrap the entry points of every simulator layer."""
        from repro.core import multi_node
        from repro.memory import paged_kv
        from repro.serving import (
            cluster,
            engine,
            events,
            instance,
            metrics,
            schedulers,
        )

        counters = self.counters

        def pushed_many(args: tuple, result: Any) -> None:
            counters["events.pushed_items"] += len(args[1])

        def launched(args: tuple, result: Any) -> None:
            if result is not None:
                counters["instance.launches"] += 1

        def completed(args: tuple, result: Any) -> None:
            payload = args[1]
            counters["instance.steps"] += (payload[2][1]
                                           if payload[0] == "decode_k" else 1)

        def allocated(args: tuple, result: Any) -> None:
            if result is None or result is False:
                counters["paged_kv.allocate_fails"] += 1

        # serving.engine
        self.patch(engine.TokenServingEngine, "run", "engine.run")
        # serving.events
        q = events.BucketedEventQueue
        self.patch(q, "push", "events.push")
        self.patch(q, "push_many", "events.push_many", pushed_many)
        self.patch(q, "pop", "events.pop")
        self.patch(q, "peek_time", "events.peek_time")
        # serving.schedulers
        for attr in ("push", "pop", "peek"):
            self.patch_all(schedulers, attr, f"schedulers.{attr}")
        self.patch_all(schedulers, "preemption_victim", "schedulers.victim")
        # serving.cluster
        for attr in ("dispatch_order", "placement_ok", "handoff_target",
                     "prepare"):
            self.patch_all(cluster, attr, f"cluster.{attr}")
        # serving.instance
        rt = instance.InstanceRuntime
        self.patch(rt, "dispatch", "instance.dispatch", launched)
        self.patch(rt, "complete_step", "instance.complete_step", completed)
        self.patch(rt, "evict", "instance.evict")
        self.patch(rt, "take_handoffs", "instance.take_handoffs")
        # core.multi_node pricing: lookups go through the runtime's memo
        # tables, misses reach the cycle model (or the PCIe pricing)
        for attr in ("step_latency_s", "prefill_chunk_latency_s",
                     "mixed_step_latency_s", "swap_transfer_s"):
            self.patch(rt, attr, LOOKUP_PREFIX + attr, wrapper=self._lookup)
        for attr in ("decode_step_latency_s", "mixed_step_latency_s"):
            self.patch(multi_node.LoopLynxSystem, attr, MISS_PREFIX + attr,
                       wrapper=self._miss)
        kv = paged_kv.PagedKVManager
        self.patch(kv, "swap_transfer_s", MISS_PREFIX + "swap_transfer_s",
                   wrapper=self._miss)
        # memory.paged_kv
        self.patch(kv, "allocate", "paged_kv.allocate", allocated)
        self.patch(kv, "allocate_prefix", "paged_kv.allocate", allocated)
        for attr in ("used_blocks", "free_blocks", "occupancy_fraction",
                     "internal_fragmentation_fraction"):
            self.patch(kv, attr, "paged_kv.accounting")
        for attr in ("swap_out", "swap_in"):
            self.patch(kv, attr, "paged_kv.swap")
        for attr in ("export_handoff", "import_handoff"):
            self.patch(kv, attr, "paged_kv.handoff")
        self.patch(kv, "match_prefix_tokens", "paged_kv.prefix_match")
        for attr in ("free", "register_prefix", "can_allocate",
                     "can_swap_in", "blocks_missing", "cached_blocks",
                     "shared_blocks", "shared_block_fraction"):
            self.patch(kv, attr, "paged_kv.other")
        # serving.metrics (the engine's two assemblers are the metrics
        # pipeline's entry points inside a run; the collector is fed once
        # per finished request in streaming mode)
        self.patch(metrics.StreamingMetricsCollector, "add", "metrics.add")
        self.patch(engine.TokenServingEngine, "_metrics", "metrics.assemble")
        self.patch(engine.TokenServingEngine, "_metrics_streaming",
                   "metrics.assemble")

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def totals(self, name: str) -> Tuple[int, float, float]:
        """(count, inclusive_s, self_s) of span ``name`` over all parents."""
        count, incl, own = 0, 0.0, 0.0
        for (span, _), (c, i, s) in self.spans.items():
            if span == name:
                count += int(c)
                incl += i
                own += s
        return count, incl, own

    def layer_self_s(self, prefix: str) -> float:
        """Self time summed over every span whose name starts with
        ``prefix``."""
        return sum(s for (span, _), (_, _, s) in self.spans.items()
                   if span.startswith(prefix))

    def table(self) -> List[Dict[str, Any]]:
        """The aggregated spans, largest self time first."""
        rows = [{"span": span, "parent": parent, "count": int(c),
                 "inclusive_s": i, "self_s": s}
                for (span, parent), (c, i, s) in self.spans.items()]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
