"""One benchmark process: set up a workload, run it once, report.

``run.py`` starts a fresh worker for every measured run, so pricing memo
tables start cold, no persistent pricing cache exists and the simulated KV
pools start empty.  Modes:

* ``run``    — untraced ``engine.run``; reports wall time, peak RSS, the
  modeled metrics, the correctness gate and the determinism digest;
* ``traced`` — the same with every layer's entry points wrapped
  (:mod:`tracer`); adds the per-layer metrics and the span table;
* ``check``  — outside any timed region: the differential check against
  the reference engine on a trace prefix, and the model's error against
  Table II.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, Optional

from workloads import WORKLOADS, Workload

import checks
from tracer import Tracer


def layer_metrics(tracer: Tracer, requests: int) -> Dict[str, float]:
    """Per-layer metrics from the traced run's spans and counters."""
    c = tracer.counters
    t = tracer.totals

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    push = t("events.push")[0] + c["events.pushed_items"]
    pop = t("events.pop")[0]
    dispatch_calls, _, dispatch_self = t("instance.dispatch")
    complete_calls, complete_s, _ = t("instance.complete_step")
    alloc_calls, alloc_s, _ = t("paged_kv.allocate")
    acct_calls, acct_s, _ = t("paged_kv.accounting")
    dispatch_order_calls, dispatch_order_s, _ = t("cluster.dispatch_order")
    return {
        "traces.gen_s": t("traces.gen")[1],
        "engine.run_s": t("engine.run")[1],
        "engine.self_s": t("engine.run")[2],
        "events.push_calls": push,
        "events.pop_calls": pop,
        "events.per_request": ratio(pop, requests),
        "events.self_s": tracer.layer_self_s("events."),
        "schedulers.push_calls": t("schedulers.push")[0],
        "schedulers.pop_calls": t("schedulers.pop")[0],
        "schedulers.victim_calls": t("schedulers.victim")[0],
        "schedulers.self_s": tracer.layer_self_s("schedulers."),
        "cluster.dispatch_order_calls": dispatch_order_calls,
        "cluster.dispatch_order_s": dispatch_order_s,
        "cluster.handoff_target_calls": t("cluster.handoff_target")[0],
        "instance.dispatch_calls": dispatch_calls,
        "instance.launch_ratio": ratio(c["instance.launches"],
                                       dispatch_calls),
        "instance.dispatch_self_s": dispatch_self,
        "instance.complete_step_calls": complete_calls,
        "instance.complete_step_s": complete_s,
        "instance.evict_calls": t("instance.evict")[0],
        "instance.steps_per_event": ratio(c["instance.steps"],
                                          complete_calls),
        "paged_kv.allocate_calls": alloc_calls,
        "paged_kv.allocate_fail_ratio": ratio(c["paged_kv.allocate_fails"],
                                              alloc_calls),
        "paged_kv.allocate_s": alloc_s,
        "paged_kv.accounting_calls": acct_calls,
        "paged_kv.accounting_s": acct_s,
        "paged_kv.swap_calls": t("paged_kv.swap")[0],
        "paged_kv.handoff_calls": t("paged_kv.handoff")[0],
        "paged_kv.prefix_match_calls": t("paged_kv.prefix_match")[0],
        "paged_kv.self_s": tracer.layer_self_s("paged_kv."),
        "multi_node.lookups": c["multi_node.lookups"],
        "multi_node.misses": c["multi_node.misses"],
        "multi_node.hit_ratio": 1.0 - ratio(c["multi_node.missed_lookups"],
                                            c["multi_node.lookups"]),
        "multi_node.miss_s": c["multi_node.miss_s"],
        "metrics.calls": (t("metrics.add")[0]
                          + t("metrics.assemble")[0]),
        "metrics.self_s": tracer.layer_self_s("metrics."),
    }


def measure(workload: Workload, seed: int, num_requests: int,
            tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Set up, run once (the timed region is ``engine.run`` alone) and
    check the results."""
    def generate() -> Any:
        trace = workload.trace(seed, num_requests)
        if tracer is not None and not workload.materialized:
            # a lazy stream is drawn inside engine.run; time one extra
            # pass over it so generation cost still shows
            for _ in trace:
                pass
        return trace

    if tracer is not None:
        tracer.install()
        trace = tracer.wrap("traces.gen", generate)()
    else:
        trace = generate()
    engine = workload.engine()
    ready = time.perf_counter()
    metrics, records = engine.run(trace)
    wall = time.perf_counter() - ready
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    totals = checks.trace_totals(trace)
    modeled = checks.modeled_metrics(metrics)
    stats = checks.sim_statistics(metrics, totals["prompt_tokens"])
    problems = checks.correctness_gate(metrics, records, totals)
    layers = (layer_metrics(tracer, totals["requests"])
              if tracer is not None else None)
    if num_requests == workload.num_requests:
        problems += checks.work_properties(workload.name, seed, metrics,
                                           layers)
    result: Dict[str, Any] = {
        "ready": ready,
        "wall_s": wall,
        "rss_mib": rss_mib,
        "requests": totals["requests"],
        "modeled": modeled,
        "sim": stats,
        "digest": checks.digest(modeled, stats, records),
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = layers
        result["spans"] = tracer.table()
    return result


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "traced", "check"))
    parser.add_argument("--requests", type=int, default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "check":
        result: Dict[str, Any] = {
            "problems": checks.reference_check(workload, args.seed),
            "model_latency_err": checks.model_latency_err(),
        }
    else:
        result = measure(workload, args.seed,
                         args.requests or workload.num_requests,
                         Tracer() if args.mode == "traced" else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
