"""What the benchmark reads from a run and how it checks it: the modeled
metrics, the correctness gate, the determinism digest, the work-property
check and the differential check against the reference engine."""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple
from typing import Any, Dict, List, Optional, Sequence

from workloads import DEFAULT_SEED, SLO, Workload, prefix_trace

from repro.serving.metrics import ServingMetrics
from repro.workloads.traces import RequestTrace, StreamingTrace


def modeled_metrics(metrics: ServingMetrics) -> Dict[str, float]:
    """The simulated-clock end-to-end metrics of one run."""
    if metrics.metrics_mode == "streaming":
        slo = metrics.slo_good_requests / metrics.num_requests
    else:
        slo = metrics.slo_attainment(*SLO)
    return {
        "sim_ttft_p50_s": metrics.ttft_percentile_s(0.50),
        "sim_ttft_p99_s": metrics.ttft_percentile_s(0.99),
        "sim_tpot_p50_s": metrics.tpot_percentile_s(0.50),
        "sim_tpot_p99_s": metrics.tpot_percentile_s(0.99),
        "sim_tokens_per_s": metrics.throughput_tokens_per_second,
        "sim_slo_attainment": slo,
        "sim_tokens_per_joule": metrics.tokens_per_joule(),
    }


def sim_statistics(metrics: ServingMetrics,
                   prompt_tokens: int) -> Dict[str, float]:
    """The modeled per-layer statistics (deterministic per trace)."""
    return {
        "sim.queue_delay_mean_s": metrics.mean_queueing_delay_s,
        "sim.mean_running_batch": metrics.mean_running_batch,
        "sim.utilization": metrics.instance_utilization,
        "sim.decode_time_share": metrics.decode_time_share,
        "sim.prefill_time_share": metrics.prefill_time_share,
        "sim.mixed_time_share": metrics.mixed_time_share,
        "sim.kv_peak_occupancy": metrics.peak_kv_occupancy,
        "sim.kv_mean_fragmentation": metrics.mean_kv_fragmentation,
        "sim.preemptions_per_request": (metrics.preemptions
                                        / metrics.num_requests),
        "sim.swap_time_s": metrics.swap_time_s,
        "sim.handoff_time_s": metrics.handoff_time_s,
        "sim.prefix_tokens_saved_fraction": (metrics.prefill_tokens_saved
                                             / prompt_tokens),
    }


def digest(modeled: Dict[str, float], stats: Dict[str, float],
           records: Sequence[Any]) -> str:
    """Hash of everything the run modeled; ``repr`` keeps every float
    bit, so two runs share a digest only if their results are identical."""
    h = hashlib.sha256()
    for key in sorted(modeled):
        h.update(f"{key}={modeled[key]!r};".encode())
    for key in sorted(stats):
        h.update(f"{key}={stats[key]!r};".encode())
    for record in records:
        h.update(repr(astuple(record)).encode())
    return h.hexdigest()


def trace_totals(trace: Any) -> Dict[str, int]:
    """Request count and token sums of a trace (one pass; a
    ``StreamingTrace`` is re-iterable, so this draws it afresh)."""
    n = decode = prompt = 0
    for request in trace:
        n += 1
        decode += request.decode_len
        prompt += request.prefill_len
    return {"requests": n, "decode_tokens": decode, "prompt_tokens": prompt}


def correctness_gate(metrics: ServingMetrics, records: Sequence[Any],
                     totals: Dict[str, int]) -> List[str]:
    """Problems with one run's outputs (empty when it is correct): every
    arrival finished, generated tokens equal the trace's decode tokens
    and, with full records, every record is ordered arrival <= admitted
    <= first token <= finish."""
    problems: List[str] = []
    if metrics.num_requests != totals["requests"]:
        problems.append(f"{metrics.num_requests} requests finished, "
                        f"{totals['requests']} arrived")
    if metrics.generated_tokens != totals["decode_tokens"]:
        problems.append(f"{metrics.generated_tokens} tokens generated, "
                        f"trace asks for {totals['decode_tokens']}")
    if metrics.metrics_mode == "full":
        if len(records) != totals["requests"]:
            problems.append(f"{len(records)} records for "
                            f"{totals['requests']} requests")
        seen = set()
        for r in records:
            if r.request_id in seen:
                problems.append(f"request {r.request_id} recorded twice")
            seen.add(r.request_id)
            first = r.first_token_s if r.first_token_s is not None \
                else r.finish_s
            if not (r.arrival_s <= r.admitted_s <= first <= r.finish_s):
                problems.append(
                    f"request {r.request_id} out of order: arrival "
                    f"{r.arrival_s!r} admitted {r.admitted_s!r} first token "
                    f"{r.first_token_s!r} finish {r.finish_s!r}")
            if len(problems) > 10:
                break
    return problems


def work_properties(workload: str, seed: int, metrics: ServingMetrics,
                    layers: Optional[Dict[str, float]] = None) -> List[str]:
    """Check, on the default seed, that each workload stresses what it
    claims.  ``layers`` (traced runs only) adds the counter checks."""
    if seed != DEFAULT_SEED:
        return []
    problems: List[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{workload} must have {what}")

    if workload == "azure_fast":
        need(metrics.kv_mode == "none", "no KV admission (kv_mode none)")
        if layers is not None:
            for name, value in layers.items():
                if name.startswith("paged_kv.") and name.endswith("_calls"):
                    need(value == 0, f"{name} == 0 (is {value})")
            need(layers["instance.steps_per_event"] > 1,
                 "instance.steps_per_event > 1")
    elif workload == "kv_pressure":
        need(metrics.preemptions > 0, "preemptions > 0")
        if layers is not None:
            need(layers["paged_kv.allocate_fail_ratio"] > 0,
                 "paged_kv.allocate_fail_ratio > 0")
    elif workload == "disagg_prefix":
        need(metrics.handoff_count == metrics.num_requests,
             f"one handoff per request ({metrics.handoff_count} for "
             f"{metrics.num_requests})")
        need(metrics.prefix_hits > 0, "prefix hits > 0")
    return problems


#: Summary keys built from the time-weighted aggregates that folded steps
#: add in closed form (the one documented relaxation between the folded
#: and the one-event-per-step engine, docs/performance.md).
FOLDED_AGGREGATES = ("instance_utilization", "mean_running_batch",
                     "decode_time_share", "prefill_time_share",
                     "mixed_time_share")


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def compare_summaries(optimized: Dict[str, float], reference: Dict[str, float]
                      ) -> List[str]:
    problems: List[str] = []
    if set(optimized) != set(reference):
        problems.append(f"summary keys differ: {sorted(optimized)} vs "
                        f"{sorted(reference)}")
    for key in sorted(set(optimized) & set(reference)):
        a, b = optimized[key], reference[key]
        ok = (_close(a, b, 1e-9) if key in FOLDED_AGGREGATES else a == b)
        if not ok:
            problems.append(f"summary {key}: {a!r} vs reference {b!r}")
    return problems


def compare_records(optimized: Sequence[Any], reference: Sequence[Any]
                    ) -> List[str]:
    if len(optimized) != len(reference):
        return [f"{len(optimized)} records vs reference {len(reference)}"]
    for a, b in zip(optimized, reference):
        if astuple(a) != astuple(b):
            return [f"record differs from reference: {astuple(a)} vs "
                    f"{astuple(b)}"]
    return []


def reference_check(workload: Workload, seed: int) -> List[str]:
    """Replay a prefix of the workload's trace on the reference engine
    (one event per step, sanitizer on, full metrics) and on the measured
    engine; their results must agree."""
    prefix = prefix_trace(workload, seed, workload.check_prefix)
    reference = workload.engine(multistep=False, sanitize=True,
                                metrics_mode="full", slo=None)
    ref_metrics, ref_records = reference.run(RequestTrace(requests=prefix))
    problems: List[str] = []
    if workload.streaming_metrics:
        # the measured engine keeps no records in streaming mode: compare
        # its exact counters and means, then replay it in full mode for
        # the record comparison
        stream = StreamingTrace(factory=lambda: iter(prefix),
                                length=len(prefix))
        opt_metrics, _ = workload.engine().run(stream)
        for attr in ("num_requests", "generated_tokens", "makespan_s",
                     "preemptions", "swap_out_count", "swap_in_count",
                     "prefill_tokens_processed", "handoff_count",
                     "prefix_hits"):
            a, b = getattr(opt_metrics, attr), getattr(ref_metrics, attr)
            if a != b:
                problems.append(f"streaming {attr}: {a!r} vs reference "
                                f"{b!r}")
        good = round(ref_metrics.slo_attainment(*SLO)
                     * ref_metrics.num_requests)
        if opt_metrics.slo_good_requests != good:
            problems.append(f"streaming SLO-good requests: "
                            f"{opt_metrics.slo_good_requests} vs reference "
                            f"{good}")
        # streaming means are exact sums taken in finish order, so they
        # match the reference up to summation order
        for attr in ("mean_ttft_s", "mean_queueing_delay_s"):
            a, b = getattr(opt_metrics, attr), getattr(ref_metrics, attr)
            if not _close(a, b, 1e-9):
                problems.append(f"streaming {attr}: {a!r} vs reference "
                                f"{b!r}")
        opt_metrics, opt_records = workload.engine(
            metrics_mode="full", slo=None).run(RequestTrace(requests=prefix))
    else:
        opt_metrics, opt_records = workload.engine().run(
            RequestTrace(requests=prefix))
    problems += compare_records(opt_records, ref_records)
    problems += compare_summaries(opt_metrics.summary(), ref_metrics.summary())
    return problems


def model_latency_err() -> float:
    """Max |modeled - paper| / paper over the LoopLynx 1/2/4-node token
    latencies of Table II at context 512.  The model is calibrated to
    these numbers; this is its fit, not a validation."""
    from repro.experiments import table2_fpga_comparison as table2

    result = table2.run(context_len=512)
    modeled = result["token_latency_ms"]
    paper = result["paper_token_latency_ms"]
    labels = [label for label in paper if label.startswith("LoopLynx")]
    return max(abs(modeled[label] - paper[label]) / paper[label]
               for label in labels)
