"""Million-request replay harness: the serving engine's perf trajectory.

Replays a pinned synthetic Azure-style trace (diurnal Poisson arrivals,
lognormal prompt/output lengths) through the token-level engine and measures
end-to-end simulator throughput (requests simulated per wall-clock second)
and peak RSS, in both metrics modes:

* ``full`` — one record per request, exact percentiles (the default);
* ``streaming`` — constant-memory aggregates, the trace consumed lazily
  straight off the generator.

Each measurement runs in a fresh subprocess so peak RSS (``ru_maxrss``) and
GC state describe that run alone.  Results are written to the gitignored
``.bench_build/BENCH_serving_perf.json`` (override the path with the
``REPRO_BENCH_PERF_OUT`` environment variable) — CI uploads it as an
artifact — so a plain test run never dirties the committed
``BENCH_serving_perf.json`` at the repo root, which records the perf
trajectory and is edited by hand or by ``--refresh-seed``.

Reference floors live in the committed JSON, not in this file: the
``seed`` section records the pre-optimization engine's rate and exact
makespan per scale, and the CI gate asserts ``THROUGHPUT_FLOOR_X`` times
that rate (slack so a slow shared runner cannot produce a false
regression signal, while a genuine event-loop regression — which costs
integer factors, not percents — still trips it).  The makespan pin is
exact: the optimized engine must simulate the *same* system, bit for
bit, at any speed.  ``pytest --refresh-seed`` re-measures the reference
numbers on the current box via the engine's compatibility path
(``multistep=False``, the closest living stand-in for the seed engine's
per-step loop) and rewrites the committed ``seed`` section; by default
the committed floors are trusted as-is.

Scales: the 100k replay always runs; the 1M replay is opt-in via
``RUN_PERF_1M=1`` (it takes ~a minute per mode).

``test_paged_fold_event_ceiling`` pins the exact number of events a
small paged replay posts, so paged fast-forward folding cannot switch off
silently (it would multiply the count by ~13);
``test_disagg_fold_event_ceiling`` does the same for a disaggregated
prefill/decode pool (~7x).  ``test_paged_fold_ledger_ceiling`` pins the
number of step-ledger tallies the same paged replay makes: a fold tallies
once per price window, so falling back to per-step statistics work would
multiply it.

This file also measures the two parallel-path features of the sweep
engine (see ``repro/serving/sweep.py``):

* ``test_sweep_scaling`` fans an 8-config router×cluster grid over a
  process pool and records configs/hour plus scaling efficiency per
  worker count in the JSON's ``sweep`` section.  Every worker count must
  reproduce the serial summaries byte for byte.  The full 1/2/4/8-worker
  ladder at 100k requests is opt-in via ``RUN_PERF_SWEEP=1`` (CI's
  perf-smoke job sets it); the default run keeps a cheap 2-worker
  identity smoke.  The >= 3x-at-4-workers assertion only applies when
  the box actually has >= 4 CPUs.
* ``test_pricing_cache_warm_vs_cold`` pins that a warm on-disk pricing
  cache is measurably faster than a cold run, with bit-identical
  results, recorded in the JSON's ``pricing_cache`` section.
"""

import json
import os
import subprocess
import sys
import time

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
#: The committed trajectory: source of the seed floors.
BENCH_JSON = os.path.join(_ROOT, "BENCH_serving_perf.json")
#: Where a run writes its measurements (never the committed copy).
BENCH_OUT = os.environ.get("REPRO_BENCH_PERF_OUT") or os.path.join(
    _ROOT, ".bench_build", "BENCH_serving_perf.json")

#: The pinned replay workload and pool (chosen so the pool runs busy but
#: unsaturated: queueing happens, batches form, nothing diverges).
BENCH_CONFIG = {
    "trace": "synthetic_azure_trace(seed=0, mean_rate_per_s=8.0, "
             "diurnal_amplitude=0.3)",
    "cluster": "8x2n",
    "max_batch_size": 8,
    "policy": "fifo",
}

#: CI throughput floor, as a multiple of the seed rate at the same scale.
#: The committed trajectory is >= 10x on the reference box; 2x leaves room
#: for slow shared runners while still catching order-of-magnitude
#: regressions (an event-loop regression costs factors, not percents).
THROUGHPUT_FLOOR_X = 2.0

#: Streaming mode must hold peak RSS far below full mode at scale; the
#: committed 1M numbers are ~70 MiB vs ~730 MiB.
STREAMING_RSS_CEILING_FRACTION = 0.75

#: Requests of the pinned trace the paged fold gate replays, and the exact
#: number of step events folding posts for them on the pinned pool with
#: paged KV (the per-step loop posts 134,899 — 67.4 per request).
PAGED_FOLD_REQUESTS = 2_000
PAGED_FOLD_EVENTS_CEILING = 10_605

#: The exact number of step-ledger tallies (``InstanceStats.add`` calls)
#: the same paged replay makes: one per price window of a fold, one per
#: unfolded step (the per-step loop makes 134,894 — one per step).
PAGED_FOLD_TALLIES_CEILING = 14_699

#: The disaggregated fold gate's pool and multi-turn trace, and the exact
#: number of events (step completions plus handoffs) folding posts for
#: them (the per-step loop posts 56,730 — 56.7 per request).
DISAGG_FOLD_CONFIG = dict(cluster="2x2n:prefill,6x2n:decode",
                          max_batch_size=8, policy="fifo", kv_mode="paged",
                          kv_prefix_sharing=True, router="disaggregated")
DISAGG_FOLD_REQUESTS = 1_000
DISAGG_FOLD_EVENTS_CEILING = 7_637

#: Sweep-scaling requirement from the perf trajectory: at 4 workers the
#: 8-config sweep must run >= 3x faster than serial.  Only asserted when
#: the box has >= 4 CPUs (and the full ladder is enabled).
SWEEP_SPEEDUP_FLOOR_AT_4 = 3.0

_CHILD = r"""
import json, resource, sys, time
from repro.workloads.traces import synthetic_azure_trace, RequestTrace
from repro.serving.engine import TokenServingEngine

n, mode = int(sys.argv[1]), sys.argv[2]
multistep = sys.argv[3] == "1" if len(sys.argv) > 3 else True
trace = synthetic_azure_trace(n, seed=0, mean_rate_per_s=8.0,
                              diurnal_amplitude=0.3)
kwargs = {}
if mode == "streaming":
    # lazy consumption: the timed region includes trace generation, which
    # is the honest protocol for a mode whose point is never materializing
    kwargs = dict(metrics_mode="streaming", slo=(2.0, 0.05))
else:
    trace = RequestTrace(requests=list(trace))
engine = TokenServingEngine(cluster="8x2n", max_batch_size=8, policy="fifo",
                            multistep=multistep, **kwargs)
t0 = time.perf_counter()
metrics, records = engine.run(trace)
wall = time.perf_counter() - t0
print(json.dumps({
    "num_requests": n,
    "metrics_mode": mode,
    "wall_s": wall,
    "requests_per_s": n / wall,
    "makespan_s": metrics.makespan_s,
    "generated_tokens": metrics.generated_tokens,
    "mean_queueing_delay_s": metrics.mean_queueing_delay_s,
    "p99_ttft_s": metrics.ttft_percentile_s(0.99),
    "num_records": len(records),
    "peak_rss_mib":
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def _load_doc() -> dict:
    """Read the committed benchmark document (source of the seed floors)."""
    assert os.path.exists(BENCH_JSON), (
        f"{BENCH_JSON} is missing; the committed copy carries the seed "
        f"reference floors — restore it or re-measure with --refresh-seed")
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def _load_report() -> dict:
    """The measurement report so far: this run's earlier sections on top
    of the committed document (so every section survives a partial run)."""
    if not os.path.exists(BENCH_OUT):
        return _load_doc()
    with open(BENCH_OUT) as handle:
        return json.load(handle)


def _write_doc(doc: dict, path: str = BENCH_OUT) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _measure(num_requests: int, mode: str, multistep: bool = True) -> dict:
    """Run one replay in a fresh subprocess and parse its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(num_requests), mode,
         "1" if multistep else "0"],
        capture_output=True, text=True, env=env, cwd=_ROOT, check=False)
    assert proc.returncode == 0, (
        f"replay subprocess failed (n={num_requests}, mode={mode}):\n"
        f"{proc.stderr}")
    return json.loads(proc.stdout)


def _refresh_seed_floor(scale: str) -> dict:
    """Re-measure the reference floor for ``scale`` on this box using the
    engine's compatibility path (``multistep=False``) and rewrite the
    committed ``seed`` section; returns the new floor.  The historical
    seed engine is gone; the per-step compatibility loop is its closest
    living stand-in and produces the same (conservative) order of
    magnitude."""
    report = _measure(int(scale), "full", multistep=False)
    floor = {
        "requests_per_s": round(report["requests_per_s"], 2),
        "wall_s": round(report["wall_s"], 3),
        "peak_rss_mib": round(report["peak_rss_mib"], 2),
        "makespan_s": report["makespan_s"],
    }
    committed = _load_doc()
    committed.setdefault("seed", {})[scale] = floor
    _write_doc(committed, BENCH_JSON)
    return floor


def _merge_results(seed: dict, scale: str, results: dict) -> dict:
    """Fold one scale's measurements into the report, preserving every
    other section (committed 1M numbers survive a run that only
    re-measures 100k; the ``sweep`` and ``pricing_cache`` sections
    survive a replay-only run)."""
    doc = _load_report()
    doc["config"] = BENCH_CONFIG
    doc.setdefault("seed", {})[scale] = seed
    doc.setdefault("optimized", {})[scale] = results
    doc.setdefault("speedup_x", {})[scale] = {
        mode: round(report["requests_per_s"] / seed["requests_per_s"], 2)
        for mode, report in results.items()}
    _write_doc(doc)
    return doc


def _check_scale(scale: str, refresh_seed: bool) -> dict:
    seed = (_refresh_seed_floor(scale) if refresh_seed
            else _load_doc()["seed"][scale])
    n = int(scale)
    results = {mode: _measure(n, mode) for mode in ("full", "streaming")}
    doc = _merge_results(seed, scale, results)

    # the optimized engine must simulate the same system, bit for bit:
    # any speed is worthless if the simulated clock drifts
    assert results["full"]["makespan_s"] == seed["makespan_s"]
    assert results["streaming"]["makespan_s"] == seed["makespan_s"]
    # streaming mode keeps no records and bounds memory
    assert results["streaming"]["num_records"] == 0
    assert results["full"]["num_records"] == n
    assert (results["streaming"]["peak_rss_mib"]
            < STREAMING_RSS_CEILING_FRACTION
            * results["full"]["peak_rss_mib"])
    # the CI throughput floor (see module docstring for the slack rationale)
    floor = THROUGHPUT_FLOOR_X * seed["requests_per_s"]
    for mode in ("full", "streaming"):
        assert results[mode]["requests_per_s"] >= floor, (
            f"{scale}-request {mode} replay ran at "
            f"{results[mode]['requests_per_s']:.0f} req/s, below the "
            f"regression floor of {floor:.0f} req/s "
            f"({THROUGHPUT_FLOOR_X}x the seed engine)")
    return doc


def test_replay_100k_floor_and_fidelity(refresh_seed):
    """100k-request replay: throughput floor, exact makespan, bounded RSS."""
    _check_scale("100000", refresh_seed)


@pytest.mark.skipif(os.environ.get("RUN_PERF_1M") != "1",
                    reason="1M-request replay takes ~a minute per mode; "
                           "set RUN_PERF_1M=1 to run it")
def test_replay_1m_floor_and_fidelity(refresh_seed):
    """1M-request replay (opt-in): the headline perf-trajectory numbers."""
    doc = _check_scale("1000000", refresh_seed)
    # the committed trajectory claim: >= 10x the seed rate at 1M on the
    # reference box (informational here; the CI gate is the 2x floor above)
    print("1M speedups:", doc["speedup_x"]["1000000"])


# ---------------------------------------------------------------------------
# parallel sweep scaling


def _sweep_spec(num_requests: int) -> dict:
    """The pinned 8-config sweep: 4 routers x 2 cluster shapes over the
    same Azure-style trace the replay benchmark pins."""
    return {
        "trace": {"name": "azure", "num_requests": num_requests, "seed": 0,
                  "mean_rate_per_s": 8.0, "diurnal_amplitude": 0.3},
        "base": {"policy": "fifo", "max_batch_size": 8,
                 "metrics_mode": "streaming"},
        "grid": {
            "router": ["round_robin", "least_loaded", "kv_aware",
                       "prefix_aware"],
            "instances": ["8x2n", "2x4n,4x2n"],
        },
    }


def test_sweep_scaling():
    """Fan the pinned 8-config sweep over a process pool.

    Always: every parallel worker count reproduces the serial summaries
    byte for byte, and no config fails.  Under ``RUN_PERF_SWEEP=1`` (CI
    perf-smoke, or a local box with real cores): the full 1/2/4/8-worker
    ladder at 100k requests, with the >= 3x-at-4-workers floor asserted
    when the box has >= 4 CPUs.  Results land in the JSON's ``sweep``
    section: configs/hour and scaling efficiency per worker count.
    """
    from repro.serving.sweep import expand_sweep, run_jobs

    full_ladder = os.environ.get("RUN_PERF_SWEEP") == "1"
    num_requests = 100_000 if full_ladder else 8_000
    worker_counts = [1, 2, 4, 8] if full_ladder else [1, 2]
    cpus = os.cpu_count() or 1

    jobs = expand_sweep(_sweep_spec(num_requests))
    assert len(jobs) == 8

    serial = run_jobs(jobs, workers=1)
    serial.raise_failures()
    serial_keys = [r.summary_key() for r in serial.results]
    serial_wall = serial.wall_s

    section = {
        "cpus": cpus,
        "num_configs": len(jobs),
        "num_requests": num_requests,
        "trace": BENCH_CONFIG["trace"],
        "serial_wall_s": round(serial_wall, 3),
        "workers": {},
    }
    for workers in worker_counts[1:]:
        outcome = run_jobs(jobs, workers=workers)
        outcome.raise_failures()
        # the whole point: the pool is an execution detail, not a model
        assert [r.summary_key() for r in outcome.results] == serial_keys, (
            f"{workers}-worker sweep diverged from the serial run")
        speedup = serial_wall / outcome.wall_s
        section["workers"][str(workers)] = {
            "wall_s": round(outcome.wall_s, 3),
            "speedup_x": round(speedup, 2),
            "efficiency": round(speedup / workers, 3),
            "configs_per_hour": round(len(jobs) / outcome.wall_s * 3600.0, 1),
        }
    section["workers"]["1"] = {
        "wall_s": round(serial_wall, 3),
        "speedup_x": 1.0,
        "efficiency": 1.0,
        "configs_per_hour": round(len(jobs) / serial_wall * 3600.0, 1),
    }

    doc = _load_report()
    doc["sweep"] = section
    _write_doc(doc)

    if full_ladder and cpus >= 4:
        speedup4 = section["workers"]["4"]["speedup_x"]
        assert speedup4 >= SWEEP_SPEEDUP_FLOOR_AT_4, (
            f"8-config sweep at 4 workers ran only {speedup4:.2f}x faster "
            f"than serial on a {cpus}-CPU box (floor: "
            f"{SWEEP_SPEEDUP_FLOOR_AT_4}x)")


# ---------------------------------------------------------------------------
# paged fast-forward folding


def _count_pushes(monkeypatch):
    """Patch the engine's event queue to count pushed events; returns the
    one-element counter list."""
    from repro.serving import engine as engine_module

    pushed = [0]
    real_queue = engine_module.BucketedEventQueue

    class CountingQueue(real_queue):
        def push(self, event):
            pushed[0] += 1
            super().push(event)

        def push_many(self, batch):
            pushed[0] += len(batch)
            super().push_many(batch)

    monkeypatch.setattr(engine_module, "BucketedEventQueue", CountingQueue)
    return pushed


def test_paged_fold_event_ceiling(monkeypatch):
    """Events per request on a small paged replay stay at the folded count.

    The count is deterministic, so the ceiling is exact: any change that
    makes a paged pool post more events (folding disabled by an
    eligibility change, a growth cap that stops every fold early) fails
    here rather than as a vague throughput drop.
    """
    from repro.serving import engine as engine_module
    from repro.workloads.traces import RequestTrace, synthetic_azure_trace

    pushed = _count_pushes(monkeypatch)
    trace = RequestTrace(requests=list(synthetic_azure_trace(
        PAGED_FOLD_REQUESTS, seed=0, mean_rate_per_s=8.0,
        diurnal_amplitude=0.3)))
    engine = engine_module.TokenServingEngine(
        cluster=BENCH_CONFIG["cluster"],
        max_batch_size=BENCH_CONFIG["max_batch_size"],
        policy=BENCH_CONFIG["policy"], kv_mode="paged")
    metrics, _ = engine.run(trace)
    assert metrics.num_requests == PAGED_FOLD_REQUESTS
    assert pushed[0] <= PAGED_FOLD_EVENTS_CEILING, (
        f"{pushed[0]} events for {PAGED_FOLD_REQUESTS} paged requests "
        f"({pushed[0] / PAGED_FOLD_REQUESTS:.2f}/request); folding posts "
        f"at most {PAGED_FOLD_EVENTS_CEILING}")


def test_paged_fold_ledger_ceiling(monkeypatch):
    """Step-ledger tallies on the paged fold gate's replay stay at the
    folded count.  A fold tallies each price window once, so a change that
    falls back to per-step statistics work inside folds (one tally per
    folded step) fails here, deterministically, without any wall-clock
    timing."""
    from repro.serving import engine as engine_module
    from repro.serving.instance import InstanceStats
    from repro.workloads.traces import RequestTrace, synthetic_azure_trace

    tallies = [0]
    real_add = InstanceStats.add

    def counting_add(self, *args):
        tallies[0] += 1
        real_add(self, *args)

    monkeypatch.setattr(InstanceStats, "add", counting_add)
    trace = RequestTrace(requests=list(synthetic_azure_trace(
        PAGED_FOLD_REQUESTS, seed=0, mean_rate_per_s=8.0,
        diurnal_amplitude=0.3)))
    engine = engine_module.TokenServingEngine(
        cluster=BENCH_CONFIG["cluster"],
        max_batch_size=BENCH_CONFIG["max_batch_size"],
        policy=BENCH_CONFIG["policy"], kv_mode="paged")
    metrics, _ = engine.run(trace)
    assert metrics.num_requests == PAGED_FOLD_REQUESTS
    assert tallies[0] <= PAGED_FOLD_TALLIES_CEILING, (
        f"{tallies[0]} ledger tallies for {PAGED_FOLD_REQUESTS} paged "
        f"requests; folding tallies at most {PAGED_FOLD_TALLIES_CEILING}")


def test_disagg_fold_event_ceiling(monkeypatch):
    """Events per request on a small disaggregated replay stay at the
    folded count: prefill and decode instances fold under the role-aware
    horizon, so the count is deterministic and the ceiling exact."""
    from repro.serving import engine as engine_module
    from repro.workloads.traces import multi_turn_trace

    pushed = _count_pushes(monkeypatch)
    trace = multi_turn_trace(DISAGG_FOLD_REQUESTS, seed=0,
                             session_rate_per_s=0.5)
    engine = engine_module.TokenServingEngine(**DISAGG_FOLD_CONFIG)
    metrics, _ = engine.run(trace)
    assert metrics.num_requests == DISAGG_FOLD_REQUESTS
    assert pushed[0] <= DISAGG_FOLD_EVENTS_CEILING, (
        f"{pushed[0]} events for {DISAGG_FOLD_REQUESTS} disaggregated "
        f"requests ({pushed[0] / DISAGG_FOLD_REQUESTS:.2f}/request); "
        f"folding posts at most {DISAGG_FOLD_EVENTS_CEILING}")


# ---------------------------------------------------------------------------
# persistent pricing cache


def test_pricing_cache_warm_vs_cold(tmp_path):
    """A warm on-disk pricing cache must beat a cold run, bit-identically.

    ``context_bucket=1`` disables context bucketing so the memo tables
    carry their full weight (tens of thousands of distinct pricing
    evaluations) — the regime the persistent cache exists for.
    """
    from repro.serving.engine import TokenServingEngine
    from repro.workloads.traces import RequestTrace, synthetic_azure_trace

    trace = RequestTrace(requests=list(synthetic_azure_trace(
        8000, seed=0, mean_rate_per_s=8.0, diurnal_amplitude=0.3)))
    cache_dir = tmp_path / "pricing"

    def run() -> tuple:
        engine = TokenServingEngine(cluster="4x2n", max_batch_size=8,
                                    policy="fifo", context_bucket=1,
                                    pricing_cache=cache_dir)
        t0 = time.perf_counter()
        metrics, _ = engine.run(trace)
        wall = time.perf_counter() - t0
        return wall, metrics.makespan_s, dict(engine.pricing_cache_stats)

    cold_wall, cold_makespan, cold_stats = run()
    assert cold_stats["loaded"] == 0 and cold_stats["saved"] >= 1
    # best-of-2 on the warm side to damp scheduler noise; both runs must
    # come entirely from the cache (nothing new to save)
    warm_walls = []
    for _ in range(2):
        warm_wall, warm_makespan, warm_stats = run()
        warm_walls.append(warm_wall)
        assert warm_makespan == cold_makespan
        assert warm_stats["loaded"] > 0 and warm_stats["saved"] == 0
    warm_wall = min(warm_walls)

    assert warm_wall < cold_wall, (
        f"warm pricing cache ({warm_wall:.3f}s) was not faster than the "
        f"cold run ({cold_wall:.3f}s)")

    doc = _load_report()
    doc["pricing_cache"] = {
        "num_requests": len(trace.requests),
        "context_bucket": 1,
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "speedup_x": round(cold_wall / warm_wall, 2),
        "entries_loaded": warm_stats["loaded"],
    }
    _write_doc(doc)
