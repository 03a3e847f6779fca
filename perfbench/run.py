"""Regime benchmark for the serving simulator.

Runs one workload (or ``all``) through ``TokenServingEngine.run`` and
prints every end-to-end metric by name and unit (``--trace 0``) or every
per-layer metric (``--trace 1``), then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage, from the repository root::

    python3 perfbench/run.py --workload azure_fast --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The run is a closed loop with one client: for ``--seconds`` (and at least
``MIN_REPEATS`` times) a fresh worker process sets the workload up and
runs it once, so every run starts with cold pricing memo tables and empty
KV pools.  Host metrics are medians over those runs; modeled metrics are
deterministic per seed and must agree bit for bit across them.  With
``--trace 1`` one more worker runs with every layer's entry points wrapped
(see ``tracer.py``) and reports per-layer counts and times, plus
``trace_overhead``, its wall time over the untraced median, minus 1.
Outside the timed runs a check worker compares a trace prefix against the
reference engine.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Spelled out rather than imported from workloads.py, which imports the
#: simulator: argument parsing and the missing-sources check must work
#: without it.
WORKLOAD_NAMES = ("azure_fast", "paged_azure", "kv_pressure", "disagg_prefix")

#: Timed runs per invocation, whatever ``--seconds`` says: the host
#: metrics and ``setup_s`` are medians over at least this many.
MIN_REPEATS = 3
#: Wall-clock budget of one workload's measurement; no new worker starts
#: past it.
BUDGET_S = 165.0


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spawn(workload: str, seed: int, mode: str, requests: int,
          timeout: float) -> Tuple[Optional[Dict[str, Any]], float, str]:
    """Run one worker to completion; returns (its JSON result or None,
    the clock reading just before it started, its error text)."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if requests:
        cmd += ["--requests", str(requests)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, start, f"{mode} worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, start, (f"{mode} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1]), start, ""
    except json.JSONDecodeError:
        return None, start, f"{mode} worker printed no result: {lines[-1]}"


def bench(workload: str, seed: int, seconds: float, trace: bool,
          requests: int, spec: Dict[str, Any], deadline: float
          ) -> Dict[str, Any]:
    """Measure one workload; returns the result object (plus a
    ``report`` list of human-readable lines).  ``requests`` overrides the
    workload's request count (0 keeps it; the self-test runs a few
    hundred, and work properties are checked only at the full size)."""
    problems: List[str] = []
    runs: List[Dict[str, Any]] = []
    setups: List[float] = []
    began = time.perf_counter()
    per_run = 0.0
    while (len(runs) < MIN_REPEATS
           or time.perf_counter() - began + per_run <= seconds):
        remaining = deadline - time.perf_counter()
        if remaining <= per_run:
            problems.append(f"time budget exhausted after {len(runs)} runs")
            break
        result, start, error = spawn(workload, seed, "run", requests,
                                     remaining)
        if result is None:
            problems.append(error)
            break
        per_run = time.perf_counter() - start
        runs.append(result)
        setups.append(result["ready"] - start)

    check, _, error = spawn(workload, seed, "check", 0,
                            deadline - time.perf_counter())
    if check is None:
        problems.append(error)
    else:
        problems += [f"reference check: {p}" for p in check["problems"]]

    traced = None
    if trace and runs:
        traced, _, error = spawn(workload, seed, "traced", requests,
                                 deadline - time.perf_counter())
        if traced is None:
            problems.append(error)

    measured = runs + ([traced] if traced is not None else [])
    attempted = sum(r["requests"] for r in measured)
    for r in measured:
        problems += r["problems"]
    digests = {r["digest"] for r in measured}
    if len(digests) > 1:
        problems.append(f"determinism: {len(digests)} different sim "
                        "digests across runs of one seed")
    if problems:
        # any failed check fails every request the invocation attempted
        attempted = max(attempted, 1)
        return {"correct": False, "attempted": attempted,
                "failed": attempted, "metrics": {}, "problems": problems,
                "report": []}

    walls = [r["wall_s"] for r in runs]
    values: Dict[str, float] = {}
    if trace:
        values.update(traced["layers"])
        values.update(traced["sim"])
        values["trace_overhead"] = (traced["wall_s"]
                                    / statistics.median(walls) - 1.0)
        wanted = spec["per_layer"]
    else:
        values["sim_requests_per_s"] = statistics.median(
            r["requests"] / r["wall_s"] for r in runs)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = statistics.median(r["rss_mib"]
                                                   for r in runs)
        values.update(runs[0]["modeled"])
        values["model_latency_err"] = check["model_latency_err"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    report = [f"workload {workload}  seed {seed}  runs {len(runs)}  "
              f"requests attempted {attempted} completed {attempted} "
              f"failed 0  sim_digest {runs[0]['digest'][:16]}"]
    report += [f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}"
               for name, entry in metrics.items()]
    if trace:
        report.append("  spans by self time (span <- parent: count, "
                      "inclusive s, self s):")
        report += [f"    {row['span']} <- {row['parent']}: {row['count']}, "
                   f"{row['inclusive_s']:.4f}, {row['self_s']:.4f}"
                   for row in traced["spans"]]
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": metrics, "problems": [], "report": report}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regime benchmark for the serving simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="trace seed (default 0; seed 1 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the simulator's sources (src/repro) are not in "
              f"{ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = bench(name, args.seed, seconds, bool(args.trace), 0, spec,
                       time.perf_counter() + BUDGET_S)
        for line in result.pop("report"):
            print(line)
        for problem in result.pop("problems"):
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        results[name] = result
    if args.workload == "all":
        print(json.dumps(results))
        ok = all(r["correct"] for r in results.values())
    else:
        print(json.dumps(results[args.workload]))
        ok = results[args.workload]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
