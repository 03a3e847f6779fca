"""Tests for the utilization analysis, the serving simulator and the CLI."""

import pytest

from repro.analysis.utilization import (
    architecture_comparison,
    attention_gantt,
    linear_layer_gantt,
    looplynx_active_area_fraction,
    looplynx_kernel_busy_fractions,
    render_gantt,
    spatial_active_area_fraction,
    temporal_active_area_fraction,
)
from repro.cli import build_parser, main
from repro.serving.metrics import ServingMetrics, percentile
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import synthetic_trace


class TestUtilizationAnalysis:
    def test_kernel_busy_fractions_sum_below_one(self):
        fractions = looplynx_kernel_busy_fractions(num_nodes=2)
        assert set(fractions) == {"fused_mp", "fused_mha", "fused_ln_res"}
        assert all(0.0 <= value <= 1.0 for value in fractions.values())
        assert sum(fractions.values()) <= 1.0
        assert fractions["fused_mp"] > fractions["fused_mha"] > fractions["fused_ln_res"]

    def test_hybrid_has_highest_active_area_share(self):
        """The paper's Fig. 3 argument: the hybrid design keeps a larger share
        of its instantiated compute area busy during decode than either the
        temporal overlay or the spatial design."""
        hybrid = looplynx_active_area_fraction(num_nodes=2)
        temporal = temporal_active_area_fraction()
        spatial = spatial_active_area_fraction()
        assert hybrid > temporal
        assert hybrid > spatial

    def test_architecture_comparison_rows(self):
        rows = architecture_comparison()
        assert len(rows) == 3
        names = [row.name for row in rows]
        assert any("Temporal" in name for name in names)
        assert any("Spatial" in name for name in names)
        assert any("LoopLynx" in name for name in names)
        looplynx = next(row for row in rows if "LoopLynx" in row.name)
        assert looplynx.token_latency_ms == min(row.token_latency_ms for row in rows)
        as_dict = looplynx.as_dict()
        assert "Active compute-area share (%)" in as_dict

    def test_gantt_rows_and_rendering(self):
        rows = linear_layer_gantt()
        units = {row[0] for row in rows}
        assert units == {"dma", "mpu", "quant", "router"}
        text = render_gantt(rows, width=40)
        assert "dma" in text and "#" in text
        assert render_gantt([]) == "(no activity)"

    def test_attention_gantt_modes(self):
        pipelined = attention_gantt(headwise_pipelining=True)
        serialized = attention_gantt(headwise_pipelining=False)
        assert {row[0] for row in pipelined} == {"score_mac", "softmax", "mix_mac"}
        assert {row[0] for row in serialized} == {"score_mac", "softmax", "mix_mac"}
        span = max(stop for _, _, stop in serialized)
        assert span > max(stop for _, _, stop in pipelined)


class TestServingMetrics:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.9) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_metrics_derivations(self):
        metrics = ServingMetrics(
            num_requests=2, num_instances=1, num_nodes_per_instance=2,
            makespan_s=10.0, generated_tokens=200,
            queueing_delays_s=[0.0, 1.0],
            end_to_end_latencies_s=[4.0, 6.0],
            service_times_s=[4.0, 5.0],
        )
        assert metrics.throughput_tokens_per_second == pytest.approx(20.0)
        assert metrics.requests_per_second == pytest.approx(0.2)
        assert metrics.mean_queueing_delay_s == pytest.approx(0.5)
        assert metrics.instance_utilization == pytest.approx(0.9)
        assert metrics.latency_percentile_s(0.5) == pytest.approx(5.0)
        assert metrics.energy_joules() > 0
        assert metrics.tokens_per_joule() > 0
        summary = metrics.summary()
        assert summary["p99_latency_s"] >= summary["p50_latency_s"]


class TestServingSimulator:
    def test_serves_every_request_once(self):
        trace = synthetic_trace(12, seed=4, mean_prefill=32, mean_decode=64)
        simulator = ServingSimulator(num_instances=2, num_nodes_per_instance=2)
        metrics, completed = simulator.run(trace)
        assert metrics.num_requests == 12
        assert len(completed) == 12
        assert {record.request_id for record in completed} == {r.request_id for r in trace}
        assert metrics.generated_tokens == trace.total_decode_tokens

    def test_requests_never_start_before_arrival(self):
        trace = synthetic_trace(10, seed=5, mean_decode=64)
        _, completed = ServingSimulator(num_instances=1).run(trace)
        assert all(record.start_s >= record.arrival_s for record in completed)
        assert all(record.finish_s > record.start_s for record in completed)

    def test_instance_never_overlaps_requests(self):
        trace = synthetic_trace(15, seed=6, mean_decode=64)
        _, completed = ServingSimulator(num_instances=2).run(trace)
        by_instance = {}
        for record in completed:
            by_instance.setdefault(record.instance_id, []).append(record)
        for records in by_instance.values():
            records.sort(key=lambda r: r.start_s)
            for earlier, later in zip(records, records[1:]):
                assert later.start_s >= earlier.finish_s - 1e-9

    def test_more_instances_reduce_queueing(self):
        trace = synthetic_trace(20, seed=7, mean_decode=128, arrival_rate_per_s=2.0)
        single, _ = ServingSimulator(num_instances=1).run(trace)
        quad, _ = ServingSimulator(num_instances=4).run(trace)
        assert quad.mean_queueing_delay_s <= single.mean_queueing_delay_s
        assert quad.latency_percentile_s(0.95) <= single.latency_percentile_s(0.95)

    def test_faster_instances_increase_capacity(self):
        two = ServingSimulator(num_instances=1, num_nodes_per_instance=2)
        four = ServingSimulator(num_instances=1, num_nodes_per_instance=4)
        assert (four.capacity_requests_per_second(64, 256)
                > two.capacity_requests_per_second(64, 256))

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingSimulator(num_instances=0)
        simulator = ServingSimulator(num_instances=1)
        from repro.workloads.traces import RequestTrace
        with pytest.raises(ValueError):
            simulator.run(RequestTrace())


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out

    def test_latency_command(self, capsys):
        assert main(["latency", "--nodes", "2", "--context", "256"]) == 0
        out = capsys.readouterr().out
        assert "Token latency" in out and "Breakdown" in out

    def test_scenario_command(self, capsys):
        assert main(["scenario", "--nodes", "4", "--prefill", "32", "--decode", "64"]) == 0
        out = capsys.readouterr().out
        assert "Speed-up vs A100" in out

    def test_scaling_and_utilization_commands(self, capsys):
        assert main(["scaling", "--max-nodes", "4"]) == 0
        assert main(["utilization"]) == 0
        out = capsys.readouterr().out
        assert "4-node" in out
        assert "LoopLynx hybrid" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Nvidia A100" in out

    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_serve_command_reports_ttft_tpot(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "16",
                     "--policy", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "p99_ttft_s" in out
        assert "p50_tpot_s" in out
        assert "SLO goodput" in out

    def test_serve_command_compare_mode(self, capsys):
        assert main(["serve", "--trace", "steady", "--requests", "10",
                     "--compare", "policy"]) == 0
        out = capsys.readouterr().out
        assert "fifo-exclusive" in out
        assert "sjf" in out
        assert "P99 TTFT" in out

    def test_serve_command_multitenant_breakdown(self, capsys):
        assert main(["serve", "--trace", "multitenant", "--requests", "12",
                     "--policy", "priority", "--max-batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-tenant breakdown" in out
        assert "interactive" in out

    def test_serve_command_clean_errors(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert "num_requests" in capsys.readouterr().err
        assert main(["serve", "--kv-budget-mib", "1", "--requests", "4"]) == 2
        assert "KV budget" in capsys.readouterr().err

    def test_serve_command_kv_budget(self, capsys):
        assert main(["serve", "--trace", "steady", "--requests", "8",
                     "--policy", "fifo", "--kv-budget-mib", "64"]) == 0
        out = capsys.readouterr().out
        assert "mean_queue_delay_s" in out

    def test_serve_command_mixed_prefill(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "10",
                     "--prefill-mode", "mixed",
                     "--mixed-step-token-budget", "128"]) == 0
        out = capsys.readouterr().out
        assert "prefill mixed" in out
        assert "prefill_tokens" in out
        assert "decode_time_share" in out

    def test_serve_command_compare_prefill(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "10",
                     "--compare", "prefill"]) == 0
        out = capsys.readouterr().out
        assert "exclusive vs mixed prefill" in out
        assert "P95 TTFT" in out

    def test_serve_command_compare_prefill_rejects_exclusive_policy(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "6",
                     "--policy", "fifo-exclusive", "--compare", "prefill"]) == 2
        assert "token-level policy" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--compare", "kv"], "needs a KV budget"),
        (["--compare", "kv", "--kv-budget-mib", "1"], "needs 307 cached tokens"),
        (["--compare", "disaggregation", "--instances", "2x1n,1x2n"],
         "no prefill/decode roles"),
    ], ids=["kv-without-budget", "kv-budget-too-small",
            "disaggregation-without-roles"])
    def test_serve_command_compare_errors_exit_2(self, flags, message,
                                                 capsys):
        """A comparison that cannot run, or whose config fails validation,
        exits 2 with a one-line ``serve:`` message, not a traceback."""
        assert main(["serve", "--trace", "steady", "--requests", "8"]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ")
        assert message in err
        assert "Traceback" not in err

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["latency", "--nodes", "4"])
        assert args.nodes == 4
        args = parser.parse_args(["serve", "--policy", "sjf",
                                  "--kv-budget-mib", "256"])
        assert args.policy == "sjf" and args.kv_budget_mib == 256

    def test_export_command(self, capsys, tmp_path):
        assert main(["export", "table1", "table3",
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table3" in out
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table3.json").exists()
