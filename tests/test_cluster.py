"""Tests for heterogeneous instance pools and the cluster-routing layer.

The load-bearing guarantee: **homogeneous pools are bit-identical to the
pre-cluster engine under every router**.  The goldens below were recorded
from the PR 3 engine (before the instance/cluster split existed) on seeded
traces with a 4-instance pool; the refactored engine must reproduce every
timestamp exactly, through the ``cluster="4x2n"`` spec and through both
of ``run_policy``'s pool arguments, whatever router is configured.

Heterogeneous behaviour is covered by conservation properties (no request
dropped or duplicated under any router), placement assertions for the
class-affinity and KV-aware routers, per-class metrics, the swap-priority
satellite, and the ``instance_id=None`` handling for requests that never
ran.
"""

import pytest

from repro.analysis.serving import (
    class_breakdown,
    compare,
    instance_breakdown,
    run_policy,
)
from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.cluster import (
    ClassAffinityRouter,
    ClusterSpec,
    InstanceSpec,
    ROUTER_NAMES,
    make_router,
    parse_cluster_spec,
)
from repro.serving.engine import ServedRequest, TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_multi_tenant_trace,
    bursty_trace,
    multi_tenant_trace,
)

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial

# ---------------------------------------------------------------------------
# golden timestamps: (admitted_s, first_token_s, finish_s) per request id,
# recorded from the PR 3 engine (pre-cluster-refactor HEAD) on seeded
# traces over a homogeneous 4-instance, 2-node pool.
# ---------------------------------------------------------------------------
GOLDEN = {
    # bursty_trace(24, seed=11, mean_prefill=48, mean_decode=96,
    #              burst_size=12) through
    # TokenServingEngine(cluster="4x2n", policy="fifo", max_batch_size=4)
    "cluster-bursty-fifo": [
        (0.011479621565872018, 0.31430875630567734, 1.2088578262467544),
        (0.013769473558463488, 0.2874349124192541, 0.9531465132387636),
        (0.01733981657159622, 0.16611055167791317, 1.6635002676515522),
        (0.06547682812654668, 0.638576109487235, 1.1995677043651471),
        (0.14340710294348336, 0.2874349124192541, 0.9820882766193776),
        (0.18205480644566072, 0.4156022718555439, 1.4194841163343657),
        (0.3272628708924977, 0.5447004892241147, 0.8389417502603564),
        (0.35496569364068664, 0.5459574568912674, 0.9951086281304055),
        (0.4007906047197142, 0.638576109487235, 1.146327152147406),
        (0.46866217138666943, 0.5452196033926087, 1.583788472404408),
        (0.4986059614934463, 0.638576109487235, 1.1029145070764852),
        (0.6452309505656779, 0.8705316094769393, 1.583788472404408),
        (5.607734997630449, 6.032789278181607, 6.475696672805199),
        (5.610731854187505, 5.785013396922218, 7.080290109124016),
        (5.667720568892433, 6.064406375482682, 6.507313770106275),
        (5.695218547026674, 6.00396134637651, 7.1366158790294385),
        (5.743750328922568, 6.032789278181607, 6.736172543230737),
        (5.743750328922568, 6.032789278181607, 6.77891922564892),
        (5.775036241602606, 6.064406375482682, 6.695382158191024),
        (5.775036241602606, 6.064406375482682, 6.57484455132771),
        (5.794579949782865, 5.976873970701231, 6.593103758883659),
        (5.85674468594719, 6.00396134637651, 7.126968624569233),
        (6.008784973606613, 6.276872173598145, 7.160096981877914),
        (6.015462988542051, 6.228776708467478, 7.1715224464959375),
    ],
    # multi_tenant_trace(24, seed=11) through
    # TokenServingEngine(cluster="4x2n", policy="priority",
    #                    max_batch_size=2)
    "cluster-multitenant-priority": [
        (0.15306162087829356, 0.4558907556180989, 1.0416361853995675),
        (0.18359298077951314, 0.31641946111808256, 0.5482025482724936),
        (0.23119755428794955, 0.3799682893942665, 0.829567838069974),
        (0.6276732565295188, 0.9111705747754046, 4.321113258931806),
        (0.8730243750206222, 1.2115932394915467, 1.5080285870105608),
        (1.162010166777038, 1.7304885273413804, 3.734495403225542),
        (1.416333851119148, 1.558726884318366, 1.8102392095119393),
        (1.6535196131685228, 1.8629116348543842, 3.6702796840152927),
        (1.9960999595884124, 2.2377116754308064, 2.7791964521289096),
        (2.3976205194414244, 2.6311679848513077, 3.0411762994099862),
        (3.4761273279995324, 3.6440311688271465, 5.2039180930134465),
        (3.588866995189363, 4.205346205409345, 5.313342229549531),
        (4.361422224602291, 4.577258185119459, 4.774858110261628),
        (4.713827995627213, 4.900864942176123, 5.117498617653277),
        (5.3225827049283065, 5.423553794193484, 5.661151569399225),
        (6.0847808786689574, 6.278195527124967, 7.376778037450955),
        (6.202565591461002, 6.275135088303167, 6.5834505983427585),
        (6.53162146854636, 6.667636799838479, 6.876700508772796),
        (8.574821482303651, 8.793879412236473, 9.057309701100083),
        (9.400333191758225, 9.658054754678885, 9.935598304302939),
        (9.499940709077718, 9.683788804673078, 10.031884496820467),
        (9.753401235029267, 9.83543792934577, 10.049786430937766),
        (11.76851614434408, 11.834774176203355, 12.159166414859142),
        (19.057803575009746, 19.412647878869453, 20.596491811579988),
    ],
    # the bursty trace above through the same pool with a 448-token paged
    # block pool per node (block size 16) and swap preemption — exercises
    # swap affinity and the idle-instance wake path
    "cluster-bursty-fifo-paged": [
        (0.011479621565872018, 0.31430875630567734, 1.2088578262467544),
        (0.013769473558463488, 0.2874349124192541, 0.9531465132387636),
        (0.01733981657159622, 0.16611055167791317, 1.6401406026459553),
        (0.06547682812654668, 0.638576109487235, 1.1995677043651471),
        (0.14340710294348336, 0.2874349124192541, 0.9820882766193776),
        (0.18205480644566072, 0.4156022718555439, 1.3596032550885448),
        (0.3272628708924977, 0.5447004892241147, 0.8389417502603564),
        (0.35496569364068664, 0.5459574568912674, 0.9951086281304055),
        (0.4007906047197142, 0.638576109487235, 1.146327152147406),
        (0.46866217138666943, 0.5452196033926087, 1.5243735491234995),
        (0.4986059614934463, 0.638576109487235, 1.1029145070764852),
        (0.6452309505656779, 0.8705316094769393, 1.6467170153256767),
        (5.607734997630449, 6.032789278181607, 6.475696672805199),
        (5.610731854187505, 5.785013396922218, 7.080290109124016),
        (5.667720568892433, 6.064406375482682, 6.507313770106275),
        (5.695218547026674, 6.00396134637651, 7.047590466379711),
        (5.743750328922568, 6.032789278181607, 6.736172543230737),
        (5.743750328922568, 6.032789278181607, 6.77891922564892),
        (5.775036241602606, 6.064406375482682, 6.695382158191024),
        (5.775036241602606, 6.064406375482682, 6.57484455132771),
        (5.794579949782865, 5.976873970701231, 6.593103758883659),
        (5.85674468594719, 6.00396134637651, 7.037215129954594),
        (6.008784973606613, 6.276872173598145, 7.200967539587943),
        (6.015462988542051, 6.228776708467478, 7.1715224464959375),
    ],
}


def _bursty24():
    return bursty_trace(24, seed=11, mean_prefill=48, mean_decode=96,
                        burst_size=12)


def _timestamps(records):
    return [(r.admitted_s, r.first_token_s, r.finish_s) for r in records]


def _paged(tokens=448):
    """Paged KV recipe of a ``tokens``-token block pool per node (block
    size 16) on 2-node instances."""
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
    return dict(kv_mode="paged", kv_block_size=16,
                kv_budget_bytes=tokens * layout.bytes_per_token_per_node())


class TestClusterSpec:
    def test_parse_round_trip(self):
        spec = parse_cluster_spec("2x1n,2x2n,1x4n")
        assert [(s.count, s.num_nodes) for s in spec.specs] == \
            [(2, 1), (2, 2), (1, 4)]
        assert spec.num_instances == 5
        assert spec.total_nodes == 2 + 4 + 4
        assert spec.is_heterogeneous
        assert str(spec) == "2x1n,2x2n,1x4n"
        assert spec.labels == ["1n", "2n", "4n"]

    def test_parse_errors_name_the_entry(self):
        with pytest.raises(ValueError, match="2y3"):
            parse_cluster_spec("2x1n,2y3")
        with pytest.raises(ValueError):
            parse_cluster_spec("")
        with pytest.raises(ValueError):
            parse_cluster_spec("0x2n")
        with pytest.raises(ValueError):
            InstanceSpec(count=1, num_nodes=0)

    def test_homogeneous_helper(self):
        spec = ClusterSpec.homogeneous(4, 2)
        assert not spec.is_heterogeneous
        assert spec.num_instances == 4
        assert str(spec) == "4x2n"
        # same node count but different KV budgets is heterogeneous too
        mixed = ClusterSpec((InstanceSpec(1, 2, kv_budget_bytes=1 << 20),
                             InstanceSpec(1, 2)))
        assert mixed.is_heterogeneous

    def test_instance_ids_in_spec_order(self):
        spec = parse_cluster_spec("2x1n,1x4n")
        assert [(i, s.num_nodes) for i, s in spec.instance_classes()] == \
            [(0, 1), (1, 1), (2, 4)]

    def test_make_router(self):
        for name in ROUTER_NAMES:
            assert make_router(name).name == name
        router = make_router("kv_aware")
        assert make_router(router) is router
        with pytest.raises(ValueError):
            make_router("random")


class TestHomogeneousGoldens:
    """A homogeneous 4x2n cluster reproduces the PR 3 engine's exact
    completion times under every router, built directly from the cluster
    spec or through ``run_policy``."""

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_cluster_spec_matches_golden_under_every_router(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="fifo",
                                    max_batch_size=4, router=router)
        _, records = engine.run(_bursty24())
        assert _timestamps(records) == GOLDEN["cluster-bursty-fifo"]

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_multitenant_priority_matches_golden(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="priority",
                                    max_batch_size=2, router=router)
        _, records = engine.run(multi_tenant_trace(24, seed=11))
        assert _timestamps(records) == GOLDEN["cluster-multitenant-priority"]

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_paged_swap_matches_golden(self, router):
        engine = TokenServingEngine(cluster="4x2n", policy="fifo",
                                    max_batch_size=4, **_paged(),
                                    preemption_mode="swap", router=router)
        metrics, records = engine.run(_bursty24())
        assert _timestamps(records) == GOLDEN["cluster-bursty-fifo-paged"]
        assert metrics.swap_out_count == metrics.swap_in_count == 2

    @pytest.mark.parametrize("kv", ["plain", "paged"])
    @pytest.mark.parametrize("pool", [
        dict(instances="4x2n"),
        dict(num_instances=4, num_nodes_per_instance=2),
    ], ids=["instances", "num_instances"])
    def test_run_policy_spec_surface_matches_golden(self, pool, kv):
        """The CLI's ``--instances 4x2n`` and ``--instances 4 --nodes 2``
        paths are the same engine, plain and with the paged KV recipe."""
        kv_kwargs = {}
        golden = GOLDEN["cluster-bursty-fifo"]
        if kv == "paged":
            kv_kwargs = dict(_paged(), preemption_mode="swap")
            golden = GOLDEN["cluster-bursty-fifo-paged"]
        metrics, records = run_policy(_bursty24(), "fifo", max_batch_size=4,
                                      **pool, **kv_kwargs)
        assert _timestamps(records) == golden
        assert metrics.cluster == "4x2n"


class TestRoutingConservation:
    """Routing reorders who pulls next; it must never drop or duplicate a
    request, on any pool shape, under any router."""

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    @pytest.mark.parametrize("instances", ["2x1n,1x2n", "1x1n,1x2n,1x4n"])
    def test_requests_conserved(self, router, instances):
        trace = bursty_trace(24, seed=3, mean_prefill=48, mean_decode=96,
                             burst_size=8)
        metrics, records = run_policy(trace, "fifo", instances=instances,
                                      router=router)
        assert metrics.num_requests == len(trace)
        assert [r.request_id for r in records] == list(range(len(trace)))
        assert metrics.generated_tokens == trace.total_decode_tokens
        spec = parse_cluster_spec(instances)
        valid_ids = set(range(spec.num_instances))
        assert all(r.instance_id in valid_ids for r in records)
        # per-class request counts add back up to the total
        assert sum(c.requests for c in metrics.per_class) == len(trace)

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_requests_conserved_under_paged_preemption(self, router):
        trace = bursty_trace(24, seed=5, mean_prefill=48, mean_decode=96,
                             burst_size=12)
        metrics, records = run_policy(
            trace, "fifo", instances="2x1n,1x2n", router=router,
            kv_mode="paged", kv_budget_bytes=None, preemption_mode="swap")
        assert metrics.num_requests == len(trace)
        assert [r.request_id for r in records] == list(range(len(trace)))
        assert metrics.swap_in_count == metrics.swap_out_count

    @pytest.mark.parametrize("policy", ["fifo", "sjf", "priority"])
    def test_conservation_across_policies_on_het_pool(self, policy):
        trace = multi_tenant_trace(24, seed=9)
        metrics, records = run_policy(trace, policy, instances="2x1n,1x2n",
                                      router="class_affinity")
        assert metrics.num_requests == len(trace)
        assert sorted(r.request_id for r in records) == list(range(len(trace)))


class _FakeRequest:
    """Minimal stand-in for :class:`Request` in router-prepare tests —
    lets degenerate prompt lengths (zero) be expressed, which
    :class:`~repro.workloads.scenarios.Scenario` validation forbids."""

    def __init__(self, request_id, prefill_len):
        self.request_id = request_id
        self.prefill_len = prefill_len


class TestClassAffinityDegenerateTraces:
    """Satellite bugfix: ``ClassAffinityRouter.prepare`` must survive
    single-request traces, all-equal prompt lengths (no jumps) and
    zero/minimal prompt lengths in the relative-jump computation — with
    the resulting placement pinned."""

    def _prepared(self, requests, instances="2x1n,1x2n"):
        engine = TokenServingEngine(cluster=instances,
                                    router="class_affinity")
        router = engine.router
        router.prepare(engine._build_runtimes(), requests)
        return router

    def test_single_request_trace(self):
        router = self._prepared([_FakeRequest(0, 64)])
        # one request, no jumps: it stays on the small class
        assert router._preferred == {0: 1}

    def test_single_request_trace_end_to_end(self):
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(64, 32))])
        metrics, records = run_policy(trace, "fifo", instances="2x1n,1x2n",
                                      router="class_affinity")
        assert metrics.num_requests == 1
        assert records[0].instance_id in {0, 1}  # a 1n instance

    def test_all_equal_lengths_fall_back_to_node_share_quantile(self):
        """No jumps at all: the cut lands at the small class's node share
        (half the nodes here → half the requests)."""
        router = self._prepared([_FakeRequest(i, 64) for i in range(8)])
        preferred = [router._preferred[i] for i in range(8)]
        assert preferred == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_zero_length_prompts_do_not_divide_by_zero(self):
        """A zero-length prompt below a positive one is an infinite
        relative jump — the cut, not a ZeroDivisionError."""
        requests = [_FakeRequest(0, 0), _FakeRequest(1, 0)] + \
            [_FakeRequest(i, 64) for i in range(2, 8)]
        router = self._prepared(requests)
        assert router._preferred[0] == 1
        assert router._preferred[1] == 1
        assert all(router._preferred[i] == 2 for i in range(2, 8))

    def test_minimal_prompt_lengths(self):
        """All-ones prompts exercise the smallest positive ratio path."""
        router = self._prepared([_FakeRequest(i, 1) for i in range(5)])
        assert set(router._preferred.values()) <= {1, 2}
        # the small class keeps at least its floor share
        small = sum(1 for v in router._preferred.values() if v == 1)
        assert small >= 2


class TestRouterPlacement:
    def test_class_affinity_sends_long_prompts_to_big_instances(self):
        """On a bimodal trace, every bulk-tenant (long-prompt) request runs
        on the big class, and no long prompt ever lands on a small one."""
        trace = bursty_multi_tenant_trace(seed=8)
        metrics, records = run_policy(trace, "fifo", instances="4x1n,2x2n",
                                      router="class_affinity")
        big_ids = {4, 5}  # ids 0-3 are the 1n instances, 4-5 the 2n ones
        batch_records = [r for r in records if r.tenant == "batch"]
        assert batch_records
        assert all(r.instance_id in big_ids for r in batch_records)

    def test_class_affinity_prepare_splits_at_the_mode_gap(self):
        """The prompt-length cut lands between the interactive and bulk
        modes, not inside either."""
        trace = bursty_multi_tenant_trace(seed=8)
        engine = TokenServingEngine(cluster="4x1n,2x2n",
                                    router="class_affinity")
        router = engine.router
        runtimes = engine._build_runtimes()
        router.prepare(runtimes, trace)
        for request in trace:
            preferred = router._preferred[request.request_id]
            if request.tenant == "batch":
                assert preferred == 2
            else:
                assert preferred == 1

    def test_kv_aware_resumes_swapped_requests_on_their_instance(self):
        """A swapped-out request's blocks pin it to one instance; the
        KV-aware router must route it back there (and conservation holds)."""
        trace = bursty_trace(24, seed=5, mean_prefill=48, mean_decode=96,
                             burst_size=12)
        metrics, records = run_policy(
            trace, "fifo", instances="2x2n,1x4n", router="kv_aware",
            kv_mode="paged", preemption_mode="swap")
        assert metrics.num_requests == len(trace)
        # every swap-out was resumed (swap affinity never stranded work)
        assert metrics.swap_in_count == metrics.swap_out_count

    def test_round_robin_spreads_requests(self):
        """Round-robin admission counts stay balanced across a het pool."""
        trace = bursty_trace(30, seed=2, mean_prefill=32, mean_decode=64,
                             burst_size=10)
        metrics, records = run_policy(trace, "fifo", instances="2x1n,2x2n",
                                      router="round_robin", max_batch_size=2)
        per_instance = {}
        for record in records:
            per_instance[record.instance_id] = \
                per_instance.get(record.instance_id, 0) + 1
        assert len(per_instance) == 4  # nobody starved
        assert max(per_instance.values()) <= 3 * min(per_instance.values())


class TestPerClassMetrics:
    def test_single_class_has_one_entry_matching_totals(self):
        trace = bursty_trace(16, seed=1, mean_prefill=32, mean_decode=64)
        metrics, _ = run_policy(trace, "fifo", instances="2x2n")
        assert len(metrics.per_class) == 1
        cls = metrics.per_class[0]
        assert cls.label == "2n"
        assert cls.requests == metrics.num_requests
        assert cls.busy_time_s == pytest.approx(metrics.busy_time_s)
        assert cls.utilization == pytest.approx(metrics.instance_utilization)
        assert cls.mean_running_batch == \
            pytest.approx(metrics.mean_running_batch)

    def test_het_classes_partition_the_work(self):
        trace = bursty_multi_tenant_trace(seed=8)
        metrics, records = run_policy(trace, "fifo", instances="4x1n,2x2n",
                                      router="class_affinity")
        assert [c.label for c in metrics.per_class] == ["1n", "2n"]
        assert sum(c.requests for c in metrics.per_class) == len(trace)
        assert sum(c.generated_tokens for c in metrics.per_class) == \
            metrics.generated_tokens
        assert sum(c.busy_time_s for c in metrics.per_class) == \
            pytest.approx(metrics.busy_time_s)
        for cls in metrics.per_class:
            assert 0.0 < cls.utilization <= 1.0
        assert metrics.num_nodes_per_instance == 0  # mixed node counts
        assert metrics.energy_joules() > 0

    def test_class_breakdown_rows(self):
        trace = bursty_multi_tenant_trace(seed=8)
        metrics, _ = run_policy(trace, "fifo", instances="4x1n,2x2n",
                                router="class_affinity")
        rows = class_breakdown(metrics)
        assert [row["Class"] for row in rows] == ["1n", "2n"]
        assert all("P95 TTFT (s)" in row for row in rows)

    def test_router_comparison_single_class_rows_agree(self):
        trace = bursty_trace(12, seed=4, mean_prefill=32, mean_decode=64)
        rows = compare(trace, "router", instances="2x2n")
        assert [row["Policy"] for row in rows] == list(ROUTER_NAMES)
        # single class: every router's row is identical by construction
        first = {k: v for k, v in rows[0].items() if k != "Policy"}
        for row in rows[1:]:
            assert {k: v for k, v in row.items() if k != "Policy"} == first


class TestInstanceIdNone:
    def test_records_from_engine_always_carry_real_ids(self):
        trace = bursty_trace(8, seed=0, mean_prefill=32, mean_decode=64)
        _, records = run_policy(trace, "fifo", instances="1x1n,1x2n")
        assert all(isinstance(r.instance_id, int) for r in records)

    def test_never_ran_requests_are_excluded_from_aggregation(self):
        """A hand-built record with instance_id=None (a request that was
        rejected or cancelled before ever running) is excluded from
        per-instance rows and surfaced in a visible trailing row instead of
        being attributed to a fake instance."""
        ran = ServedRequest(
            request_id=0, instance_id=1, arrival_s=0.0, admitted_s=0.1,
            first_token_s=0.2, finish_s=1.0, prefill_len=8, decode_len=8)
        never = ServedRequest(
            request_id=1, instance_id=None, arrival_s=0.0, admitted_s=0.0,
            first_token_s=None, finish_s=0.0, prefill_len=8, decode_len=8)
        rows = instance_breakdown([ran, never])
        assert [row["Instance"] for row in rows] == [1, "(never ran)"]
        assert rows[0]["Requests"] == 1
        assert rows[1]["Requests"] == 1
        assert never.ttft_s is None


class TestSwapPriority:
    def test_swap_priority_reduces_swap_ins_on_bursty_trace(self):
        """The ROADMAP follow-on: resuming an instance's own swapped-out
        requests ahead of new admissions (their KV is already paid for)
        strictly reduces total swap traffic on the bursty trace, at no
        throughput cost."""
        trace = bursty_trace(32, seed=7, mean_prefill=48, mean_decode=128,
                             burst_size=16)
        results = {}
        for flag in (False, True):
            engine = TokenServingEngine(
                cluster="1x2n", policy="fifo", max_batch_size=8,
                prefill_mode="mixed", **_paged(tokens=448),
                preemption_mode="swap", swap_priority=flag)
            results[flag], _ = engine.run(trace)
        base, prioritized = results[False], results[True]
        assert prioritized.swap_in_count < base.swap_in_count
        assert prioritized.swap_out_count < base.swap_out_count
        assert prioritized.swap_in_count == prioritized.swap_out_count
        assert (prioritized.throughput_tokens_per_second
                >= base.throughput_tokens_per_second * 0.99)

    def test_swap_priority_off_is_bit_identical(self):
        """The flag defaults off, and off means the PR 3 behaviour."""
        trace = _bursty24()
        engine = TokenServingEngine(
            cluster="4x2n", policy="fifo", max_batch_size=4, **_paged(),
            preemption_mode="swap")
        assert engine.swap_priority is False
        _, records = engine.run(trace)
        assert _timestamps(records) == GOLDEN["cluster-bursty-fifo-paged"]

    def test_swap_priority_requires_swap_mode(self):
        with pytest.raises(ValueError):
            TokenServingEngine(preemption_mode="recompute",
                               swap_priority=True)

    def test_swap_priority_requires_paged_kv(self):
        """Without a paged pool nothing is ever swapped out, so the flag
        would be a silent no-op; it is rejected loudly instead."""
        with pytest.raises(ValueError, match="paged"):
            TokenServingEngine(swap_priority=True)
        with pytest.raises(ValueError, match="paged"):
            TokenServingEngine(cluster="2x1n,1x2n", swap_priority=True)


class TestEngineClusterValidation:
    def test_kv_budget_without_mode_is_rejected(self):
        """A budget that would be silently unenforced is an error, not a
        no-op — both via the engine argument and via a spec override."""
        with pytest.raises(ValueError, match="kv_mode"):
            TokenServingEngine(cluster="2x2n", kv_budget_bytes=32 << 20)
        spec = ClusterSpec((InstanceSpec(1, 2, kv_budget_bytes=32 << 20),))
        with pytest.raises(ValueError, match="kv_mode"):
            TokenServingEngine(cluster=spec)

    def test_request_fitting_no_class_is_rejected(self):
        spec = ClusterSpec((InstanceSpec(1, 1, kv_budget_bytes=1 << 18),
                            InstanceSpec(1, 2, kv_budget_bytes=1 << 18)))
        engine = TokenServingEngine(cluster=spec, kv_mode="paged")
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(512, 400))])
        with pytest.raises(ValueError, match="fits no instance class"):
            engine.run(trace)

    def test_affinity_bumps_down_when_only_a_smaller_class_fits(self):
        """A long request preferring the big class whose KV budget cannot
        hold it must fall back to a smaller class that can, instead of
        being vetoed everywhere and stalling the run (the big class may
        carry the smaller budget)."""
        small_layout = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=1).config.model,
            num_nodes=1)
        big_layout = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=2).config.model,
            num_nodes=2)
        spec = ClusterSpec((
            InstanceSpec(1, 1, kv_budget_bytes=(
                768 * small_layout.bytes_per_token_per_node())),
            InstanceSpec(1, 2, kv_budget_bytes=(
                96 * big_layout.bytes_per_token_per_node())),
        ))
        engine = TokenServingEngine(cluster=spec, kv_mode="paged",
                                    router="class_affinity")
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(16, 16)),
            Request(request_id=1, arrival_s=0.01,
                    scenario=Scenario(400, 32)),
        ])
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 2
        assert records[1].instance_id == 0  # the only class that fits it

    def test_same_nodes_different_budgets_are_distinct_classes(self):
        """Two same-node-count classes with different KV budgets must not
        collapse into one per-class metrics row (their pools differ)."""
        layout = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=2).config.model,
            num_nodes=2)
        per_token = layout.bytes_per_token_per_node()
        spec = ClusterSpec((
            InstanceSpec(1, 2, kv_budget_bytes=512 * per_token),
            InstanceSpec(1, 2, kv_budget_bytes=1024 * per_token),
        ))
        assert spec.is_heterogeneous
        labels = [s.label for s in spec.specs]
        assert len(set(labels)) == 2
        engine = TokenServingEngine(cluster=spec, kv_mode="paged")
        trace = bursty_trace(12, seed=1, mean_prefill=32, mean_decode=64)
        metrics, _ = engine.run(trace)
        assert [c.label for c in metrics.per_class] == labels
        blocks = [c.kv_total_blocks for c in metrics.per_class]
        assert blocks[1] == 2 * blocks[0]

    def test_request_fitting_only_the_big_class_runs_there(self):
        """A request too big for the small class's KV budget is served by
        the big class instead of deadlocking the queue."""
        system = LoopLynxSystem.paper_configuration(num_nodes=1)
        layout = KVCacheLayout.for_model(system.config.model, num_nodes=1)
        small_budget = 96 * layout.bytes_per_token_per_node()
        spec = ClusterSpec((InstanceSpec(1, 1, kv_budget_bytes=small_budget),
                            InstanceSpec(1, 2)))
        engine = TokenServingEngine(cluster=spec, kv_mode="paged",
                                    router="least_loaded")
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(16, 16)),
            Request(request_id=1, arrival_s=0.01,
                    scenario=Scenario(128, 128)),
        ])
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 2
        assert records[1].instance_id == 1  # the 2n instance
