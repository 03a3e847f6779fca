"""Persistent pricing cache: bit-exact round-trips, hostile files, and
engine-level warm-start identity.

The cache's one job is to make repeat runs start warm *without ever
changing a simulated timestamp*.  That decomposes into: (a) the on-disk
format round-trips every float exactly; (b) any stale, corrupt, or
foreign file degrades to a cold start instead of being trusted; (c) an
engine run against a warm cache is bit-identical to a cold run and to a
run with no cache at all.
"""

import json
import math

import pytest

from repro.core.config import SystemConfig
from repro.core.pricing_cache import (
    VERSION,
    PricingCacheStore,
    config_fingerprint,
)
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import RequestTrace, bursty_trace

_TABLES = (
    {(128, 1): 0.017262357764241,  (256, 4): 0.0312591203117},
    {(128, 2, 96): 0.04126312, (512, 1, 16): 0.0212},
    {(0, 64): 0.0712371265, (64, 64): 0.0814412},
    {1: 0.000214921049121, 16: 0.0031242},
)


def _fp(seed: str = "") -> str:
    return config_fingerprint(SystemConfig(), None if not seed else 0.25)


class TestRoundTrip:
    def test_floats_round_trip_exactly(self, tmp_path):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        loaded = store.load(fp)
        assert loaded == _TABLES
        # not approximately: the warm run replays these as timestamps
        for got, want in zip(loaded, _TABLES):
            for key, value in want.items():
                assert math.copysign(1.0, got[key]) == 1.0
                assert got[key].hex() == value.hex()

    def test_save_is_deterministic(self, tmp_path):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        first = store.path_for(fp).read_bytes()
        store.save(fp, _TABLES)
        assert store.path_for(fp).read_bytes() == first

    def test_missing_file_is_a_cold_start(self, tmp_path):
        assert PricingCacheStore(tmp_path).load(_fp()) is None


class TestHostileFiles:
    """Every malformed shape degrades to ``None`` (cold start) with a
    warning, never an exception and never a half-trusted table."""

    def _store_with_file(self, tmp_path, mutate):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        path = store.path_for(fp)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        return store, fp

    def test_stale_version_rejected(self, tmp_path):
        store, fp = self._store_with_file(
            tmp_path, lambda doc: doc.update(version=VERSION + 1))
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store, fp = self._store_with_file(
            tmp_path, lambda doc: doc.update(fingerprint="0" * 64))
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_wrong_key_arity_rejected(self, tmp_path):
        store, fp = self._store_with_file(
            tmp_path,
            lambda doc: doc["tables"]["step"].append([1, 2, 3, 0.5]))
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_missing_table_rejected(self, tmp_path):
        store, fp = self._store_with_file(
            tmp_path, lambda doc: doc["tables"].pop("transfer"))
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_non_numeric_value_rejected(self, tmp_path):
        store, fp = self._store_with_file(
            tmp_path,
            lambda doc: doc["tables"]["step"].append([8, 8, "NaN-ish"]))
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_torn_json_rejected(self, tmp_path):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        path = store.path_for(fp)
        path.write_text(path.read_text()[:40])  # simulate a torn write
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None

    def test_rebuild_after_corruption(self, tmp_path):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        store.path_for(fp).write_text("{nope")
        with pytest.warns(RuntimeWarning):
            assert store.load(fp) is None
        store.save(fp, _TABLES)  # the rebuild path: save over the wreck
        assert store.load(fp) == _TABLES


class TestRejectionsAreLoud:
    """A file the store refuses is a cold start, but never a silent one:
    each rejection has a reason, a warning names the file and the reason,
    and the engine counts it.  A missing file stays a quiet cold start."""

    @staticmethod
    def _write(tmp_path, mutate):
        store = PricingCacheStore(tmp_path)
        fp = _fp()
        store.save(fp, _TABLES)
        path = store.path_for(fp)
        path.write_text(mutate(path.read_text()))
        return store, fp, path

    @pytest.mark.parametrize("reason, mutate", [
        ("stale version",
         lambda text: text.replace(f'"version":{VERSION}',
                                   f'"version":{VERSION + 1}')),
        ("foreign fingerprint",
         lambda text: text.replace(_fp(), "0" * 64)),
        ("malformed JSON", lambda text: "{" + text),
        ("torn file", lambda text: text[:40]),
        ("malformed table entries",
         lambda text: text.replace('"transfer":', '"transfers":')),
    ])
    def test_each_reason_warns_with_path_and_reason(self, tmp_path, reason,
                                                    mutate):
        store, fp, path = self._write(tmp_path, mutate)
        with pytest.warns(RuntimeWarning) as caught:
            assert store.load(fp) is None
        assert store.last_rejection.startswith(reason)
        message = str(caught[0].message)
        assert str(path) in message and reason in message

    def test_missing_file_is_quiet(self, tmp_path, recwarn):
        store = PricingCacheStore(tmp_path)
        assert store.load(_fp()) is None
        assert store.last_rejection is None
        assert not recwarn.list

    def test_good_load_clears_the_last_rejection(self, tmp_path):
        store, fp, _ = self._write(tmp_path, lambda text: text[:40])
        with pytest.warns(RuntimeWarning):
            store.load(fp)
        store.save(fp, _TABLES)
        assert store.load(fp) == _TABLES
        assert store.last_rejection is None

    def test_engine_counts_rejections(self, tmp_path):
        trace = RequestTrace(requests=list(bursty_trace(
            40, seed=3, mean_prefill=40, mean_decode=64)))

        def run():
            engine = TokenServingEngine(cluster="2x2n", max_batch_size=4,
                                        pricing_cache=tmp_path)
            engine.run(trace)
            return engine.pricing_cache_stats

        assert run()["rejected"] == 0      # cold: no file yet, no warning
        (path,) = tmp_path.glob("pricing-v*.json")
        path.write_text(path.read_text().replace(
            f'"version":{VERSION}', f'"version":{VERSION - 1}'))
        with pytest.warns(RuntimeWarning, match="stale version"):
            stats = run()
        assert stats["rejected"] == 1 and stats["loaded"] == 0
        # the rejected run rebuilt the file: the next run starts warm
        warm = run()
        assert warm["rejected"] == 0 and warm["loaded"] > 0


class TestFingerprint:
    def test_sensitive_to_config_and_probe(self):
        base = config_fingerprint(SystemConfig(), None)
        assert config_fingerprint(SystemConfig(), None) == base
        assert config_fingerprint(SystemConfig(), 0.25) != base
        assert config_fingerprint(SystemConfig(), 0.125) != \
            config_fingerprint(SystemConfig(), 0.25)

    def test_distinct_files_per_fingerprint(self, tmp_path):
        store = PricingCacheStore(tmp_path)
        a = config_fingerprint(SystemConfig(), None)
        b = config_fingerprint(SystemConfig(), 0.25)
        assert store.path_for(a) != store.path_for(b)


class TestEngineWarmStart:
    TRACE_KW = dict(seed=3, mean_prefill=40, mean_decode=64)

    def _run(self, trace, cache):
        engine = TokenServingEngine(cluster="2x2n", max_batch_size=4,
                                    policy="fifo", pricing_cache=cache)
        metrics, records = engine.run(trace)
        return metrics.makespan_s, records, dict(engine.pricing_cache_stats)

    def test_warm_run_is_bit_identical_and_loads(self, tmp_path):
        trace = RequestTrace(requests=list(bursty_trace(300, **self.TRACE_KW)))
        bare_makespan, bare_records, bare_stats = self._run(trace, None)
        assert bare_stats == {"loaded": 0, "saved": 0, "rejected": 0}

        cold_makespan, cold_records, cold_stats = self._run(trace, tmp_path)
        assert cold_stats["loaded"] == 0 and cold_stats["saved"] >= 1

        warm_makespan, warm_records, warm_stats = self._run(trace, tmp_path)
        assert warm_stats["loaded"] > 0 and warm_stats["saved"] == 0

        # cache on, cache off, cache warm: one simulation, bit for bit
        assert cold_makespan == bare_makespan == warm_makespan
        assert cold_records == bare_records == warm_records

    def test_corrupt_cache_detected_and_rebuilt(self, tmp_path):
        trace = RequestTrace(requests=list(bursty_trace(200, **self.TRACE_KW)))
        bare_makespan, _, _ = self._run(trace, None)
        self._run(trace, tmp_path)  # populate
        files = sorted(tmp_path.glob("pricing-v*.json"))
        assert files
        for path in files:
            path.write_text("{torn")
        with pytest.warns(RuntimeWarning, match="rejected: malformed JSON"):
            makespan, _, stats = self._run(trace, tmp_path)
        assert stats["loaded"] == 0 and stats["saved"] >= 1
        assert stats["rejected"] == len(files)
        assert makespan == bare_makespan
        # the rebuild produced valid files again
        _, _, warm_stats = self._run(trace, tmp_path)
        assert warm_stats["loaded"] > 0 and warm_stats["saved"] == 0

    def test_accepts_store_instance_and_path_string(self, tmp_path):
        trace = RequestTrace(requests=list(bursty_trace(80, **self.TRACE_KW)))
        m1, _, _ = self._run(trace, PricingCacheStore(tmp_path))
        m2, _, s2 = self._run(trace, str(tmp_path))
        assert m1 == m2
        assert s2["loaded"] > 0
