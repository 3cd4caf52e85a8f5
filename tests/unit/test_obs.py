"""The observability layer: registry semantics, exporters, BENCH artifacts."""

import json

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    bench,
    configure,
    diff_snapshots,
    export,
    get_registry,
    metrics_output,
    set_registry,
)
from repro.obs.registry import NOOP_INSTRUMENT, instrument_key


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_and_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("link.messages", src="B0", dst="B1")
        b = registry.counter("link.messages", dst="B1", src="B0")
        assert a is b  # label order is canonicalized

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("link.messages", src="B0", dst="B1")
        b = registry.counter("link.messages", src="B1", dst="B0")
        a.inc()
        assert b.value == 0

    def test_flat_key_rendering(self):
        assert instrument_key("x", ()) == "x"
        assert instrument_key("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("waste")
        gauge.set(0.5)
        gauge.inc(0.25)
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(0.25)


class TestHistogram:
    def test_bucket_placement_and_stats(self):
        histogram = Histogram("lat", (1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            histogram.observe(value)
        # boundaries are inclusive upper bounds; 100 lands in overflow
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 100.0
        assert histogram.mean == pytest.approx(111.5 / 5)

    def test_snapshot_has_overflow_bucket(self):
        histogram = Histogram("lat", (1.0,))
        histogram.observe(2.0)
        snap = histogram.snapshot_value()
        assert snap["buckets"][-1] == ["+Inf", 1]

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("bad", (5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", ())


class TestTimer:
    def test_context_manager_records(self):
        timer = MetricsRegistry().timer("wall")
        with timer:
            pass
        assert timer.count == 1
        assert timer.total_s >= 0.0

    def test_timeit_returns_result_and_elapsed(self):
        timer = MetricsRegistry().timer("wall")
        result, elapsed = timer.timeit(lambda: 42)
        assert result == 42
        assert elapsed >= 0.0
        assert timer.count == 1

    def test_snapshot_type_is_timer(self):
        timer = MetricsRegistry().timer("wall")
        timer.observe_s(0.001)
        assert timer.snapshot_value()["type"] == "timer"


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NOOP_INSTRUMENT
        assert registry.gauge("y") is NOOP_INSTRUMENT
        assert registry.histogram("z", (1.0,)) is NOOP_INSTRUMENT
        assert registry.timer("t") is NOOP_INSTRUMENT

    def test_disabled_registry_stays_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x").inc(100)
        with registry.timer("t"):
            pass
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_noop_timeit_still_times(self):
        result, elapsed = NOOP_INSTRUMENT.timeit(lambda: "ok")
        assert result == "ok"
        assert elapsed >= 0.0

    def test_enable_is_fetch_time(self):
        registry = MetricsRegistry(enabled=False)
        before = registry.counter("x")
        registry.enable()
        after = registry.counter("x")
        before.inc()  # no-op: fetched while disabled
        after.inc()
        assert registry.value_of("x") == 1


class TestScope:
    def test_prefixes_and_nests(self):
        registry = MetricsRegistry()
        scope = registry.scope("sim").scope("broker")
        scope.counter("arrivals", broker="B0").inc()
        assert registry.value_of("sim.broker.arrivals", broker="B0") == 1


class TestSnapshotAndDiff:
    def test_snapshot_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("sim.events").inc()
        registry.counter("engine.matches").inc()
        assert set(registry.snapshot("sim.")) == {"sim.events"}

    def test_diff_counters_subtract(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc(3)
        before = registry.snapshot()
        counter.inc(7)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta == {"events": {"type": "counter", "value": 7}}

    def test_diff_drops_unchanged_counters(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        snap = registry.snapshot()
        assert diff_snapshots(snap, snap) == {}

    def test_diff_gauges_keep_after_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("waste")
        gauge.set(0.2)
        before = registry.snapshot()
        gauge.set(0.9)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["waste"]["value"] == pytest.approx(0.9)

    def test_diff_histograms_subtract_counts_and_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", (1.0, 10.0))
        histogram.observe(0.5)
        before = registry.snapshot()
        histogram.observe(5.0)
        histogram.observe(5.0)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["lat"]["count"] == 2
        buckets = {str(b): c for b, c in delta["lat"]["buckets"]}
        assert buckets["1.0"] == 0 and buckets["10.0"] == 2

    def test_reset_clears_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0


class TestGlobalRegistry:
    def test_configure_toggles_and_set_registry_swaps(self):
        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            configure(enabled=True)
            assert get_registry().enabled
            get_registry().counter("x").inc()
            configure(enabled=False, reset=True)
            assert not get_registry().enabled
            assert len(get_registry()) == 0
        finally:
            set_registry(previous)

    def test_metrics_output_writes_json_and_restores_state(self, tmp_path):
        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            target = tmp_path / "metrics.json"
            with metrics_output(target) as registry:
                assert registry.enabled
                registry.counter("x").inc(2)
            assert not get_registry().enabled  # restored
            data = json.loads(target.read_text())
            assert data["x"]["value"] == 2
        finally:
            set_registry(previous)

    def test_metrics_output_none_is_passthrough(self, tmp_path):
        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            with metrics_output(None) as registry:
                assert not registry.enabled
        finally:
            set_registry(previous)


class TestExporters:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("sim.events", kind="pub").inc(3)
        registry.gauge("engine.waste").set(0.25)
        histogram = registry.histogram("lat_ms", (1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_json_round_trip(self):
        registry = self.make_registry()
        data = json.loads(export.to_json(registry))
        assert data["sim.events{kind=pub}"] == {"type": "counter", "value": 3}
        assert data["lat_ms"]["count"] == 2

    def test_write_json_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "metrics.json"
        export.write_json(self.make_registry(), target)
        assert json.loads(target.read_text())["engine.waste"]["value"] == 0.25


class TestBenchArtifacts:
    def make_payload(self, **overrides):
        registry = MetricsRegistry()
        registry.counter("engine.matches").inc(7)
        kwargs = dict(
            workload={"subscriptions": 100},
            wall_clock_s=1.5,
            metrics=registry,
        )
        kwargs.update(overrides)
        return bench.bench_payload("unit_test", **kwargs)

    def test_payload_is_schema_versioned_and_valid(self):
        payload = self.make_payload()
        assert payload["schema"] == bench.BENCH_SCHEMA
        assert payload["schema_version"] == bench.BENCH_SCHEMA_VERSION
        bench.validate_bench(payload)  # must not raise
        assert payload["metrics"]["engine.matches"]["value"] == 7

    def test_payload_is_json_serializable(self):
        payload = self.make_payload()
        assert json.loads(json.dumps(payload))["name"] == "unit_test"

    def test_validate_rejects_missing_and_wrong_types(self):
        payload = self.make_payload()
        del payload["machine"]
        payload["wall_clock_s"] = "fast"
        with pytest.raises(ValueError) as error:
            bench.validate_bench(payload)
        message = str(error.value)
        assert "machine" in message and "wall_clock_s" in message

    def test_validate_rejects_wrong_schema(self):
        payload = self.make_payload()
        payload["schema"] = "something/else"
        with pytest.raises(ValueError):
            bench.validate_bench(payload)

    def test_write_and_load_round_trip(self, tmp_path):
        path = bench.write_bench(self.make_payload(), tmp_path)
        assert path.name == "BENCH_unit_test.json"
        loaded = bench.load_bench(path)
        assert loaded["workload"] == {"subscriptions": 100}

    def test_load_bench_dir_skips_invalid(self, tmp_path):
        bench.write_bench(self.make_payload(), tmp_path)
        (tmp_path / "BENCH_broken.json").write_text("{\"schema\": \"nope\"}")
        (tmp_path / "BENCH_garbage.json").write_text("not json")
        payloads = bench.load_bench_dir(tmp_path)
        assert [p["name"] for p in payloads] == ["unit_test"]

    def test_workload_dataclass_is_dictified(self):
        from repro.experiments import Chart3Config

        payload = self.make_payload(workload=Chart3Config(subscription_counts=(10,)))
        assert payload["workload"]["subscription_counts"] == [10]
