"""Tests for the metrics registry and the standard bus aggregation."""

import json
from dataclasses import fields

import pytest

from repro.obs.events import END, Event, EventBus, INSTANT
from repro.obs.metrics import (
    BusMetrics,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.smt.solver import CheckStats


class TestInstruments:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(0.25)
        assert gauge.snapshot() == 0.25

    def test_histogram_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 5, 9):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == 20
        assert snap["max"] == 9
        # 0→0, 1→1, 2→2, 3→4, 5→8, 9→16
        assert snap["buckets"] == {"0": 1, "1": 1, "2": 1, "4": 1,
                                   "8": 1, "16": 1}

    def test_registry_get_or_create_and_type_check(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.histogram("a.first").observe(3)
        registry.gauge("m.mid").set(1.5)
        snap = registry.snapshot()
        assert list(snap) == ["a.first", "m.mid", "z.last"]
        json.dumps(snap)  # must not raise


def _check_end(**args) -> Event:
    defaults = {"result": "sat", "checks": 1, "conflicts": 0,
                "decisions": 0, "propagations": 0, "learned": 0,
                "encode_hits": 0, "encode_misses": 0, "seconds": 0.001,
                "tripped": 0}
    defaults.update(args)
    return Event("smt.check", "smt", END, 1.0, defaults)


class TestBusMetrics:
    def test_check_aggregation(self):
        metrics = BusMetrics()
        metrics(_check_end(result="sat", conflicts=10,
                           encode_hits=3, encode_misses=1))
        metrics(_check_end(result="unsat", conflicts=2, encode_hits=5))
        snap = metrics.snapshot()
        assert snap["smt.checks"] == 2
        assert snap["smt.result.sat"] == 1
        assert snap["smt.result.unsat"] == 1
        assert snap["smt.conflicts"] == 12
        assert snap["derived.encode_cache_hit_rate"] == 8 / 9
        assert snap["derived.conflicts_per_check"] == 6.0
        assert snap["smt.check_conflicts"]["count"] == 2

    def test_vm_and_sat_events(self):
        metrics = BusMetrics()
        metrics(Event("vm.join", "vm", INSTANT, 1.0, {"cardinality": 2}))
        metrics(Event("vm.union", "vm", INSTANT, 2.0, {"cardinality": 3}))
        metrics(Event("vm.merge", "vm", INSTANT, 3.0, {"locations": 4}))
        metrics(Event("sat.restart", "sat", INSTANT, 4.0, {"restarts": 2}))
        metrics(Event("sat.budget_trip", "sat", INSTANT, 5.0,
                      {"reason": "conflicts", "phase": "search"}))
        metrics(Event("cegis.iteration", "query", END, 6.0,
                      {"outcome": "converged"}))
        snap = metrics.snapshot()
        assert snap["vm.joins"] == 1
        assert snap["vm.union_cardinality"]["max"] == 3
        assert snap["vm.merges"] == 1
        assert snap["sat.restarts"] == 1
        assert snap["sat.budget_trip.conflicts"] == 1
        assert snap["cegis.outcome.converged"] == 1

    def test_unknown_events_ignored(self):
        metrics = BusMetrics()
        metrics(Event("custom.thing", "x", INSTANT, 1.0, None))
        assert metrics.registry.snapshot() == {}

    def test_subscribed_context(self):
        bus = EventBus()
        metrics = BusMetrics(bus=bus)
        with metrics.subscribed():
            bus.emit(_check_end())
        bus.emit(_check_end())  # after detach: not counted
        assert metrics.snapshot()["smt.checks"] == 1
        assert not bus.enabled

    def test_live_query_aggregation(self):
        """End-to-end: metrics subscribed across a real solve."""
        from repro.queries import solve
        from repro.sym import fresh_int, ops
        from repro.vm import assert_, current

        def program():
            x = fresh_int("mx", width=8)
            current().branch(ops.gt(x, 0), lambda: None, lambda: None)
            assert_(ops.num_eq(ops.mul(x, x), 49))

        metrics = BusMetrics()
        with metrics.subscribed():
            outcome = solve(program)
        assert outcome.status == "sat"
        snap = metrics.snapshot()
        assert snap["smt.checks"] == 1
        assert snap["smt.result.sat"] == 1
        assert snap["vm.joins"] >= 1
        assert snap["encode.spans"] >= 1
        assert 0.0 <= snap["derived.encode_cache_hit_rate"] <= 1.0
        # The snapshot agrees with the query's own stats: both sum the
        # same CheckStats deltas, one counter per field (the float sums
        # may round differently).
        for field in fields(CheckStats):
            if field.name != "seconds":
                expected = getattr(outcome.stats.solver, field.name)
                if isinstance(expected, float):
                    expected = pytest.approx(expected)
                assert snap[f"smt.{field.name}"] == expected, field.name
