"""Per-tenant SLO tracking: objectives, burn windows, snapshots."""

import pytest

from repro.obs.metrics import (
    disable_metrics,
    enable_metrics,
    metrics_registry,
    series_name,
)
from repro.obs.record import QueryRecord
from repro.obs.slo import BurnWindow, SLObjective, SLOTracker


def _served(tenant, latency_seconds, ok):
    """The record of one served request, as the SLO tracker reads it."""
    return QueryRecord(
        tenant=tenant,
        latency_seconds=latency_seconds,
        error_code="" if ok else "E_BUDGET",
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSLObjective:
    def test_classification(self):
        objective = SLObjective(threshold_seconds=0.1, target=0.99)
        assert not objective.is_bad(0.05, True)
        assert objective.is_bad(0.2, True)  # slow
        assert objective.is_bad(0.05, False)  # failed
        assert objective.error_budget == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(threshold_seconds=0.0)
        with pytest.raises(ValueError):
            SLObjective(target=1.0)
        with pytest.raises(ValueError):
            SLObjective(target=0.0)


class TestBurnWindow:
    def test_counts_within_window(self):
        window = BurnWindow(window_seconds=300.0, buckets=30)
        window.add(1000.0, bad=False)
        window.add(1000.0, bad=True)
        assert window.counts(1000.0) == (1, 1)
        assert window.bad_fraction(1000.0) == pytest.approx(0.5)

    def test_old_buckets_expire(self):
        window = BurnWindow(window_seconds=300.0, buckets=30)
        window.add(1000.0, bad=True)
        assert window.counts(1000.0 + 299.0)[1] == 1
        assert window.counts(1000.0 + 400.0) == (0, 0)

    def test_slot_reuse_resets_stale_epoch(self):
        window = BurnWindow(window_seconds=10.0, buckets=2)
        window.add(0.0, bad=True)
        # same ring slot, much later epoch: old tally must not leak in
        window.add(100.0, bad=False)
        assert window.counts(100.0) == (1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurnWindow(window_seconds=0.0)
        with pytest.raises(ValueError):
            BurnWindow(window_seconds=10.0, buckets=0)


class TestSLOTracker:
    def _tracker(self, clock, threshold=0.1, target=0.9):
        return SLOTracker(
            SLObjective(threshold_seconds=threshold, target=target),
            fast_window_seconds=300.0,
            slow_window_seconds=3600.0,
            clock=clock,
        )

    def test_observe_returns_breach(self):
        tracker = self._tracker(FakeClock())
        assert tracker.observe(_served("t", 0.5, True)) is True
        assert tracker.observe(_served("t", 0.05, True)) is False
        assert tracker.observe(_served("t", 0.05, False)) is True

    def test_burn_rate_is_bad_fraction_over_budget(self):
        clock = FakeClock()
        tracker = self._tracker(clock, target=0.9)  # budget = 0.1
        for _ in range(9):
            tracker.observe(_served("t", 0.01, True))
        tracker.observe(_served("t", 0.5, True))
        fast, slow = tracker.burn_rates("t")
        assert fast == pytest.approx(1.0)  # 10% bad / 10% budget
        assert slow == pytest.approx(1.0)
        assert tracker.burn_rates("unseen") == (0.0, 0.0)

    def test_fast_window_forgets_slow_window_remembers(self):
        clock = FakeClock()
        tracker = self._tracker(clock)
        tracker.observe(_served("t", 9.0, True))  # breach
        clock.advance(600.0)  # past the 5 min fast window, inside 1 h
        tracker.observe(_served("t", 0.01, True))
        fast, slow = tracker.burn_rates("t")
        assert fast == 0.0
        assert slow > 0.0

    def test_snapshot_shape(self):
        clock = FakeClock()
        tracker = self._tracker(clock)
        tracker.observe(_served("a", 0.01, True))
        tracker.observe(_served("a", 0.5, True))
        tracker.observe(_served("b", 0.01, True))
        snapshot = tracker.snapshot()
        assert snapshot["objective"]["threshold_seconds"] == pytest.approx(0.1)
        assert sorted(snapshot["tenants"]) == ["a", "b"]
        a = snapshot["tenants"]["a"]
        assert a["requests"] == 2
        assert a["breaches"] == 1
        assert a["compliance"] == pytest.approx(0.5)
        assert a["fast"]["bad_fraction"] == pytest.approx(0.5)
        assert a["fast"]["window_seconds"] == pytest.approx(300.0)
        assert a["slow"]["window_seconds"] == pytest.approx(3600.0)

    def test_mirrors_counters_into_registry_when_enabled(self):
        enable_metrics()
        registry = metrics_registry()
        registry.reset()
        try:
            tracker = self._tracker(FakeClock())
            tracker.observe(_served("t", 0.01, True))
            tracker.observe(_served("t", 0.5, True))
            counters = registry.snapshot()["counters"]
            assert counters[series_name("slo.requests", {"tenant": "t"})] == 2
            assert counters[series_name("slo.breaches", {"tenant": "t"})] == 1
        finally:
            registry.reset()
            disable_metrics()

    def test_no_registry_writes_when_disabled(self):
        disable_metrics()
        registry = metrics_registry()
        registry.reset()
        tracker = self._tracker(FakeClock())
        tracker.observe(_served("t", 0.5, True))
        # reset() keeps previously-created series (zeroed, handles stay
        # valid) — the guarantee here is only that nothing was recorded
        counters = registry.snapshot()["counters"]
        assert all(value == 0 for value in counters.values())
