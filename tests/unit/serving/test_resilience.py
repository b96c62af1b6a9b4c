"""The overload survival layer: detector, breakers, retry budgets."""

import threading

import pytest

from repro.errors import FaultInjected
from repro.obs.events import EventSink, QueryEvent
from repro.robustness.faults import FaultySink
from repro.serving.resilience import (
    CRITICAL,
    CRITICALITIES,
    DEFAULT,
    SHEDDABLE,
    BreakerSink,
    CircuitBreaker,
    OverloadDetector,
    RetryBudget,
    normalize_criticality,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCriticality:
    def test_classes_ordered_most_to_least_important(self):
        assert CRITICALITIES == (CRITICAL, DEFAULT, SHEDDABLE)

    def test_normalize_accepts_known_classes(self):
        for cls in CRITICALITIES:
            assert normalize_criticality(cls) == cls

    def test_normalize_never_errors(self):
        assert normalize_criticality("") == DEFAULT
        assert normalize_criticality(None) == DEFAULT
        assert normalize_criticality("CRITICAL") == DEFAULT
        assert normalize_criticality("hologram") == DEFAULT


class TestOverloadDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadDetector(alpha=0.0)
        with pytest.raises(ValueError):
            OverloadDetector(shed_sheddable_at=0.9, shed_default_at=0.5)

    def test_idle_sheds_nothing(self):
        detector = OverloadDetector()
        for cls in CRITICALITIES:
            assert not detector.should_shed(cls)
        assert detector.shed_classes() == ()

    def test_ewma_converges_and_sheds_lowest_class_first(self):
        detector = OverloadDetector(
            alpha=0.5, shed_sheddable_at=0.5, shed_default_at=0.85
        )
        # two saturated samples: ewma = 0.5, then 0.75
        detector.observe(1.0)
        detector.observe(1.0)
        assert detector.should_shed(SHEDDABLE)
        assert not detector.should_shed(DEFAULT)
        assert detector.shed_classes() == (SHEDDABLE,)
        # keep saturating: default goes too, critical never
        detector.observe(1.0)
        detector.observe(1.0)
        assert detector.should_shed(DEFAULT)
        assert not detector.should_shed(CRITICAL)
        assert detector.shed_classes() == (SHEDDABLE, DEFAULT)

    def test_critical_never_shed_even_fully_saturated(self):
        detector = OverloadDetector(alpha=1.0)
        detector.observe(1.0)
        assert detector.utilization() == 1.0
        assert not detector.should_shed(CRITICAL)

    def test_recovery_when_waits_drop(self):
        detector = OverloadDetector(alpha=0.5)
        for _ in range(4):
            detector.observe(1.0)
        assert detector.shed_classes()
        for _ in range(8):
            detector.observe(0.0)
        assert detector.shed_classes() == ()

    def test_observe_wait_normalizes_by_deadline(self):
        detector = OverloadDetector(alpha=1.0)
        detector.observe_wait(0.05, 0.1)
        assert detector.utilization() == pytest.approx(0.5)
        # no deadline -> the reference deadline scales the sample
        detector.observe_wait(0.5, None)
        assert detector.utilization() == pytest.approx(0.5)

    def test_samples_clamped_to_unit_interval(self):
        detector = OverloadDetector(alpha=1.0)
        detector.observe(17.0)
        assert detector.utilization() == 1.0
        detector.observe(-3.0)
        assert detector.utilization() == 0.0

    def test_deterministic_given_observation_sequence(self):
        a = OverloadDetector(alpha=0.2)
        b = OverloadDetector(alpha=0.2)
        samples = [0.1, 1.0, 0.4, 1.0, 0.0, 0.9]
        for value in samples:
            a.observe(value)
            b.observe(value)
        assert a.utilization() == b.utilization()
        assert a.shed_classes() == b.shed_classes()

    def test_retry_after_scales_with_utilization(self):
        detector = OverloadDetector(alpha=1.0, reference_seconds=2.0)
        assert detector.retry_after_seconds() == pytest.approx(0.1)
        detector.observe(1.0)
        assert detector.retry_after_seconds() == pytest.approx(2.0)

    def test_snapshot_shape(self):
        detector = OverloadDetector()
        detector.observe(1.0)
        snap = detector.snapshot()
        assert set(snap) == {
            "utilization",
            "samples",
            "shed_classes",
            "shed_sheddable_at",
            "shed_default_at",
            "alpha",
            "reference_seconds",
        }
        assert snap["samples"] == 1


class TestCircuitBreaker:
    def make(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout_seconds", 1.0)
        kw.setdefault("jitter", 0.0)
        return CircuitBreaker("seam", clock=clock, **kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_closed_allows_and_single_failures_do_not_open(self):
        breaker = self.make(FakeClock())
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # success reset the streak
        assert breaker.allow()

    def test_consecutive_failures_open_then_short_circuit(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_half_open_probe_recloses_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # siblings still short-circuit
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.reclosed == 1
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_with_longer_backoff(self):
        clock = FakeClock()
        breaker = self.make(clock, backoff_multiplier=2.0)
        for _ in range(3):
            breaker.record_failure()
        first = breaker.snapshot()["backoff_remaining_seconds"]
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        second = breaker.snapshot()["backoff_remaining_seconds"]
        assert second == pytest.approx(first * 2.0, rel=0.01)
        assert breaker.opened == 2

    def test_backoff_caps_at_max(self):
        clock = FakeClock()
        breaker = self.make(
            clock, backoff_multiplier=10.0, max_backoff_seconds=5.0
        )
        for _ in range(3):
            breaker.record_failure()
        for _ in range(4):  # keep failing probes
            clock.advance(1000.0)
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.snapshot()["backoff_remaining_seconds"] <= 5.0

    def test_jitter_is_seeded_and_bounded(self):
        def opened_backoff(seed):
            clock = FakeClock()
            breaker = CircuitBreaker(
                "s",
                failure_threshold=1,
                reset_timeout_seconds=1.0,
                jitter=0.1,
                seed=seed,
                clock=clock,
            )
            breaker.record_failure()
            return breaker.snapshot()["backoff_remaining_seconds"]

        assert opened_backoff(7) == opened_backoff(7)  # deterministic
        for seed in range(5):
            assert 0.9 <= opened_backoff(seed) <= 1.1

    def test_success_reset_keeps_backoff_ladder_fresh(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.01)
        breaker.allow()
        breaker.record_success()  # reclose resets the opens counter
        for _ in range(3):
            breaker.record_failure()
        # backoff restarted from the base timeout, not doubled
        assert breaker.snapshot()["backoff_remaining_seconds"] == (
            pytest.approx(1.0, rel=0.01)
        )

    def test_thread_safety_smoke(self):
        breaker = CircuitBreaker("s", failure_threshold=2)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                if breaker.allow():
                    breaker.record_failure()
                    breaker.record_success()

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        stop.set()
        for thread in threads:
            thread.join()
        assert breaker.state in {"closed", "open", "half-open"}


class _Collector(EventSink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestBreakerSink:
    def event(self):
        return QueryEvent(policy="p", query="//a", result_count=0)

    def test_healthy_sink_passes_through(self):
        inner = _Collector()
        sink = BreakerSink(inner)
        sink.emit(self.event())
        assert len(inner.events) == 1
        assert sink.skipped == 0

    def test_failing_sink_opens_and_skips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "sink", failure_threshold=2, jitter=0.0, clock=clock
        )
        sink = BreakerSink(FaultySink(), breaker=breaker)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                sink.emit(self.event())
        assert breaker.state == "open"
        # open: emits are skipped outright, no raise
        sink.emit(self.event())
        sink.emit(self.event())
        assert sink.skipped == 2

    def test_recovered_sink_recloses(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "sink",
            failure_threshold=1,
            reset_timeout_seconds=0.5,
            jitter=0.0,
            clock=clock,
        )
        flaky = FaultySink(after=0)
        sink = BreakerSink(flaky, breaker=breaker)
        with pytest.raises(FaultInjected):
            sink.emit(self.event())
        assert breaker.state == "open"
        clock.advance(0.6)
        flaky.after = 10**9  # sink healed
        flaky.emitted = 0
        sink.emit(self.event())  # the half-open probe succeeds
        assert breaker.state == "closed"
        assert breaker.reclosed == 1


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)

    def test_cold_tenant_gets_min_tokens(self):
        budget = RetryBudget(ratio=0.1, min_tokens=1.0)
        assert budget.try_spend("t")
        assert not budget.try_spend("t")

    def test_deposits_are_a_fraction_of_traffic(self):
        budget = RetryBudget(ratio=0.25, min_tokens=0.0)
        for _ in range(3):
            budget.record_request("t")
        assert not budget.try_spend("t")  # 0.75 tokens
        budget.record_request("t")
        assert budget.try_spend("t")  # 1.0 tokens
        assert budget.denied == 1 and budget.spent == 1

    def test_burst_caps_accumulation(self):
        budget = RetryBudget(ratio=1.0, burst=2.0, min_tokens=0.0)
        for _ in range(100):
            budget.record_request("t")
        assert budget.try_spend("t")
        assert budget.try_spend("t")
        assert not budget.try_spend("t")

    def test_tenants_are_isolated(self):
        budget = RetryBudget(ratio=0.0, min_tokens=1.0)
        assert budget.try_spend("a")
        assert budget.try_spend("b")
        assert not budget.try_spend("a")

    def test_snapshot(self):
        budget = RetryBudget(ratio=0.5)
        budget.record_request("t")
        budget.try_spend("t")
        snap = budget.snapshot()
        assert snap["ratio"] == 0.5
        assert snap["spent"] == 1
        assert "t" in snap["tokens"]
