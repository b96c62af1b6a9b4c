"""The overload survival layer: detector and retry budgets."""

import pytest

from repro.serving.resilience import (
    CRITICAL,
    CRITICALITIES,
    DEFAULT,
    SHEDDABLE,
    OverloadDetector,
    RetryBudget,
    normalize_criticality,
)


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
