"""Unit tests for the fault-injection harness."""

import pytest

from repro.errors import FaultInjected, error_code
from repro.obs import RingBufferSink
from repro.obs.events import QueryEvent
from repro.robustness import FaultPlan, FaultSpec, FaultySink
from repro.robustness.faults import SITES, active_plan, install, trip, uninstall


@pytest.fixture(autouse=True)
def clean_harness():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


class TestFaultSpec:
    def test_defaults_to_at_1(self):
        spec = FaultSpec("materialize")
        assert spec.at == 1
        assert spec.triggered(1)
        assert not spec.triggered(2)

    def test_at_n(self):
        spec = FaultSpec("materialize", at=3)
        assert [spec.triggered(i) for i in range(1, 6)] == [
            False, False, True, False, False,
        ]

    def test_every_n(self):
        spec = FaultSpec("materialize", every=2)
        assert [spec.triggered(i) for i in range(1, 6)] == [
            False, True, False, True, False,
        ]

    def test_rate_is_deterministic_per_seed(self):
        spec_a = FaultSpec("materialize", rate=0.5, seed=42)
        spec_b = FaultSpec("materialize", rate=0.5, seed=42)
        first = [spec_a.triggered(i) for i in range(20)]
        second = [spec_b.triggered(i) for i in range(20)]
        assert first == second
        assert any(first) and not all(first)

    def test_rate_reset_replays(self):
        spec = FaultSpec("materialize", rate=0.5, seed=7)
        first = [spec.triggered(i) for i in range(20)]
        spec.reset()
        assert [spec.triggered(i) for i in range(20)] == first

    def test_one_trigger_only(self):
        with pytest.raises(ValueError):
            FaultSpec("materialize", at=1, every=2)
        with pytest.raises(ValueError):
            FaultSpec("materialize", every=2, rate=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("materialize", kind="explode")

    def test_unknown_site_rejected(self):
        # a spec on an uninstrumented (or retired) name would never fire
        for site in ("store.build", "plan_cache.get", "x"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultSpec(site)

    def test_fire_raises_fault_injected(self):
        spec = FaultSpec("materialize")
        with pytest.raises(FaultInjected) as excinfo:
            spec.fire()
        assert error_code(excinfo.value) == "E_FAULT"
        assert "materialize" in str(excinfo.value)
        assert spec.fired == 1

    def test_fire_custom_error(self):
        boom = RuntimeError("boom")
        spec = FaultSpec("materialize", error=boom)
        with pytest.raises(RuntimeError, match="boom"):
            spec.fire()

    def test_latency_kind_sleeps_not_raises(self):
        spec = FaultSpec("materialize", kind="latency", latency_seconds=0.001)
        spec.fire()  # must not raise
        assert spec.fired == 1


class TestFaultPlan:
    def test_counts_calls_per_site(self):
        plan = FaultPlan(name="counting")
        plan.fire("materialize")
        plan.fire("materialize")
        plan.fire("serving.execute")
        assert plan.calls("materialize") == 2
        assert plan.calls("serving.execute") == 1
        assert plan.calls("httpd.write") == 0

    def test_fires_matching_spec_only(self):
        plan = FaultPlan(FaultSpec("materialize", at=1))
        plan.fire("serving.execute")  # different site: no effect
        with pytest.raises(FaultInjected):
            plan.fire("materialize")
        assert plan.fired() == 1

    def test_reset_replays_identically(self):
        plan = FaultPlan(FaultSpec("materialize", at=2))
        plan.fire("materialize")
        with pytest.raises(FaultInjected):
            plan.fire("materialize")
        plan.reset()
        assert plan.calls("materialize") == 0
        plan.fire("materialize")
        with pytest.raises(FaultInjected):
            plan.fire("materialize")

    def test_add_returns_self_for_chaining(self):
        plan = FaultPlan().add(FaultSpec("materialize")).add(
            FaultSpec("serving.execute")
        )
        assert len(plan.specs) == 2

    def test_sites_registry_names_the_engine_seams(self):
        assert set(SITES) == {
            "materialize",
            "admission.admit",
            "serving.resolve",
            "serving.execute",
            "httpd.write",
        }


class TestInstallation:
    def test_trip_is_noop_without_plan(self):
        assert active_plan() is None
        trip("materialize")  # must not raise

    def test_install_and_uninstall(self):
        plan = FaultPlan(FaultSpec("materialize", at=1))
        install(plan)
        assert active_plan() is plan
        with pytest.raises(FaultInjected):
            trip("materialize")
        uninstall()
        assert active_plan() is None
        trip("materialize")  # no longer armed

    def test_context_manager(self):
        plan = FaultPlan(FaultSpec("materialize", at=1))
        with plan:
            assert active_plan() is plan
            with pytest.raises(FaultInjected):
                trip("materialize")
        assert active_plan() is None

    def test_context_manager_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with FaultPlan():
                raise RuntimeError("inside")
        assert active_plan() is None


class TestFaultySink:
    def test_raises_immediately_by_default(self):
        sink = FaultySink()
        with pytest.raises(FaultInjected, match="injected sink failure"):
            sink.emit(QueryEvent())
        assert sink.raised == 1
        assert sink.emitted == 0

    def test_after_n_successes(self):
        sink = FaultySink(after=2)
        sink.emit(QueryEvent())
        sink.emit(QueryEvent())
        with pytest.raises(FaultInjected):
            sink.emit(QueryEvent())
        assert sink.emitted == 2
        assert sink.raised == 1

    def test_custom_error(self):
        sink = FaultySink(error=OSError("disk full"))
        with pytest.raises(OSError, match="disk full"):
            sink.emit(QueryEvent())

    def test_is_an_event_sink(self):
        from repro.obs.events import EventSink

        assert isinstance(FaultySink(), EventSink)
        assert isinstance(RingBufferSink(), EventSink)
