"""Per-tenant admission control: slots, queue bounds, queue deadlines,
and priority load shedding."""

import threading
import time

import pytest

from repro.errors import AdmissionRejected, DeadlineExceeded, RequestShed
from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.resilience import (
    CRITICAL,
    DEFAULT,
    SHEDDABLE,
    OverloadDetector,
)


class TestTenantPolicy:
    def test_defaults(self):
        policy = TenantPolicy()
        assert policy.max_concurrent >= 1
        assert policy.max_queue_depth >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(max_concurrent=0)
        with pytest.raises(ValueError):
            TenantPolicy(max_queue_depth=-1)


class TestAdmission:
    def test_admit_releases_slot(self):
        controller = AdmissionController(TenantPolicy(max_concurrent=1))
        with controller.admit("t"):
            assert controller.running("t") == 1
        assert controller.running("t") == 0
        # the slot is reusable
        with controller.admit("t"):
            pass

    def test_tenants_are_isolated(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=0)
        )
        with controller.admit("a"):
            # tenant b still has its own slot while a's is busy
            with controller.admit("b"):
                assert controller.running() == 2

    def test_queue_overflow_rejected(self):
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=0,
                queue_deadline_seconds=5.0,
            )
        )
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with controller.admit("t"):
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            # slot busy, zero queue depth allowed -> immediate rejection
            with pytest.raises(AdmissionRejected) as excinfo:
                with controller.admit("t"):
                    pass  # pragma: no cover - never admitted
            assert excinfo.value.code == "E_ADMISSION"
            assert excinfo.value.tenant == "t"
        finally:
            release.set()
            thread.join()

    def test_queue_deadline_raises_e_deadline(self):
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=0.05,
            )
        )
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with controller.admit("t"):
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                with controller.admit("t"):
                    pass  # pragma: no cover - never admitted
            assert excinfo.value.code == "E_DEADLINE"
            # waited roughly the queue deadline, not forever
            assert time.monotonic() - started < 2.0
            # waiter accounting rolled back
            assert controller.queue_depth("t") == 0
        finally:
            release.set()
            thread.join()

    def test_deadline_accounts_time_already_queued(self):
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=0.2,
            )
        )
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with controller.admit("t"):
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            # enqueued long ago -> the deadline has already lapsed
            with pytest.raises(DeadlineExceeded):
                with controller.admit(
                    "t", enqueued_at=time.monotonic() - 10.0
                ):
                    pass  # pragma: no cover - never admitted
        finally:
            release.set()
            thread.join()

    def test_per_tenant_policy_override(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=0)
        )
        controller.set_policy(
            "big", TenantPolicy(max_concurrent=3, max_queue_depth=0)
        )
        with controller.admit("big"):
            with controller.admit("big"):
                with controller.admit("big"):
                    assert controller.running("big") == 3


def _saturated_detector(**kw):
    """A detector already past both shedding thresholds."""
    detector = OverloadDetector(alpha=1.0, **kw)
    detector.observe(1.0)
    return detector


class TestLoadShedding:
    def holder(self, controller, tenant="t"):
        """Occupy the tenant's single slot from a background thread;
        returns (release, thread) with the slot already held."""
        release = threading.Event()
        entered = threading.Event()

        def hold():
            with controller.admit(tenant):
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold)
        thread.start()
        assert entered.wait(timeout=5)
        return release, thread

    def test_no_detector_means_no_shedding(self):
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=0.05,
            )
        )
        release, thread = self.holder(controller)
        try:
            # waits then hits the queue deadline — never E_SHED
            with pytest.raises(DeadlineExceeded):
                with controller.admit("t", criticality=SHEDDABLE):
                    pass  # pragma: no cover - never admitted
        finally:
            release.set()
            thread.join()

    def test_free_slot_admits_even_under_overload(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=1),
            overload=_saturated_detector(),
        )
        # idle slots: shedding must not touch requests that don't wait
        with controller.admit("t", criticality=SHEDDABLE):
            pass
        assert controller.shed_counts()[SHEDDABLE] == 0

    def test_waiting_sheddable_request_is_shed(self):
        detector = OverloadDetector(alpha=1.0)
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=5.0,
            ),
            overload=detector,
        )
        release, thread = self.holder(controller)
        # saturate after the holder's own (fast-path) admit observed
        detector.observe(1.0)
        try:
            started = time.monotonic()
            with pytest.raises(RequestShed) as excinfo:
                with controller.admit("t", criticality=SHEDDABLE):
                    pass  # pragma: no cover - never admitted
            # shed immediately, not after waiting out the deadline
            assert time.monotonic() - started < 1.0
            error = excinfo.value
            assert error.code == "E_SHED"
            assert error.tenant == "t"
            assert error.criticality == SHEDDABLE
            assert error.utilization == pytest.approx(1.0)
            assert error.retry_after_seconds > 0
            assert controller.shed_counts()[SHEDDABLE] == 1
        finally:
            release.set()
            thread.join()

    def test_critical_is_never_shed(self):
        detector = OverloadDetector(alpha=1.0)
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=0.05,
            ),
            overload=detector,
        )
        release, thread = self.holder(controller)
        detector.observe(1.0)
        try:
            # critical rides the queue to its deadline instead
            with pytest.raises(DeadlineExceeded):
                with controller.admit("t", criticality=CRITICAL):
                    pass  # pragma: no cover - never admitted
            assert controller.shed_counts()[CRITICAL] == 0
        finally:
            release.set()
            thread.join()

    def test_default_shed_only_past_higher_threshold(self):
        detector = OverloadDetector(
            alpha=1.0, shed_sheddable_at=0.5, shed_default_at=0.85
        )
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=0.05,
            ),
            overload=detector,
        )
        release, thread = self.holder(controller)
        detector.observe(0.6)  # between the two thresholds
        try:
            with pytest.raises(RequestShed):
                with controller.admit("t", criticality=SHEDDABLE):
                    pass  # pragma: no cover
            with pytest.raises(DeadlineExceeded):
                with controller.admit("t", criticality=DEFAULT):
                    pass  # pragma: no cover
        finally:
            release.set()
            thread.join()

    def test_detector_fed_by_rejections_and_deadline_misses(self):
        detector = OverloadDetector(alpha=0.5)
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=0,
                queue_deadline_seconds=5.0,
            ),
            overload=detector,
        )
        release, thread = self.holder(controller)
        try:
            # only the holder's near-zero fast-path wait so far
            assert detector.utilization() < 0.01
            with pytest.raises(AdmissionRejected) as excinfo:
                with controller.admit("t"):
                    pass  # pragma: no cover
            # queue-full counted as a saturated sample, and the
            # rejection carries the detector's back-off hint
            assert detector.utilization() == pytest.approx(0.5, abs=0.01)
            assert excinfo.value.retry_after_seconds > 0
        finally:
            release.set()
            thread.join()


class TestClose:
    """``close()`` is how drain and stop leave no caller waiting."""

    def test_close_wakes_every_waiter_and_refuses_later_calls(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=8)
        )
        release = threading.Event()
        entered = threading.Event()
        outcomes = []

        def hold():
            with controller.admit("t"):
                entered.set()
                release.wait(timeout=30)

        def wait_for_slot():
            try:
                with controller.admit("t"):
                    outcomes.append("admitted")  # pragma: no cover
            except AdmissionRejected as error:
                outcomes.append(str(error))

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(timeout=5)
        waiters = [threading.Thread(target=wait_for_slot) for _ in range(3)]
        for thread in waiters:
            thread.start()
        give_up = time.monotonic() + 30
        while controller.queue_depth("t") < 3:
            assert time.monotonic() < give_up
            time.sleep(0.001)
        try:
            assert controller.close("draining") == 3
            for thread in waiters:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            release.set()
            holder.join(timeout=30)
        assert outcomes == ["server is draining"] * 3
        assert controller.queue_depth() == 0
        assert controller.running() == 0
        # a free slot no longer admits either
        with pytest.raises(AdmissionRejected) as excinfo:
            with controller.admit("other"):
                pass  # pragma: no cover
        assert excinfo.value.retry_after_seconds is not None
        assert controller.close() == 0

    def test_set_policy_keeps_running_requests_counted(self):
        controller = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=0)
        )
        with controller.admit("t"):
            controller.set_policy(
                "t", TenantPolicy(max_concurrent=2, max_queue_depth=0)
            )
            assert controller.running("t") == 1
            with controller.admit("t"):
                assert controller.running("t") == 2
                with pytest.raises(AdmissionRejected):
                    with controller.admit("t"):
                        pass  # pragma: no cover
        assert controller.running("t") == 0


class TestAccountingUnderFailure:
    """Regression: no slot leaks or negative drift when admitted work
    raises, is abandoned, or races shutdown."""

    def test_exception_in_body_releases_slot_and_gauge(self):
        controller = AdmissionController(TenantPolicy(max_concurrent=1))
        with pytest.raises(RuntimeError):
            with controller.admit("t"):
                raise RuntimeError("worker died")
        assert controller.running("t") == 0
        with controller.admit("t"):  # the slot is reusable
            pass

    def test_shed_request_leaves_no_accounting_residue(self):
        detector = OverloadDetector(alpha=1.0)
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=4,
                queue_deadline_seconds=5.0,
            ),
            overload=detector,
        )
        release = threading.Event()
        entered = threading.Event()

        def hold():
            with controller.admit("t"):
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            detector.observe(1.0)
            for _ in range(5):
                with pytest.raises(RequestShed):
                    with controller.admit("t", criticality=SHEDDABLE):
                        pass  # pragma: no cover
            assert controller.queue_depth("t") == 0
            assert controller.running("t") == 1  # just the holder
        finally:
            release.set()
            thread.join()
        assert controller.running("t") == 0

    def test_contended_mixed_outcomes_never_drift(self):
        """Hammer one tenant from many threads with a mix of successes
        and body failures; waiting/running must return to zero and the
        slots must still admit max_concurrent afterwards."""
        controller = AdmissionController(
            TenantPolicy(
                max_concurrent=2,
                max_queue_depth=32,
                queue_deadline_seconds=5.0,
            )
        )
        errors = []

        def worker(index):
            for turn in range(10):
                try:
                    with controller.admit("t"):
                        if (index + turn) % 3 == 0:
                            raise RuntimeError("boom")
                except RuntimeError:
                    pass
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert controller.running("t") == 0
        assert controller.queue_depth("t") == 0
        # both slots still available — no leak under contention
        with controller.admit("t"):
            with controller.admit("t"):
                assert controller.running("t") == 2

    def test_slots_never_oversubscribed_under_contention(self):
        """More threads than cores, switching as often as possible:
        no tenant ever runs more than ``max_concurrent`` bodies at
        once, and the counts return to zero."""
        import sys

        controller = AdmissionController(
            TenantPolicy(max_concurrent=2, max_queue_depth=64)
        )
        lock = threading.Lock()
        inside = {"a": 0, "b": 0}
        peak = {"a": 0, "b": 0}

        def worker(index):
            tenant = "ab"[index % 2]
            for _ in range(50):
                with controller.admit(tenant):
                    with lock:
                        inside[tenant] += 1
                        peak[tenant] = max(peak[tenant], inside[tenant])
                    with lock:
                        inside[tenant] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert max(peak.values()) <= 2
        assert controller.running() == 0
        assert controller.queue_depth() == 0
