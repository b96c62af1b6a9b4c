"""Per-tenant admission control for the serving layer.

The PR-5 governor bounds what one query may *spend once running*;
admission control bounds what one tenant may have *running or waiting*
at all.  Layered together they give the multi-tenant guarantee: a
tenant flooding the server saturates only its own concurrency slots
and queue, and every rejection is a typed, audited error — never a
silent drop or an unbounded queue.

Two bounds per tenant, both enforced at :meth:`AdmissionController.admit`:

``max_concurrent``
    Slots a tenant may occupy simultaneously (running queries).
    Requests beyond it wait — but only up to the queue deadline.
``max_queue_depth``
    Waiters a tenant may park behind its busy slots.  Beyond it the
    request is hard-rejected immediately with
    :class:`~repro.errors.AdmissionRejected` (``E_ADMISSION``) —
    queueing more work than the tenant can plausibly drain just turns
    deadline misses into memory growth.

A waiter that cannot get a slot before ``queue_deadline_seconds``
elapses (measured from the request's arrival at the server) raises
:class:`~repro.errors.DeadlineExceeded` — deliberately the same
``E_DEADLINE`` code the governor uses, because to the client "timed
out waiting to run" and "timed out running" are the same contract.

On top of the hard per-tenant bounds sits **priority load shedding**
(see :mod:`repro.serving.resilience`): when the controller is built
with an :class:`~repro.serving.resilience.OverloadDetector`, a request
that would have to *wait* is first checked against the detector — if
the queue-wait utilization EWMA is past the threshold for the
request's criticality class, the request is shed immediately with
:class:`~repro.errors.RequestShed` (``E_SHED``), lowest class first
(``sheddable``, then ``default``; ``critical`` is never shed).  The
detector is fed by every admission outcome: admitted waits observe
``waited/deadline``, deadline misses and queue-full rejections observe
1.0 — so shedding starts as deadline misses approach and stops as the
queue drains.

Everything is stdlib threading: each tenant's ``running`` and
``waiting`` counts live under the controller lock, and waiters park on
one :class:`threading.Condition` of that lock.  The tenant bounds are
the only queue in the server: a request waits on its caller's thread,
so ``max_queue_depth`` bounds the real waiters.
:meth:`AdmissionController.close` (drain and stop) wakes every waiter
with an ``E_ADMISSION`` rejection, so no caller is left waiting for a
slot.  Metrics land in the ``serving.*`` and
``resilience.*`` namespaces of the ambient registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from threading import Condition, Lock
from time import monotonic
from typing import Dict, Optional

from repro.errors import AdmissionRejected, DeadlineExceeded, RequestShed
from repro.obs.metrics import observe as _observe, record as _record
from repro.obs.trace import NULL_SPAN
from repro.robustness.faults import trip as fault_trip
from repro.serving.resilience import (
    CRITICALITIES,
    DEFAULT,
    OverloadDetector,
)

__all__ = ["AdmissionController", "TenantPolicy"]


class TenantPolicy(object):
    """Admission bounds for one tenant (or the default for all)."""

    __slots__ = ("max_concurrent", "max_queue_depth", "queue_deadline_seconds")

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue_depth: int = 16,
        queue_deadline_seconds: Optional[float] = None,
    ):
        if max_concurrent < 1:
            raise ValueError(
                "max_concurrent must be >= 1, got %r" % (max_concurrent,)
            )
        if max_queue_depth < 0:
            raise ValueError(
                "max_queue_depth must be >= 0, got %r" % (max_queue_depth,)
            )
        self.max_concurrent = max_concurrent
        self.max_queue_depth = max_queue_depth
        self.queue_deadline_seconds = queue_deadline_seconds

    def __repr__(self):
        return "TenantPolicy(max_concurrent=%d, max_queue_depth=%d, " \
            "queue_deadline_seconds=%r)" % (
                self.max_concurrent,
                self.max_queue_depth,
                self.queue_deadline_seconds,
            )


class _TenantState(object):
    __slots__ = ("policy", "waiting", "running")

    def __init__(self, policy: TenantPolicy):
        self.policy = policy
        self.waiting = 0
        self.running = 0


def shutdown_rejection(reason: str, tenant: str) -> AdmissionRejected:
    """The ``E_ADMISSION`` error of a request refused because the
    server is ``reason`` ("not started", "draining", "stopped")."""
    return AdmissionRejected(
        "server is %s" % reason,
        tenant=tenant,
        retry_after_seconds=1.0,
    )


class AdmissionController(object):
    """Admission gate shared by every request thread.

    Thread-safe: each tenant's ``running``/``waiting`` counts live
    under the controller lock, and one condition on that lock wakes
    the waiters when a slot frees (each re-checks its own tenant).
    Tenant states are created on first sight and live for the
    controller's lifetime (tenant cardinality is policy-bounded in
    this system, so no eviction).
    """

    def __init__(
        self,
        default: Optional[TenantPolicy] = None,
        overload: Optional[OverloadDetector] = None,
        **per_tenant,
    ):
        self._default = default or TenantPolicy()
        self._overrides: Dict[str, TenantPolicy] = dict(per_tenant)
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = Lock()
        self._freed = Condition(self._lock)
        #: Why admission is closed ("draining", "stopped"), or ``None``.
        self._closed: Optional[str] = None
        #: Load-shedding signal; ``None`` disables shedding entirely.
        self.overload = overload
        self._shed: Dict[str, int] = {cls: 0 for cls in CRITICALITIES}

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        """Install per-tenant bounds.  A tenant already seen keeps its
        running and waiting requests, now counted against the new
        bounds."""
        with self._lock:
            self._overrides[tenant] = policy
            state = self._tenants.get(tenant)
            if state is not None:
                state.policy = policy
                self._freed.notify_all()

    def close(self, reason: str = "stopped") -> int:
        """Refuse every later admission with
        :class:`~repro.errors.AdmissionRejected` ("server is
        ``reason``", with a retry hint) and wake every waiter to raise
        the same.  Returns how many waiters were woken."""
        with self._lock:
            self._closed = reason
            self._freed.notify_all()
            return sum(state.waiting for state in self._tenants.values())

    # -- introspection ---------------------------------------------------

    def queue_depth(self, tenant: Optional[str] = None) -> int:
        """Waiters parked behind busy slots — one tenant's, or all."""
        with self._lock:
            if tenant is not None:
                state = self._tenants.get(tenant)
                return state.waiting if state else 0
            return sum(state.waiting for state in self._tenants.values())

    def running(self, tenant: Optional[str] = None) -> int:
        """Admitted requests currently holding a slot."""
        with self._lock:
            if tenant is not None:
                state = self._tenants.get(tenant)
                return state.running if state else 0
            return sum(state.running for state in self._tenants.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ``{waiting, running, max_concurrent,
        max_queue_depth}`` — one consistent read for debug endpoints."""
        with self._lock:
            return {
                tenant: {
                    "waiting": state.waiting,
                    "running": state.running,
                    "max_concurrent": state.policy.max_concurrent,
                    "max_queue_depth": state.policy.max_queue_depth,
                }
                for tenant, state in sorted(self._tenants.items())
            }

    def shed_counts(self) -> Dict[str, int]:
        """Requests shed so far, by criticality class."""
        with self._lock:
            return dict(self._shed)

    # -- the gate --------------------------------------------------------

    @contextmanager
    def admit(
        self,
        tenant: str,
        enqueued_at: Optional[float] = None,
        tracer=None,
        criticality: str = DEFAULT,
    ):
        """Hold one of ``tenant``'s concurrency slots for the body.

        Raises :class:`~repro.errors.RequestShed` when the overload
        detector sheds this ``criticality`` class,
        :class:`~repro.errors.AdmissionRejected` when the tenant's
        queue is full or admission is closed, and
        :class:`~repro.errors.DeadlineExceeded` when the queue
        deadline (measured from ``enqueued_at``, the request's arrival;
        default now) lapses before a slot frees up.

        A ``tracer`` (see :class:`repro.obs.trace.Tracer`) records the
        time from arrival to admission — or to rejection — as a
        ``queue_wait`` span.
        """
        fault_trip("admission.admit")
        if enqueued_at is None:
            enqueued_at = monotonic()
        span = NULL_SPAN if tracer is None else tracer.span(
            "queue_wait", tenant=tenant
        )
        with span:
            state = self._take_slot(tenant, enqueued_at, criticality, span)
        try:
            waited = monotonic() - enqueued_at
            if self.overload is not None:
                self.overload.observe_wait(
                    waited, state.policy.queue_deadline_seconds
                )
            span.set(outcome="admitted", waited_seconds=round(waited, 6))
            _record("serving.admission.admitted")
            _observe("serving.queue_wait_seconds", waited)
            yield
        finally:
            with self._lock:
                state.running -= 1
                if state.waiting:
                    self._freed.notify_all()

    def _take_slot(self, tenant, enqueued_at, criticality, span):
        """Count one running request against ``tenant`` and return its
        state, waiting for a free slot when all are busy.  Raises
        (taking nothing) when the request is shed, the queue is full,
        the queue deadline lapses or admission is closed."""
        overload = self.overload
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = _TenantState(self._overrides.get(tenant, self._default))
                self._tenants[tenant] = state
            # A free slot admits immediately — shedding and queue
            # bounds only govern requests that would have to wait.
            if self._closed is not None or (
                state.running >= state.policy.max_concurrent
            ):
                self._refuse_if_closed(tenant, span)
                self._shed_check(tenant, criticality, span)
                policy = state.policy
                if state.waiting >= policy.max_queue_depth:
                    depth = state.waiting
                    _record("serving.admission.rejected")
                    span.set(outcome="rejected", queue_depth=depth)
                    if overload is not None:
                        overload.observe(1.0)
                    raise AdmissionRejected(
                        "tenant %r queue is full (%d waiting, "
                        "max_queue_depth=%d)"
                        % (tenant, depth, policy.max_queue_depth),
                        tenant=tenant,
                        queue_depth=depth,
                        limit=policy.max_queue_depth,
                        retry_after_seconds=(
                            overload.retry_after_seconds()
                            if overload is not None
                            else None
                        ),
                    )
                state.waiting += 1
                try:
                    while True:
                        self._refuse_if_closed(tenant, span)
                        if state.running < state.policy.max_concurrent:
                            break
                        deadline = state.policy.queue_deadline_seconds
                        if deadline is None:
                            self._freed.wait()
                            continue
                        waited = monotonic() - enqueued_at
                        if waited >= deadline:
                            _record("serving.admission.deadline")
                            span.set(
                                outcome="deadline",
                                waited_seconds=round(waited, 6),
                            )
                            if overload is not None:
                                overload.observe(1.0)
                            raise DeadlineExceeded(
                                "tenant %r request waited %.1f ms for a "
                                "slot, past its %.1f ms queue deadline"
                                % (tenant, waited * 1e3, deadline * 1e3),
                                deadline_seconds=deadline,
                                elapsed_seconds=waited,
                            )
                        self._freed.wait(deadline - waited)
                finally:
                    state.waiting -= 1
            state.running += 1
            return state

    # Both refusals below run under the controller lock.

    def _refuse_if_closed(self, tenant, span):
        if self._closed is None:
            return
        _record("serving.admission.rejected")
        span.set(outcome="rejected", reason=self._closed)
        raise shutdown_rejection(self._closed, tenant)

    def _shed_check(self, tenant, criticality, span):
        """Raise :class:`~repro.errors.RequestShed` when the overload
        detector says requests of ``criticality`` that would have to
        wait must be dropped right now."""
        overload = self.overload
        if overload is None or not overload.should_shed(criticality):
            return
        self._shed[criticality] = self._shed.get(criticality, 0) + 1
        _record("serving.admission.shed")
        _record("resilience.shed", labels={"criticality": criticality})
        utilization = overload.utilization()
        span.set(
            outcome="shed",
            criticality=criticality,
            utilization=round(utilization, 4),
        )
        raise RequestShed(
            "tenant %r request shed (criticality %r, queue-wait "
            "utilization %.2f)" % (tenant, criticality, utilization),
            tenant=tenant,
            criticality=criticality,
            utilization=utilization,
            retry_after_seconds=overload.retry_after_seconds(),
        )
