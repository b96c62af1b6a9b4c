"""Overload-and-failure survival for the serving layer.

Three small, composable pieces (see ``docs/serving.md`` "Overload &
lifecycle" and ``docs/robustness.md``):

**Criticality classes.**  Every request carries one of three
criticality classes — :data:`CRITICAL`, :data:`DEFAULT`,
:data:`SHEDDABLE` — set on :class:`~repro.serving.protocol.QueryRequest`
or via the ``X-Repro-Criticality`` HTTP header.  Under overload the
admission gate sheds the *lowest* class first; ``critical`` traffic is
never shed (only the hard per-tenant queue bounds can reject it).

**OverloadDetector.**  The shedding signal: an EWMA of queue-wait
utilization (observed wait over the queue deadline, 1.0 on a deadline
miss or queue-full rejection).  Requests that would have to wait are
shed with :class:`~repro.errors.RequestShed` (``E_SHED``) when the
EWMA crosses their class's threshold — ``sheddable`` at
``shed_sheddable_at``, ``default`` at the higher ``shed_default_at``.
The detector is deterministic given its observation sequence, which is
what the chaos suite leans on.

**RetryBudget.**  The client-side complement: a per-tenant token
bucket that caps retries to a fraction of successful traffic so shed
or rejected requests cannot amplify an overload into a retry storm.
``repro replay``'s client path honors it.

Everything is stdlib threading and accounts into the ``resilience.*``
metric namespace; state is surfaced at ``GET /debug/resilience``.
"""

from __future__ import annotations

from threading import Lock
from typing import Dict, Optional, Tuple

from repro.obs.metrics import record as _record, set_gauge as _set_gauge

__all__ = [
    "CRITICAL",
    "DEFAULT",
    "SHEDDABLE",
    "CRITICALITIES",
    "normalize_criticality",
    "OverloadDetector",
    "RetryBudget",
]

#: Criticality classes, most to least important.  Shedding order is
#: the reverse: ``sheddable`` first, ``critical`` never.
CRITICAL = "critical"
DEFAULT = "default"
SHEDDABLE = "sheddable"
CRITICALITIES: Tuple[str, ...] = (CRITICAL, DEFAULT, SHEDDABLE)


def normalize_criticality(value: Optional[str]) -> str:
    """The effective criticality class of a wire value: unknown or
    empty values mean :data:`DEFAULT` (never an error — a typo in a
    client header must not fail the request)."""
    if value in CRITICALITIES:
        return value
    return DEFAULT


class OverloadDetector(object):
    """Utilization-based shedding signal.

    ``observe_wait(waited, deadline)`` feeds one queue-wait sample:
    utilization is ``waited / deadline`` (``reference_seconds`` when
    the tenant has no queue deadline), clamped to 1.0; queue-deadline
    misses and queue-full rejections count as 1.0.  The EWMA
    (``alpha`` per sample) is compared against the per-class
    thresholds by :meth:`should_shed`.

    Deterministic: state is a pure function of the observation
    sequence, so seeded chaos runs replay exactly.
    """

    __slots__ = (
        "alpha",
        "shed_sheddable_at",
        "shed_default_at",
        "reference_seconds",
        "_ewma",
        "_samples",
        "_lock",
    )

    def __init__(
        self,
        alpha: float = 0.2,
        shed_sheddable_at: float = 0.5,
        shed_default_at: float = 0.85,
        reference_seconds: float = 1.0,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (alpha,))
        if not 0.0 < shed_sheddable_at <= shed_default_at:
            raise ValueError(
                "thresholds must satisfy 0 < shed_sheddable_at <= "
                "shed_default_at, got %r / %r"
                % (shed_sheddable_at, shed_default_at)
            )
        self.alpha = alpha
        self.shed_sheddable_at = shed_sheddable_at
        self.shed_default_at = shed_default_at
        self.reference_seconds = reference_seconds
        self._ewma = 0.0
        self._samples = 0
        self._lock = Lock()

    def observe(self, utilization: float) -> None:
        """Feed one raw utilization sample in [0, 1]."""
        value = min(1.0, max(0.0, utilization))
        with self._lock:
            self._ewma += self.alpha * (value - self._ewma)
            self._samples += 1
        _set_gauge("resilience.overload.utilization", self._ewma)

    def observe_wait(
        self, waited_seconds: float, deadline_seconds: Optional[float] = None
    ) -> None:
        """Feed one queue-wait sample against its deadline (or the
        reference deadline when the tenant queues unbounded)."""
        reference = deadline_seconds or self.reference_seconds
        self.observe(waited_seconds / reference if reference > 0 else 0.0)

    def utilization(self) -> float:
        return self._ewma

    def should_shed(self, criticality: str) -> bool:
        """Whether a request of ``criticality`` that would have to
        wait should be shed right now.  ``critical`` is never shed."""
        if criticality == SHEDDABLE:
            return self._ewma >= self.shed_sheddable_at
        if criticality == CRITICAL:
            return False
        return self._ewma >= self.shed_default_at

    def shed_classes(self) -> Tuple[str, ...]:
        """The classes currently being shed, least critical first."""
        return tuple(
            cls for cls in (SHEDDABLE, DEFAULT) if self.should_shed(cls)
        )

    def retry_after_seconds(self) -> float:
        """The back-off hint for shed/rejected requests: scale the
        reference deadline by how overloaded we are (floor 0.1 s)."""
        return max(0.1, self.reference_seconds * self._ewma)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "utilization": self._ewma,
                "samples": self._samples,
                "shed_classes": list(self.shed_classes()),
                "shed_sheddable_at": self.shed_sheddable_at,
                "shed_default_at": self.shed_default_at,
                "alpha": self.alpha,
                "reference_seconds": self.reference_seconds,
            }

    def __repr__(self):
        return "OverloadDetector(utilization=%.3f, shedding=%s)" % (
            self._ewma,
            list(self.shed_classes()),
        )


class RetryBudget(object):
    """Per-tenant retry token bucket.

    Every completed request deposits ``ratio`` tokens for its tenant
    (capped at ``burst``); a retry withdraws one whole token.  With
    ``ratio=0.1`` retries can never exceed ~10% of traffic per tenant,
    which bounds the amplification a retrying client fleet can add to
    an already-overloaded server.  ``min_tokens`` seeds each tenant's
    bucket so cold tenants can still retry a transient failure.
    """

    __slots__ = ("ratio", "burst", "min_tokens", "_tokens", "_lock",
                 "spent", "denied")

    def __init__(
        self, ratio: float = 0.1, burst: float = 10.0, min_tokens: float = 1.0
    ):
        if ratio < 0:
            raise ValueError("ratio must be >= 0, got %r" % (ratio,))
        self.ratio = ratio
        self.burst = burst
        self.min_tokens = min_tokens
        self._tokens: Dict[str, float] = {}
        self._lock = Lock()
        self.spent = 0
        self.denied = 0

    def record_request(self, tenant: str) -> None:
        """Deposit for one completed request."""
        with self._lock:
            tokens = self._tokens.get(tenant, self.min_tokens)
            self._tokens[tenant] = min(self.burst, tokens + self.ratio)

    def try_spend(self, tenant: str) -> bool:
        """Withdraw one retry token; ``False`` means the budget is
        exhausted and the caller must not retry."""
        with self._lock:
            tokens = self._tokens.get(tenant, self.min_tokens)
            if tokens >= 1.0:
                self._tokens[tenant] = tokens - 1.0
                self.spent += 1
                _record("resilience.retry.spent")
                return True
            self.denied += 1
            _record("resilience.retry.denied")
            return False

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "ratio": self.ratio,
                "spent": self.spent,
                "denied": self.denied,
                "tokens": {
                    tenant: round(tokens, 3)
                    for tenant, tokens in sorted(self._tokens.items())
                },
            }
