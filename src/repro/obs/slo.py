"""Per-tenant SLO tracking with multi-window burn rates.

The serving layer promises each tenant a latency SLO — "*target*
fraction of requests finish under *threshold* seconds, and errors
count against the budget".  :class:`SLOTracker` measures compliance
the way an on-call alert would:

* every request is classified **good** (ok and under threshold) or
  **bad** (error, denial, or over threshold);
* two rolling time windows — a **fast** window (default 5 minutes,
  catches a sudden regression) and a **slow** window (default 1 hour,
  catches a smoulder) — each track the bad fraction with second-level
  bucket resolution;
* the **burn rate** of a window is ``bad_fraction / error_budget``
  where ``error_budget = 1 - target``.  Burn 1.0 means spending the
  budget exactly as fast as the SLO allows; the classic page
  condition is *both* windows burning hot (fast catches the spike,
  slow confirms it is not a blip).

Windows are fixed rings of ``(epoch, good, bad)`` buckets: O(1)
memory per tenant, O(buckets) to read, O(1) to write.  The clock is
injectable so tests can drive time deterministically.

Totals are mirrored into the ambient metrics registry (guarded —
free when metrics are disabled) as labeled counters
``slo.requests{tenant=...}`` / ``slo.breaches{tenant=...}``, so the
Prometheus endpoint exposes burn counters alongside the latency
histograms.
"""

from __future__ import annotations

from threading import Lock
from time import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as metrics_mod

__all__ = ["SLObjective", "SLOTracker", "BurnWindow"]


class SLObjective:
    """One latency SLO: ``target`` fraction of requests under
    ``threshold_seconds``, errors always counting as bad."""

    __slots__ = ("threshold_seconds", "target")

    def __init__(self, threshold_seconds: float = 0.25, target: float = 0.99):
        if threshold_seconds <= 0:
            raise ValueError(
                "threshold_seconds must be > 0, got %r" % (threshold_seconds,)
            )
        if not 0.0 < target < 1.0:
            raise ValueError(
                "target must be in (0, 1), got %r" % (target,)
            )
        self.threshold_seconds = threshold_seconds
        self.target = target

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def is_bad(self, latency_seconds: float, ok: bool) -> bool:
        return (not ok) or latency_seconds > self.threshold_seconds

    def to_dict(self) -> dict:
        return {
            "threshold_seconds": self.threshold_seconds,
            "target": self.target,
            "error_budget": self.error_budget,
        }

    def __repr__(self):
        return "SLObjective(%.3fs @ %.4f)" % (self.threshold_seconds, self.target)


class BurnWindow:
    """A rolling good/bad window: ``buckets`` ring slots of
    ``bucket_seconds`` each (window span = product of the two).

    Each slot stores ``(epoch, good, bad)``; a write into a slot whose
    epoch is stale resets it, so expiry costs nothing until the slot
    is touched or read."""

    __slots__ = ("bucket_seconds", "buckets", "_ring")

    def __init__(self, window_seconds: float, buckets: int = 30):
        if window_seconds <= 0:
            raise ValueError(
                "window_seconds must be > 0, got %r" % (window_seconds,)
            )
        if buckets < 1:
            raise ValueError("buckets must be >= 1, got %r" % (buckets,))
        self.bucket_seconds = float(window_seconds) / buckets
        self.buckets = buckets
        self._ring: List[Tuple[int, int, int]] = [(-1, 0, 0)] * buckets

    @property
    def window_seconds(self) -> float:
        return self.bucket_seconds * self.buckets

    def add(self, now: float, bad: bool) -> None:
        epoch = int(now / self.bucket_seconds)
        slot = epoch % self.buckets
        stored_epoch, good, worse = self._ring[slot]
        if stored_epoch != epoch:
            good, worse = 0, 0
        if bad:
            worse += 1
        else:
            good += 1
        self._ring[slot] = (epoch, good, worse)

    def counts(self, now: float) -> Tuple[int, int]:
        """``(good, bad)`` over the live portion of the window."""
        current = int(now / self.bucket_seconds)
        oldest = current - self.buckets + 1
        good = bad = 0
        for epoch, g, b in self._ring:
            if oldest <= epoch <= current:
                good += g
                bad += b
        return good, bad

    def bad_fraction(self, now: float) -> float:
        good, bad = self.counts(now)
        total = good + bad
        return bad / total if total else 0.0


class _TenantState:
    __slots__ = ("fast", "slow", "requests", "breaches", "last_latency")

    def __init__(self, fast_window: float, slow_window: float):
        self.fast = BurnWindow(fast_window)
        self.slow = BurnWindow(slow_window)
        self.requests = 0
        self.breaches = 0
        self.last_latency = 0.0


class SLOTracker:
    """Tracks one :class:`SLObjective` across tenants, with fast and
    slow burn windows per tenant.

    ``clock`` defaults to ``time.time``; tests inject a fake to drive
    window expiry deterministically."""

    def __init__(
        self,
        objective: Optional[SLObjective] = None,
        fast_window_seconds: float = 300.0,
        slow_window_seconds: float = 3600.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.objective = objective or SLObjective()
        self.fast_window_seconds = fast_window_seconds
        self.slow_window_seconds = slow_window_seconds
        self._clock = clock or time
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = Lock()

    def observe(self, record) -> bool:
        """Account one served request from its
        :class:`~repro.obs.record.QueryRecord` (request latency and
        outcome); returns True when it breached the SLO (slow or
        failed)."""
        tenant = record.tenant
        latency_seconds = record.latency_seconds
        bad = self.objective.is_bad(latency_seconds, record.ok)
        now = self._clock()
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState(
                    self.fast_window_seconds, self.slow_window_seconds
                )
            state.requests += 1
            state.last_latency = latency_seconds
            if bad:
                state.breaches += 1
            state.fast.add(now, bad)
            state.slow.add(now, bad)
        metrics_mod.record("slo.requests", labels={"tenant": tenant})
        if bad:
            metrics_mod.record("slo.breaches", labels={"tenant": tenant})
        return bad

    def burn_rates(self, tenant: str) -> Tuple[float, float]:
        """``(fast, slow)`` burn rates for one tenant (0.0 when
        unseen)."""
        now = self._clock()
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                return 0.0, 0.0
            budget = self.objective.error_budget
            return (
                state.fast.bad_fraction(now) / budget,
                state.slow.bad_fraction(now) / budget,
            )

    def snapshot(self) -> dict:
        """The ``GET /debug/slo`` payload: the objective plus, per
        tenant, lifetime totals and both windows' bad fractions and
        burn rates."""
        now = self._clock()
        budget = self.objective.error_budget

        def window(ring: BurnWindow) -> dict:
            good, bad = ring.counts(now)
            fraction = bad / (good + bad) if good + bad else 0.0
            return {
                "window_seconds": ring.window_seconds,
                "requests": good + bad,
                "bad": bad,
                "bad_fraction": fraction,
                "burn_rate": fraction / budget,
            }

        with self._lock:
            tenants = {
                tenant: {
                    "requests": state.requests,
                    "breaches": state.breaches,
                    "compliance": (
                        1.0 - state.breaches / state.requests
                        if state.requests
                        else 1.0
                    ),
                    "last_latency_seconds": state.last_latency,
                    "fast": window(state.fast),
                    "slow": window(state.slow),
                }
                for tenant, state in sorted(self._tenants.items())
            }
        return {"objective": self.objective.to_dict(), "tenants": tenants}

    def __repr__(self):
        with self._lock:
            return "SLOTracker(%r, tenants=%d)" % (
                self.objective,
                len(self._tenants),
            )
