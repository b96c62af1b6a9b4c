"""Workload intelligence: per-tenant heavy hitters over query shapes.

A budget-aware view-selection policy (Cautis et al.'s view
intersections; Chebotko & Fu's materialized-view selection) is
workload-driven: it needs to know which query *shapes* dominate, per
tenant, how they behave (latency, visits, result sizes), and how well
the caches already serve them.  :class:`WorkloadProfiler` is that
observation layer.

Aggregation is keyed ``(tenant, policy, fingerprint)`` where the
fingerprint is the constant-masked canonical AST shape from
:mod:`repro.xpath.fingerprint` — so ``//patient[wardNo = "1"]`` and
``//patient[wardNo = "7"]`` fold into one entry.  Per entry the
profiler keeps a count, a log-bucket histogram of engine latency (the
shared :data:`~repro.obs.metrics.LATENCY_BUCKETS` ladder; p50/p95
interpolate inside a bucket and never leave the observed range),
node-visit and result-count totals, plan cache hit counts, and
error/denial counts, all read from each finished query's
:class:`~repro.obs.record.QueryRecord`.

Cardinality is **bounded**: each tenant holds at most ``capacity``
entries via the space-saving heavy-hitter sketch (Metwally, Agrawal &
El Abbadi, "Efficient computation of frequent and top-k elements in
data streams").  When a new shape arrives at a full sketch, the
minimum-count entry is evicted and the newcomer inherits its count as
an over-count *error bound* — the classic space-saving guarantee: a
reported count is exact to within ``error``, and any shape with true
frequency above ``N / capacity`` is guaranteed to be present.  The
per-entry ``error`` and per-tenant eviction counters are exposed so a
consumer can tell a certain heavy hitter from a churn artifact.

Thread safety: one lock per profiler; recording one record costs a
lock, a dict update and a histogram observation.
"""

from __future__ import annotations

from threading import Lock
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import LATENCY_BUCKETS, Histogram

__all__ = ["WorkloadProfiler", "WorkloadEntry"]


class WorkloadEntry:
    """Aggregated stats for one ``(tenant, policy, fingerprint)``.

    ``count`` is the space-saving estimate; ``error`` bounds its
    over-count (0 for entries that never inherited an evicted slot),
    so the true frequency lies in ``[count - error, count]``."""

    __slots__ = (
        "tenant",
        "policy",
        "fingerprint",
        "shape",
        "count",
        "error",
        "errors",
        "denials",
        "cache_hits",
        "visits",
        "results",
        "latency",
    )

    def __init__(self, tenant: str, policy: str, fingerprint: str, shape: str):
        self.tenant = tenant
        self.policy = policy
        self.fingerprint = fingerprint
        self.shape = shape
        self.count = 0
        self.error = 0
        self.errors = 0
        self.denials = 0
        self.cache_hits = 0
        self.visits = 0
        self.results = 0
        self.latency = Histogram(
            "workload.latency_seconds", buckets=LATENCY_BUCKETS
        )

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "policy": self.policy,
            "fingerprint": self.fingerprint,
            "shape": self.shape,
            "count": self.count,
            "error_bound": self.error,
            "errors": self.errors,
            "denials": self.denials,
            "cache_hit_ratio": self.cache_hit_ratio,
            "visits": self.visits,
            "results": self.results,
            "mean_ms": self.latency.mean * 1000.0,
            "p50_ms": self.latency.quantile(0.50) * 1000.0,
            "p95_ms": self.latency.quantile(0.95) * 1000.0,
        }

    def __repr__(self):
        return "WorkloadEntry(%s/%s %s count=%d±%d)" % (
            self.tenant,
            self.policy,
            self.fingerprint,
            self.count,
            self.error,
        )


class _TenantSketch:
    """One tenant's bounded space-saving sketch plus roll-up totals."""

    __slots__ = ("entries", "queries", "errors", "denials", "evictions")

    #: The roll-up keys of :meth:`totals`, in report order.
    TOTALS = ("queries", "errors", "denials", "evictions", "fingerprints")

    def __init__(self):
        self.entries: Dict[Tuple[str, str], WorkloadEntry] = {}
        self.queries = 0
        self.errors = 0
        self.denials = 0
        self.evictions = 0

    def totals(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "errors": self.errors,
            "denials": self.denials,
            "evictions": self.evictions,
            "fingerprints": len(self.entries),
        }


class WorkloadProfiler:
    """Thread-safe per-tenant aggregation of query-shape statistics,
    bounded to ``capacity`` shapes per tenant (space-saving top-K)."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("workload profiler capacity must be >= 1")
        self.capacity = capacity
        self._tenants: Dict[str, _TenantSketch] = {}
        self._lock = Lock()

    # -- recording -------------------------------------------------------

    def record_query(self, record) -> None:
        """Account one finished query's
        :class:`~repro.obs.record.QueryRecord` under its fingerprint
        (a :class:`~repro.xpath.fingerprint.Fingerprint`, or a bare
        digest string): an answer adds visits, results, cache status
        and engine latency; a failure counts as an error, or as a
        denial when the strict-mode label check rejected it."""
        tenant = record.tenant or record.policy
        with self._lock:
            sketch = self._sketch(tenant)
            entry = self._entry(
                sketch, tenant, record.policy, record.fingerprint
            )
            sketch.queries += 1
            entry.count += 1
            if record.denied:
                sketch.denials += 1
                entry.denials += 1
                return
            if record.error_code:
                sketch.errors += 1
                entry.errors += 1
                return
            entry.visits += record.visits
            entry.results += record.result_count
            if record.cache_hit:
                entry.cache_hits += 1
        # the histogram carries its own lock; observing outside the
        # profiler lock keeps the critical section to dict updates
        entry.latency.observe(record.engine_seconds)

    # -- internals (caller holds the lock) -------------------------------

    def _sketch(self, tenant: str) -> _TenantSketch:
        sketch = self._tenants.get(tenant)
        if sketch is None:
            sketch = self._tenants[tenant] = _TenantSketch()
        return sketch

    def _entry(
        self, sketch: _TenantSketch, tenant: str, policy: str, fingerprint
    ) -> WorkloadEntry:
        digest = getattr(fingerprint, "digest", None) or str(fingerprint)
        shape = getattr(fingerprint, "shape", "") or ""
        key = (policy, digest)
        entry = sketch.entries.get(key)
        if entry is not None:
            return entry
        entry = WorkloadEntry(tenant, policy, digest, shape)
        if len(sketch.entries) >= self.capacity:
            # space-saving replacement: evict the minimum-count entry,
            # the newcomer inherits its count as the error bound
            victim_key = min(
                sketch.entries, key=lambda k: sketch.entries[k].count
            )
            victim = sketch.entries.pop(victim_key)
            sketch.evictions += 1
            entry.count = victim.count
            entry.error = victim.count
        sketch.entries[key] = entry
        return entry

    # -- reporting -------------------------------------------------------

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def top(self, tenant: str, n: Optional[int] = None) -> List[dict]:
        """The tenant's heaviest query shapes, descending by count
        (ties broken by digest for a stable order)."""
        with self._lock:
            sketch = self._tenants.get(tenant)
            entries = list(sketch.entries.values()) if sketch else []
        ranked = sorted(
            entries, key=lambda e: (-e.count, e.fingerprint)
        )
        if n is not None:
            ranked = ranked[: max(0, n)]
        return [entry.as_dict() for entry in ranked]

    def report(
        self, tenant: Optional[str] = None, n: Optional[int] = None
    ) -> dict:
        """The full JSON-safe report: per-tenant totals, eviction
        counters, and top-``n`` entries (all tenants unless one is
        named)."""
        with self._lock:
            names = sorted(self._tenants)
        if tenant is not None:
            names = [tenant] if tenant in names else []
        tenants = {}
        for name in names:
            with self._lock:
                sketch = self._tenants.get(name)
                if sketch is None:
                    continue
                totals = sketch.totals()
            tenants[name] = dict(totals, top=self.top(name, n))
        return {
            "capacity": self.capacity,
            "tenants": tenants,
        }

    def stats(self) -> dict:
        """Cheap roll-up totals across tenants (no entry details)."""
        with self._lock:
            sketches = [sketch.totals() for sketch in self._tenants.values()]
        out = {"tenants": len(sketches)}
        for key in _TenantSketch.TOTALS:
            out[key] = sum(totals[key] for totals in sketches)
        out["capacity"] = self.capacity
        return out

    def reset(self) -> None:
        with self._lock:
            self._tenants.clear()

    def __repr__(self):
        stats = self.stats()
        return "WorkloadProfiler(tenants=%d, queries=%d, capacity=%d)" % (
            stats["tenants"],
            stats["queries"],
            self.capacity,
        )
