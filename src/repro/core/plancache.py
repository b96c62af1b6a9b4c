"""Engine-level query-plan cache, keyed on the query's shape.

The paper's views are *virtual*: every request over a security view
pays parse → rewrite → optimize → compile before a single document
node is touched.  Rewrite, optimize and compile depend only on the
policy and the query's *shape* — not on the document, and not on the
query's constants: the paper already treats a constant as a parameter
(Section 3.2, ``$wardNo``).  The engine therefore parses each request
and splits it into a template plus its constants
(:func:`~repro.xpath.fingerprint.parameterize`), and the cache holds
one compiled plan per ``(policy, template text, height)``, whose
operators read the constants from the execution's
:class:`~repro.xpath.plan.PlanRuntime`.  A new constant of a shape
already seen is a cache hit (Mahfoud & Imine make the same argument
for paying a rewriting once and reusing it).

:class:`PlanCache` is a bounded LRU over :class:`CompiledQuery`
entries.  Each entry carries the compilation pipeline for one shape —
the template and its rewritten ASTs plus one executable plan
(:mod:`repro.xpath.plan`) per view target — together with per-stage
compile timings.  The cache keeps hit/miss/eviction/invalidation
counters for observability; the engine wires invalidation into
``register_policy``, ``drop_policy``, and ``invalidate``.

For recursive views the rewritten query additionally depends on the
unfolding depth (the document height, Section 4.2), so the engine
appends that depth to the key; it is ``None`` for the common
non-recursive case.  Plans have a single (columnar) execution backend,
so the key carries nothing about how the entry will be executed.

The cache is thread-safe: an LRU lookup *mutates* the recency order
(``move_to_end``), so even read-mostly serving traffic hits the
underlying ``OrderedDict`` with writes.  One lock guards every
entry-map operation; entries are fully compiled before they are
stored and immutable afterwards.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Dict, Optional, Tuple

from repro.obs.metrics import record as _metric_record


class CompiledQuery:
    """One cached compilation: the pipeline stages for a single
    ``(policy, template, height)`` combination.

    ``template`` is the query with its constants replaced by slot
    parameters ``$_0``, ``$_1``, ... and ``template_text`` its text.
    ``plans`` holds one ``(target, is_text, CompiledPlan)`` per view
    node the query reaches, in target order: element targets run
    their optimized document path, text targets the raw rewritten
    one; a plan binds the slots when it runs.  ``rewritten`` is the
    union of the per-target rewrites, ``optimized`` the union of the
    paths the plans run, both over the slots.  ``timings`` maps stage
    names (``rewrite``, ``optimize``, ``compile``) to seconds spent
    building this entry.  An entry is complete when it is cached and
    immutable afterwards (``hits`` is the cache's own counter)."""

    __slots__ = (
        "policy",
        "template_text",
        "height",
        "template",
        "rewritten",
        "optimized",
        "view",
        "plans",
        "fingerprint",
        "timings",
        "hits",
    )

    def __init__(
        self,
        policy: str,
        template_text: str,
        height: Optional[int],
        template,
        rewritten,
        optimized,
        view,
        plans: Tuple,
        fingerprint,
        timings: Dict[str, float],
    ):
        self.policy = policy
        self.template_text = template_text
        self.height = height
        self.template = template
        self.rewritten = rewritten
        self.optimized = optimized
        self.view = view
        self.plans = plans
        self.fingerprint = fingerprint
        self.timings = timings
        self.hits = 0

    @property
    def key(self) -> Tuple:
        return (self.policy, self.template_text, self.height)

    def __repr__(self):
        return "CompiledQuery(policy=%r, query=%r, targets=%d, hits=%d)" % (
            self.policy,
            self.template_text,
            len(self.plans),
            self.hits,
        )


class PlanCacheStats:
    """A point-in-time snapshot of cache counters."""

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "size",
        "capacity",
    )

    def __init__(self, hits, misses, evictions, invalidations, size, capacity):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.invalidations = invalidations
        self.size = size
        self.capacity = capacity

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return (
            "PlanCacheStats(hits=%d, misses=%d, evictions=%d, "
            "invalidations=%d, size=%d, capacity=%d, hit_rate=%.3f)"
            % (
                self.hits,
                self.misses,
                self.evictions,
                self.invalidations,
                self.size,
                self.capacity,
                self.hit_rate,
            )
        )


class PlanCache:
    """Bounded LRU cache of :class:`CompiledQuery` entries.

    Keys are ``(policy, template_text, height)`` tuples (the cache
    itself is key-agnostic — only the leading policy component
    matters, for invalidation).  A
    ``capacity`` of 0 disables caching (every lookup misses, stores
    are dropped) without the engine needing a special case."""

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, CompiledQuery]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- lookup / store --------------------------------------------------

    def get(self, key: Tuple) -> Optional[CompiledQuery]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                _metric_record("plan_cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
        _metric_record("plan_cache.hits")
        return entry

    def put(self, key: Tuple, entry: CompiledQuery) -> None:
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            _metric_record("plan_cache.evictions", evicted)

    # -- invalidation ----------------------------------------------------

    def invalidate(self, policy: Optional[str] = None) -> int:
        """Drop all entries of ``policy`` (all policies when ``None``).
        Returns the number of entries removed."""
        with self._lock:
            if policy is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key for key in self._entries if key[0] == policy
                ]
                for key in stale:
                    del self._entries[key]
                removed = len(stale)
            self.invalidations += removed
        if removed:
            _metric_record("plan_cache.invalidations", removed)
        return removed

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    # -- introspection ---------------------------------------------------

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                self.hits,
                self.misses,
                self.evictions,
                self.invalidations,
                len(self._entries),
                self.capacity,
            )

    def keys(self):
        """Cache keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def entries(self):
        """A snapshot of cached entries in LRU order, for byte
        accounting and workload introspection.  Entries are shared
        (not copied): callers must treat them as read-only."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries
