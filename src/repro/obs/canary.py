"""Sampled security canary: a continuous production check of the
paper's central security theorem.

The engine's guarantee (Section 5) is that for every view query
``p``, the served answer equals ``p`` evaluated on the materialized
security view: ``rewrite(p)(T) == p(Tv)``.  Tests assert this
offline; the canary asserts it *in production*, on a sample of real
traffic: at a configurable ``sample_rate``, the engine re-evaluates
the just-answered query against the materialized-view oracle
(:func:`repro.core.materialize.materialize` +
:class:`~repro.xpath.evaluator.XPathEvaluator`) and compares the two
answers as multisets of serializations — exactly the comparison of
the integration-test oracle.

Every check emits a :class:`~repro.obs.events.CanaryEvent`;
``violations`` (missing + extra answers) **must be zero** — a nonzero
count means either a rewriting bug or a poisoned plan cache, i.e. a
potential information leak, and should page immediately.

Sampling uses a dedicated seeded ``random.Random`` so canary schedules
are reproducible (``SecurityCanary(0.25, seed=42)`` samples the same
request positions every run) and never perturb global RNG state.

The canary owns its oracle: a small LRU of materialized view trees,
at most :data:`ORACLE_VIEW_CAPACITY`, keyed by the registered policy
object and the document's identity, so N checks on one (policy,
document) build one view.  A re-registered policy name is a new policy
object and gets a fresh view, never its predecessor's.  Evaluating the
query on the view is O(view) per check, so keep ``sample_rate`` small
on hot production paths (e.g. ``0.001``); rate 1.0 is for soak tests
and incident response.  Nothing here runs unless a canary is enabled.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from threading import Lock
from typing import Optional

from repro.obs.events import CanaryEvent

__all__ = [
    "ORACLE_VIEW_CAPACITY",
    "SecurityCanary",
    "oracle_answers",
    "compare_answers",
]

#: Materialized view trees one canary keeps (least recently used
#: first out); each pins its document.
ORACLE_VIEW_CAPACITY = 8


def oracle_answers(query, view_tree) -> Counter:
    """``p(Tv)``: the multiset of serialized answers the materialized
    view yields for ``query`` (elements serialize, text nodes yield
    their value) — the ground truth the served answer must match."""
    from repro.xmlmodel.serialize import serialize
    from repro.xpath.evaluator import XPathEvaluator
    from repro.xpath.parser import parse_xpath

    parsed = parse_xpath(query) if isinstance(query, str) else query
    return Counter(
        serialize(node) if node.is_element else node.value
        for node in XPathEvaluator().evaluate(parsed, view_tree)
    )


def compare_answers(expected: Counter, results) -> tuple:
    """``(missing, extra)`` between the oracle's multiset and a served
    result list (projected element copies or text strings)."""
    from repro.xmlmodel.serialize import serialize

    actual = Counter(
        value if isinstance(value, str) else serialize(value)
        for value in results
    )
    missing = sum((expected - actual).values())
    extra = sum((actual - expected).values())
    return missing, extra


class SecurityCanary:
    """Decides which queries to re-check and runs the oracle
    comparison.  ``checks`` / ``violations`` accumulate totals for the
    lifetime of the canary (also mirrored into the metrics registry by
    the engine); ``view_builds`` counts oracle views materialized."""

    __slots__ = (
        "sample_rate", "checks", "violations", "view_builds", "_rng",
        "_views", "_views_lock",
    )

    def __init__(
        self, sample_rate: float = 1.0, seed: Optional[int] = None
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                "sample_rate must be within [0, 1], got %r" % (sample_rate,)
            )
        self.sample_rate = sample_rate
        self.checks = 0
        self.violations = 0
        self.view_builds = 0
        self._rng = random.Random(seed)
        # (id(policy), id(document)) -> (policy, document, view tree);
        # the strong references keep both ids stable
        self._views: OrderedDict = OrderedDict()
        self._views_lock = Lock()

    def should_sample(self) -> bool:
        """Whether the next answered query gets re-checked.  Rates 0.0
        and 1.0 never touch the RNG, so full-rate soak runs and
        disabled canaries are exactly deterministic."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def oracle_view(self, policy, document):
        """The materialized view of ``document`` under ``policy`` (a
        registered policy: its ``view`` and the ``spec`` it was derived
        from).  Built once per (policy, document) under the canary's
        lock, since checks run on the serving layer's request threads."""
        key = (id(policy), id(document))
        with self._views_lock:
            cached = self._views.get(key)
            if cached is None:
                from repro.core.materialize import materialize

                view_tree = materialize(document, policy.view, policy.spec)
                self.view_builds += 1
                cached = self._views[key] = (policy, document, view_tree)
                if len(self._views) > ORACLE_VIEW_CAPACITY:
                    self._views.popitem(last=False)
            else:
                self._views.move_to_end(key)
        return cached[2]

    def views(self) -> list:
        """``(policy, view tree)`` of every cached oracle view."""
        with self._views_lock:
            return [(policy, tree) for policy, _, tree in self._views.values()]

    def clear_views(self) -> None:
        """Drop every cached oracle view (the engine's ``invalidate``)."""
        with self._views_lock:
            self._views.clear()

    def check(self, policy: str, query, results, view_tree) -> CanaryEvent:
        """Compare a served answer against the oracle evaluated on
        ``view_tree``, the materialized view (see :meth:`oracle_view`)."""
        expected = oracle_answers(query, view_tree)
        missing, extra = compare_answers(expected, results)
        violations = missing + extra
        self.checks += 1
        self.violations += violations
        return CanaryEvent(
            policy=policy,
            query=str(query),
            sample_rate=self.sample_rate,
            expected_count=sum(expected.values()),
            actual_count=len(results),
            missing=missing,
            extra=extra,
            violations=violations,
            ok=violations == 0,
        )

    def __repr__(self):
        return "SecurityCanary(rate=%g, checks=%d, violations=%d)" % (
            self.sample_rate,
            self.checks,
            self.violations,
        )
