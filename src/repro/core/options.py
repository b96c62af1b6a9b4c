"""Execution options for :meth:`repro.core.engine.SecureQueryEngine.query`.

Historically ``query()`` grew a flag per feature (``trace``,
``use_cache``, ...); :class:`ExecutionOptions`
collapses them into one immutable value object so call sites read as
intent (``ExecutionOptions(trace=True)``) and new knobs
do not widen the method signature.  The 1.x per-call boolean keywords
were removed in 2.0 — ``options=ExecutionOptions(...)`` is the only
spelling (see the migration note in ``docs/api.md``).  There is no
option to skip projection or the optimizer, and no second execution
path: every query is rewritten, runs as compiled plans over the
document's columnar :class:`~repro.xmlmodel.store.NodeTable`, and
every answer is projected through the view (7.0, 9.0).

``to_dict``/``from_dict`` give the options a versioned wire shape so
a serialized :class:`~repro.serving.protocol.QueryRequest` can carry
its execution knobs across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class ExecutionOptions:
    """How one query should be executed.

    ``use_cache``
        Serve parse/rewrite/optimize/compile results from the engine's
        plan cache.  With ``False`` the cache is neither consulted nor
        primed: the query compiles afresh and runs the same plan path.
    ``trace``
        Collect per-operator execution stats (rows in/out, chosen
        kernels, qualifier short-circuits) into an EXPLAIN ANALYZE
        profile exposed as ``QueryResult.report.profile`` (see
        ``docs/observability.md``).  Off by default; tracing adds
        bookkeeping proportional to operator invocations, so leave it
        off on the serving hot path.
    ``slow_query_threshold``
        Engine latency (seconds) above which a query counts as
        *slow*: its :class:`~repro.obs.record.QueryRecord` (and so its
        audit ``QueryEvent``) is flagged ``slow`` and carries the
        rendered EXPLAIN ANALYZE
        profile, so outliers arrive pre-diagnosed (see
        ``docs/audit.md``).  Setting a threshold attaches a profile
        collector to every plan-path execution (the same bookkeeping
        cost as ``trace=True``), so the report's ``profile`` is
        populated too.  ``None`` (default) disables the slow-query
        log.
    ``limits``
        A :class:`~repro.robustness.governor.QueryLimits` value: a
        wall-clock deadline and/or work budgets (result rows, node
        visits, frontier rows) enforced cooperatively through every
        execution layer, raising typed ``E_DEADLINE`` / ``E_BUDGET``
        errors (see ``docs/robustness.md``).  ``None`` (default) runs
        ungoverned at zero overhead.  Limits are execution-time state
        — they are deliberately *not* part of the plan-cache key, so
        governed and ungoverned runs share compiled plans.
    """

    use_cache: bool = True
    trace: bool = False
    slow_query_threshold: Optional[float] = None
    limits: Optional["QueryLimits"] = None

    def __post_init__(self):
        threshold = self.slow_query_threshold
        if threshold is not None and (
            not isinstance(threshold, (int, float)) or threshold < 0
        ):
            from repro.errors import SecurityError

            raise SecurityError(
                "slow_query_threshold must be a non-negative number of "
                "seconds (or None), got %r" % (threshold,)
            )
        if self.limits is not None:
            from repro.robustness.governor import QueryLimits

            if not isinstance(self.limits, QueryLimits):
                from repro.errors import SecurityError

                raise SecurityError(
                    "limits must be a QueryLimits (or None), got %r"
                    % (self.limits,)
                )

    def with_(self, **changes) -> "ExecutionOptions":
        """A copy with some fields replaced."""
        return replace(self, **changes)

    # -- wire shape (see repro.serving.protocol) -----------------------

    def to_dict(self) -> dict:
        """JSON-safe export: plain scalars plus the nested ``limits``
        dict (``None`` when ungoverned)."""
        return {
            "use_cache": self.use_cache,
            "trace": self.trace,
            "slow_query_threshold": self.slow_query_threshold,
            "limits": self.limits.to_dict() if self.limits else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionOptions":
        """Inverse of :meth:`to_dict`; missing keys take the engine
        defaults, unknown keys are ignored (forward compatibility, and
        retired keys such as 6.x's ``optimize`` and ``project`` and
        the 8.x execution-path selector)."""
        from repro.robustness.governor import QueryLimits

        limits = payload.get("limits")
        return cls(
            use_cache=payload.get("use_cache", True),
            trace=payload.get("trace", False),
            slow_query_threshold=payload.get("slow_query_threshold"),
            limits=QueryLimits.from_dict(limits) if limits else None,
        )


#: The engine's defaults, shared so callers can derive from them.
DEFAULT_OPTIONS = ExecutionOptions()
