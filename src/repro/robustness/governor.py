"""Query limits and the cooperative budget/cancellation token.

A :class:`QueryLimits` value declares what one query may spend — wall
clock, result rows, node visits, frontier rows; a :class:`Budget` is
the *live* token minted from it at query start and threaded through
the execution layers (:mod:`repro.xpath.plan` batch kernels,
:mod:`repro.xpath.evaluator`, :mod:`repro.core.materialize`).

Enforcement is **cooperative**: nothing is interrupted from outside.
Operators call :meth:`Budget.checkpoint` once per batch (mirroring the
``rt.profile is not None`` guard idiom, so a query without limits pays
exactly one attribute check per operator invocation), and the two
genuinely unbounded loops — the object-tree descendant walk and the
columnar interval scan — call :meth:`Budget.tick` per node, which
checks the wall clock every :data:`TICK_STRIDE` nodes.  On pure-Python
node costs that bounds deadline overshoot to well under a millisecond,
which is what lets a 50 ms deadline terminate in a small multiple of
itself even against the largest benchmark documents.

Violations raise the typed errors of :mod:`repro.errors` —
:class:`~repro.errors.DeadlineExceeded` (``E_DEADLINE``) and
:class:`~repro.errors.BudgetExceeded` (``E_BUDGET``) — which the
engine surfaces as audit :class:`~repro.obs.events.ErrorEvent` records
and the CLI maps to dedicated exit codes.  Each raise also bumps a
``governor.*`` metrics counter (free unless metrics are enabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Optional

from repro.errors import BudgetExceeded, DeadlineExceeded, SecurityError
from repro.obs.metrics import record as _metric_record

__all__ = ["QueryLimits", "Budget", "NO_LIMITS", "TICK_STRIDE"]

#: How many :meth:`Budget.tick` calls elapse between wall-clock checks
#: inside per-node loops.  256 nodes of pure-Python tree walking cost
#: on the order of 100 microseconds, so deadline overshoot from the
#: stride is negligible against any realistic deadline.
TICK_STRIDE = 256


def _positive(name: str, value, integer: bool) -> None:
    if value is None:
        return
    kinds = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or value <= 0:
        raise SecurityError(
            "%s must be a positive %s (or None), got %r"
            % (name, "integer" if integer else "number", value)
        )


@dataclass(frozen=True)
class QueryLimits:
    """What one query may spend.  All fields default to ``None``
    (unlimited); any combination may be set.

    ``deadline_seconds``
        Wall-clock budget for the whole query (parse through
        projection), checked cooperatively at batch granularity plus a
        strided per-node check inside unbounded walks.
    ``max_results``
        Upper bound on returned result rows.
    ``max_visits``
        Upper bound on the engine's node-visit work counter (the
        machine-independent work measure the benchmarks report).
    ``max_frontier_rows``
        Upper bound on any single operator's output frontier — caps
        intermediate blow-up (e.g. a ``//*//*`` cross product) before
        it caps the final answer.
    """

    deadline_seconds: Optional[float] = None
    max_results: Optional[int] = None
    max_visits: Optional[int] = None
    max_frontier_rows: Optional[int] = None

    def __post_init__(self):
        _positive("deadline_seconds", self.deadline_seconds, integer=False)
        _positive("max_results", self.max_results, integer=True)
        _positive("max_visits", self.max_visits, integer=True)
        _positive("max_frontier_rows", self.max_frontier_rows, integer=True)

    @property
    def unlimited(self) -> bool:
        """Whether every limit is ``None`` (a no-op budget)."""
        return (
            self.deadline_seconds is None
            and self.max_results is None
            and self.max_visits is None
            and self.max_frontier_rows is None
        )

    def budget(self, clock=perf_counter) -> "Budget":
        """Mint the live token for one query execution."""
        return Budget(self, clock=clock)

    # -- wire shape (see repro.serving.protocol) -----------------------

    def to_dict(self) -> dict:
        """JSON-safe export (the ``limits`` field of a serialized
        :class:`~repro.serving.protocol.QueryRequest`)."""
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_results": self.max_results,
            "max_visits": self.max_visits,
            "max_frontier_rows": self.max_frontier_rows,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryLimits":
        """Inverse of :meth:`to_dict`; missing keys default to
        unlimited, unknown keys are ignored (forward compatibility)."""
        return cls(
            deadline_seconds=payload.get("deadline_seconds"),
            max_results=payload.get("max_results"),
            max_visits=payload.get("max_visits"),
            max_frontier_rows=payload.get("max_frontier_rows"),
        )


#: A limits value with every bound disabled.
NO_LIMITS = QueryLimits()


class Budget:
    """The live cooperative token of one query execution.

    A budget is mint-once, thread-through: the engine creates it from
    ``ExecutionOptions.limits`` at query start and every execution
    layer checks the *same* token, so the deadline covers the whole
    pipeline, not one stage.  It is also a cancellation token:
    :meth:`cancel` makes the next checkpoint raise
    :class:`~repro.errors.BudgetExceeded` (dimension ``"cancelled"``),
    which is how a caller aborts an in-flight query from another
    thread without any interruption machinery.
    """

    __slots__ = ("limits", "started_at", "deadline_at", "_clock", "_ticks",
                 "cancelled", "cancel_reason")

    def __init__(self, limits: QueryLimits, clock=perf_counter):
        self.limits = limits
        self._clock = clock
        self.started_at = clock()
        self.deadline_at = (
            self.started_at + limits.deadline_seconds
            if limits.deadline_seconds is not None
            else None
        )
        self._ticks = 0
        self.cancelled = False
        self.cancel_reason = ""

    # -- introspection -------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the budget was minted."""
        return self._clock() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one; may be
        negative once overdue)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - self._clock()

    # -- cancellation --------------------------------------------------

    def cancel(self, reason: str = "") -> None:
        """Request cooperative cancellation: the next checkpoint (on
        whatever thread is executing the query) raises."""
        self.cancel_reason = reason
        self.cancelled = True

    # -- checks --------------------------------------------------------

    def checkpoint(self, visits: int = 0, frontier: int = 0) -> None:
        """One batch-granularity check: cancellation, frontier and
        visit budgets against the passed counters, then the wall
        clock.  Raises the matching typed error on violation."""
        if self.cancelled:
            self._raise_budget(
                "query cancelled%s"
                % (": " + self.cancel_reason if self.cancel_reason else ""),
                "cancelled", 0, 0,
            )
        limits = self.limits
        bound = limits.max_frontier_rows
        if bound is not None and frontier > bound:
            self._raise_budget(
                "frontier of %d rows exceeds max_frontier_rows=%d"
                % (frontier, bound),
                "frontier", frontier, bound,
            )
        self.charge_visits(visits)
        deadline_at = self.deadline_at
        if deadline_at is not None and self._clock() > deadline_at:
            self._raise_deadline()

    def tick(self) -> None:
        """Per-node strided check for unbounded loops: every
        :data:`TICK_STRIDE` calls runs a full :meth:`checkpoint` (with
        no counters — the enclosing batch reports those)."""
        ticks = self._ticks + 1
        self._ticks = ticks
        if not ticks % TICK_STRIDE:
            self.checkpoint()

    def charge_visits(self, count: int) -> None:
        """Enforce ``max_visits`` against the node visits made so far
        (no clock read: also the exact check at the end of a unit of
        work whose last visits no batch checkpoint saw)."""
        bound = self.limits.max_visits
        if bound is not None and count > bound:
            self._raise_budget(
                "%d node visits exceed max_visits=%d" % (count, bound),
                "visits", count, bound,
            )

    def charge_results(self, count: int) -> None:
        """Enforce ``max_results`` against the result rows produced so
        far (call incrementally for early termination)."""
        bound = self.limits.max_results
        if bound is not None and count > bound:
            self._raise_budget(
                "%d result rows exceed max_results=%d" % (count, bound),
                "results", count, bound,
            )

    def sleep(self, seconds: float) -> None:
        """Deadline-aware sleep (used by latency fault injection): naps
        in checkpointed slices so an injected stall still honours the
        deadline instead of turning into a hang."""
        end = self._clock() + seconds
        while True:
            self.checkpoint()
            left = end - self._clock()
            if left <= 0:
                return
            sleep(min(left, 0.01))

    # -- raise helpers -------------------------------------------------

    def _raise_deadline(self):
        elapsed = self.elapsed()
        _metric_record("governor.deadline_exceeded")
        raise DeadlineExceeded(
            "query exceeded its %.1f ms deadline (%.1f ms elapsed)"
            % (self.limits.deadline_seconds * 1e3, elapsed * 1e3),
            deadline_seconds=self.limits.deadline_seconds,
            elapsed_seconds=elapsed,
        )

    def _raise_budget(self, message, dimension, spent, limit):
        _metric_record("governor.budget_exceeded")
        _metric_record("governor.budget_exceeded.%s" % dimension)
        raise BudgetExceeded(
            message, dimension=dimension, spent=spent, limit=limit
        )

    def __repr__(self):
        return "Budget(%r, elapsed=%.3fs, cancelled=%r)" % (
            self.limits, self.elapsed(), self.cancelled
        )
