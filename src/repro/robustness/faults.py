"""Deterministic fault injection at the engine's architectural seams.

A :class:`FaultPlan` is a set of :class:`FaultSpec` triggers installed
process-wide (``with plan:`` or :func:`install`/:func:`uninstall`).
Instrumented seams call :func:`trip` with their site name; when a plan
is active and one of its specs matches the site and its deterministic
trigger fires, the spec's effect happens — an exception
(:class:`~repro.errors.FaultInjected` by default) or injected latency.
With no plan installed, :func:`trip` costs one global load and one
``is None`` check.

Instrumented sites (see ``docs/robustness.md`` for the full table):

* ``materialize`` — view (subtree) materialization;
* ``admission.admit`` — the serving layer's admission gate;
* ``serving.resolve`` — catalog document-ref resolution;
* ``serving.execute`` — execution of one admitted request;
* ``httpd.write`` — the HTTP front end writing a response body.

The sink seam needs no ``trip`` call: :class:`FaultySink` *is* the
fault — attach it to an engine and every ``emit`` raises, proving the
event pipeline's per-sink guard holds.

Triggers are deterministic so chaos runs replay exactly: ``at=N``
fires on the Nth call to the site (1-based), ``every=N`` on every Nth,
``rate=p`` flips a dedicated ``random.Random(seed)`` per spec (seeded,
hence reproducible).  Per-site call counters live on the plan; call
:meth:`FaultPlan.reset` to replay.
"""

from __future__ import annotations

import time
from random import Random
from typing import Dict, List, Optional

from repro.errors import FaultInjected
from repro.obs.events import Event, EventSink

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultySink",
    "install",
    "uninstall",
    "active_plan",
    "trip",
    "SITES",
]

#: The instrumented seam names; :class:`FaultSpec` rejects any other.
SITES = (
    "materialize",
    "admission.admit",
    "serving.resolve",
    "serving.execute",
    "httpd.write",
)

#: Supported effects.
KIND_RAISE = "raise"
KIND_LATENCY = "latency"


class FaultSpec:
    """One trigger: *where* (``site``), *when* (``at`` / ``every`` /
    ``rate`` — default ``at=1``, i.e. the first call), and *what*
    (``kind="raise"`` with an optional ``error``, or
    ``kind="latency"`` with ``latency_seconds``).  ``site`` must be
    one of :data:`SITES`: a spec on an uninstrumented name would never
    fire."""

    __slots__ = (
        "site", "kind", "at", "every", "rate", "seed",
        "latency_seconds", "error", "_rng", "fired",
    )

    def __init__(
        self,
        site: str,
        kind: str = KIND_RAISE,
        at: Optional[int] = None,
        every: Optional[int] = None,
        rate: Optional[float] = None,
        seed: int = 0,
        latency_seconds: float = 0.05,
        error: Optional[BaseException] = None,
    ):
        if site not in SITES:
            raise ValueError(
                "unknown fault site %r (instrumented: %s)"
                % (site, ", ".join(SITES))
            )
        if kind not in (KIND_RAISE, KIND_LATENCY):
            raise ValueError("unknown fault kind %r" % kind)
        if sum(x is not None for x in (at, every, rate)) > 1:
            raise ValueError("pick one trigger: at=, every=, or rate=")
        if at is None and every is None and rate is None:
            at = 1
        self.site = site
        self.kind = kind
        self.at = at
        self.every = every
        self.rate = rate
        self.seed = seed
        self.latency_seconds = latency_seconds
        self.error = error
        self._rng = Random(seed) if rate is not None else None
        #: Times this spec's effect actually happened.
        self.fired = 0

    def triggered(self, call_index: int) -> bool:
        """Whether the effect fires on the ``call_index``-th (1-based)
        call to this spec's site."""
        if self.at is not None:
            return call_index == self.at
        if self.every is not None:
            return call_index % self.every == 0
        return self._rng.random() < self.rate

    def fire(self) -> None:
        self.fired += 1
        if self.kind == KIND_LATENCY:
            time.sleep(self.latency_seconds)
            return
        if self.error is not None:
            raise self.error
        raise FaultInjected(
            "injected fault at %r (call #%d of this plan)"
            % (self.site, self.fired)
        )

    def reset(self) -> None:
        self.fired = 0
        if self.rate is not None:
            self._rng = Random(self.seed)

    def __repr__(self):
        trigger = (
            "at=%d" % self.at if self.at is not None
            else "every=%d" % self.every if self.every is not None
            else "rate=%g seed=%d" % (self.rate, self.seed)
        )
        return "FaultSpec(%r, %s, %s, fired=%d)" % (
            self.site, self.kind, trigger, self.fired
        )


class FaultPlan:
    """A named set of fault specs plus the per-site call counters that
    drive their deterministic triggers.  Use as a context manager to
    install/uninstall around a block:

        with FaultPlan(FaultSpec("materialize", at=1)):
            engine.query(...)   # first view projection raises
    """

    __slots__ = ("name", "specs", "_calls")

    def __init__(self, *specs: FaultSpec, name: str = ""):
        self.name = name
        self.specs: List[FaultSpec] = list(specs)
        self._calls: Dict[str, int] = {}

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def calls(self, site: str) -> int:
        """How many times ``site`` has tripped under this plan."""
        return self._calls.get(site, 0)

    def fired(self) -> int:
        """Total effects that actually happened across all specs."""
        return sum(spec.fired for spec in self.specs)

    def fire(self, site: str) -> None:
        """Called by :func:`trip`: count the call, fire matching
        specs.  A raising spec propagates immediately (later specs on
        the same call do not run — one fault per call)."""
        count = self._calls.get(site, 0) + 1
        self._calls[site] = count
        for spec in self.specs:
            if spec.site == site and spec.triggered(count):
                spec.fire()

    def reset(self) -> None:
        """Rewind counters and RNGs so the plan replays identically."""
        self._calls.clear()
        for spec in self.specs:
            spec.reset()

    def __enter__(self) -> "FaultPlan":
        install(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        uninstall()
        return False

    def __repr__(self):
        return "FaultPlan(%r, specs=%d, fired=%d)" % (
            self.name, len(self.specs), self.fired()
        )


# -- installation -----------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Remove the active plan (no-op when none is installed)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def trip(site: str) -> None:
    """The seam hook: near-free when no plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site)


# -- the sink seam ----------------------------------------------------


class FaultySink(EventSink):
    """An audit sink that fails on purpose: raises on every ``emit``
    after the first ``after`` events succeed.  Attach it to an engine
    to prove the :class:`~repro.obs.events.EventPipeline` per-sink
    guard — queries must answer identically while the pipeline's
    ``dropped`` counter climbs."""

    __slots__ = ("after", "emitted", "raised", "error")

    def __init__(self, after: int = 0, error: Optional[BaseException] = None):
        self.after = after
        self.emitted = 0
        self.raised = 0
        self.error = error

    def emit(self, event: Event) -> None:
        if self.emitted >= self.after:
            self.raised += 1
            raise (
                self.error
                if self.error is not None
                else FaultInjected("injected sink failure")
            )
        self.emitted += 1
