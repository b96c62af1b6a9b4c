"""repro.robustness — the layer that keeps the engine up.

Two cooperating pieces (see ``docs/robustness.md``):

* :mod:`repro.robustness.governor` — :class:`QueryLimits` /
  :class:`Budget`: per-query deadlines and work budgets enforced
  cooperatively through every execution layer, raising typed
  ``E_DEADLINE`` / ``E_BUDGET`` errors;
* :mod:`repro.robustness.faults` — :class:`FaultPlan` /
  :class:`FaultSpec` / :class:`FaultySink`: deterministic fault
  injection at the materialize, serving and sink seams, driving the
  chaos suite that proves every injected fault yields a correct
  answer or a typed error — never a hang or a wrong answer.
"""

from repro.robustness.faults import (
    SITES,
    FaultPlan,
    FaultSpec,
    FaultySink,
    active_plan,
    install,
    trip,
    uninstall,
)
from repro.robustness.governor import (
    NO_LIMITS,
    TICK_STRIDE,
    Budget,
    QueryLimits,
)

__all__ = [
    "QueryLimits",
    "Budget",
    "NO_LIMITS",
    "TICK_STRIDE",
    "FaultPlan",
    "FaultSpec",
    "FaultySink",
    "SITES",
    "install",
    "uninstall",
    "active_plan",
    "trip",
]
