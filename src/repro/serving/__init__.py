"""The concurrent multi-tenant serving layer.

The package stacks four small pieces over the (now thread-safe)
engine — see ``docs/serving.md``:

* :mod:`repro.serving.protocol` — the frozen
  :class:`~repro.serving.protocol.QueryRequest` /
  :class:`~repro.serving.protocol.QueryResponse` wire shapes;
* :mod:`repro.serving.admission` — per-tenant concurrency slots and
  bounded queues (``E_ADMISSION`` / queue-deadline ``E_DEADLINE``)
  plus priority load shedding (``E_SHED``);
* :mod:`repro.serving.resilience` — the overload survival layer:
  criticality classes, the utilization
  :class:`~repro.serving.resilience.OverloadDetector`, and
  per-tenant client retry budgets;
* :mod:`repro.serving.server` — the thread-pool
  :class:`~repro.serving.server.QueryServer` answering one request per
  engine call over :class:`~repro.serving.server.EngineCatalog`;
* :mod:`repro.serving.replay` — the mixed-tenant hospital+Adex replay
  harness behind ``repro replay`` and the serving canary soak;
* :mod:`repro.serving.httpd` — the stdlib HTTP front end behind
  ``repro serve``.
"""

from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.protocol import PROTOCOL_VERSION, QueryRequest, QueryResponse
from repro.serving.replay import mixed_workload, replay, standard_catalog
from repro.serving.resilience import (
    CRITICAL,
    CRITICALITIES,
    DEFAULT,
    SHEDDABLE,
    OverloadDetector,
    RetryBudget,
)
from repro.serving.server import EngineCatalog, QueryServer

__all__ = [
    "PROTOCOL_VERSION",
    "QueryRequest",
    "QueryResponse",
    "AdmissionController",
    "TenantPolicy",
    "EngineCatalog",
    "QueryServer",
    "standard_catalog",
    "mixed_workload",
    "replay",
    "CRITICAL",
    "DEFAULT",
    "SHEDDABLE",
    "CRITICALITIES",
    "OverloadDetector",
    "RetryBudget",
]
