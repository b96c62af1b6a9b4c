"""repro — Secure XML Querying with Security Views.

A from-scratch reproduction of Fan, Chan & Garofalakis, *Secure XML
Querying with Security Views* (SIGMOD 2004): a DTD-based XML
access-control model in which each user class receives a *security
view* — a view DTD exposing exactly the structure it may see — and
queries over that view are rewritten (never materialized) into
equivalent, optimized queries over the original document.

Quickstart::

    from repro import (
        parse_dtd, AccessSpec, SecureQueryEngine, DocumentGenerator,
        ExecutionOptions,
    )

    dtd = parse_dtd(open("hospital.dtd").read())
    spec = (
        AccessSpec(dtd, name="nurse")
        .annotate("dept", "clinicalTrial", "N")
    )
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", spec)
    print(engine.view_dtd_text("nurse"))        # what the nurse sees
    document = DocumentGenerator(dtd, seed=1).generate()
    result = engine.query("nurse", "//patient/name", document)
    print(result.report.summary())              # stages, cache, timings
    traced = ExecutionOptions(trace=True)       # per-operator stats
    result = engine.query("nurse", "//patient/name", document, options=traced)
    print(result.report.profile.render())       # EXPLAIN ANALYZE tree

The subpackages are usable on their own:

* :mod:`repro.xmlmodel` — XML tree model, parser, serializer;
* :mod:`repro.dtd` — DTD model, parser, validator, normalizer, and a
  random document generator;
* :mod:`repro.xpath` — the paper's XPath fragment ``C``: AST, parser,
  set-semantics evaluator;
* :mod:`repro.core` — the paper's algorithms (``derive``, ``rewrite``,
  ``optimize``, materialization, the naive baseline, the engine);
* :mod:`repro.workloads` — the hospital running example, the
  reconstructed Adex workload of Section 6, and dataset generation;
* :mod:`repro.obs` — zero-dependency observability: span tracing,
  process-wide metrics, per-operator EXPLAIN ANALYZE profiles, audit
  events with bounded sinks, the :class:`AuditLog` query API,
  Prometheus export, and the sampled :class:`SecurityCanary` (see
  ``docs/observability.md`` and ``docs/audit.md``);
* :mod:`repro.robustness` — the resource governor
  (:class:`QueryLimits` deadlines/budgets with cooperative
  cancellation) and the deterministic fault-injection harness
  (:class:`FaultPlan`) — see ``docs/robustness.md``;
* :mod:`repro.serving` — the concurrent multi-tenant serving layer:
  the frozen :class:`QueryRequest` / :class:`QueryResponse` protocol,
  per-tenant admission control, and the :class:`QueryServer`, which
  answers each request on its caller's thread — see
  ``docs/serving.md``.

Facade imports are **lazy** (PEP 562): ``import repro`` loads only
this module; each exported name pulls in its subpackage on first
attribute access, so programs that touch only the parsing layer never
pay for observability, robustness, or serving imports.
"""

from typing import TYPE_CHECKING

__version__ = "10.0.0"

#: Exported name → defining submodule.  The single source of truth for
#: both ``__getattr__`` and ``__all__``.
_EXPORTS = {
    # errors
    "ReproError": "repro.errors",
    "XMLParseError": "repro.errors",
    "DTDError": "repro.errors",
    "DTDParseError": "repro.errors",
    "DTDValidationError": "repro.errors",
    "XPathSyntaxError": "repro.errors",
    "XPathEvaluationError": "repro.errors",
    "SecurityError": "repro.errors",
    "SpecificationError": "repro.errors",
    "ViewDerivationError": "repro.errors",
    "MaterializationAborted": "repro.errors",
    "RewriteError": "repro.errors",
    "QueryRejectedError": "repro.errors",
    "XMLLimitError": "repro.errors",
    "DTDLimitError": "repro.errors",
    "ResourceError": "repro.errors",
    "DeadlineExceeded": "repro.errors",
    "BudgetExceeded": "repro.errors",
    "AdmissionRejected": "repro.errors",
    "FaultInjected": "repro.errors",
    "error_code": "repro.errors",
    # xml
    "XMLElement": "repro.xmlmodel",
    "XMLText": "repro.xmlmodel",
    "new_document": "repro.xmlmodel",
    "parse_document": "repro.xmlmodel",
    "serialize": "repro.xmlmodel",
    "pretty_print": "repro.xmlmodel",
    "NodeTable": "repro.xmlmodel",
    "build_node_table": "repro.xmlmodel",
    # dtd
    "DTD": "repro.dtd",
    "parse_dtd": "repro.dtd",
    "normalize_dtd": "repro.dtd",
    "validate": "repro.dtd",
    "conforms": "repro.dtd",
    "DocumentGenerator": "repro.dtd",
    # xpath
    "parse_xpath": "repro.xpath",
    "parse_qualifier": "repro.xpath",
    "evaluate": "repro.xpath",
    "XPathEvaluator": "repro.xpath",
    "CompiledPlan": "repro.xpath",
    "PlanRuntime": "repro.xpath",
    "compile_path": "repro.xpath",
    "Fingerprint": "repro.xpath",
    "query_fingerprint": "repro.xpath",
    # core
    "AccessSpec": "repro.core",
    "ANN_Y": "repro.core",
    "ANN_N": "repro.core",
    "SecurityView": "repro.core",
    "derive": "repro.core",
    "derive_view": "repro.core",
    "materialize": "repro.core",
    "Rewriter": "repro.core",
    "rewrite": "repro.core",
    "unfold_view": "repro.core",
    "Optimizer": "repro.core",
    "optimize": "repro.core",
    "naive_rewrite": "repro.core",
    "annotate_document": "repro.core",
    "accessible_nodes": "repro.core",
    "SecureQueryEngine": "repro.core",
    "ExecutionOptions": "repro.core",
    "QueryReport": "repro.core",
    "QueryResult": "repro.core",
    "PlanCache": "repro.core",
    "PlanCacheStats": "repro.core",
    "verify_policy": "repro.core",
    "save_view": "repro.core",
    "load_view": "repro.core",
    # observability
    "Tracer": "repro.obs",
    "Span": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "metrics_registry": "repro.obs",
    "enable_metrics": "repro.obs",
    "disable_metrics": "repro.obs",
    "metrics_enabled": "repro.obs",
    "ProfileCollector": "repro.obs",
    "ExplainProfile": "repro.obs",
    # audit events / canary (see docs/audit.md)
    "Event": "repro.obs",
    "QueryEvent": "repro.obs",
    "DenialEvent": "repro.obs",
    "PolicyEvent": "repro.obs",
    "ErrorEvent": "repro.obs",
    "CanaryEvent": "repro.obs",
    "event_from_dict": "repro.obs",
    "read_jsonl": "repro.obs",
    "EventSink": "repro.obs",
    "EventPipeline": "repro.obs",
    "RingBufferSink": "repro.obs",
    "JsonlFileSink": "repro.obs",
    "CallbackSink": "repro.obs",
    "AuditLog": "repro.obs",
    "SecurityCanary": "repro.obs",
    "prometheus_text": "repro.obs",
    "WorkloadProfiler": "repro.obs",
    # robustness (see docs/robustness.md)
    "QueryLimits": "repro.robustness",
    "Budget": "repro.robustness",
    "NO_LIMITS": "repro.robustness",
    "FaultPlan": "repro.robustness",
    "FaultSpec": "repro.robustness",
    "FaultySink": "repro.robustness",
    # serving (see docs/serving.md)
    "PROTOCOL_VERSION": "repro.serving",
    "QueryRequest": "repro.serving",
    "QueryResponse": "repro.serving",
    "AdmissionController": "repro.serving",
    "TenantPolicy": "repro.serving",
    "EngineCatalog": "repro.serving",
    "QueryServer": "repro.serving",
    "standard_catalog": "repro.serving",
    "mixed_workload": "repro.serving",
    "replay": "repro.serving",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """PEP 562 lazy export: resolve ``name`` from its submodule on
    first access and cache it in the module globals so subsequent
    lookups are ordinary attribute hits."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    from importlib import import_module

    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core import (  # noqa: F401
        AccessSpec,
        ExecutionOptions,
        QueryResult,
        SecureQueryEngine,
    )
    from repro.serving import QueryRequest, QueryResponse  # noqa: F401
