"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the
subsystems: XML parsing, DTD handling, XPath handling, and the
security-view machinery.

Every class carries a stable machine-readable ``code`` (e.g.
``E_LABEL_DENIED``, ``E_PARSE_XPATH``).  Codes are part of the public
contract: they appear in audit :class:`~repro.obs.events.ErrorEvent`
records, select the CLI's exit status, and never change meaning
across releases — match on ``error.code``, not on message text.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""

    #: Stable machine-readable error code (see module docstring).
    code = "E_REPRO"


class XMLError(ReproError):
    """Base class of XML document-model errors."""

    code = "E_XML"


class XMLParseError(XMLError):
    """Raised when an XML document cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    code = "E_PARSE_XML"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (at line %d, column %d)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


class XMLLimitError(XMLParseError):
    """Raised when input hardening rejects a document before (or
    during) parsing: size, nesting depth, or attribute-count limits
    (see :func:`repro.xmlmodel.parser.parse_document`)."""

    code = "E_PARSE_XML_LIMIT"


class DTDError(ReproError):
    """Base class of DTD errors."""

    code = "E_DTD"


class DTDParseError(DTDError):
    """Raised when DTD text cannot be parsed."""

    code = "E_PARSE_DTD"


class DTDLimitError(DTDParseError):
    """Raised when input hardening rejects DTD text: size,
    group-nesting depth, or per-element attribute-count limits (see
    :func:`repro.dtd.parser.parse_dtd`)."""

    code = "E_PARSE_DTD_LIMIT"


class DTDValidationError(DTDError):
    """Raised when a document fails DTD validation (strict mode)."""

    code = "E_DTD_INVALID"


class ContentModelError(DTDError):
    """Raised on malformed or non-normalizable content models."""

    code = "E_CONTENT_MODEL"


class XPathError(ReproError):
    """Base class of XPath errors."""

    code = "E_XPATH"


class XPathSyntaxError(XPathError):
    """Raised when an XPath expression cannot be parsed."""

    code = "E_PARSE_XPATH"

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)
        self.position = position


class XPathEvaluationError(XPathError):
    """Raised when an XPath expression cannot be evaluated."""

    code = "E_XPATH_EVAL"


class SecurityError(ReproError):
    """Base class of access-control errors."""

    code = "E_SECURITY"


class SpecificationError(SecurityError):
    """Raised for malformed access specifications (unknown element
    types, annotations on edges absent from the DTD, missing parameter
    bindings, ...)."""

    code = "E_SPEC"


class ViewDerivationError(SecurityError):
    """Raised when no sound and complete security view exists for a
    specification (Theorem 3.2's *only if* direction), or when the
    derivation encounters an unsupported construct."""

    code = "E_DERIVE"


class MaterializationAborted(SecurityError):
    """Raised when the view-materialization semantics of Section 3.3
    abort (e.g. a concatenation child did not produce exactly one
    accessible node)."""

    code = "E_MATERIALIZE"


class RewriteError(SecurityError):
    """Raised when a view query cannot be rewritten over the document."""

    code = "E_REWRITE"


class QueryRejectedError(SecurityError):
    """Raised by the engine when a user query references structure that
    is not part of their security view (defensive check; the rewriting
    itself would simply produce the empty query).  ``label`` names the
    rejected element."""

    code = "E_LABEL_DENIED"

    def __init__(self, message, label=""):
        super().__init__(message)
        self.label = label


class ResourceError(ReproError):
    """Base class of resource-governor errors: a query exceeded one of
    its :class:`~repro.robustness.governor.QueryLimits` and was
    cooperatively cancelled (see ``docs/robustness.md``)."""

    code = "E_RESOURCE"


class DeadlineExceeded(ResourceError):
    """Raised (cooperatively, at batch granularity) when a query runs
    past its wall-clock deadline."""

    code = "E_DEADLINE"

    def __init__(self, message, deadline_seconds=None, elapsed_seconds=None):
        super().__init__(message)
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds


class BudgetExceeded(ResourceError):
    """Raised when a query exceeds a work budget: result rows, node
    visits, or frontier/intermediate rows.  ``dimension`` names the
    exhausted budget (``"results"``, ``"visits"``, ``"frontier"``, or
    ``"cancelled"``)."""

    code = "E_BUDGET"

    def __init__(self, message, dimension="", spent=None, limit=None):
        super().__init__(message)
        self.dimension = dimension
        self.spent = spent
        self.limit = limit


class AdmissionRejected(ResourceError):
    """Raised by the serving layer's per-tenant admission controller
    when a request cannot even be queued: the tenant's concurrency
    slots are all busy *and* its waiting line is already at
    ``max_queue_depth``.  Distinct from ``E_DEADLINE`` (which a queued
    request gets when its queue deadline lapses before a slot frees
    up): a rejection is immediate back-pressure, the signal to retry
    elsewhere or later (see ``docs/serving.md``).

    ``retry_after_seconds``, when set, is the server's hint for when a
    retry has a chance (surfaced as the HTTP ``Retry-After`` header).
    """

    code = "E_ADMISSION"

    def __init__(
        self,
        message,
        tenant="",
        queue_depth=None,
        limit=None,
        retry_after_seconds=None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.limit = limit
        self.retry_after_seconds = retry_after_seconds


class RequestShed(ResourceError):
    """Raised by priority load shedding: the serving layer is
    overloaded (queue-wait utilization past the shedding threshold for
    this request's criticality class) and dropped the request *before*
    queueing it, preserving capacity for more critical traffic.

    Distinct from :class:`AdmissionRejected` (a per-tenant bound was
    hit) — shedding is a server-wide overload response ordered by
    criticality: ``sheddable`` goes first, ``default`` only under
    severe overload, ``critical`` never (it is only ever bounded by
    the hard per-tenant queue limits).  See ``docs/serving.md``.
    """

    code = "E_SHED"

    def __init__(
        self,
        message,
        tenant="",
        criticality="",
        utilization=None,
        retry_after_seconds=None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.criticality = criticality
        self.utilization = utilization
        self.retry_after_seconds = retry_after_seconds


class FaultInjected(ReproError):
    """Raised by the fault-injection harness
    (:mod:`repro.robustness.faults`) at an instrumented seam.  Never
    raised in production — it exists so chaos tests can distinguish an
    injected fault from a genuine bug."""

    code = "E_FAULT"


def error_code(error: BaseException) -> str:
    """The stable code of any exception (``E_UNKNOWN`` for exceptions
    from outside this hierarchy)."""
    return getattr(error, "code", "E_UNKNOWN")
