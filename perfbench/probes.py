"""Timing probes the launcher installs in the server process for the
traced run.

Each probe wraps the function a layer is entered through and records
a span: layer name, request id, thread, start, end, parent span.  The
wrapper replaces every name the program reaches the function by (the
defining module's attribute, each ``from ... import`` copy in another
``repro`` module, or the class attribute), so no program code changes.
Spans stay in memory; :meth:`Recorder.dump` writes them out once the
server has drained.

Request ids cross threads this way.  The HTTP handler thread takes the
id from the benchmark's ``X-Bench-Request`` header.  ``QueryServer.
submit`` mints the request's trace id the way the server would, and
maps it to the request id.  A worker thread learns the id when
``execute_request`` receives the request.  Spans a worker opens before
that point (``EngineCatalog.resolve``, admission) get the id then.

A probe whose target a later change renames or removes is reported
as absent; the others still run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import monotonic
from typing import List, Optional, Tuple
from uuid import uuid4

#: (layer, target, hook).  A target is ``module:attribute[.attribute]``.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("serving.httpd", "repro.serving.httpd:_Handler.do_POST", "post"),
    ("serving.protocol.decode",
     "repro.serving.protocol:QueryRequest.from_dict", ""),
    ("serving.protocol.encode",
     "repro.serving.protocol:QueryResponse.from_result", ""),
    ("serving.protocol.encode",
     "repro.serving.protocol:QueryResponse.to_dict", ""),
    ("serving.server.query", "repro.serving.server:QueryServer.query", ""),
    ("", "repro.serving.server:QueryServer.submit", "submit"),
    ("serving.server.resolve",
     "repro.serving.server:EngineCatalog.resolve", "group"),
    ("serving.admission.admit",
     "repro.serving.admission:AdmissionController.admit", "admit"),
    ("core.engine",
     "repro.core.engine:SecureQueryEngine.execute_request", "request"),
    ("obs.record", "repro.obs.workload:WorkloadProfiler.record_query", ""),
    ("obs.record", "repro.obs.flight:FlightRecorder.record", ""),
    ("obs.record", "repro.obs.slo:SLOTracker.observe", ""),
    ("obs.record", "repro.obs.events:EventPipeline.emit", ""),
    ("xpath.parser", "repro.xpath.parser:parse_xpath", ""),
    ("core.rewrite", "repro.core.rewrite:Rewriter.rewrite", ""),
    # projected plans rewrite per view target through _rw directly
    ("core.rewrite", "repro.core.rewrite:Rewriter._rw", ""),
    ("core.optimize", "repro.core.optimize:Optimizer.optimize", ""),
    ("xpath.plan.compile", "repro.xpath.plan:compile_path", ""),
    ("xpath.plan.execute", "repro.xpath.plan:CompiledPlan.execute", "visits"),
    ("xmlmodel.store.build", "repro.xmlmodel.store:NodeTable.__init__", ""),
    ("core.materialize", "repro.core.materialize:materialize_subtree", ""),
    ("core.accessibility",
     "repro.core.accessibility:compute_accessibility", ""),
    ("xmlmodel.serialize", "repro.xmlmodel.serialize:serialize", ""),
)

REQUEST_HEADER = "X-Bench-Request"


class _ThreadState(threading.local):
    def __init__(self):
        self.rid: Optional[str] = None
        self.stack: List[list] = []
        self.active: set = set()
        # spans closed before this worker knew its request id
        self.pending: List[list] = []


class Recorder(object):
    """Holds the spans of one server process.

    A span is ``[layer, rid, thread, start, end, parent, extra]``;
    ``parent`` is the enclosing span on the same thread, ``extra`` a
    count the probe read (plan visits, admission rejection)."""

    def __init__(self):
        self.spans: List[list] = []
        self.submits: List[Tuple[str, float]] = []
        self.absent: List[str] = []
        self._trace_rid = {}
        self._state = _ThreadState()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer: str) -> list:
        state = self._state
        span = [
            layer,
            state.rid,
            threading.get_ident(),
            0.0,
            0.0,
            state.stack[-1] if state.stack else None,
            None,
        ]
        state.stack.append(span)
        state.active.add(layer)
        span[3] = monotonic()
        return span

    def _close(self, span: list) -> None:
        span[4] = monotonic()
        state = self._state
        state.stack.pop()
        state.active.discard(span[0])
        if span[1] is None:
            state.pending.append(span)
        self.spans.append(span)

    def _adopt(self, rid: Optional[str]) -> None:
        """This worker now serves ``rid``: label its pending spans."""
        state = self._state
        state.rid = rid
        for span in state.pending:
            span[1] = rid
        state.pending = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, layer: str, hook: str, function):
        recorder = self
        state = self._state

        if hook == "submit":

            @functools.wraps(function)
            def submit(server, request, *args, **kwargs):
                if getattr(request, "trace_id", None) == "":
                    # what QueryServer does itself when tracing is on
                    request = request.with_(trace_id=uuid4().hex)
                trace_id = getattr(request, "trace_id", None)
                recorder._trace_rid[trace_id] = state.rid
                recorder.submits.append((state.rid, monotonic()))
                return function(server, request, *args, **kwargs)

            return submit

        if hook == "admit":

            @functools.wraps(function)
            def admit(*args, **kwargs):
                return _TimedEnter(recorder, layer, function(*args, **kwargs))

            return admit

        @functools.wraps(function)
        def probe(*args, **kwargs):
            if layer in state.active:
                # a layer re-entering itself is one call of that layer
                return function(*args, **kwargs)
            if hook == "post":
                handler = args[0]
                state.rid = handler.headers.get(REQUEST_HEADER)
            elif hook == "group":
                state.rid = None
            elif hook == "request":
                request = args[1] if len(args) > 1 else kwargs.get("request")
                recorder._adopt(
                    recorder._trace_rid.pop(
                        getattr(request, "trace_id", ""), None
                    )
                )
            runtime = None
            if hook == "visits":
                runtime = kwargs.get("runtime")
                if runtime is None and len(args) > 4:
                    runtime = args[4]
                before = getattr(runtime, "visits", None)
            span = recorder._open(layer)
            try:
                return function(*args, **kwargs)
            finally:
                if runtime is not None and before is not None:
                    span[6] = runtime.visits - before
                recorder._close(span)
                if hook == "post":
                    state.rid = None

        return probe

    # -- installation -------------------------------------------------------

    def install(self, probes=PROBES) -> "Recorder":
        for layer, target, hook in probes:
            if not _patch(target, functools.partial(self.wrap, layer, hook)):
                self.absent.append(target)
        return self

    def dump(self) -> dict:
        index = {id(span): number for number, span in enumerate(self.spans)}
        return {
            "event": "spans",
            "absent": self.absent,
            "submits": self.submits,
            "spans": [
                [
                    layer,
                    rid,
                    thread,
                    start,
                    end,
                    index.get(id(parent)) if parent is not None else None,
                    extra,
                ]
                for layer, rid, thread, start, end, parent, extra in self.spans
            ],
        }


class _TimedEnter(object):
    """Times ``__enter__`` of the admission context manager: the wait
    for a tenant slot, and the shedding decision."""

    def __init__(self, recorder: Recorder, layer: str, manager):
        self._recorder = recorder
        self._layer = layer
        self._manager = manager

    def __enter__(self):
        recorder = self._recorder
        recorder._state.rid = None  # a new request starts on this worker
        span = recorder._open(self._layer)
        try:
            value = self._manager.__enter__()
        except BaseException:
            span[6] = 1
            raise
        finally:
            recorder._close(span)
        return value

    def __exit__(self, *exc_info):
        return self._manager.__exit__(*exc_info)


def _patch(target: str, make_wrapper) -> bool:
    """Replace ``target`` everywhere the program reaches it; False when
    the target does not exist."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    *owners, name = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if owners:
        raw = vars(owner).get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, name, type(raw)(make_wrapper(raw.__func__)))
        else:
            setattr(owner, name, make_wrapper(raw))
        return True
    original = getattr(module, name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").partition(".")[0] != "repro":
            continue
        for attribute, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attribute, wrapper)
    return True
