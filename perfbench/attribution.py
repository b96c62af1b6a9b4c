"""Per-layer numbers from the traced run's spans.

Every ``.ms`` number is self time per measured request: a span's
duration minus the spans it encloses.  The request's client round trip
is the root.  On the server the HTTP handler thread's spans are its
children, and a worker thread's top-level spans (group resolve,
admission, the engine call, the records made after it) are children of
the handler's ``QueryServer.query`` span.  Queue wait is the time from
``submit`` to the engine call minus the worker spans inside it.  So
the layers' self times of a request add up to its round trip, and a
layer's share of server time is its total over the summed round trips.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

#: Per-layer timing metrics: name -> span layers whose self time it sums.
TIME_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serving.httpd.self_ms", ("serving.httpd",)),
    ("serving.protocol.decode_ms", ("serving.protocol.decode",)),
    ("serving.protocol.encode_ms", ("serving.protocol.encode",)),
    ("serving.server.queue_wait_ms", ("serving.server.queue_wait",)),
    ("serving.server.self_ms",
     ("serving.server.query", "serving.server.resolve")),
    ("serving.admission.admit_ms", ("serving.admission.admit",)),
    ("core.engine.self_ms", ("core.engine",)),
    ("obs.record_ms", ("obs.record",)),
    ("xpath.parser.ms", ("xpath.parser",)),
    ("core.rewrite.ms", ("core.rewrite",)),
    ("core.optimize.ms", ("core.optimize",)),
    ("xpath.plan.compile_ms", ("xpath.plan.compile",)),
    ("xpath.plan.execute_ms", ("xpath.plan.execute",)),
    ("core.materialize.ms", ("core.materialize",)),
    ("core.accessibility.ms", ("core.accessibility",)),
    ("xmlmodel.serialize.ms", ("xmlmodel.serialize",)),
)

#: Layer groups the acceptance checks compare by share of server time.
GROUPS = {
    "compile": ("xpath.parser.ms", "core.rewrite.ms", "core.optimize.ms",
                "xpath.plan.compile_ms"),
    "evaluate": ("xpath.plan.execute_ms",),
    "project": ("core.materialize.ms", "core.accessibility.ms"),
}

LAYER, RID, THREAD, START, END, PARENT, EXTRA = range(7)


def attribute(
    dump: dict,
    measured: Dict[str, Tuple[float, int]],
    window: Tuple[float, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(metrics, shares)`` for the measured requests.

    ``measured`` maps a request id to its client round trip (seconds)
    and result count; ``window`` is the measured phase on the shared
    monotonic clock (admission decisions carry no request id when
    they reject, so they are counted by time)."""
    spans = dump["spans"]
    children = defaultdict(list)
    by_rid = defaultdict(list)
    for number, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(number)
        if span[RID] in measured:
            by_rid[span[RID]].append(number)
    submitted = {rid: at for rid, at in dump["submits"] if rid in measured}

    def duration(number):
        return spans[number][END] - spans[number][START]

    self_time = defaultdict(float)
    calls = defaultdict(int)
    visits = 0
    for rid, numbers in by_rid.items():
        rtt = measured[rid][0]
        query = next(
            (n for n in numbers if spans[n][LAYER] == "serving.server.query"),
            None,
        )
        handler = next(
            (
                spans[n][THREAD] for n in numbers
                if spans[n][LAYER] in ("serving.server.query", "serving.httpd")
            ),
            None,
        )
        adopted = [
            n for n in numbers
            if spans[n][PARENT] is None and spans[n][THREAD] != handler
        ]
        engine = next(
            (n for n in adopted if spans[n][LAYER] == "core.engine"), None
        )
        queue_wait = 0.0
        if engine is not None and rid in submitted:
            queue_wait = spans[engine][START] - submitted[rid] - sum(
                duration(n) for n in adopted
                if spans[n][END] <= spans[engine][START]
            )
            self_time["serving.server.queue_wait"] += queue_wait
        post = None
        for number in numbers:
            span = spans[number]
            layer = span[LAYER]
            calls[layer] += 1
            if layer == "xpath.plan.execute" and span[EXTRA]:
                visits += span[EXTRA]
            if layer == "serving.httpd":
                post = number
                continue
            inner = sum(duration(n) for n in children[number])
            if number == query:
                inner += sum(duration(n) for n in adopted) + queue_wait
            self_time[layer] += duration(number) - inner
        if post is not None:
            top = children[post]
        else:
            top = [
                n for n in numbers
                if spans[n][PARENT] is None and spans[n][THREAD] == handler
            ]
        if query is None:
            top = top + adopted
        self_time["serving.httpd"] += rtt - sum(duration(n) for n in top)

    requests = len(measured)
    results = sum(count for _, count in measured.values())
    server_time = sum(rtt for rtt, _ in measured.values())
    metrics = {}
    shares = {}
    for name, layers in TIME_METRICS:
        total = sum(self_time[layer] for layer in layers)
        metrics[name] = 1e3 * total / requests
        shares[name] = total / server_time if server_time else 0.0
    engine_calls = calls["core.engine"]
    metrics["serving.server.batch_size"] = (
        engine_calls / calls["serving.server.resolve"]
        if calls["serving.server.resolve"] else 0.0
    )
    start, end = window
    admits = [
        span for span in spans
        if span[LAYER] == "serving.admission.admit" and start <= span[START] <= end
    ]
    metrics["serving.admission.rejected_share"] = (
        sum(1 for span in admits if span[EXTRA]) / len(admits) if admits else 0.0
    )
    metrics["results_per_req"] = results / requests
    per_result = max(results, 1)
    metrics["core.materialize.calls_per_result"] = (
        calls["core.materialize"] / per_result
    )
    metrics["xpath.plan.visits_per_result"] = visits / per_result
    metrics["core.accessibility.builds_per_req"] = (
        calls["core.accessibility"] / requests
    )
    builds = [span for span in spans if span[LAYER] == "xmlmodel.store.build"]
    metrics["xmlmodel.store.builds"] = float(len(builds))
    metrics["xmlmodel.store.build_ms"] = 1e3 * sum(
        span[END] - span[START] for span in builds
    )
    return metrics, shares


def group_shares(shares: Dict[str, float]) -> Dict[str, float]:
    """Share of server time of compile, evaluate, project, and the rest."""
    out = {
        group: sum(shares[name] for name in names)
        for group, names in GROUPS.items()
    }
    out["serving+obs+engine"] = 1.0 - sum(out.values())
    return out


def plan_cache(before: dict, after: dict, requests: int) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    lookups = hits + misses
    return {
        "core.plancache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.plancache.evictions_per_req": (
            (after["evictions"] - before["evictions"]) / requests
        ),
    }


def lines(metrics: Dict[str, float], shares: Dict[str, float]) -> List[str]:
    out = []
    for name, _ in TIME_METRICS:
        out.append(
            "  %-32s %9.4f ms/req  %5.1f%% of server time"
            % (name, metrics[name], 100 * shares[name])
        )
    for group, share in group_shares(shares).items():
        out.append("  group %-26s %5.1f%% of server time" % (group, 100 * share))
    return out
