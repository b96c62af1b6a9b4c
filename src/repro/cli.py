"""Command-line interface: the secure-querying pipeline from a shell.

    repro validate  DOC.xml  DTD.dtd
    repro generate  DTD.dtd  [--seed N] [--max-branch N] [-o OUT.xml]
    repro view-dtd  DTD.dtd  SPEC.txt  [--bind name=value ...]
    repro rewrite   DTD.dtd  SPEC.txt  QUERY [--bind ...] [--no-optimize]
    repro query     DTD.dtd  SPEC.txt  DOC.xml QUERY [--bind ...]
                    [--explain] [--no-cache]
                    [--trace] [--metrics] [--json]
                    [--audit-log PATH] [--slow-ms MS]
                    [--canary RATE] [--canary-seed N]
                    [--timeout-ms MS] [--max-results N] [--max-visits N]
    repro audit     tail  LOG.jsonl [-n N] [--kind K] [--policy P]
                    [--trace-id ID] [--json]
    repro audit     stats LOG.jsonl [--policy P] [--json]
    repro metrics   SNAPSHOT.json [--format text|prometheus]
    repro table1    [--scale S] [--repeat N]
    repro serve     [--host H] [--port P] [--workers N]
                    [--max-concurrent N] [--max-queue-depth N]
                    [--queue-timeout-ms MS] [--seed N]
    repro replay    [--clients N] [--repetitions N] [--workers N]
                    [--seed N] [--json]
    repro trace     tail [--url URL] [-n N] [--tenant T] [--status S]
                    [--trace-id ID] [--json]
    repro workload  top    [--url URL] [--tenant T] [-n N] [--json]
    repro workload  report [--url URL] [--tenant T] [-n N] [--json]

Specification files use the line format of
:func:`repro.core.spec.parse_spec_text`:

    # nurse policy
    hospital dept [*/patient/wardNo = $wardNo]
    dept clinicalTrial N

Failures exit with a status derived from the error's stable code
(see :data:`EXIT_CODES`; generic library errors exit 2), so scripts
can distinguish e.g. a strict-mode denial from an XPath typo.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.spec import parse_spec_text
from repro.dtd.generator import DocumentGenerator
from repro.dtd.parser import parse_dtd
from repro.dtd.validate import validate
from repro.errors import ReproError, error_code
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serialize import pretty_print, serialize

#: Stable error code -> process exit status.  Codes not listed here
#: exit 2 (the historical catch-all for library errors).
EXIT_CODES = {
    "E_LABEL_DENIED": 3,
    "E_PARSE_XPATH": 4,
    "E_PARSE_DTD": 5,
    "E_PARSE_XML": 6,
    "E_DTD_INVALID": 7,
    "E_SPEC": 8,
    "E_DERIVE": 9,
    "E_REWRITE": 10,
    "E_DEADLINE": 11,
    "E_BUDGET": 12,
    "E_ADMISSION": 13,
    "E_SHED": 14,
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _bindings(pairs) -> dict:
    bindings = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ReproError("--bind expects name=value, got %r" % pair)
        name, _, value = pair.partition("=")
        bindings[name] = value
    return bindings


def _engine(arguments) -> SecureQueryEngine:
    dtd = parse_dtd(_read(arguments.dtd))
    spec = parse_spec_text(dtd, _read(arguments.spec))
    engine = SecureQueryEngine(
        dtd, strict=getattr(arguments, "strict", False)
    )
    engine.register_policy("policy", spec, **_bindings(arguments.bind))
    return engine


def cmd_validate(arguments) -> int:
    dtd = parse_dtd(_read(arguments.dtd))
    document = parse_document(_read(arguments.document))
    issues = validate(document, dtd)
    if not issues:
        print("valid: document conforms to the DTD")
        return 0
    for issue in issues:
        print("invalid: %s" % issue)
    return 1


def cmd_generate(arguments) -> int:
    dtd = parse_dtd(_read(arguments.dtd))
    generator = DocumentGenerator(
        dtd, seed=arguments.seed, max_branch=arguments.max_branch
    )
    document = generator.generate()
    rendered = (
        pretty_print(document) if arguments.pretty else serialize(document)
    )
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(
            "wrote %s (%d nodes)" % (arguments.output, document.size()),
            file=sys.stderr,
        )
    else:
        print(rendered)
    return 0


def cmd_view_dtd(arguments) -> int:
    engine = _engine(arguments)
    print(engine.view_dtd_text("policy"))
    view = engine._policies["policy"].view
    for warning in view.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    return 0


def cmd_rewrite(arguments) -> int:
    engine = _engine(arguments)
    rewritten = engine.rewrite_query("policy", arguments.query)
    print("rewritten: %s" % rewritten)
    if not arguments.no_optimize:
        optimized = engine._optimizer.optimize(rewritten)
        print("optimized: %s" % optimized)
    return 0


def cmd_query(arguments) -> int:
    from repro.obs.metrics import (
        disable_metrics,
        enable_metrics,
        metrics_registry,
    )

    engine = _engine(arguments)
    document = parse_document(_read(arguments.document))
    limits = None
    if (
        arguments.timeout_ms is not None
        or arguments.max_results is not None
        or arguments.max_visits is not None
    ):
        from repro.robustness.governor import QueryLimits

        limits = QueryLimits(
            deadline_seconds=(
                arguments.timeout_ms / 1e3
                if arguments.timeout_ms is not None
                else None
            ),
            max_results=arguments.max_results,
            max_visits=arguments.max_visits,
        )
    options = ExecutionOptions(
        use_cache=not arguments.no_cache,
        trace=arguments.trace,
        slow_query_threshold=(
            arguments.slow_ms / 1e3 if arguments.slow_ms is not None else None
        ),
        limits=limits,
    )
    audit_sink = None
    if arguments.audit_log:
        from repro.obs.events import JsonlFileSink

        audit_sink = engine.add_sink(JsonlFileSink(arguments.audit_log))
    if arguments.canary is not None:
        engine.enable_canary(arguments.canary, seed=arguments.canary_seed)
    if arguments.metrics:
        metrics_registry().reset()
        enable_metrics()
    try:
        result = engine.query(
            "policy", arguments.query, document, options=options
        )
    finally:
        if arguments.metrics:
            disable_metrics()
        if audit_sink is not None:
            audit_sink.close()
    report = result.report
    if arguments.json:
        import json

        payload = {
            "results": [
                value if isinstance(value, str) else serialize(value)
                for value in result
            ],
            "report": report.to_dict(),
        }
        if arguments.metrics:
            payload["metrics"] = engine.metrics()
        print(json.dumps(payload, indent=2))
        return 0
    if arguments.explain:
        print(report.summary())
    if arguments.trace and report.profile is not None:
        print(report.profile.render())
    for value in result:
        print(value if isinstance(value, str) else serialize(value))
    if arguments.metrics:
        print(_render_metrics(engine.metrics()))
    return 0


def _render_metrics(snapshot: dict) -> str:
    """Flat ``name = value`` text rendering of a metrics snapshot."""
    lines = ["metrics:"]
    for name, value in snapshot.get("counters", {}).items():
        lines.append("  %s = %d" % (name, value))
    for name, histogram in snapshot.get("histograms", {}).items():
        lines.append(
            "  %s = count=%d mean=%.6f min=%.6f max=%.6f"
            % (
                name,
                histogram["count"],
                histogram["mean"],
                histogram["min"],
                histogram["max"],
            )
        )
    return "\n".join(lines)


def _render_event(event) -> str:
    """One-line human rendering of an audit event."""
    import time as _time

    stamp = _time.strftime(
        "%Y-%m-%dT%H:%M:%S", _time.localtime(event.timestamp)
    )
    if event.kind == "query":
        detail = "%s -> %s  results=%d  %.3fms%s%s" % (
            event.query,
            event.rewritten,
            event.result_count,
            event.latency_seconds * 1e3,
            " cache-hit" if event.cache_hit else "",
            " SLOW" if event.slow else "",
        )
    elif event.kind == "denial":
        detail = "%s  label=%s  [%s]" % (event.query, event.label, event.code)
    elif event.kind == "policy":
        detail = event.action
    elif event.kind == "error":
        detail = "%s  [%s] %s" % (event.query, event.code, event.message)
    elif event.kind == "canary":
        detail = "%s  violations=%d (missing=%d extra=%d)  %s" % (
            event.query,
            event.violations,
            event.missing,
            event.extra,
            "ok" if event.ok else "VIOLATION",
        )
    else:  # pragma: no cover - future kinds
        detail = ""
    policy = getattr(event, "policy", "") or "-"
    return "%s  %-7s %-12s %s" % (stamp, event.kind, policy, detail)


def cmd_audit_tail(arguments) -> int:
    from repro.obs.audit import AuditLog

    log = AuditLog.from_jsonl(arguments.log)
    events = log.tail(
        arguments.count,
        kind=arguments.kind,
        policy=arguments.policy,
        trace_id=arguments.trace_id,
    )
    if arguments.json:
        for event in events:
            print(event.to_json())
        return 0
    for event in events:
        print(_render_event(event))
    return 0


def cmd_audit_stats(arguments) -> int:
    from repro.obs.audit import AuditLog

    log = AuditLog.from_jsonl(arguments.log)
    stats = log.stats(policy=arguments.policy)
    if arguments.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if not stats:
        print("no events")
        return 0
    for policy in sorted(stats):
        bucket = stats[policy]
        latency = bucket["latency"]
        print("policy %s:" % policy)
        print(
            "  queries=%d cache_hits=%d slow=%d denials=%d errors=%d"
            % (
                bucket["queries"],
                bucket["cache_hits"],
                bucket["slow"],
                bucket["denials"],
                bucket["errors"],
            )
        )
        print(
            "  canary: checks=%d violations=%d"
            % (bucket["canary_checks"], bucket["canary_violations"])
        )
        print(
            "  latency: count=%d mean=%.3fms p50=%.3fms p95=%.3fms max=%.3fms"
            % (
                latency["count"],
                latency["mean"] * 1e3,
                latency["p50"] * 1e3,
                latency["p95"] * 1e3,
                latency["max"] * 1e3,
            )
        )
    return 0


def cmd_metrics(arguments) -> int:
    """Render a metrics snapshot (``engine.metrics()`` JSON, or the
    ``--json`` payload of ``repro query --metrics``) as text or in
    Prometheus exposition format."""
    import json

    if arguments.snapshot == "-":
        payload = json.load(sys.stdin)
    else:
        payload = json.loads(_read(arguments.snapshot))
    # accept either a bare snapshot or a payload embedding one
    if "metrics" in payload and isinstance(payload["metrics"], dict):
        snapshot = payload["metrics"]
    else:
        snapshot = payload
    if "counters" not in snapshot and "histograms" not in snapshot:
        raise ReproError(
            "%s does not look like a metrics snapshot (expected "
            "'counters'/'histograms' keys)" % arguments.snapshot
        )
    if arguments.format == "prometheus":
        from repro.obs.export import prometheus_text

        sys.stdout.write(prometheus_text(snapshot))
    else:
        print(_render_metrics(snapshot))
    return 0


def cmd_verify(arguments) -> int:
    from repro.core.verify import verify_policy

    dtd = parse_dtd(_read(arguments.dtd))
    spec = parse_spec_text(dtd, _read(arguments.spec))
    bindings = _bindings(arguments.bind)
    if bindings:
        spec = spec.bind(**bindings)
    report = verify_policy(spec, trials=arguments.trials, seed=arguments.seed)
    print(report.summary())
    for warning in report.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    return 0 if report.ok else 1


def cmd_table1(arguments) -> int:
    from repro.benchtools.table1 import main as table1_main

    table_arguments = []
    if arguments.scale is not None:
        table_arguments += ["--scale", str(arguments.scale)]
    table_arguments += ["--repeat", str(arguments.repeat)]
    return table1_main(table_arguments)


def _admission(arguments):
    from repro.serving.admission import AdmissionController, TenantPolicy
    from repro.serving.resilience import OverloadDetector

    overload = (
        None if getattr(arguments, "no_shed", False) else OverloadDetector()
    )
    return AdmissionController(
        TenantPolicy(
            max_concurrent=arguments.max_concurrent,
            max_queue_depth=arguments.max_queue_depth,
            queue_deadline_seconds=(
                arguments.queue_timeout_ms / 1e3
                if arguments.queue_timeout_ms is not None
                else None
            ),
        ),
        overload=overload,
    )


def _tracing_kwargs(arguments) -> dict:
    """QueryServer tracing/flight/SLO settings from serving flags."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.slo import SLObjective, SLOTracker

    if arguments.no_tracing:
        return {"tracing": False}
    return {
        "tracing": True,
        "flight": FlightRecorder(
            capacity=arguments.flight_capacity,
            tail_capacity=arguments.flight_tail,
        ),
        "slo": SLOTracker(
            SLObjective(
                threshold_seconds=arguments.slo_ms / 1e3,
                target=arguments.slo_target,
            )
        ),
    }


def cmd_serve(arguments) -> int:
    """Run the HTTP serving front end over the standard catalog (the
    hospital nurse/doctor tenants plus the Adex buyer).  SIGTERM and
    SIGINT both trigger a graceful drain: intake stops (``/readyz``
    flips to 503), queued and in-flight work flushes for up to
    ``--drain-ms``, then the process exits."""
    import signal
    from threading import Thread

    from repro.obs.metrics import enable_metrics
    from repro.serving.httpd import make_http_server
    from repro.serving.replay import standard_catalog
    from repro.serving.server import QueryServer

    enable_metrics()
    catalog = standard_catalog(seed=arguments.seed)
    server = QueryServer(
        catalog,
        admission=_admission(arguments),
        workers=arguments.workers,
        **_tracing_kwargs(arguments)
    ).start()
    httpd = make_http_server(
        server, host=arguments.host, port=arguments.port
    )

    def _drain_signal(signum, frame):  # pragma: no cover - signal path
        print(
            "received %s, draining..."
            % signal.Signals(signum).name,
            file=sys.stderr,
        )
        server.begin_drain()
        # shutdown() blocks until serve_forever returns, so it must
        # run off the signal-handling (main) thread
        Thread(target=httpd.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain_signal)
        signal.signal(signal.SIGINT, _drain_signal)
    except ValueError:
        pass  # not the main thread (tests); rely on KeyboardInterrupt
    print(
        "serving %s on http://%s:%d (POST /query, GET /metrics, "
        "GET /debug/traces, GET /debug/slo, GET /debug/workload, "
        "GET /debug/cachez, GET /debug/vars, GET /debug/resilience, "
        "GET /healthz, GET /readyz)"
        % (", ".join(catalog.refs()), arguments.host, arguments.port),
        file=sys.stderr,
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        server.begin_drain()
    finally:
        httpd.server_close()
        report = server.drain(deadline_seconds=arguments.drain_ms / 1e3)
        print(
            "drained in %.2fs (deadline %.2fs): %d rejected, "
            "%d unresolved%s"
            % (
                report["duration_seconds"],
                report["deadline_seconds"],
                report["rejected"],
                report["unresolved"],
                "" if report["within_deadline"] else " [DEADLINE MISSED]",
            ),
            file=sys.stderr,
        )
    return 0


def cmd_replay(arguments) -> int:
    """Replay the mixed-tenant workload through an in-process server
    and print latency/throughput stats."""
    from repro.serving.replay import mixed_workload, replay, standard_catalog
    from repro.serving.server import QueryServer

    catalog = standard_catalog(seed=arguments.seed)
    requests = mixed_workload(
        repetitions=arguments.repetitions, seed=arguments.seed
    )
    retry_budget = None
    if arguments.retry_budget > 0:
        from repro.serving.resilience import RetryBudget

        retry_budget = RetryBudget(ratio=arguments.retry_budget)
    with QueryServer(
        catalog,
        workers=arguments.workers,
        **_tracing_kwargs(arguments)
    ) as server:
        stats = replay(
            server,
            requests,
            clients=arguments.clients,
            retry_budget=retry_budget,
        )
    partial = bool(stats.get("partial"))
    if arguments.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 1 if partial else 0
    print(
        "replayed %d requests from %d clients in %.2fs (%.1f qps)"
        % (
            stats["requests"],
            stats["clients"],
            stats["elapsed_seconds"],
            stats["qps"],
        )
    )
    print(
        "latency: p50=%.2fms p95=%.2fms p99=%.2fms"
        % (stats["p50_ms"], stats["p95_ms"], stats["p99_ms"])
    )
    for tenant, bucket in stats["tenants"].items():
        print(
            "  tenant %-18s requests=%-4d p50=%.2fms p95=%.2fms"
            % (tenant, bucket["requests"], bucket["p50_ms"], bucket["p95_ms"])
        )
    if "flight" in stats:
        print(
            "traces: %(retained)d retained of %(recorded)d recorded "
            "(tail=%(tail)d interesting, %(ok_sampled)d ok-sampled)"
            % stats["flight"]
        )
    for tenant, slo in stats.get("slo", {}).items():
        print(
            "  slo %-21s compliance=%.4f burn fast=%.2f slow=%.2f"
            % (
                tenant,
                slo["compliance"],
                slo["fast_burn_rate"],
                slo["slow_burn_rate"],
            )
        )
    if stats["errors"]:
        for code, count in sorted(stats["errors"].items()):
            print("  errors[%s] = %d" % (code, count))
    if "retries" in stats:
        print("  retries = %d" % stats["retries"])
    if partial:
        print(
            "replay PARTIAL: %d transport errors, %d skipped (server "
            "drained or stopped mid-replay); summary covers completed "
            "requests only"
            % (stats["transport_errors"], stats["skipped"]),
            file=sys.stderr,
        )
        return 1
    return 1 if stats["errors"] else 0


def cmd_trace_tail(arguments) -> int:
    """Fetch and render the newest retained traces from a running
    server's ``/debug/traces`` endpoint."""
    import json
    from urllib.parse import quote
    from urllib.request import urlopen

    from repro.obs.flight import render_trace

    base = arguments.url.rstrip("/")
    params = []
    if arguments.trace_id:
        params.append("trace_id=%s" % quote(arguments.trace_id))
    else:
        params.append("n=%d" % arguments.count)
        if arguments.tenant:
            params.append("tenant=%s" % quote(arguments.tenant))
        if arguments.status:
            params.append("status=%s" % quote(arguments.status))
    with urlopen("%s/debug/traces?%s" % (base, "&".join(params))) as reply:
        payload = json.load(reply)
    if arguments.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not payload.get("enabled", True):
        print("tracing is disabled on the server", file=sys.stderr)
        return 1
    stats = payload.get("stats")
    if stats:
        print(
            "flight recorder: %(retained)d retained of %(recorded)d "
            "recorded (tail=%(tail)d interesting, %(ok_sampled)d "
            "ok-sampled)" % stats
        )
    traces = payload.get("traces", [])
    if not traces:
        if arguments.trace_id:
            print(
                "trace %s not retained" % arguments.trace_id, file=sys.stderr
            )
            return 1
        print("no traces retained yet")
        return 0
    for trace in traces:
        print(render_trace(trace))
    return 0


def _fetch_workload(arguments) -> dict:
    """GET a running server's ``/debug/workload`` payload."""
    import json
    from urllib.parse import quote
    from urllib.request import urlopen

    base = arguments.url.rstrip("/")
    params = []
    if arguments.tenant:
        params.append("tenant=%s" % quote(arguments.tenant))
    if arguments.count is not None:
        params.append("n=%d" % arguments.count)
    url = "%s/debug/workload" % base
    if params:
        url += "?%s" % "&".join(params)
    with urlopen(url) as reply:
        return json.load(reply)


def cmd_workload_top(arguments) -> int:
    """Show each tenant's heaviest query shapes from a running
    server's ``/debug/workload`` endpoint."""
    payload = _fetch_workload(arguments)
    if arguments.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    tenants = payload.get("tenants", {})
    if not tenants:
        print("no workload recorded yet")
        return 0
    for tenant in sorted(tenants):
        bucket = tenants[tenant]
        print(
            "tenant %s: queries=%d errors=%d denials=%d "
            "fingerprints=%d evictions=%d"
            % (
                tenant,
                bucket["queries"],
                bucket["errors"],
                bucket["denials"],
                bucket["fingerprints"],
                bucket["evictions"],
            )
        )
        for entry in bucket.get("top", []):
            print(
                "  %-16s count=%-6d p50=%.2fms p95=%.2fms hit=%.2f  %s"
                % (
                    entry["fingerprint"],
                    entry["count"],
                    entry["p50_ms"],
                    entry["p95_ms"],
                    entry["cache_hit_ratio"],
                    entry["shape"],
                )
            )
    return 0


def cmd_workload_report(arguments) -> int:
    """Dump the full workload report (always JSON; the human view is
    ``repro workload top``)."""
    import json

    print(json.dumps(_fetch_workload(arguments), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure XML querying with security views (SIGMOD 2004)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate_cmd = commands.add_parser(
        "validate", help="check a document against a DTD"
    )
    validate_cmd.add_argument("document")
    validate_cmd.add_argument("dtd")
    validate_cmd.set_defaults(handler=cmd_validate)

    generate_cmd = commands.add_parser(
        "generate", help="generate a random conforming document"
    )
    generate_cmd.add_argument("dtd")
    generate_cmd.add_argument("--seed", type=int, default=0)
    generate_cmd.add_argument("--max-branch", type=int, default=3)
    generate_cmd.add_argument("-o", "--output")
    generate_cmd.add_argument("--pretty", action="store_true")
    generate_cmd.set_defaults(handler=cmd_generate)

    def add_policy_arguments(sub):
        sub.add_argument("dtd")
        sub.add_argument("spec")
        sub.add_argument(
            "--bind",
            action="append",
            metavar="NAME=VALUE",
            help="bind a $parameter of the specification",
        )
        sub.add_argument(
            "--strict",
            action="store_true",
            help="reject queries referencing labels outside the view "
            "DTD (exit code %d)" % EXIT_CODES["E_LABEL_DENIED"],
        )

    view_cmd = commands.add_parser(
        "view-dtd", help="derive a policy's security view DTD"
    )
    add_policy_arguments(view_cmd)
    view_cmd.set_defaults(handler=cmd_view_dtd)

    rewrite_cmd = commands.add_parser(
        "rewrite", help="rewrite a view query over the document"
    )
    add_policy_arguments(rewrite_cmd)
    rewrite_cmd.add_argument("query")
    rewrite_cmd.add_argument("--no-optimize", action="store_true")
    rewrite_cmd.set_defaults(handler=cmd_rewrite)

    query_cmd = commands.add_parser(
        "query", help="answer a view query on a document"
    )
    add_policy_arguments(query_cmd)
    query_cmd.add_argument("document")
    query_cmd.add_argument("query")
    query_cmd.add_argument("--explain", action="store_true")
    query_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the engine's compiled-plan cache",
    )
    query_cmd.add_argument(
        "--trace",
        action="store_true",
        help="collect per-operator stats and print the EXPLAIN "
        "ANALYZE profile tree (composes with --explain)",
    )
    query_cmd.add_argument(
        "--metrics",
        action="store_true",
        help="enable the metrics registry for this query and print "
        "the snapshot",
    )
    query_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object (results, report, profile, and "
        "metrics when requested) instead of text",
    )
    query_cmd.add_argument(
        "--audit-log",
        metavar="PATH",
        help="append audit events (query/canary/...) as JSONL to PATH "
        "(aggregate with `repro audit stats PATH`)",
    )
    query_cmd.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="flag queries slower than MS milliseconds in the audit "
        "log, attaching their EXPLAIN ANALYZE profile",
    )
    query_cmd.add_argument(
        "--canary",
        type=float,
        default=None,
        metavar="RATE",
        help="re-check answers against the materialized-view oracle "
        "at this sample rate (0..1) and emit canary events",
    )
    query_cmd.add_argument(
        "--canary-seed",
        type=int,
        default=None,
        help="seed the canary's sampling RNG (reproducible schedules)",
    )
    query_cmd.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock deadline for the query; exceeding it exits "
        "%d [E_DEADLINE]" % EXIT_CODES["E_DEADLINE"],
    )
    query_cmd.add_argument(
        "--max-results",
        type=int,
        default=None,
        metavar="N",
        help="fail with exit %d [E_BUDGET] when the answer would "
        "exceed N results" % EXIT_CODES["E_BUDGET"],
    )
    query_cmd.add_argument(
        "--max-visits",
        type=int,
        default=None,
        metavar="N",
        help="fail with exit %d [E_BUDGET] after N node visits"
        % EXIT_CODES["E_BUDGET"],
    )
    query_cmd.set_defaults(handler=cmd_query)

    audit_cmd = commands.add_parser(
        "audit", help="inspect a JSONL audit log"
    )
    audit_commands = audit_cmd.add_subparsers(
        dest="audit_command", required=True
    )
    tail_cmd = audit_commands.add_parser(
        "tail", help="show the most recent audit events"
    )
    tail_cmd.add_argument("log", help="JSONL audit log path")
    tail_cmd.add_argument("-n", "--count", type=int, default=10)
    tail_cmd.add_argument(
        "--kind",
        choices=["query", "denial", "policy", "error", "canary"],
        default=None,
    )
    tail_cmd.add_argument("--policy", default=None)
    tail_cmd.add_argument(
        "--trace-id",
        default=None,
        help="only events stamped with this request trace id",
    )
    tail_cmd.add_argument(
        "--json", action="store_true", help="print raw JSONL instead"
    )
    tail_cmd.set_defaults(handler=cmd_audit_tail)
    stats_cmd = audit_commands.add_parser(
        "stats", help="per-policy accounting of an audit log"
    )
    stats_cmd.add_argument("log", help="JSONL audit log path")
    stats_cmd.add_argument("--policy", default=None)
    stats_cmd.add_argument("--json", action="store_true")
    stats_cmd.set_defaults(handler=cmd_audit_stats)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="render a metrics snapshot (text or Prometheus exposition)",
    )
    metrics_cmd.add_argument(
        "snapshot",
        help="path to an engine.metrics() JSON snapshot (or the "
        "--json payload of `repro query --metrics`); '-' for stdin",
    )
    metrics_cmd.add_argument(
        "--format",
        choices=["text", "prometheus"],
        default="text",
    )
    metrics_cmd.set_defaults(handler=cmd_metrics)

    verify_cmd = commands.add_parser(
        "verify", help="fuzz-check a policy's soundness/completeness"
    )
    add_policy_arguments(verify_cmd)
    verify_cmd.add_argument("--trials", type=int, default=25)
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.set_defaults(handler=cmd_verify)

    table_cmd = commands.add_parser(
        "table1", help="reproduce the paper's Table 1"
    )
    table_cmd.add_argument("--scale", type=float, default=None)
    table_cmd.add_argument("--repeat", type=int, default=1)
    table_cmd.set_defaults(handler=cmd_table1)

    def add_serving_arguments(sub):
        sub.add_argument(
            "--workers", type=int, default=4, help="server worker threads"
        )
        sub.add_argument(
            "--seed", type=int, default=0, help="document-generation seed"
        )
        sub.add_argument(
            "--no-tracing",
            action="store_true",
            help="disable request tracing, the flight recorder, and "
            "SLO tracking",
        )
        sub.add_argument(
            "--slo-ms",
            type=float,
            default=250.0,
            metavar="MS",
            help="per-request latency SLO threshold (default 250 ms)",
        )
        sub.add_argument(
            "--slo-target",
            type=float,
            default=0.99,
            help="fraction of requests that must meet the SLO "
            "(default 0.99)",
        )
        sub.add_argument(
            "--flight-capacity",
            type=int,
            default=128,
            help="reservoir size for sampled OK traces",
        )
        sub.add_argument(
            "--flight-tail",
            type=int,
            default=256,
            help="tail buffer size for slow/error/denied traces",
        )

    serve_cmd = commands.add_parser(
        "serve",
        help="serve the standard catalog over HTTP (multi-tenant)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8000)
    add_serving_arguments(serve_cmd)
    serve_cmd.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="concurrency slots per tenant",
    )
    serve_cmd.add_argument(
        "--max-queue-depth",
        type=int,
        default=16,
        help="waiters per tenant before hard E_ADMISSION rejection "
        "(exit %d over the CLI)" % EXIT_CODES["E_ADMISSION"],
    )
    serve_cmd.add_argument(
        "--queue-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="queue deadline; waiting longer surfaces E_DEADLINE",
    )
    serve_cmd.add_argument(
        "--no-shed",
        action="store_true",
        help="disable utilization-based load shedding (requests only "
        "fail on hard queue bounds, never E_SHED/exit %d)"
        % EXIT_CODES["E_SHED"],
    )
    serve_cmd.add_argument(
        "--drain-ms",
        type=float,
        default=5000.0,
        metavar="MS",
        help="graceful-drain deadline after SIGTERM/SIGINT "
        "(default 5000 ms)",
    )
    serve_cmd.set_defaults(handler=cmd_serve)

    replay_cmd = commands.add_parser(
        "replay",
        help="replay the mixed-tenant workload and print latency stats",
    )
    replay_cmd.add_argument(
        "--clients", type=int, default=16, help="concurrent client threads"
    )
    replay_cmd.add_argument(
        "--repetitions",
        type=int,
        default=4,
        help="workload repetitions per tenant",
    )
    replay_cmd.add_argument("--json", action="store_true")
    replay_cmd.add_argument(
        "--retry-budget",
        type=float,
        default=0.0,
        metavar="RATIO",
        help="enable client-side retries of shed/rejected requests, "
        "budgeted to RATIO of each tenant's traffic (0 disables)",
    )
    add_serving_arguments(replay_cmd)
    replay_cmd.set_defaults(handler=cmd_replay)

    trace_cmd = commands.add_parser(
        "trace", help="inspect a running server's retained traces"
    )
    trace_commands = trace_cmd.add_subparsers(
        dest="trace_command", required=True
    )
    trace_tail_cmd = trace_commands.add_parser(
        "tail", help="show the newest retained traces"
    )
    trace_tail_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="base URL of a running `repro serve`",
    )
    trace_tail_cmd.add_argument("-n", "--count", type=int, default=10)
    trace_tail_cmd.add_argument(
        "--tenant", default=None, help="only this tenant's traces"
    )
    trace_tail_cmd.add_argument(
        "--status",
        default=None,
        choices=["ok", "slow", "error", "denied", "canary-violation"],
        help="only traces with this retention status",
    )
    trace_tail_cmd.add_argument(
        "--trace-id", default=None, help="fetch one trace by id"
    )
    trace_tail_cmd.add_argument("--json", action="store_true")
    trace_tail_cmd.set_defaults(handler=cmd_trace_tail)

    workload_cmd = commands.add_parser(
        "workload",
        help="inspect a running server's per-tenant query workload",
    )
    workload_commands = workload_cmd.add_subparsers(
        dest="workload_command", required=True
    )

    def add_workload_arguments(sub):
        sub.add_argument(
            "--url",
            default="http://127.0.0.1:8000",
            help="base URL of a running `repro serve`",
        )
        sub.add_argument(
            "--tenant", default=None, help="only this tenant's workload"
        )
        sub.add_argument(
            "-n",
            "--count",
            type=int,
            default=None,
            help="top-K fingerprints per tenant (default: server's)",
        )
        sub.add_argument("--json", action="store_true")

    workload_top_cmd = workload_commands.add_parser(
        "top", help="heaviest query shapes per tenant"
    )
    add_workload_arguments(workload_top_cmd)
    workload_top_cmd.set_defaults(handler=cmd_workload_top)
    workload_report_cmd = workload_commands.add_parser(
        "report", help="full workload report as JSON"
    )
    add_workload_arguments(workload_report_cmd)
    workload_report_cmd.set_defaults(handler=cmd_workload_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except BrokenPipeError:
        return 0  # e.g. output truncated by `| head`
    except ReproError as error:
        code = error_code(error)
        print("error: %s [%s]" % (error, code), file=sys.stderr)
        return EXIT_CODES.get(code, 2)
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
