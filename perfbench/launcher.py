"""Run ``repro serve`` with its default settings in this process, for
the benchmark in ``run.py``.

Usage: ``python3 perfbench/launcher.py --cpus N,M [--trace]
[--drop module:attribute ...]``

The server is the one ``repro serve --port 0`` starts: the standard
catalog, default workers, batching and admission, tracing and workload
profiling on.  The process keeps to the CPUs
``--cpus`` names from its start on, so every thread it starts does too.
With ``--trace`` the timing
probes of ``probes.py`` are installed first; ``--drop`` deletes a
program attribute beforehand, the way a later rename would, so tests
can check that the traced run survives it.

Protocol: one JSON object per line on stdout.  ``start`` carries the
monotonic clock reading taken as the first statement of this file,
so set-up time leaves out interpreter start-up.  ``bound`` carries the
port and the ``QueryServer`` settings.  Each ``stats`` line on stdin is
answered with the catalog engines' summed plan-cache counters and the
largest plan-cache capacity among them.  After
SIGTERM the server drains, and with ``--trace`` a ``spans`` object
follows.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_out = threading.Lock()


def emit(payload: dict) -> None:
    with _out:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()


def _plan_cache_totals(server) -> dict:
    totals = {"hits": 0, "misses": 0, "evictions": 0, "capacity": 0}
    for engine in server.catalog.engines():
        stats = engine.plan_cache_stats()
        for key in ("hits", "misses", "evictions"):
            totals[key] += getattr(stats, key)
        totals["capacity"] = max(totals["capacity"], stats.capacity)
    return totals


def _control(holder: dict) -> None:
    for line in sys.stdin:
        if line.strip() == "stats":
            emit(dict(_plan_cache_totals(holder["server"]), event="stats"))


def _settings(server) -> dict:
    try:
        payload = server.vars_payload()
    except AttributeError:
        return {}
    keys = ("workers", "max_batch", "tracing", "profiling", "documents")
    settings = {key: payload.get(key) for key in keys}
    admission = server.admission
    settings["admission"] = repr(getattr(admission, "_default", None))
    settings["shedding"] = getattr(admission, "overload", None) is not None
    return settings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--drop", action="append", default=[])
    arguments = parser.parse_args(argv)
    os.sched_setaffinity(0, {int(cpu) for cpu in arguments.cpus.split(",")})
    emit({"event": "start", "t0": STARTED})

    import importlib

    import repro.cli

    httpd_module = importlib.import_module("repro.serving.httpd")
    holder = {}
    make_http_server = httpd_module.make_http_server

    def make_and_report(query_server, host="127.0.0.1", port=8000):
        httpd = make_http_server(query_server, host=host, port=port)
        holder["server"] = query_server
        emit(
            {
                "event": "bound",
                "port": httpd.server_address[1],
                "settings": _settings(query_server),
            }
        )
        return httpd

    httpd_module.make_http_server = make_and_report

    recorder = None
    if arguments.trace:
        from probes import Recorder

        for target in arguments.drop:
            module_name, _, path = target.partition(":")
            *owners, name = path.split(".")
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            delattr(owner, name)
        recorder = Recorder().install()

    threading.Thread(target=_control, args=(holder,), daemon=True).start()
    code = repro.cli.main(["serve", "--port", "0"])
    if recorder is not None:
        emit(recorder.dump())
    return code


if __name__ == "__main__":
    sys.exit(main())
