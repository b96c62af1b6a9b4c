"""The repository's benchmark: secure XPath queries over HTTP, end to
end and layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It starts ``repro serve`` (default settings) in a child process on every
CPU but one, drives it over HTTP from the CPU left over in a closed loop (each client waits for its reply before
sending the next request), checks every answer against the
materialization oracle, and prints one JSON object as the last line of
standard output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  The
server is set up three times and ``setup_s`` is the median.
``--trace 1`` measures one untraced and one traced server for half of
``--seconds`` each, and reports the per-layer metrics from the traced
one, plus the throughput lost to tracing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
from itertools import count
from time import monotonic
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from pools import WORKLOADS, Oracle, Request, Workload, workload as make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# the oracle evaluates queries with the program's own modules
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Longest wait for one reply, or for the server to start or stop.
TIMEOUT = 60.0

#: The benchmark process keeps one CPU and the server gets all the
#: others, for the whole run, set-up included.  Unpinned on a 2-CPU
#: host, the scheduler placed the server's threads one of two ways from
#: run to run, and hospital-small's throughput and tail latency jumped
#: between two levels about 15% and 50% apart.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(_CPUS[:1])
SERVER_CPUS = set(_CPUS[1:]) or CLIENT_CPUS


class Record(NamedTuple):
    rid: str
    request: Request
    sent: float
    done: float
    #: The reply's ``results``, sorted; None when the request failed,
    #: was refused or timed out.
    answer: Optional[List[str]]


class Server(object):
    """One ``launcher.py`` child: ``repro serve`` on an ephemeral port."""

    def __init__(self, trace: bool, drop: Sequence[str] = ()):
        command = [sys.executable, os.path.join(HERE, "launcher.py"),
                   "--cpus", ",".join(map(str, sorted(SERVER_CPUS)))]
        if trace:
            command.append("--trace")
        for target in drop:
            command += ["--drop", target]
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            # one string-hash order in every launch, so the exact counts
            # repeat and runs differ only in timing
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[dict]]" = queue.Queue()
        self.stderr: List[str] = []
        self._readers = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        try:
            self.started = self.expect("start")["t0"]
            bound = self.expect("bound")
        except BaseException:
            self.stop()
            raise
        self.port = bound["port"]
        self.settings = bound["settings"]

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self._lines.put(json.loads(line))
        self._lines.put(None)

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line.rstrip())

    def expect(self, event: str) -> dict:
        while True:
            try:
                payload = self._lines.get(timeout=TIMEOUT)
            except queue.Empty:
                raise RuntimeError("server sent no %r line" % event)
            if payload is None:
                raise RuntimeError(
                    "server exited before %r:\n%s"
                    % (event, "\n".join(self.stderr[-20:]))
                )
            if payload.get("event") == event:
                return payload

    def plan_cache(self) -> dict:
        """The engines' summed plan-cache counters and the largest
        capacity among them."""
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return self.expect("stats")

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.process.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """Drain and stop the server (SIGTERM, as an operator would)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        for reader in self._readers:
            reader.join(timeout=TIMEOUT)


def post(port: int, request: Request, rid: str) -> Record:
    """Send one request; the round trip runs from sending it to reading
    the last byte of the reply.  The body carries only the policy, the
    query and the document ref."""
    body = json.dumps(
        {"policy": request.policy, "query": request.query,
         "document": request.document}
    ).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        sent = monotonic()
        connection.request(
            "POST", "/query", body=body,
            headers={"Content-Type": "application/json",
                     "X-Bench-Request": rid},
        )
        reply = connection.getresponse()
        data = reply.read()
        done = monotonic()
        status = reply.status
    except (OSError, http.client.HTTPException):
        return Record(rid, request, sent, monotonic(), None)
    finally:
        connection.close()
    if status != 200:
        return Record(rid, request, sent, done, None)
    try:
        results = json.loads(data.decode("utf-8")).get("results")
    except ValueError:
        return Record(rid, request, sent, done, None)
    return Record(rid, request, sent, done, sorted(results or ()))


def wait_ready(port: int) -> None:
    deadline = monotonic() + TIMEOUT
    while True:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
        try:
            connection.request("GET", "/readyz")
            reply = connection.getresponse()
            reply.read()
            if reply.status == 200:
                return
        finally:
            connection.close()
        if monotonic() > deadline:
            raise RuntimeError("/readyz never returned 200")


def send_all(port: int, requests: List[Request], prefix: str) -> List[Record]:
    return [
        post(port, request, "%s%d" % (prefix, number))
        for number, request in enumerate(requests)
    ]


def launch(workload: Workload, trace=False, drop=()):
    """Start a server and bring it to steady state: ``/readyz`` answers
    200 and one warm-up round has run.  Returns the server, its set-up
    time (from the launcher's first statement) and the warm-up records."""
    server = Server(trace, drop)
    try:
        wait_ready(server.port)
        warm = send_all(server.port, workload.warmup("w"), "w")
    except BaseException:
        server.stop()
        raise
    return server, monotonic() - server.started, warm


def fill(server: Server, workload: Workload) -> List[Record]:
    """Send the workload's fill requests, untimed: a plan cache's worth
    per engine, the capacity read from the running server."""
    capacity = server.plan_cache()["capacity"]
    return send_all(server.port, workload.fill(capacity, "f"), "f")


#: Measured requests after which the server's peak RSS is read.
RSS_AFTER = 100


def measure(server: Server, workload: Workload, seed: int, seconds: float):
    """The closed loop: one thread per client, each replaying its stream
    block by block and finishing its current block at the deadline.
    Also returns the server's peak RSS once ``RSS_AFTER`` requests have
    completed, or at the end if fewer did."""
    port = server.port
    clients = range(workload.clients)
    records: List[List[Record]] = [[] for _ in clients]
    blocks: List[List[int]] = [[] for _ in clients]
    barrier = threading.Barrier(workload.clients + 1)
    window = {}
    completed = count(1)
    rss = []

    def client(number):
        out = records[number]
        stream = workload.stream(seed, number)
        barrier.wait()
        deadline = window["start"] + seconds
        for block in stream:
            for request in block:
                out.append(post(port, request, "m%d-%d" % (number, len(out))))
                if next(completed) == RSS_AFTER:
                    rss.append(server.peak_rss_mb())
            blocks[number].append(len(out))
            if monotonic() >= deadline:
                return

    threads = [
        threading.Thread(target=client, args=(n,), daemon=True) for n in clients
    ]
    for thread in threads:
        thread.start()
    window["start"] = monotonic()
    barrier.wait()
    for thread in threads:
        thread.join()
    flat = [record for out in records for record in out]
    rate = sum(
        _median_rate(out, ends) for out, ends in zip(records, blocks)
    )
    if not rss:
        rss.append(server.peak_rss_mb())
    window = (window["start"], max(record.done for record in flat))
    return flat, window, rate, rss[0]


#: Shortest stretch of whole blocks one throughput sample spans.
CHUNK_SECONDS = 1.0


def _median_rate(records: List[Record], block_ends: List[int]) -> float:
    """One client's throughput: the median, over consecutive stretches
    of whole blocks lasting at least ``CHUNK_SECONDS``, of requests
    completed per second.  Every stretch has the same request mix, and
    the median moves less than the mean when a busy host slows a few
    stretches down."""
    rates = []
    first = 0
    for end in block_ends:
        elapsed = records[end - 1].done - records[first].sent
        if elapsed >= CHUNK_SECONDS:
            rates.append((end - first) / elapsed)
            first = end
    if not rates:
        return len(records) / (records[-1].done - records[0].sent)
    return statistics.median(rates)


#: About how long one span of the measured phase lasts for the tail;
#: each workload's tail percentile is fixed for a span this long.
SPAN_SECONDS = 3.0


def spans(records: List[Record], window) -> List[List[Record]]:
    """The measured phase cut into equal spans of time, each about
    ``SPAN_SECONDS`` long, by when each request was sent; empty spans
    are left out."""
    start, end = window
    number = max(1, round((end - start) / SPAN_SECONDS))
    width = (end - start) / number
    out: List[List[Record]] = [[] for _ in range(number)]
    for record in records:
        out[min(number - 1, int((record.sent - start) / width))].append(record)
    return [part for part in out if part]


def nearest_rank(values: List[float], percentile: float) -> float:
    """The smallest value with at least ``percentile`` percent of the
    values at or below it (``percentile`` has at most one decimal)."""
    ordered = sorted(values)
    rank = -(-(round(percentile * 10) * len(ordered)) // 1000)
    return ordered[max(1, rank) - 1]


def end_to_end(workload, seed, seconds, setups, log):
    """The measured records, the records sent around them, and every
    end-to-end metric but ``correct_share``."""
    server, setup, extra = launch(workload)
    setup_times = [setup]
    try:
        log("server settings: %s" % json.dumps(server.settings, sort_keys=True))
        extra += fill(server, workload)
        records, window, rate, rss = measure(server, workload, seed, seconds)
    finally:
        server.stop()
    # the other launches come after the measured phase, so a spell of
    # host contention rarely covers most of them
    for _ in range(setups - 1):
        server, setup, more = launch(workload)
        server.stop()
        setup_times.append(setup)
        extra += more
    latencies = [1e3 * (record.done - record.sent) for record in records]
    tails = []
    for part in spans(records, window):
        values = [1e3 * (record.done - record.sent) for record in part]
        tail = nearest_rank(values, workload.tail_percentile)
        tails.append(tail)
        log("span: p%g of %d requests is %.3f ms (%d beyond it)" % (
            workload.tail_percentile, len(values), tail,
            sum(1 for value in values if value > tail)))
    log("setup_s per launch: %s" % ", ".join("%.4f" % t for t in setup_times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (rate, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, records, extra


def per_layer(workload, seed, seconds, log, drop=()):
    """The traced records, the records sent around them, and the
    per-layer metrics."""
    from attribution import attribute, lines, plan_cache

    server, _, extra = launch(workload)
    try:
        extra += fill(server, workload)
        plain, _, plain_rps, _ = measure(server, workload, seed, seconds / 2)
    finally:
        server.stop()
    extra += plain

    server, _, warm = launch(workload, trace=True, drop=drop)
    extra += warm
    try:
        extra += fill(server, workload)
        before = server.plan_cache()
        records, window, traced_rps, _ = measure(
            server, workload, seed, seconds / 2
        )
        after = server.plan_cache()
    finally:
        server.stop()
    dump = server.expect("spans")
    measured = {
        r.rid: (r.done - r.sent, len(r.answer or ())) for r in records
    }
    metrics, shares = attribute(dump, measured, window)
    metrics.update(plan_cache(before, after, len(records)))
    metrics["tracing.overhead_share"] = 1.0 - traced_rps / plain_rps
    log("probes absent: %s" % (", ".join(dump["absent"]) or "none"))
    log("throughput untraced %.2f rps, traced %.2f rps" % (plain_rps, traced_rps))
    for line in lines(metrics, shares):
        log(line)
    log("exact counts: %s" % json.dumps(
        {name: metrics[name] for name in EXACT_COUNTS}, sort_keys=True))
    return {name: (value, PER_LAYER_UNITS.get(name, "ms"))
            for name, value in metrics.items()}, records, extra


#: Counts that repeat exactly at one seed, for later changes to cite.
EXACT_COUNTS = (
    "core.accessibility.builds_per_req",
    "core.materialize.calls_per_result",
    "core.plancache.hit_ratio",
    "xpath.plan.visits_per_result",
    "results_per_req",
)

PER_LAYER_UNITS = {
    "serving.server.batch_size": "count",
    "serving.admission.rejected_share": "share",
    "core.plancache.hit_ratio": "share",
    "core.plancache.evictions_per_req": "count",
    "xpath.plan.visits_per_result": "count",
    "xmlmodel.store.builds": "count",
    "core.materialize.calls_per_result": "count",
    "core.accessibility.builds_per_req": "count",
    "results_per_req": "count",
    "tracing.overhead_share": "share",
}


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = 3,
    drop: Sequence[str] = (),
    corrupt: Optional[Callable[[Dict], None]] = None,
    log: Callable[[str], None] = print,
) -> dict:
    """One benchmark run; returns the result object printed last.
    ``corrupt`` may change the oracle's answers before they are compared,
    as the benchmark's tests do."""
    workload = make_workload(workload_name)
    # Threads started from here on (clients, readers) inherit the CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CLIENT_CPUS)
    # The clients are the measuring instrument: keep their collector's
    # pauses out of the round trips they time.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        if trace:
            values, records, extra = per_layer(workload, seed, seconds, log, drop)
        else:
            values, records, extra = end_to_end(
                workload, seed, seconds, setups, log
            )
    finally:
        gc.enable()
        gc.unfreeze()
        os.sched_setaffinity(0, cpus)
    # graded after the servers have stopped, so the oracle's work is
    # never timed
    expected = Oracle().answers(r.request for r in records + extra)
    if corrupt is not None:
        corrupt(expected)
    failed = sum(1 for r in records if r.answer != expected[r.request])
    if not trace:
        values["correct_share"] = (1.0 - failed / len(records), "share")
    return {
        "correct": failed == 0
        and all(r.answer == expected[r.request] for r in extra),
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no program to benchmark at %s" % SRC, file=sys.stderr)
        return 2
    # unwind on SIGTERM too, so the servers' finally blocks stop them
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(
        arguments.workload,
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
