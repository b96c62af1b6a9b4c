"""The replay harness: closed-loop stats, retry budgets, and graceful
mid-replay drain (partial summaries instead of tracebacks)."""

import threading

from repro.obs import percentile
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.serving.replay import (
    mixed_workload,
    replay,
    standard_catalog,
    summarize,
)
from repro.serving.resilience import RetryBudget
from repro.serving.server import QueryServer


class TestStats:
    def test_percentile_interpolates(self):
        # replay summaries use the one exact nearest-rank percentile
        # (q in [0, 1]): the median of four values is the second
        assert percentile([], 0.50) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0

    def test_summarize_shape(self):
        summary = summarize([0.1, 0.2], 1.0)
        assert summary["requests"] == 2
        assert summary["qps"] == 2.0
        assert summary["p50_ms"] > 0


class TestReplay:
    def test_clean_replay_is_not_partial(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=1, seed=0)
        with QueryServer(catalog) as server:
            stats = replay(server, requests, clients=4)
        assert stats["requests"] == len(requests)
        assert not stats["errors"]
        assert stats["partial"] is False
        assert stats["transport_errors"] == 0
        assert stats["skipped"] == 0

    def test_retry_budget_summary_keys(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=1, seed=0)
        budget = RetryBudget(ratio=0.1)
        with QueryServer(catalog) as server:
            stats = replay(
                server, requests, clients=4, retry_budget=budget
            )
        assert stats["retries"] >= 0
        assert stats["retry_budget"]["ratio"] == 0.1
        # no failures -> nothing to retry
        assert stats["retries"] == 0


class TestMidReplayDrain:
    def test_drain_mid_replay_yields_partial_summary_not_traceback(self):
        """The regression scenario behind ``repro replay`` exiting
        nonzero instead of tracebacking: the server starts draining
        while clients are mid-stream.  Every in-flight request still
        resolves, the remainder is skipped, and the summary says so."""
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=4, seed=0)
        server = QueryServer(catalog).start()
        drained = {}
        clients = 8
        resolved = []
        mid_replay = threading.Event()

        def count(record):
            resolved.append(record)
            if len(resolved) >= 2 * clients:
                mid_replay.set()

        for engine in catalog.engines():
            engine.records.subscribe(count)

        def drain_soon():
            # drain once two rounds of requests have resolved: mid-replay
            # whatever a request costs, where a fixed delay raced the
            # whole replay (72 requests at >= 10 ms over 8 clients)
            mid_replay.wait(10.0)
            drained["report"] = server.drain(deadline_seconds=10.0)

        drainer = threading.Thread(target=drain_soon)
        # slow each execution down so the drain lands mid-replay
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=0.01,
                every=1,
            )
        ):
            drainer.start()
            stats = replay(server, requests, clients=clients)
        drainer.join()

        assert drained["report"]["unresolved"] == 0
        # partial, with the unprocessed remainder accounted as skipped
        assert stats["partial"] is True
        assert stats["requests"] + stats["skipped"] == len(requests)
        assert stats["skipped"] > 0
        # whatever failed mid-drain failed with a typed code
        assert set(stats["errors"]) <= {"E_ADMISSION", "E_DEADLINE"}

    def test_replay_against_stopped_server_skips_everything(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=1, seed=0)
        server = QueryServer(catalog).start()
        server.drain(deadline_seconds=5.0)
        stats = replay(server, requests, clients=4)
        assert stats["partial"] is True
        assert stats["skipped"] == len(requests)
        assert stats["requests"] == 0


class TestExitCodeMapping:
    def test_shed_has_a_dedicated_exit_code(self):
        from repro.cli import EXIT_CODES

        assert EXIT_CODES["E_SHED"] == 14
        assert EXIT_CODES["E_ADMISSION"] == 13
