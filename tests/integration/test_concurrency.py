"""Thread-safety regression suite for the shared engine (PR 6).

One engine, many threads: the serving layer shares a single
:class:`SecureQueryEngine` across a pool, so its caches (`_stores`,
the plan cache, accessibility columns, the canary's oracle views) and
policy table must
tolerate concurrent queries, and concurrent administration
(``register_policy`` / ``invalidate``) against in-flight queries must
yield either a typed error or a consistent answer — never corruption,
deadlock, or a wrong result.

Run just this suite with ``pytest -m concurrency``.
"""

import sys
import threading
import time

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import ReproError
from repro.robustness import QueryLimits
from repro.workloads.hospital import (
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.xmlmodel.serialize import serialize

pytestmark = pytest.mark.concurrency

THREADS = 16
ROUNDS = 8

QUERY_TEXTS = (
    "//patient/name",
    "//patient//bill",
    "dept/patientInfo/patient/name",
    "//patient/name/text()",
)

OPTION_MATRIX = (
    ExecutionOptions(),
    ExecutionOptions(trace=True),
    ExecutionOptions(limits=QueryLimits(max_visits=10**9)),
    ExecutionOptions(use_cache=False),
)


def _build_engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    engine.register_policy("doctor", doctor_spec(dtd))
    return engine


def _canonical(values):
    return sorted(
        value if isinstance(value, str) else serialize(value)
        for value in values
    )


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N threads; re-raise the first failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def runner(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    pool = [
        threading.Thread(target=runner, args=(index,), name="hammer-%d" % index)
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker deadlocked"
    if errors:
        raise errors[0]


class TestConcurrentQuerying:
    def test_sixteen_threads_agree_with_sequential(self):
        """The core hammer: 16 threads × every option combination on a
        cold engine answer exactly like the sequential oracle."""
        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)
        dtd = hospital_dtd()
        oracle = {
            "nurse": _oracle_answers(
                nurse_spec(dtd).bind(wardNo="2"), document, QUERY_TEXTS
            ),
            "doctor": _oracle_answers(doctor_spec(dtd), document, QUERY_TEXTS),
        }

        def worker(index):
            for round_no in range(ROUNDS):
                for policy in ("nurse", "doctor"):
                    for text in QUERY_TEXTS:
                        options = OPTION_MATRIX[
                            (index + round_no) % len(OPTION_MATRIX)
                        ]
                        actual = _canonical(
                            engine.query(policy, text, document, options=options)
                        )
                        assert actual == oracle[policy][text], (
                            policy,
                            text,
                            options,
                        )

        _hammer(worker)

    def test_cold_cache_stampede_builds_once_each(self):
        """All threads racing the same cold (store, plan) keys:
        answers agree and the immutable-after-build caches hold exactly
        one artifact per key afterwards."""
        engine = _build_engine()
        document = hospital_document(seed=3, max_branch=4)
        options = ExecutionOptions()
        expected = _canonical(
            _build_engine().query(
                "nurse", "//patient//bill", document, options=options
            )
        )

        def worker(index):
            actual = _canonical(
                engine.query("nurse", "//patient//bill", document, options=options)
            )
            assert actual == expected

        _hammer(worker)
        assert len(engine._stores) == 1
        assert len(engine.plan_cache) == 1

    def test_query_batch_from_many_threads(self):
        """Every thread answers the whole query suite, one query() call
        per query, and gets the single-threaded answers."""
        engine = _build_engine()
        document = hospital_document(seed=5, max_branch=4)
        options = ExecutionOptions()
        expected = [
            _canonical(
                _build_engine().query("nurse", text, document, options=options)
            )
            for text in QUERY_TEXTS
        ]

        def worker(index):
            results = [
                engine.query("nurse", text, document, options=options)
                for text in QUERY_TEXTS
            ]
            assert [_canonical(r) for r in results] == expected

        _hammer(worker)


class TestAdminRaces:
    def test_register_policy_races_are_typed(self):
        """Concurrent duplicate registration: exactly one thread wins,
        the rest get the typed SecurityError — never a half-registered
        policy."""
        from repro.errors import SecurityError

        engine = _build_engine()
        dtd = hospital_dtd()
        wins = []
        losses = []

        def worker(index):
            try:
                engine.register_policy(
                    "contested", nurse_spec(dtd), wardNo=str(index)
                )
                wins.append(index)
            except SecurityError:
                losses.append(index)

        _hammer(worker)
        assert len(wins) == 1
        assert len(losses) == THREADS - 1
        assert "contested" in engine.policies()

    def test_invalidate_races_inflight_queries(self):
        """invalidate() storms while queries are in flight: every query
        either answers consistently or raises a typed ReproError; the
        engine stays usable afterwards."""
        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)
        options = ExecutionOptions()
        expected = _canonical(
            _build_engine().query(
                "nurse", "//patient/name", document, options=options
            )
        )
        stop = threading.Event()

        def worker(index):
            if index % 4 == 0:  # every fourth thread is an invalidator
                while not stop.is_set():
                    engine.invalidate()
                return
            try:
                for _ in range(ROUNDS):
                    actual = _canonical(
                        engine.query(
                            "nurse", "//patient/name", document, options=options
                        )
                    )
                    assert actual == expected
            finally:
                stop.set()

        _hammer(worker)
        # still consistent once the dust settles
        assert (
            _canonical(
                engine.query("nurse", "//patient/name", document, options=options)
            )
            == expected
        )

    def test_drop_policy_races_inflight_queries(self):
        """Queries against a policy being dropped either answer or
        raise the typed unknown-policy error."""
        from repro.errors import SecurityError

        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)
        dropped = threading.Event()

        def worker(index):
            if index == 0:
                engine.drop_policy("doctor")
                dropped.set()
                return
            for _ in range(ROUNDS):
                try:
                    engine.query("doctor", "//patient/name", document)
                except SecurityError:
                    assert dropped.wait(timeout=30)
                    break

        _hammer(worker)
        assert engine.policies() == ["nurse"]

    def test_materialized_view_stampede(self, monkeypatch):
        """16 threads' queries, each re-checked by a rate-1.0 canary,
        race one cold oracle view: the canary builds one shared tree
        and every check is clean."""
        materialize_module = sys.modules["repro.core.materialize"]
        builds = []
        build = materialize_module.materialize

        def counted(*args, **kwargs):
            builds.append(args[0])
            time.sleep(0.01)  # widen the race window: let others arrive
            return build(*args, **kwargs)

        monkeypatch.setattr(materialize_module, "materialize", counted)
        engine = _build_engine()
        document = hospital_document(seed=9, max_branch=4)
        # NodeTable, column and plan ready: the threads race on the view
        engine.query("nurse", "//patient", document)
        canary = engine.enable_canary(sample_rate=1.0)
        trees = [None] * THREADS

        def worker(index):
            engine.query("nurse", "//patient", document)
            trees[index] = canary.oracle_view(engine._policy("nurse"), document)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert builds == [document]
        assert canary.view_builds == 1
        assert len({id(tree) for tree in trees}) == 1
        assert canary.checks == THREADS and canary.violations == 0


class TestPlanCacheConcurrency:
    def test_shared_compiled_query_single_build(self):
        """Many threads racing one cold plan-cache entry end up sharing
        one CompiledQuery: a miss compiles the whole entry before it is
        cached, so only the threads that looked before the first put
        compile it."""
        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)
        options = ExecutionOptions()

        def worker(index):
            engine.query("nurse", "//patient//bill", document, options=options)

        _hammer(worker)
        stats = engine.plan_cache_stats()
        assert stats.size >= 1
        # one compiled entry, many hits: misses stay a handful, far
        # below the thread count
        assert stats.misses <= len(OPTION_MATRIX)

    def test_typed_errors_under_concurrency(self):
        """Failing queries raise their typed error on every thread
        (no cross-thread error leakage)."""
        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)

        def worker(index):
            with pytest.raises(ReproError):
                engine.query("ghost-%d" % index, "//patient", document)

        _hammer(worker)


def _oracle_answers(policy_spec, document, texts):
    """Each query's sorted answer over the materialized view tree."""
    from repro.core.derive import derive
    from repro.core.materialize import materialize
    from repro.xpath.evaluator import XPathEvaluator
    from repro.xpath.parser import parse_xpath

    view_tree = materialize(document, derive(policy_spec), policy_spec)
    evaluator = XPathEvaluator()
    return {
        text: _canonical(
            node if node.is_element else node.value
            for node in evaluator.evaluate(parse_xpath(text), view_tree)
        )
        for text in texts
    }


class TestAccessibilityColumnConcurrency:
    """The per-(policy, document) accessibility column is built under
    its own lock and dropped by invalidate()."""

    TEXTS = (".", "//patient//bill", "//staffInfo//*")

    def test_first_query_stampede_builds_one_column(self, monkeypatch):
        engine_module = sys.modules["repro.core.engine"]
        builds = []
        build = engine_module.accessibility_column

        def counted(store, spec):
            builds.append(store)
            time.sleep(0.01)  # widen the race window: let others arrive
            return build(store, spec)

        monkeypatch.setattr(engine_module, "accessibility_column", counted)
        engine = _build_engine()
        document = hospital_document(seed=11, max_branch=8)
        expected = _oracle_answers(
            nurse_spec(hospital_dtd()).bind(wardNo="2"), document, self.TEXTS
        )
        # NodeTable and plans ready: the threads race on the column only
        engine.query("doctor", "//patient/name", document)
        for text in self.TEXTS:
            engine.rewrite_query("nurse", text, document)
        builds.clear()

        def worker(index):
            text = self.TEXTS[index % len(self.TEXTS)]
            actual = _canonical(engine.query("nurse", text, document))
            assert actual == expected[text], text

        _hammer(worker)
        assert len(builds) == 1

    def test_racing_invalidate_never_yields_a_non_oracle_answer(self):
        engine = _build_engine()
        document = hospital_document(seed=7, max_branch=4)
        expected = _oracle_answers(
            nurse_spec(hospital_dtd()).bind(wardNo="2"), document, self.TEXTS
        )
        stop = threading.Event()
        lock = threading.Lock()
        # invalidate until the last querying thread is done
        querying = [THREADS - len(range(0, THREADS, 4))]

        def worker(index):
            if index % 4 == 0:
                while not stop.is_set():
                    engine.invalidate()
                return
            try:
                for round_no in range(ROUNDS):
                    text = self.TEXTS[(index + round_no) % len(self.TEXTS)]
                    actual = _canonical(engine.query("nurse", text, document))
                    assert actual == expected[text], text
            finally:
                with lock:
                    querying[0] -= 1
                    if not querying[0]:
                        stop.set()

        _hammer(worker)


class TestFlightRecorderConcurrency:
    """The flight recorder is written from every serving worker; the
    debug endpoints read it concurrently.  16 threads must not grow it
    past its bounds, drop an error trace, or corrupt the id index."""

    def _trace(self, trace_id, ok=True, error_code="", tenant="t"):
        from repro.obs.record import QueryRecord

        assert ok == (not error_code)
        return QueryRecord(
            trace_id=trace_id,
            tenant=tenant,
            policy="nurse",
            query="//a",
            error_code=error_code,
            latency_seconds=0.001,
        )

    def test_bounded_memory_under_write_storm(self):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(capacity=32, tail_capacity=32, seed=0)
        per_thread = 500

        def worker(index):
            for round_no in range(per_thread):
                ok = round_no % 5 != 0  # 20% errors: forces tail churn
                recorder.record(
                    self._trace(
                        "t%02d-%04d" % (index, round_no),
                        ok=ok,
                        error_code="" if ok else "E_BUDGET",
                    )
                )

        _hammer(worker)
        stats = recorder.stats()
        assert stats["recorded"] == THREADS * per_thread
        assert len(recorder) <= 32 + 32
        assert stats["ok_sampled"] <= 32
        assert stats["tail"] <= 32
        # the id index tracks exactly the retained records
        for record in recorder.traces(n=10_000):
            assert recorder.get(record.trace_id) is record

    def test_error_traces_never_dropped_within_tail_capacity(self):
        from repro.obs.flight import FlightRecorder

        errors_per_thread = 8
        recorder = FlightRecorder(
            capacity=4, tail_capacity=THREADS * errors_per_thread, seed=0
        )

        def worker(index):
            for round_no in range(200):
                recorder.record(self._trace("ok%02d-%04d" % (index, round_no)))
            for round_no in range(errors_per_thread):
                retained = recorder.record(
                    self._trace(
                        "err%02d-%02d" % (index, round_no),
                        ok=False,
                        error_code="E_LABEL_DENIED",
                    )
                )
                assert retained

        _hammer(worker)
        # every error from every thread survived the OK flood
        for index in range(THREADS):
            for round_no in range(errors_per_thread):
                record = recorder.get("err%02d-%02d" % (index, round_no))
                assert record is not None
                assert record.status == "denied"
        assert recorder.stats()["tail_evicted"] == 0

    def test_seeded_sampling_is_deterministic_for_a_fixed_order(self):
        """Sampling decisions depend only on (seed, arrival order) —
        replaying the same stream twice retains the same trace ids."""
        from repro.obs.flight import FlightRecorder

        def run():
            recorder = FlightRecorder(capacity=8, tail_capacity=8, seed=42)
            for index in range(2000):
                recorder.record(self._trace("t%05d" % index))
            return sorted(r.trace_id for r in recorder.traces())

        first, second = run(), run()
        assert first == second

    def test_concurrent_readers_see_consistent_records(self):
        """Readers racing the write storm always get either None or a
        fully-formed record — never a torn one."""
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(capacity=16, tail_capacity=16, seed=0)
        stop = threading.Event()

        def worker(index):
            if index % 4 == 0:  # every fourth thread reads
                while not stop.is_set():
                    for record in recorder.traces(n=50):
                        assert record.trace_id
                        assert record.status in (
                            "ok",
                            "slow",
                            "error",
                            "denied",
                            "canary-violation",
                        )
                    recorder.stats()
                return
            try:
                for round_no in range(300):
                    recorder.record(
                        self._trace(
                            "t%02d-%04d" % (index, round_no),
                            ok=round_no % 7 != 0,
                            error_code="" if round_no % 7 else "E_BUDGET",
                        )
                    )
            finally:
                stop.set()

        _hammer(worker)
        assert len(recorder) <= 32

    def test_slo_tracker_counts_every_observation(self):
        """SLOTracker shared across 16 threads loses no requests and
        keeps per-tenant tallies exact."""
        from repro.obs.record import QueryRecord
        from repro.obs.slo import SLObjective, SLOTracker

        tracker = SLOTracker(SLObjective(threshold_seconds=0.1, target=0.9))
        per_thread = 200

        def worker(index):
            tenant = "tenant-%d" % (index % 4)
            for round_no in range(per_thread):
                tracker.observe(
                    QueryRecord(
                        tenant=tenant,
                        latency_seconds=0.5 if round_no % 2 else 0.01,
                    )
                )

        _hammer(worker)
        snapshot = tracker.snapshot()
        assert sorted(snapshot["tenants"]) == [
            "tenant-0",
            "tenant-1",
            "tenant-2",
            "tenant-3",
        ]
        for tenant in snapshot["tenants"].values():
            assert tenant["requests"] == 4 * per_thread
            assert tenant["breaches"] == 4 * per_thread // 2
