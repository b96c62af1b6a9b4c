"""Unit tests for explain profiles (repro.obs.profile)."""

from repro.obs.profile import (
    ExplainProfile,
    OperatorStats,
    ProfileCollector,
    ProfileNode,
)


class _Op:
    pass


class TestOperatorStats:
    def test_selectivity(self):
        stats = OperatorStats()
        stats.rows_in = 10
        stats.rows_out = 4
        assert stats.selectivity == 0.4
        assert OperatorStats().selectivity == 1.0

    def test_dict_form_omits_empty_sections(self):
        stats = OperatorStats()
        stats.calls = 1
        assert "kernels" not in stats.as_dict()
        assert "short_circuits" not in stats.as_dict()
        stats.kernels["merge"] = 2
        stats.short_circuits = 1
        out = stats.as_dict()
        assert out["kernels"] == {"merge": 2}
        assert out["short_circuits"] == 1


class TestProfileCollector:
    def test_record_accumulates_per_operator(self):
        collector = ProfileCollector()
        op, other = _Op(), _Op()
        collector.record(op, 5, 3, kernel="merge-join")
        collector.record(op, 2, 2, kernel="child-walk")
        collector.record(other, 1, 1)
        stats = collector.lookup(op)
        assert stats.calls == 2
        assert stats.rows_in == 7
        assert stats.rows_out == 5
        assert stats.kernels == {"merge-join": 1, "child-walk": 1}
        assert len(collector) == 2

    def test_lookup_never_ran(self):
        assert ProfileCollector().lookup(_Op()) is None

    def test_short_circuits_and_events(self):
        collector = ProfileCollector()
        op = _Op()
        collector.short_circuit(op)
        collector.short_circuit(op)
        collector.event("object-backend-fallback")
        assert collector.lookup(op).short_circuits == 2
        assert collector.events == {"object-backend-fallback": 1}


class TestProfileNode:
    def _stats(self, calls=1, rows_in=4, rows_out=2, kernel=None):
        stats = OperatorStats()
        stats.calls = calls
        stats.rows_in = rows_in
        stats.rows_out = rows_out
        if kernel:
            stats.kernels[kernel] = calls
        return stats

    def test_render_annotates_executed_operators(self):
        node = ProfileNode(
            "child", "patient", self._stats(kernel="posting-merge-join")
        )
        line = node.render()
        assert line == (
            "-> child patient  "
            "(calls=1 rows=4->2 kernel=posting-merge-join:1)"
        )

    def test_render_marks_never_executed_leaves(self):
        assert ProfileNode("child", "x").render() == (
            "-> child x  (never executed)"
        )
        zero = self._stats(calls=0, rows_in=0, rows_out=0)
        assert "(never executed)" in ProfileNode("child", "x", zero).render()

    def test_structural_nodes_render_without_annotation(self):
        tree = ProfileNode(
            "slash", "", None, [ProfileNode("child", "a", self._stats())]
        )
        lines = tree.render().splitlines()
        assert lines[0] == "-> slash"
        assert lines[1].startswith("  -> child a  (calls=1")

    def test_to_dict_nested(self):
        tree = ProfileNode(
            "filter", "", self._stats(), [ProfileNode("q:exists", "")]
        )
        out = tree.to_dict()
        assert out["operator"] == "filter"
        assert out["calls"] == 1
        assert out["children"][0]["operator"] == "q:exists"


class TestExplainProfile:
    def test_render_and_dict(self):
        import json

        stats = OperatorStats()
        stats.calls = 1
        profile = ExplainProfile(
            "/a/b",
            roots=[ProfileNode("child", "b", stats)],
            events={"object-backend-fallback": 2},
        )
        text = profile.render()
        assert text.splitlines()[0] == "EXPLAIN ANALYZE"
        assert "query: /a/b" in text
        assert "event: object-backend-fallback x2" in text
        out = profile.to_dict()
        assert set(out) == {"query", "plans", "events"}
        assert len(out["plans"]) == 1
        json.dumps(out)  # must not raise
