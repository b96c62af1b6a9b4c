"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.workloads.hospital import HOSPITAL_DTD_TEXT

NURSE_SPEC_TEXT = """
# Example 3.1
hospital dept [*/patient/wardNo = $wardNo]
dept clinicalTrial N
clinicalTrial patientInfo Y
treatment trial N
treatment regular N
trial bill Y
regular bill Y
regular medication Y
"""

VALID_DOC = """
<hospital><dept>
  <clinicalTrial><patientInfo/></clinicalTrial>
  <patientInfo>
    <patient><name>ann</name><wardNo>2</wardNo>
      <treatment><regular><bill>7</bill><medication>x</medication></regular></treatment>
    </patient>
  </patientInfo>
  <staffInfo/>
</dept></hospital>
"""


@pytest.fixture()
def workspace(tmp_path):
    dtd = tmp_path / "hospital.dtd"
    dtd.write_text(HOSPITAL_DTD_TEXT)
    spec = tmp_path / "nurse.spec"
    spec.write_text(NURSE_SPEC_TEXT)
    document = tmp_path / "doc.xml"
    document.write_text(VALID_DOC)
    return tmp_path


class TestValidate:
    def test_valid(self, workspace, capsys):
        code = main(
            ["validate", str(workspace / "doc.xml"), str(workspace / "hospital.dtd")]
        )
        assert code == 0
        assert "conforms" in capsys.readouterr().out

    def test_invalid(self, workspace, capsys):
        bad = workspace / "bad.xml"
        bad.write_text("<hospital><oops/></hospital>")
        code = main(
            ["validate", str(bad), str(workspace / "hospital.dtd")]
        )
        assert code == 1
        assert "invalid" in capsys.readouterr().out


class TestGenerate:
    def test_generate_to_stdout(self, workspace, capsys):
        code = main(["generate", str(workspace / "hospital.dtd"), "--seed", "3"])
        assert code == 0
        assert capsys.readouterr().out.startswith("<hospital")

    def test_generate_to_file_conforms(self, workspace, capsys):
        out = workspace / "gen.xml"
        code = main(
            [
                "generate",
                str(workspace / "hospital.dtd"),
                "--seed",
                "5",
                "--max-branch",
                "4",
                "-o",
                str(out),
                "--pretty",
            ]
        )
        assert code == 0
        validate_code = main(
            ["validate", str(out), str(workspace / "hospital.dtd")]
        )
        assert validate_code == 0


class TestPolicyCommands:
    def args(self, workspace, *rest):
        return [
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            *rest,
            "--bind",
            "wardNo=2",
        ]

    def test_view_dtd(self, workspace, capsys):
        code = main(["view-dtd", *self.args(workspace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dummy1" in out and "clinicalTrial" not in out

    def test_rewrite(self, workspace, capsys):
        code = main(["rewrite", *self.args(workspace, "//patient//bill")])
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten:" in out and "optimized:" in out
        assert "clinicalTrial/patientInfo" in out

    def test_rewrite_no_optimize(self, workspace, capsys):
        code = main(
            [
                "rewrite",
                *self.args(workspace, "//patient//bill"),
                "--no-optimize",
            ]
        )
        assert code == 0
        assert "optimized:" not in capsys.readouterr().out

    def test_query(self, workspace, capsys):
        code = main(
            [
                "query",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                str(workspace / "doc.xml"),
                "//patient/name",
                "--bind",
                "wardNo=2",
            ]
        )
        assert code == 0
        assert "<name>ann</name>" in capsys.readouterr().out

    def test_query_has_no_optimize_flag(self, workspace):
        # every element target runs optimized: the flag went in 7.0
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "query",
                    str(workspace / "hospital.dtd"),
                    str(workspace / "nurse.spec"),
                    str(workspace / "doc.xml"),
                    "//patient/name",
                    "--bind",
                    "wardNo=2",
                    "--no-optimize",
                ]
            )
        assert info.value.code == 2

    @pytest.mark.parametrize("strategy", ["materialized", "virtual"])
    def test_query_has_no_strategy_flag(self, workspace, strategy):
        # one execution path: the flag went in 9.0
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "query",
                    str(workspace / "hospital.dtd"),
                    str(workspace / "nurse.spec"),
                    str(workspace / "doc.xml"),
                    "//patient/name",
                    "--bind",
                    "wardNo=2",
                    "--strategy",
                    strategy,
                ]
            )
        assert info.value.code == 2

    def test_query_explain(self, workspace, capsys):
        code = main(
            [
                "query",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                str(workspace / "doc.xml"),
                "//dummy2/medication",
                "--bind",
                "wardNo=2",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results  : 1" in out
        assert "<medication>x</medication>" in out

    def query_args(self, workspace, *rest):
        return [
            "query",
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            str(workspace / "doc.xml"),
            "//patient/name",
            "--bind",
            "wardNo=2",
            *rest,
        ]

    def test_query_trace_prints_profile(self, workspace, capsys):
        code = main(self.query_args(workspace, "--trace"))
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "calls=" in out
        assert "<name>ann</name>" in out

    def test_query_explain_and_trace_compose(self, workspace, capsys):
        code = main(self.query_args(workspace, "--explain", "--trace"))
        assert code == 0
        out = capsys.readouterr().out
        assert "results  : 1" in out  # --explain summary
        assert "EXPLAIN ANALYZE" in out  # --trace profile

    def test_query_metrics_prints_snapshot(self, workspace, capsys):
        code = main(self.query_args(workspace, "--metrics"))
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "query.count = 1" in out

    def test_query_metrics_flag_leaves_metrics_disabled(self, workspace):
        from repro.obs.metrics import metrics_enabled

        assert not metrics_enabled()
        main(self.query_args(workspace, "--metrics"))
        assert not metrics_enabled()

    def test_query_json_payload(self, workspace, capsys):
        import json

        code = main(
            self.query_args(workspace, "--trace", "--metrics", "--json")
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # the whole output is one JSON object
        assert payload["results"] == ["<name>ann</name>"]
        assert payload["report"]["result_count"] == 1
        assert payload["report"]["profile"]["plans"]
        assert payload["metrics"]["counters"]["query.count"] == 1

    def test_query_json_without_trace_has_no_profile(self, workspace, capsys):
        import json

        code = main(self.query_args(workspace, "--json"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "profile" not in payload["report"]
        assert "metrics" not in payload


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        code = main(
            ["validate", str(workspace / "nope.xml"), str(workspace / "hospital.dtd")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_binding(self, workspace, capsys):
        code = main(["view-dtd", *self.bad_bind_args(workspace)])
        assert code == 2

    def bad_bind_args(self, workspace):
        return [
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            "--bind",
            "oops",
        ]

    def test_bad_spec_line(self, workspace, capsys):
        from repro.cli import EXIT_CODES

        broken = workspace / "broken.spec"
        broken.write_text("just two\n")
        code = main(
            [
                "view-dtd",
                str(workspace / "hospital.dtd"),
                str(broken),
            ]
        )
        assert code == EXIT_CODES["E_SPEC"]
        err = capsys.readouterr().err
        assert "spec line 1" in err and "[E_SPEC]" in err

    def test_bad_xpath_exit_code(self, workspace, capsys):
        from repro.cli import EXIT_CODES

        code = main(
            [
                "rewrite",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                "//patient[",
                "--bind",
                "wardNo=2",
            ]
        )
        assert code == EXIT_CODES["E_PARSE_XPATH"]
        assert "[E_PARSE_XPATH]" in capsys.readouterr().err

    def test_strict_denial_exit_code(self, workspace, capsys):
        from repro.cli import EXIT_CODES

        code = main(
            [
                "query",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                str(workspace / "doc.xml"),
                "//clinicalTrial",
                "--bind",
                "wardNo=2",
                "--strict",
            ]
        )
        assert code == EXIT_CODES["E_LABEL_DENIED"]
        assert "[E_LABEL_DENIED]" in capsys.readouterr().err

    def test_bad_dtd_exit_code(self, workspace, capsys):
        from repro.cli import EXIT_CODES

        broken = workspace / "broken.dtd"
        broken.write_text("<!ELEMENT oops")
        code = main(
            ["generate", str(broken)]
        )
        assert code == EXIT_CODES["E_PARSE_DTD"]


class TestAuditCommands:
    def write_log(self, workspace, capsys):
        """Run two audited queries (one a denial) and return the log."""
        log = workspace / "audit.jsonl"
        base = [
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            str(workspace / "doc.xml"),
        ]
        assert (
            main(
                [
                    "query",
                    *base,
                    "//patient/name",
                    "--bind",
                    "wardNo=2",
                    "--audit-log",
                    str(log),
                    "--canary",
                    "1.0",
                    "--canary-seed",
                    "0",
                ]
            )
            == 0
        )
        main(
            [
                "query",
                *base,
                "//clinicalTrial",
                "--bind",
                "wardNo=2",
                "--strict",
                "--audit-log",
                str(log),
            ]
        )
        capsys.readouterr()  # discard query output
        return log

    def test_query_writes_jsonl_audit_log(self, workspace, capsys):
        from repro.obs.audit import AuditLog

        log = self.write_log(workspace, capsys)
        # policy registration happens before the sink attaches, so the
        # trail holds exactly the serving-path events of the two runs
        audit = AuditLog.from_jsonl(log)
        kinds = sorted(event.kind for event in audit)
        assert kinds == ["canary", "denial", "query"]

    def test_audit_tail(self, workspace, capsys):
        log = self.write_log(workspace, capsys)
        assert main(["audit", "tail", str(log)]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "canary" in out and "denial" in out
        assert "//patient/name" in out

    def test_audit_tail_filters_and_json(self, workspace, capsys):
        import json

        log = self.write_log(workspace, capsys)
        assert main(["audit", "tail", str(log), "--kind", "query", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "query"

    def test_audit_tail_trace_id_filter(self, workspace, capsys):
        from repro.obs.events import ErrorEvent, QueryEvent

        log = workspace / "traced.jsonl"
        events = [
            QueryEvent(
                policy="nurse",
                query="//patient",
                rewritten="//patient",
                cache_hit=False,
                result_count=1,
                visits=3,
                latency_seconds=0.001,
                slow=False,
                trace_id="aa" * 16,
            ),
            ErrorEvent("nurse", "//a[", "E_PARSE_XPATH", "bad",
                       trace_id="bb" * 16),
        ]
        log.write_text(
            "".join(event.to_json() + "\n" for event in events)
        )
        assert (
            main(["audit", "tail", str(log), "--trace-id", "bb" * 16]) == 0
        )
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "//a[" in lines[0] and "error" in lines[0]

    def test_audit_stats(self, workspace, capsys):
        log = self.write_log(workspace, capsys)
        assert main(["audit", "stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "policy policy:" in out
        assert "queries=1" in out and "denials=1" in out
        assert "checks=1 violations=0" in out
        assert "p95=" in out

    def test_audit_stats_json(self, workspace, capsys):
        import json

        log = self.write_log(workspace, capsys)
        assert main(["audit", "stats", str(log), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        bucket = stats["policy"]
        assert bucket["queries"] == 1
        assert bucket["denials"] == 1
        assert bucket["canary_violations"] == 0
        assert bucket["latency"]["count"] == 1

    def test_query_slow_ms_flags_slow_queries(self, workspace, capsys):
        from repro.obs.audit import AuditLog

        log = workspace / "slow.jsonl"
        code = main(
            [
                "query",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                str(workspace / "doc.xml"),
                "//patient/name",
                "--bind",
                "wardNo=2",
                "--audit-log",
                str(log),
                "--slow-ms",
                "0",
            ]
        )
        assert code == 0
        (event,) = AuditLog.from_jsonl(log).events(kind="query")
        assert event.slow and event.profile


class TestMetricsCommand:
    def snapshot_path(self, workspace, capsys):
        import json

        path = workspace / "metrics.json"
        code = main(
            [
                "query",
                str(workspace / "hospital.dtd"),
                str(workspace / "nurse.spec"),
                str(workspace / "doc.xml"),
                "//patient/name",
                "--bind",
                "wardNo=2",
                "--metrics",
                "--json",
            ]
        )
        assert code == 0
        path.write_text(capsys.readouterr().out)
        return path

    def test_metrics_text(self, workspace, capsys):
        path = self.snapshot_path(workspace, capsys)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "query.count = 1" in out

    def test_metrics_prometheus(self, workspace, capsys):
        path = self.snapshot_path(workspace, capsys)
        assert main(["metrics", str(path), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_query_count_total counter" in out
        assert "repro_query_count_total 1" in out

    def test_metrics_rejects_non_snapshot(self, workspace, capsys):
        bad = workspace / "notmetrics.json"
        bad.write_text('{"unrelated": 1}')
        assert main(["metrics", str(bad)]) == 2
        assert "snapshot" in capsys.readouterr().err


class TestSpecTextParser:
    def test_comments_and_blanks(self):
        from repro.core.spec import parse_spec_text
        from repro.workloads.hospital import hospital_dtd

        spec = parse_spec_text(
            hospital_dtd(),
            "\n# comment\n\ndept clinicalTrial N\n",
        )
        assert len(spec.annotations()) == 1

    def test_qualifier_with_spaces(self):
        from repro.core.spec import CondAnnotation, parse_spec_text
        from repro.workloads.hospital import hospital_dtd

        spec = parse_spec_text(
            hospital_dtd(),
            "hospital dept [*/patient/wardNo = $wardNo]\n",
        )
        annotation = spec.ann("hospital", "dept")
        assert isinstance(annotation, CondAnnotation)


class TestTable1Command:
    def test_table1_tiny_scale(self, capsys):
        code = main(["table1", "--scale", "0.05", "--repeat", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Q1" in out and "Q4" in out


class TestGovernorFlags:
    """`--timeout-ms` / `--max-results` / `--max-visits` map limit
    violations to their dedicated exit codes (E_DEADLINE=11,
    E_BUDGET=12)."""

    def query_args(self, workspace, *rest):
        return [
            "query",
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            str(workspace / "doc.xml"),
            "//patient/name",
            "--bind",
            "wardNo=2",
            *rest,
        ]

    def test_timeout_exit_code(self, workspace, capsys):
        code = main(self.query_args(workspace, "--timeout-ms", "0.000001"))
        assert code == 11
        err = capsys.readouterr().err
        assert "E_DEADLINE" in err
        assert "deadline" in err

    def test_max_visits_exit_code(self, workspace, capsys):
        code = main(self.query_args(workspace, "--max-visits", "1"))
        assert code == 12
        err = capsys.readouterr().err
        assert "E_BUDGET" in err
        assert "max_visits=1" in err

    def test_max_results_exit_code(self, workspace, capsys):
        # doc.xml holds exactly one ward-2 patient name: within budget
        code = main(self.query_args(workspace, "--max-results", "1"))
        assert code == 0
        capsys.readouterr()
        wide = [
            "query",
            str(workspace / "hospital.dtd"),
            str(workspace / "nurse.spec"),
            str(workspace / "doc.xml"),
            "//patient/*",
            "--bind",
            "wardNo=2",
            "--max-results",
            "1",
        ]
        code = main(wide)
        assert code == 12
        assert "max_results=1" in capsys.readouterr().err

    def test_generous_limits_answer_normally(self, workspace, capsys):
        code = main(
            self.query_args(
                workspace,
                "--timeout-ms",
                "30000",
                "--max-visits",
                "1000000",
                "--max-results",
                "100000",
            )
        )
        assert code == 0
        assert "<name>ann</name>" in capsys.readouterr().out

    def test_exit_code_registry(self):
        from repro.cli import EXIT_CODES

        assert EXIT_CODES["E_DEADLINE"] == 11
        assert EXIT_CODES["E_BUDGET"] == 12


class TestServingFlags:
    @pytest.mark.parametrize("command", ["serve", "replay"])
    def test_no_workers_flag(self, command):
        # one thread per request: the worker pool went in 10.0
        with pytest.raises(SystemExit) as info:
            main([command, "--workers", "4"])
        assert info.value.code == 2


class TestWorkloadCommand:
    """`repro workload top|report` against a live HTTP front end."""

    @pytest.fixture()
    def live_server(self):
        import threading

        from repro.core.engine import SecureQueryEngine
        from repro.serving.httpd import make_http_server
        from repro.serving.protocol import QueryRequest
        from repro.serving.server import EngineCatalog, QueryServer
        from repro.workloads.hospital import (
            hospital_document,
            hospital_dtd,
            nurse_spec,
        )

        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        catalog = EngineCatalog().add(
            "hospital", engine, hospital_document(seed=7, max_branch=4)
        )
        with QueryServer(catalog) as server:
            for query in ("//patient", "//patient", "//patient/name"):
                response = server.query(
                    QueryRequest(
                        policy="nurse", query=query, document="hospital"
                    )
                )
                assert response.ok, response.error_message
            httpd = make_http_server(server, port=0)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            try:
                yield "http://127.0.0.1:%d" % httpd.server_address[1]
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=5)

    def test_workload_top(self, live_server, capsys):
        assert main(["workload", "top", "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert "tenant nurse:" in out
        assert "queries=3" in out
        assert "count=2" in out  # //patient served twice
        assert "//patient" in out  # shape column

    def test_workload_top_n_limits_rows(self, live_server, capsys):
        assert (
            main(["workload", "top", "--url", live_server, "-n", "1"]) == 0
        )
        out = capsys.readouterr().out
        # header plus exactly one fingerprint row
        assert len(out.strip().splitlines()) == 2

    def test_workload_report_json(self, live_server, capsys):
        import json

        assert (
            main(
                [
                    "workload",
                    "report",
                    "--url",
                    live_server,
                    "--tenant",
                    "nurse",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["enabled"] is True
        assert list(payload["tenants"]) == ["nurse"]
        assert payload["tenants"]["nurse"]["queries"] == 3

    def test_workload_top_json(self, live_server, capsys):
        import json

        assert (
            main(["workload", "top", "--url", live_server, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenants"]["nurse"]["fingerprints"] == 2
