"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Each test starts real servers, so the suite takes about a
minute.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
from pools import FRESH, WORKLOADS, workload  # noqa: E402


def quiet(_line):
    pass


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_the_oracle(name):
    result = run.run(name, seed=0, seconds=0.2, trace=False, setups=1, log=quiet)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"]["correct_share"]["value"] == 1.0
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_wrong_expected_answer_lowers_correct_share():
    def corrupt(expected):
        request = next(iter(expected))
        expected[request] = expected[request] + ["<not-an-answer/>"]

    result = run.run(
        "adex-project", seed=0, seconds=0.5, trace=False, setups=1,
        corrupt=corrupt, log=quiet,
    )
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["correct_share"]["value"] < 1.0


def test_traced_runs_repeat_exact_counts_and_account_for_round_trips():
    first = run.run("adex-project", seed=4, seconds=1.0, trace=True, log=quiet)
    second = run.run("adex-project", seed=4, seconds=1.0, trace=True, log=quiet)
    assert first["correct"] and second["correct"]
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert values["core.plancache.hit_ratio"] == 1.0
    # one whole-document accessibility pass per projected result today
    assert values["core.accessibility.builds_per_req"] == values["results_per_req"]
    # self times are disjoint and partition the client round trip
    for name, value in values.items():
        if name.endswith("ms") and name != "xmlmodel.store.build_ms":
            assert value >= -1e-6, name


def test_traced_run_survives_an_absent_probe_target():
    lines = []
    result = run.run(
        "hospital-small", seed=1, seconds=0.5, trace=True,
        drop=["repro.core.accessibility:compute_accessibility"],
        log=lines.append,
    )
    assert result["correct"]
    absent = [line for line in lines if line.startswith("probes absent")]
    assert absent and "compute_accessibility" in absent[0]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.accessibility.builds_per_req"] == 0.0
    assert values["core.materialize.calls_per_result"] == 1.0


def test_compile_miss_never_sends_a_query_text_twice():
    pool = workload("compile-miss")
    sent = pool.warmup("w") + pool.fill(256, "f")
    for client in (0, 1):
        stream = pool.stream(3, client)
        for _ in range(100):
            sent += next(stream)
    assert len(sent) == 13 + 2 * 256 + 2 * 100 * 13
    assert len({request.query for request in sent}) == len(sent)
    assert not any(FRESH in request.query for request in sent)


def test_every_block_is_the_pool_in_a_new_order_that_repeats_at_a_seed():
    pool = workload("adex-project")
    first, again = pool.stream(5, 0), pool.stream(5, 0)
    blocks = [next(first) for _ in range(20)]
    assert blocks == [next(again) for _ in range(20)]
    for block in blocks:
        assert sorted(block) == sorted(pool.block)
    assert len({tuple(block) for block in blocks}) > 1


def test_nearest_rank_leaves_the_stated_share_at_or_below():
    values = [float(v) for v in range(1, 201)]
    assert run.nearest_rank(values, 95.0) == 190.0
    assert run.nearest_rank(values, 99.8) == 200.0
    assert run.nearest_rank(values, 50.0) == 100.0
