"""Property: the plan-cache serving path is answer-preserving.

For random DAG DTDs, random Y/N policies, random conforming documents,
and random fragment-``C`` queries, executing through the compiled-plan
cache (cold and warm) returns exactly the answer of an uncached
compilation, and that answer is the materialization oracle's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.options import ExecutionOptions
from repro.dtd.generator import DocumentGenerator
from repro.obs.canary import oracle_answers
from repro.xmlmodel.serialize import serialize

from tests.property.strategies import (
    annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)

UNCACHED = ExecutionOptions(use_cache=False)
CACHED = ExecutionOptions(use_cache=True)


def _rendered(values):
    return sorted(
        value if isinstance(value, str) else serialize(value)
        for value in values
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cached_execution_is_answer_preserving(data):
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)

    expected = _rendered(engine.query("p", query, document, UNCACHED))
    cold = engine.query("p", query, document, CACHED)
    assert not cold.report.cache_hit
    assert _rendered(cold) == expected
    warm = engine.query("p", query, document, CACHED)
    assert warm.report.cache_hit
    assert _rendered(warm) == expected

    # ... and the answer is the paper's: the query over the
    # materialized view tree
    entry = engine._policy("p")
    view_tree = materialize(document, entry.view, entry.spec)
    assert sorted(oracle_answers(query, view_tree).elements()) == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cached_visits_match_uncached(data):
    """``use_cache=False`` bypasses the cache, not the plan path: the
    machine-independent ``visits`` counter agrees between a cached and
    an uncached run of the same query."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 200))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=4)
    )
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)
    uncached = engine.query("p", query, document, UNCACHED)
    cached = engine.query("p", query, document, CACHED)
    assert cached.report.visits == uncached.report.visits
