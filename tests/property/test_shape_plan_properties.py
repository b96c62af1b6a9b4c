"""Property: a plan compiled once for a query's shape and bound to new
constants answers what the query compiled for its own constants
answers, and so what the reference
:class:`~repro.xpath.evaluator.XPathEvaluator` answers over
``materialize()`` wherever that concrete compile does.

Documents draw every text value from the same small pool as the
constants, so equality tests select something.  The constants are
redrawn by rewriting the query's text, not through the template, so a
wrong template cannot make both sides agree.
"""

import re

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.optimize import Optimizer
from repro.core.plancache import CompiledQuery
from repro.dtd.generator import DocumentGenerator
from repro.obs.canary import oracle_answers
from repro.xmlmodel.serialize import serialize
from repro.xpath.ast import Union
from repro.xpath.fingerprint import parameterize
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

from tests.property.strategies import (
    annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)

#: Text values of generated documents, and the constants bound: two,
#: so that an equality test often selects something and a wrong slot
#: often changes an answer.
VALUES = ("1", "2")


def _setup(data):
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(
        dtd,
        seed=seed,
        max_branch=3,
        value_pools={name: VALUES for name in dtd.element_types},
    ).generate()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)
    view_tree = materialize(document, engine._policy("p").view, spec)
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    return engine, document, view_tree, query


def _rebound(data, query):
    """``query`` with each constant redrawn, by rewriting its quoted
    text (independent of :func:`parameterize`, so a wrong template
    cannot make both sides agree)."""
    return parse_xpath(
        re.sub(
            r'"[^"]*"',
            lambda _: '"%s"' % data.draw(st.sampled_from(VALUES)),
            str(query),
        )
    )


def _rendered(values):
    return sorted(
        value if isinstance(value, str) else serialize(value)
        for value in values
    )


def _concrete_answer(engine, query, document):
    """``query`` compiled for its own constants, as the engine did
    before plans were keyed on the shape: the concrete query rewritten,
    each element target optimized, every target compiled, and the
    results projected by the engine's own projection."""
    entry = engine._policy("p")
    rewriter = engine._rewriter(entry, document)
    targets, rewritten = rewriter.rewrite_targets(query)
    optimizer = Optimizer(engine.dtd)
    plans = tuple(
        (
            target,
            target.startswith("#text"),
            compile_path(
                path if target.startswith("#text")
                else optimizer.optimize(path)
            ),
        )
        for target, path in sorted(targets.items())
    )
    compiled = CompiledQuery(
        "p", str(query), None, query, rewritten, rewritten,
        rewriter.view, plans, None, {},
    )
    runtime = PlanRuntime(engine._store_for(document))
    results, _ = engine._execute_projected(entry, compiled, document, runtime)
    return _rendered(results)


def _answers_like_a_concrete_compile(engine, query, document, view_tree):
    """The engine's answer (a shape plan bound to ``query``'s
    constants) equals the concrete compile's; that one is the oracle's
    wherever the rewriting is sound.  Where it is not (an equality on
    an element with hidden text compares the document's string value,
    ``tests/integration/test_security.py::
    TestHiddenTextInStringValues``), both differ from the oracle
    alike."""
    result = engine.query("p", query, document)
    concrete = _concrete_answer(engine, query, document)
    assert _rendered(result) == concrete
    if concrete != sorted(oracle_answers(query, view_tree).elements()):
        event("concrete compile differs from the oracle")
    return result.report


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bound_plans_match_a_concrete_compile(data):
    """Compile the shape with other constants first; the drawn query
    then runs that cached plan, bound to its own constants."""
    engine, document, view_tree, query = _setup(data)
    warm = _rebound(data, query)
    engine.query("p", warm, document)
    report = _answers_like_a_concrete_compile(
        engine, query, document, view_tree
    )
    # the AST's own folding (equal union branches, say) may give the
    # two another shape; the same shape is a cache hit
    if parameterize(warm)[0] == parameterize(query)[0]:
        assert report.cache_hit


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unions_of_one_shape_match_a_concrete_compile(data):
    """``p(c1) | p(c2)`` for one shape ``p``, with equal and with
    distinct constants: each occurrence has its own slot, so no
    containment merges the branches a binding tells apart."""
    engine, document, view_tree, query = _setup(data)
    equal = data.draw(st.booleans())
    other = query if equal else _rebound(data, query)
    union = Union([query, other])
    _answers_like_a_concrete_compile(engine, union, document, view_tree)
    # ... and as text, whose parse folds equal branches into one
    _answers_like_a_concrete_compile(
        engine, parse_xpath(str(union)), document, view_tree
    )
