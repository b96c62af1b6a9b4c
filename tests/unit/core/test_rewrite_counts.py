"""Counted, not timed: Theorem 4.1's bound on Algorithm rewrite.

Rewriting is O(|p| * |Dv|^2): a dynamic program over (sub-query, view
node) cells.  Each test builds a fresh :class:`Rewriter` per size, so
no memo carries over, and counts the cells it computes
(``Rewriter._compute_rw`` calls).  Doubling the query must at most
double the cells (with slack: 2.1x); doubling the view under a
``//`` query must stay within the quadratic 4x (4.2x).  The timing
benches in ``benchmarks/bench_rewrite_scaling.py`` stay as tables.
"""

import pytest

from repro.benchtools.scaling import (
    chain_dtd,
    deep_query,
    descendant_query,
    diamond_dtd,
    full_access_spec,
)
from repro.core.derive import derive
from repro.core.rewrite import Rewriter
from repro.xpath.parser import parse_xpath


@pytest.fixture()
def cells(monkeypatch):
    """``cells(view, query)``: the DP cells a fresh rewriter computes."""
    counter = [0]
    compute = Rewriter._compute_rw

    def counted(self, query, key):
        counter[0] += 1
        return compute(self, query, key)

    monkeypatch.setattr(Rewriter, "_compute_rw", counted)

    def count(view, query):
        counter[0] = 0
        Rewriter(view).rewrite(query)
        return counter[0]

    return count


def _ratios(counts):
    return [after / before for before, after in zip(counts, counts[1:])]


def test_cells_linear_in_query_size(cells):
    view = derive(full_access_spec(chain_dtd(64)))
    counts = [cells(view, deep_query(depth)) for depth in (8, 16, 32)]
    assert counts == [15, 31, 63]
    assert all(ratio <= 2.1 for ratio in _ratios(counts)), counts


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_cells_within_quadratic_in_view_size(cells, depth):
    counts = [
        cells(derive(full_access_spec(chain_dtd(size))), descendant_query(depth))
        for size in (8, 16, 32, 64)
    ]
    assert counts[-1] == {1: 66, 2: 132, 4: 261}[depth]
    assert all(ratio <= 4.2 for ratio in _ratios(counts)), counts


def test_exponential_path_count_stays_polynomial(cells):
    # diamond_dtd(n) has 2**n paths from l0 to d<n> but 3n + 1 types:
    # recProc sharing keeps the cells linear in the view
    counts = [
        cells(
            derive(full_access_spec(diamond_dtd(layers))),
            parse_xpath("//l0//d%d" % layers),
        )
        for layers in (4, 8, 16)
    ]
    assert counts == [28, 52, 100]
    assert all(ratio <= 4.2 for ratio in _ratios(counts)), counts
