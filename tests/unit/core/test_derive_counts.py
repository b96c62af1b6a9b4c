"""Counted, not timed: Theorem 3.2's bound on Algorithm derive.

Deriving a security view is O(|D|^2).  Each test derives the view of
one DTD family at doubling sizes and counts the work units of
``_Deriver``: ``proc_acc`` and ``proc_inacc`` (the paper's
Proc_Acc/Proc_InAcc, once per type), ``_compute_reg`` (the regular
expression an inaccessible type contributes) and ``_child_slots``
(one production's children).  Doubling |D| must stay within the
quadratic 4x (4.2x); today every family grows linearly, and the exact
counts are pinned so a regression shows.  The timing benches in
``benchmarks/bench_derive_scaling.py`` stay as tables.
"""

import sys

import pytest

from repro.benchtools.scaling import (
    alternating_spec,
    chain_dtd,
    diamond_dtd,
    full_access_spec,
    star_tree_dtd,
    wide_dtd,
)

# ``repro.core.derive`` the attribute is the function; the module
# holding ``_Deriver`` is reached through ``sys.modules``.
DERIVE = sys.modules["repro.core.derive"]
COUNTED = ("proc_acc", "proc_inacc", "_compute_reg", "_child_slots")


@pytest.fixture()
def work(monkeypatch):
    """``work(spec)``: ``{method: calls}`` for one derive of ``spec``."""
    counts = {}

    def counting(name, method):
        def counted(self, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return method(self, *args, **kwargs)

        return counted

    deriver = DERIVE._Deriver
    for name in COUNTED:
        monkeypatch.setattr(
            deriver, name, counting(name, getattr(deriver, name))
        )

    def count(spec):
        counts.clear()
        DERIVE.derive(spec)
        return {name: counts.get(name, 0) for name in COUNTED}

    return count


def _within_quadratic(series):
    for name in COUNTED:
        counts = [calls[name] for calls in series]
        for before, after in zip(counts, counts[1:]):
            assert after <= 4.2 * max(before, 1), (name, counts)


FAMILIES = {
    # family: (spec of size n, sizes, pinned proc_acc, pinned proc_inacc)
    "chain-alternating": (
        lambda n: alternating_spec(chain_dtd(n), n),
        (16, 32, 64, 128),
        [9, 17, 33, 65],
        [8, 16, 32, 64],
    ),
    "chain": (
        lambda n: full_access_spec(chain_dtd(n)),
        (16, 32, 64, 128),
        [17, 33, 65, 129],
        [0, 0, 0, 0],
    ),
    "wide": (
        lambda n: full_access_spec(wide_dtd(n)),
        (16, 32, 64, 128),
        [17, 33, 65, 129],
        [0, 0, 0, 0],
    ),
    "diamond": (
        lambda n: full_access_spec(diamond_dtd(n)),
        (4, 8, 16, 32),
        [17, 33, 65, 129],
        [0, 0, 0, 0],
    ),
    # depth d has 2**(d+1) - 1 types, so each step doubles |D|
    "star": (
        lambda d: full_access_spec(star_tree_dtd(d)),
        (3, 4, 5, 6),
        [15, 31, 63, 127],
        [0, 0, 0, 0],
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_derive_work_within_quadratic_in_dtd_size(work, family):
    make, sizes, acc, inacc = FAMILIES[family]
    series = [work(make(size)) for size in sizes]
    assert [counts["proc_acc"] for counts in series] == acc
    assert [counts["proc_inacc"] for counts in series] == inacc
    # an inaccessible type's regular expression is computed once
    assert [counts["_compute_reg"] for counts in series] == inacc
    _within_quadratic(series)
