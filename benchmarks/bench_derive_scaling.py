"""Scaling of Algorithm derive (Theorem 3.2: O(|D|^2)).

Runs derive over DTD families of doubling size and asserts sub-cubic
growth; the timed cells expose the raw curve for inspection in the
pytest-benchmark report.
"""

import time

import pytest

from repro.benchtools.scaling import (
    alternating_spec,
    chain_dtd,
    chain_sizes,
    diamond_dtd,
    full_access_spec,
    star_tree_dtd,
    wide_dtd,
)
from repro.core.derive import derive
from repro.core.spec import AccessSpec

SIZES = chain_sizes(points=4, start=16)


@pytest.mark.parametrize("size", SIZES)
def test_derive_chain(benchmark, size):
    spec = alternating_spec(chain_dtd(size), size)
    benchmark.group = "derive-chain"
    benchmark(derive, spec)


@pytest.mark.parametrize("size", SIZES)
def test_derive_wide(benchmark, size):
    dtd = wide_dtd(size)
    spec = AccessSpec(dtd)
    for index in range(1, size + 1, 2):
        spec.annotate("r", "b%d" % index, "N")
    benchmark.group = "derive-wide"
    benchmark(derive, spec)


@pytest.mark.parametrize("layers", [4, 8, 16, 32])
def test_derive_diamond(benchmark, layers):
    spec = full_access_spec(diamond_dtd(layers))
    benchmark.group = "derive-diamond"
    benchmark(derive, spec)


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_derive_star_tree(benchmark, depth):
    dtd = star_tree_dtd(depth, fanout=2)
    spec = AccessSpec(dtd)
    benchmark.group = "derive-tree"
    benchmark(derive, spec)


def test_derive_growth_is_polynomial():
    """Doubling |D| must not grow runtime by more than 16x (a quartic
    guard, slack for timing noise; the claim is quadratic, and
    ``tests/unit/core/test_derive_counts.py`` holds it with operation
    counts)."""
    timings = []
    for size in (64, 128, 256):
        spec = alternating_spec(chain_dtd(size), size)
        started = time.perf_counter()
        for _ in range(3):
            derive(spec)
        timings.append(time.perf_counter() - started)
    for previous, current in zip(timings, timings[1:]):
        assert current < max(previous, 1e-4) * 16
