"""Unit tests for :class:`repro.robustness.DegradationPolicy`."""

import pytest

from repro.robustness import DegradationPolicy, SEAM_FALLBACKS
from repro.robustness.faults import SITES


class TestDefaults:
    def test_default_allows_every_known_seam(self):
        policy = DegradationPolicy()
        for seam in SEAM_FALLBACKS:
            assert policy.allows(seam)

    def test_strict_allows_none(self):
        policy = DegradationPolicy(strict=True)
        for seam in SEAM_FALLBACKS:
            assert not policy.allows(seam)

    def test_unknown_seam_never_degrades(self):
        assert not DegradationPolicy().allows("network.retry")
        assert not DegradationPolicy(strict=True).allows("network.retry")


class TestOverrides:
    def test_strict_with_store_build_carveout(self):
        policy = DegradationPolicy(strict=True, store_build=True)
        assert policy.allows("store.build")
        assert not policy.allows("materialize")

    def test_disable_one_seam(self):
        policy = DegradationPolicy(store_build=False)
        assert not policy.allows("store.build")

    def test_retired_seam_keywords_rejected(self):
        # the plan cache and the document index were in-memory dict
        # operations, not builds that can fail: their seams are gone
        for keyword in ("index_build", "plan_cache"):
            with pytest.raises(TypeError):
                DegradationPolicy(**{keyword: False})
        assert not DegradationPolicy().allows("plan_cache.get")


class TestFallbacks:
    def test_fallback_labels(self):
        policy = DegradationPolicy()
        assert policy.fallback("store.build") == "interpreter"
        assert policy.fallback("mystery") == "none"
        assert SEAM_FALLBACKS == {"store.build": "interpreter"}

    def test_every_degradable_site_has_a_fallback(self):
        # "materialize" is a fault-injection site but not a degradable
        # seam: there is no softer path for producing the view itself.
        for seam in SEAM_FALLBACKS:
            assert seam in SITES

    def test_repr_lists_degrading_seams(self):
        assert "store.build" in repr(DegradationPolicy())
        assert repr(DegradationPolicy(strict=True)) == (
            "DegradationPolicy(allows=[])"
        )
