"""Graceful-degradation policy: which optimizations may fail *soft*.

The engine's one execution accelerator is an optional layer over a
correct slow path:

===================  =======================  ======================
seam                 failure                  fallback
===================  =======================  ======================
``store.build``      columnar NodeTable       reference interpreter
===================  =======================  ======================

A :class:`DegradationPolicy` decides, per seam, whether a failure
degrades (the engine emits a
:class:`~repro.obs.events.DegradationEvent`, bumps the
``governor.degradations`` counter, and answers the query on the
fallback path) or propagates (strict mode — what you want in tests,
where a store build crashing is a bug, not weather).

Answers on a degraded path are **identical** to the optimized path by
construction — the fallback is the reference implementation the
columnar kernels are tested against — so degradation trades only
latency, never correctness or the security guarantee.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["DegradationPolicy", "SEAM_FALLBACKS"]

#: seam name -> human-readable fallback label (event payloads, docs).
SEAM_FALLBACKS: Dict[str, str] = {
    "store.build": "interpreter",
}


class DegradationPolicy:
    """Which seams may degrade.  The default allows every known seam
    (serve degraded rather than fail); ``DegradationPolicy(strict=True)``
    allows none.  The seam can be overridden by keyword, e.g.
    ``DegradationPolicy(strict=True, store_build=True)``."""

    __slots__ = ("_allowed",)

    def __init__(
        self,
        strict: bool = False,
        store_build: Optional[bool] = None,
    ):
        self._allowed = {
            "store.build": not strict if store_build is None else store_build,
        }

    def allows(self, seam: str) -> bool:
        """Whether a failure at ``seam`` may degrade (unknown seams
        never degrade — fail loudly on anything unanticipated)."""
        return self._allowed.get(seam, False)

    def fallback(self, seam: str) -> str:
        return SEAM_FALLBACKS.get(seam, "none")

    def __repr__(self):
        degrading = sorted(
            seam for seam, allowed in self._allowed.items() if allowed
        )
        return "DegradationPolicy(allows=%s)" % (degrading,)
