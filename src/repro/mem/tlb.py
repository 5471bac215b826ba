"""SE_L3 address-translation cost.

The range unit (§IV-B) translates through a TLB co-located with SE_L3; the
SE caches the current translation, so a stream makes one TLB access per
page (``StreamStats.pages_touched``). Only misses cost time: each one is a
hardware page walk that stalls the stream context. Misses come from the
seeded TLB fault site (:mod:`repro.fault`); TLB capacity is not modelled.
"""

from __future__ import annotations


#: Cycles for one hardware page walk refilling the SE's translation after
#: a miss or shootdown (the range unit stalls the context meanwhile).
PAGE_WALK_CYCLES = 50.0


def page_walk_cycles(misses: float) -> float:
    """Aggregate page-walk stall cycles for ``misses`` TLB misses."""
    return max(misses, 0.0) * PAGE_WALK_CYCLES
