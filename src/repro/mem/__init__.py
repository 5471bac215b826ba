"""Memory system: paging, NUCA mapping, caches, TLBs, and locks.

This package is the substrate under both the baseline machine and the
near-stream machine:

* :mod:`~repro.mem.address` — virtual address space with named regions,
  4 KB / 2 MB paging, and the static-NUCA 64 B line interleaving that decides
  which L3 bank owns each line (and therefore where streams migrate).
* :mod:`~repro.mem.cache` — exact set-associative cache simulation (LRU and
  bimodal-RRIP) driven by real address traces.
* :mod:`~repro.mem.tlb` — TLB hit/miss model (page-granularity trace sim).
* :mod:`~repro.mem.hierarchy` — private L1/L2 + shared-L3 footprint model and
  the prefetcher models (Bingo-like spatial at L1, stride at L2).
* :mod:`~repro.mem.locks` — the exclusive vs multi-reader/single-writer
  (MRSW) line lock models for indirect atomics (§IV-C, Fig 16).
"""

from repro.mem.address import AddressSpace, Region
from repro.mem.cache import CacheModel, ReplacementPolicy
from repro.mem.tlb import TlbModel
from repro.mem.hierarchy import HierarchyModel, AccessProfile
from repro.mem.locks import LockModel, LockKind, LockStats

__all__ = [
    "AddressSpace",
    "Region",
    "CacheModel",
    "ReplacementPolicy",
    "TlbModel",
    "HierarchyModel",
    "AccessProfile",
    "LockModel",
    "LockKind",
    "LockStats",
]
