"""Memory system: paging, NUCA mapping, caches, page walks, and locks.

This package is the substrate under both the baseline machine and the
near-stream machine:

* :mod:`~repro.mem.address` — virtual address space with named regions,
  4 KB / 2 MB paging, and the static-NUCA 64 B line interleaving that decides
  which L3 bank owns each line (and therefore where streams migrate).
* :mod:`~repro.mem.cache` — exact set-associative cache simulation (LRU and
  bimodal-RRIP) driven by real address traces.
* :mod:`~repro.mem.tlb` — page-walk cost of an SE_L3 TLB miss (§IV-B).
* :mod:`~repro.mem.hierarchy` — the batched private L1/L2 walk over a
  machine-shared L3, and the prefetcher coverage model (Bingo-like spatial at
  L1, stride at L2).
* :mod:`~repro.mem.locks` — the exclusive vs multi-reader/single-writer
  (MRSW) line lock models for indirect atomics (§IV-C, Fig 16).
"""

from repro.mem.address import AddressSpace, Region
from repro.mem.cache import CacheModel, ReplacementPolicy
from repro.mem.hierarchy import HierarchyModel
from repro.mem.locks import LockModel, LockKind, LockStats

__all__ = [
    "AddressSpace",
    "Region",
    "CacheModel",
    "ReplacementPolicy",
    "HierarchyModel",
    "LockModel",
    "LockKind",
    "LockStats",
]
