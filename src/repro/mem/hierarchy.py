"""Private L1/L2 caches, the shared L3, and the prefetcher coverage model.

Per simulated core: an exact L1D and L2 (``CacheModel``). The shared L3 is a
machine-wide :class:`SharedL3Model`, a fully associative LRU over resident
lines with a capacity bound — an intentionally coarser model, justified
because the evaluated workloads are sized to be LLC-resident (64 x 1 MB
banks) so the L3's job is mostly to absorb cold misses and very large scans.

:meth:`HierarchyModel.walk_elements` answers, per element, which level
served it; the phase engine turns those into per-stream level rates, then
into stall cycles and NoC flows.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

import numpy as np

from repro.config import PrefetcherConfig, SystemConfig
from repro.mem.address import LINE_SHIFT
from repro.mem.cache import CacheModel, ReplacementPolicy


class SharedL3Model:
    """Machine-wide L3 occupancy model: exact LRU over resident lines.

    Tracks residency of physical lines across the whole static-NUCA L3. It is
    shared between cores, so one core's fetch warms the cache for everyone —
    the property that makes near-LLC computing attractive in the first place.

    State is a line -> last-access stamp map plus the set of dirty resident
    lines; LRU order is stamp order. The evaluated working sets are sized to
    be LLC-resident, so a batch almost never brings in more new lines than
    the free capacity. Such a batch cannot evict and needs no per-access
    step: an access hits iff its line was resident before the call or occurs
    earlier in the batch, each line takes the stamp of its last occurrence,
    and written lines join the dirty set. A batch that may evict replays
    access by access in stamp order, after sorting the resident lines by
    stamp; the simulator's runs never take that path (their L3 peaks at
    ~12% occupancy at 1/64 and ~4% at scale 0.25).
    """

    # Up to this many accesses the in-order loop costs less than the array
    # path's ~15 numpy calls; the 1/64-1/256 bypass batches have a median of
    # ~50 lines.
    _LOOP_MAX = 256

    def __init__(self, config: SystemConfig) -> None:
        self.capacity_lines = config.l3_total_bytes >> LINE_SHIFT
        self._stamps: Dict[int, int] = {}   # resident line -> last access
        self._dirty: Set[int] = set()       # dirty resident lines
        self._clock = 0                     # stamp of the next access
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, lines: np.ndarray,
               is_write: Optional[np.ndarray] = None) -> np.ndarray:
        """Process line addresses; returns the per-access hit mask."""
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        writes = (np.zeros(n, dtype=bool) if is_write is None
                  else np.asarray(is_write, dtype=bool))
        if n <= self._LOOP_MAX:
            return self._access_in_order(lines, writes)
        # Group equal lines; a group's first and last positions come from
        # min/max over it, so the sort need not be stable.
        order = np.argsort(lines)
        grouped = lines[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], grouped[1:] != grouped[:-1])))
        distinct = grouped[starts].tolist()
        stamps = self._stamps
        resident = np.fromiter(map(stamps.__contains__, distinct),
                               dtype=bool, count=len(distinct))
        new_lines = len(distinct) - int(np.count_nonzero(resident))
        if new_lines > self.capacity_lines - len(stamps):
            return self._access_in_order(lines, writes)
        hit_mask = np.ones(n, dtype=bool)
        hit_mask[np.minimum.reduceat(order, starts)[~resident]] = False
        last = np.maximum.reduceat(order, starts) + self._clock
        stamps.update(zip(distinct, last.tolist()))
        if writes.any():
            self._dirty.update(lines[writes].tolist())
        self._clock += n
        self.hits += n - new_lines
        self.misses += new_lines
        return hit_mask

    def _access_in_order(self, lines: np.ndarray,
                         writes: np.ndarray) -> np.ndarray:
        """Access-by-access path for small batches and ones that may evict.

        The first eviction sorts the resident lines into ``queue``,
        ``(stamp, line)`` pairs in stamp order that every later access
        appends to; a pair goes stale once its line is stamped again or
        evicted, so the first live pair is the LRU victim.
        """
        stamps, dirty = self._stamps, self._dirty
        queue: Optional[Deque[Tuple[int, int]]] = None
        hit_mask = np.zeros(len(lines), dtype=bool)
        clock = self._clock
        for pos, (line, write) in enumerate(zip(lines.tolist(),
                                                writes.tolist())):
            stamp = clock + pos
            if line in stamps:
                hit_mask[pos] = True
            stamps[line] = stamp
            if write:
                dirty.add(line)
            if queue is not None:
                queue.append((stamp, line))
            if len(stamps) > self.capacity_lines:
                if queue is None:
                    queue = deque(sorted(zip(stamps.values(), stamps)))
                old, victim = queue.popleft()
                while stamps.get(victim) != old:
                    old, victim = queue.popleft()
                del stamps[victim]
                if victim in dirty:
                    dirty.remove(victim)
                    self.writebacks += 1
        hits = int(np.count_nonzero(hit_mask))
        self._clock += len(lines)
        self.hits += hits
        self.misses += len(lines) - hits
        return hit_mask

    def reset(self) -> None:
        self._stamps.clear()
        self._dirty.clear()
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


class PrefetchModel:
    """Coverage model of the baseline L1 Bingo + L2 stride prefetchers.

    Rather than issuing individual prefetches, it reports what fraction of a
    trace's miss latency the prefetcher hides, given the trace's regularity
    (fraction of accesses that are affine/strided).
    """

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config

    def hidden_fraction(self, affine_fraction: float) -> float:
        if not self.config.enabled:
            return 0.0
        affine_fraction = min(max(affine_fraction, 0.0), 1.0)
        return (affine_fraction * self.config.affine_coverage
                + (1.0 - affine_fraction) * self.config.irregular_coverage)


class HierarchyModel:
    """One core's private hierarchy bound to the machine-shared L3."""

    def __init__(self, config: SystemConfig, shared_l3: SharedL3Model,
                 core_id: int = 0) -> None:
        self.l1 = CacheModel(config.l1d, ReplacementPolicy.LRU,
                             seed=101 + core_id)
        self.l2 = CacheModel(config.l2, ReplacementPolicy.BRRIP,
                             seed=211 + core_id)
        self.shared_l3 = shared_l3

    # Served-level codes returned by walk_elements.
    LEVELS = ("l1", "l2", "l3", "dram")

    def walk_elements(self, lines: np.ndarray, writes: np.ndarray,
                      skip_l1: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched program-order walk; bit-identical to ``access_element``.

        Returns an int8 array of served levels (indices into ``LEVELS``)
        for each element. The walk is decomposed by level: the L1 has no
        feedback from below, so its whole subsequence runs first as one
        bulk :meth:`CacheModel.access` (wavefront-eligible); dirty L1
        victims are then chained into the L2 stream *before* the demand
        line of the same element (writeback-allocate order), and the L2
        runs with ``draw_per_miss`` so its BRRIP draws are consumed in the
        exact per-miss order of the scalar reference. Only demand L2
        misses reach the shared L3 — victim writebacks that miss the L2
        are dropped, as in ``access_element``.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        levels = np.empty(n, dtype=np.int8)
        if n == 0:
            return levels
        writes = np.asarray(writes, dtype=bool)
        if skip_l1 is None:
            skip = np.zeros(n, dtype=bool)
        else:
            skip = np.asarray(skip_l1, dtype=bool)
        pos = np.arange(n, dtype=np.int64)

        # L1: whole non-skip subsequence in one bulk call (LRU, no draws).
        l1_pos = pos[~skip]
        l1_hit_full = np.zeros(n, dtype=bool)
        if len(l1_pos):
            l1_res = self.l1.access(lines[~skip], writes[~skip],
                                    record_victims=True)
            l1_hit_full[l1_pos] = l1_res.hit_mask
            v_sub, v_lines = l1_res.victims
            v_pos = l1_pos[v_sub]
        else:
            v_pos = np.empty(0, dtype=np.int64)
            v_lines = np.empty(0, dtype=np.int64)
        levels[l1_hit_full] = 0

        # L2: interleave victim writebacks (key 2p) ahead of same-element
        # demand lines (key 2p+1); every element that did not hit L1 is a
        # demand access.
        demand_mask = ~l1_hit_full
        demand_pos = pos[demand_mask]
        keys = np.concatenate((v_pos * 2, demand_pos * 2 + 1))
        l2_lines = np.concatenate((v_lines, lines[demand_mask]))
        l2_writes = np.concatenate((np.ones(len(v_pos), dtype=bool),
                                    writes[demand_mask]))
        is_demand = np.concatenate((np.zeros(len(v_pos), dtype=bool),
                                    np.ones(len(demand_pos), dtype=bool)))
        order = np.argsort(keys, kind="stable")
        l2_res = self.l2.access(l2_lines[order], l2_writes[order],
                                draw_per_miss=True)
        demand_hit = l2_res.hit_mask[is_demand[order]]
        levels[demand_pos[demand_hit]] = 1

        # L3: demand L2 misses only, in program order (exact LRU).
        l3_pos = demand_pos[~demand_hit]
        if len(l3_pos):
            l3_mask = self.shared_l3.access(lines[l3_pos], writes[l3_pos])
            levels[l3_pos] = np.where(l3_mask, np.int8(2), np.int8(3))
        return levels

    def access_element(self, line: int, write: bool,
                       skip_l1: bool = False) -> str:
        """One access through the private hierarchy in program order.

        Returns the level that served it: "l1", "l2", "l3" or "dram".
        Dirty L1 victims are written back into the L2 (writeback-allocate),
        so recently written data stays visible to later loads.
        """
        if not skip_l1:
            hit, evicted = self.l1.access_one(line, write)
            if evicted is not None:
                self.l2.access_one(evicted, write=True)
            if hit:
                return "l1"
        hit, _ = self.l2.access_one(line, write)
        if hit:
            return "l2"
        l3_hit = self.shared_l3.access(np.array([line], dtype=np.int64),
                                       np.array([write]))
        return "l3" if bool(l3_hit[0]) else "dram"

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
