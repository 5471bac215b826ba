"""Per-element reference for :class:`repro.mem.hierarchy.SharedL3Model`.

The original shared-L3 model: an ``OrderedDict`` of resident lines in LRU
order (a hit moves its line to the end, a miss inserts at the end and
evicts from the front once over capacity). The stamp-map model in ``src/``
must reproduce its hit masks and ``hits``/``misses``/``writebacks``
counters exactly; the property tests and the A/B perf gate compare the two.
"""

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.mem.address import LINE_SHIFT


class OrderedL3Model:
    """Exact LRU over resident lines, one ``OrderedDict`` step per access."""

    def __init__(self, config: SystemConfig) -> None:
        self.capacity_lines = config.l3_total_bytes >> LINE_SHIFT
        self._resident: "OrderedDict[int, bool]" = OrderedDict()  # -> dirty
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, lines: np.ndarray,
               is_write: Optional[np.ndarray] = None) -> np.ndarray:
        lines = np.asarray(lines, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(len(lines), dtype=bool)
        hit_mask = np.zeros(len(lines), dtype=bool)
        resident = self._resident
        for pos, (line, write) in enumerate(zip(lines.tolist(),
                                                is_write.tolist())):
            if line in resident:
                self.hits += 1
                hit_mask[pos] = True
                resident[line] = resident[line] or write
                resident.move_to_end(line)
            else:
                self.misses += 1
                resident[line] = bool(write)
                if len(resident) > self.capacity_lines:
                    _, dirty = resident.popitem(last=False)
                    if dirty:
                        self.writebacks += 1
        return hit_mask

    def reset(self) -> None:
        self._resident.clear()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
