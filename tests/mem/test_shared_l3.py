"""Stamp-map shared L3 vs the per-element ``OrderedDict`` reference.

:class:`SharedL3Model` resolves a batch that cannot evict without a
per-access step and replays a batch that may evict in stamp order. The
simulator's own L3 is sized so that it never evicts, so these tests shrink
the capacity to 1-64 lines: multi-call traces mix batches that fit in the
free capacity, batches that overflow it and batches that straddle it, with
writes and ``reset()``, and every call must return the reference's hit mask
and leave its ``hits``/``misses``/``writebacks`` counters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.mem.hierarchy import SharedL3Model
from tests.mem.l3_reference import OrderedL3Model

CONFIG = SystemConfig.ooo8()


def _pair(capacity):
    fast, ref = SharedL3Model(CONFIG), OrderedL3Model(CONFIG)
    fast.capacity_lines = ref.capacity_lines = capacity
    return fast, ref


def _counters(model):
    return model.hits, model.misses, model.writebacks


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matches_ordered_reference(data):
    capacity = data.draw(st.integers(1, 64), label="capacity")
    fast, ref = _pair(capacity)
    for call in range(data.draw(st.integers(1, 8), label="calls")):
        if data.draw(st.integers(0, 9), label="reset?") == 0:
            fast.reset()
            ref.reset()
        # Lengths on both sides of the small-batch loop cutoff; a line span
        # from well under to twice the capacity makes the batch's new lines
        # fit, straddle or overflow whatever is resident already.
        n = data.draw(st.one_of(st.integers(0, 40), st.integers(250, 700)),
                      label="n")
        base = data.draw(st.integers(0, 3 * capacity), label="base")
        span = data.draw(st.integers(1, 2 * capacity + 2), label="span")
        write_frac = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0]),
                               label="writes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                              label="seed"))
        lines = base + rng.integers(0, span, size=n)
        writes = None if write_frac is None else rng.random(n) < write_frac
        got = fast.access(lines, writes)
        expect = ref.access(lines, writes)
        assert got.dtype == bool and len(got) == n
        assert np.array_equal(got, expect), (capacity, call)
        assert _counters(fast) == _counters(ref), (capacity, call)


def test_straddling_batch_evicts_least_recent():
    fast, ref = _pair(4)
    for model in (fast, ref):
        model.access(np.array([1, 2, 3]), np.array([False, True, False]))
        # Re-touching 1 makes 2 the LRU line; 4 fills the last free slot
        # and 5 evicts 2, which is dirty.
        mask = model.access(np.array([1, 4, 5, 1]))
        assert mask.tolist() == [True, False, False, True]
        assert model.writebacks == 1
        assert model.access(np.array([2])).tolist() == [False]
    assert _counters(fast) == _counters(ref)


def test_batch_that_fits_does_not_evict():
    fast, ref = _pair(64)
    lines = np.tile(np.arange(60), 8)        # > the small-batch cutoff
    writes = np.zeros(len(lines), dtype=bool)
    writes[::7] = True
    for model in (fast, ref):
        mask = model.access(lines, writes)
        assert not mask[:60].any() and mask[60:].all()
        assert model.access(np.arange(60)).all()
        assert model.writebacks == 0
    assert _counters(fast) == _counters(ref)
