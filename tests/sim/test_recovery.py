"""Precise-state recovery injection (Fig 7 b/c) at the top level.

Recovery episodes come only from a seeded :class:`FaultPlan`; these
tests drive its alias-false-positive site, the one every offloaded
iteration is exposed to.
"""

from repro.fault import FaultPlan
from repro.offload import ExecMode
from repro.sim import run_workload

SCALE = 1.0 / 256.0


def alias_faults(rate):
    return FaultPlan(alias_rate=rate, seed=0)


def test_zero_rate_is_the_default_and_free():
    clean = run_workload("histogram", ExecMode.NS, scale=SCALE)
    explicit = run_workload("histogram", ExecMode.NS, scale=SCALE,
                            fault_plan=alias_faults(0.0))
    assert clean.cycles == explicit.cycles
    assert explicit.faults is None


def test_recoveries_cost_cycles_monotonically():
    rates = (0.0, 10.0, 100.0, 1000.0)
    cycles = [run_workload("histogram", ExecMode.NS, scale=SCALE,
                           fault_plan=alias_faults(r)).cycles for r in rates]
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))
    assert cycles[-1] > 1.2 * cycles[0]


def test_recoveries_add_end_messages():
    from repro.noc.message import MessageType
    noisy = run_workload("histogram", ExecMode.NS, scale=SCALE,
                         fault_plan=alias_faults(500.0))
    clean = run_workload("histogram", ExecMode.NS, scale=SCALE)
    assert noisy.traffic.messages[MessageType.STREAM_END] \
        > clean.traffic.messages[MessageType.STREAM_END]


def test_baseline_immune_to_recovery_rate():
    """Without offloaded streams there is nothing to restore."""
    clean = run_workload("histogram", ExecMode.BASE, scale=SCALE)
    noisy = run_workload("histogram", ExecMode.BASE, scale=SCALE,
                         fault_plan=alias_faults(1000.0))
    assert clean.cycles == noisy.cycles


def test_rare_recoveries_do_not_erase_the_win():
    """The paper's premise: aliasing/context switches are rare, so the
    conservative range-sync recovery path stays off the critical path."""
    base = run_workload("bfs_push", ExecMode.BASE, scale=SCALE)
    ns = run_workload("bfs_push", ExecMode.NS, scale=SCALE,
                      fault_plan=alias_faults(1.0))  # one per million
    assert ns.speedup_over(base) > 1.5
    assert ns.faults.recovery_episodes > 0
