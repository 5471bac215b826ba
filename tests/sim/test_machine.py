"""Machine construction."""

from repro.config import SystemConfig
from repro.sim.machine import Machine


def test_build_defaults():
    machine = Machine.build(SystemConfig.ooo8())
    assert machine.mesh.num_tiles == 64
    assert len(machine.hierarchies) == 4
    assert machine.shared_l3.capacity_lines > 0


def test_cache_scaling_applied_to_models_only():
    full = Machine.build(SystemConfig.ooo8(), data_scale=1.0)
    scaled = Machine.build(SystemConfig.ooo8(), data_scale=1.0 / 64.0)
    assert scaled.shared_l3.capacity_lines < full.shared_l3.capacity_lines
    assert scaled.hierarchies[0].l2.sets < full.hierarchies[0].l2.sets
    # The timing-facing config stays at paper parameters.
    assert scaled.config.l2.size_bytes == 256 * 1024


def test_sample_core_count_capped():
    machine = Machine.build(SystemConfig.ooo8(), sample_cores=128)
    assert len(machine.hierarchies) == 64


def test_fresh_flow_is_independent():
    machine = Machine.build(SystemConfig.ooo8())
    a = machine.fresh_flow()
    b = machine.fresh_flow()
    from repro.noc.message import MessageType
    a.inject_mean(MessageType.READ_REQ, 1.0, 5.0)
    assert a.ledger.total_byte_hops > 0.0
    assert b.ledger.total_byte_hops == 0.0
    assert b.mean_utilization() == 0.0
