"""System configuration: presets, derived values, cache scaling."""

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.config import (
    CacheConfig,
    CoreConfig,
    CoreType,
    SEConfig,
    SystemConfig,
)
from repro.config.system import _mesh_for


def test_ooo8_defaults_match_table_v():
    cfg = SystemConfig.ooo8()
    assert cfg.freq_ghz == 2.0
    assert cfg.num_cores == 64
    assert cfg.core.width == 8
    assert cfg.core.rob_entries == 224
    assert cfg.l1d.size_bytes == 32 * 1024
    assert cfg.l2.size_bytes == 256 * 1024
    assert cfg.l3_bank.size_bytes == 1024 * 1024
    assert cfg.l3_total_bytes == 64 * 1024 * 1024
    assert cfg.se.core_fifo_bytes == 2048
    assert cfg.se.scc_rob_entries == 64
    assert cfg.se.range_sync_interval == 8


def test_io4_preset_is_in_order_and_small():
    cfg = SystemConfig.io4()
    assert cfg.core.in_order
    assert cfg.core.width == 4
    assert cfg.core.lq_entries == 4
    assert cfg.se.core_fifo_bytes == 256


def test_ooo4_preset_between_io4_and_ooo8():
    io4, ooo4, ooo8 = (SystemConfig.io4(), SystemConfig.ooo4(),
                       SystemConfig.ooo8())
    assert io4.core.rob_entries < ooo4.core.rob_entries \
        < ooo8.core.rob_entries
    assert ooo4.se.core_fifo_bytes == 1024


def test_mesh_for_rejects_non_square():
    with pytest.raises(ValueError):
        _mesh_for(48)
    assert _mesh_for(16).mesh_width == 4


def test_mesh_for_rejects_degenerate_counts_with_hint():
    for bad in (0, -4):
        with pytest.raises(ValueError, match="positive.*preset sizes"):
            _mesh_for(bad)
    with pytest.raises(ValueError, match="ceiling.*preset sizes"):
        _mesh_for(128 * 128)
    # The hint names the supported presets so the fix is one read away.
    with pytest.raises(ValueError, match=r"16x16 \(256 tiles\)"):
        _mesh_for(-1)


def test_noc_config_validates_dimensions():
    from repro.config import NocConfig
    with pytest.raises(ValueError, match="mesh_width must be positive"):
        NocConfig(mesh_width=0)
    with pytest.raises(ValueError, match="mesh_height must be positive"):
        NocConfig(mesh_height=-2)
    with pytest.raises(ValueError, match="exceeds the 64x64 ceiling"):
        NocConfig(mesh_width=65)
    # Rectangular meshes inside the ceiling are fine.
    assert NocConfig(mesh_width=16, mesh_height=4).num_tiles == 64


def test_paper_mesh_presets():
    assert SystemConfig.paper_mesh(16).num_cores == 256
    assert SystemConfig.paper_mesh(32).num_cores == 1024
    rect = SystemConfig.paper_mesh(16, 8)
    assert (rect.noc.mesh_width, rect.noc.mesh_height) == (16, 8)
    # Same tile as the paper preset, only the mesh differs.
    assert SystemConfig.paper_mesh(8) == SystemConfig.ooo8()
    with pytest.raises(ValueError, match="preset sizes"):
        SystemConfig.paper_mesh(0)
    with pytest.raises(ValueError, match="preset sizes"):
        SystemConfig.paper_mesh(100)


def test_with_noc_produces_modified_copy():
    cfg = SystemConfig.ooo8()
    wide = cfg.with_noc(mesh_width=16, mesh_height=16)
    assert wide.num_cores == 256
    assert cfg.num_cores == 64  # original untouched
    with pytest.raises(ValueError):
        cfg.with_noc(mesh_width=-1)


def test_cache_sets_computation():
    cache = CacheConfig(32 * 1024, 8, 2)
    assert cache.sets == 64
    with pytest.raises(ValueError):
        _ = CacheConfig(1000, 3, 2).sets


def test_with_se_and_with_core_produce_modified_copies():
    cfg = SystemConfig.ooo8()
    swept = cfg.with_se(scm_issue_latency=16)
    assert swept.se.scm_issue_latency == 16
    assert cfg.se.scm_issue_latency == 4  # original untouched
    cored = cfg.with_core(rob_entries=96)
    assert cored.core.rob_entries == 96


def test_scaled_private_caches_shrinks_proportionally():
    cfg = SystemConfig.ooo8()
    scaled = cfg.scaled_private_caches(1.0 / 16.0)
    assert scaled.l1d.size_bytes < cfg.l1d.size_bytes
    assert scaled.l2.size_bytes < cfg.l2.size_bytes
    assert scaled.l3_bank.size_bytes < cfg.l3_bank.size_bytes
    # Latencies unchanged: only capacities scale.
    assert scaled.l2.latency == cfg.l2.latency
    # Still valid geometries.
    assert scaled.l1d.sets >= 2
    assert scaled.l2.sets * scaled.l2.assoc * 64 == scaled.l2.size_bytes


def test_scaled_private_caches_has_floors():
    tiny = SystemConfig.ooo8().scaled_private_caches(1e-6)
    assert tiny.l1d.size_bytes >= 1024
    assert tiny.l2.size_bytes >= 4 * 1024
    assert tiny.l3_bank.size_bytes >= 32 * 1024


def test_scaled_private_caches_rejects_bad_scale():
    with pytest.raises(ValueError):
        SystemConfig.ooo8().scaled_private_caches(0.0)
    with pytest.raises(ValueError):
        SystemConfig.ooo8().scaled_private_caches(2.0)


def test_describe_covers_table_v_rows():
    desc = SystemConfig.ooo8().describe()
    for key in ("System", "Core", "L1 I/D", "Priv. L2", "Shared L3", "NoC",
                "DRAM", "SE_core", "SE_L3"):
        assert key in desc


def test_dram_total_bandwidth_counts_controllers():
    cfg = SystemConfig.ooo8()
    assert cfg.dram.total_bandwidth_gbps == pytest.approx(
        cfg.dram.bandwidth_gbps * cfg.dram.controllers)


def test_se_config_for_core_type():
    assert SEConfig.for_core(CoreType.IO4).scc_rob_entries == 0
    assert SEConfig.for_core(CoreType.OOO8).scc_rob_entries == 64


def _leaf_fields(obj, prefix=""):
    """Dotted paths and names of every non-dataclass field, recursively."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.name


def test_every_config_field_is_read():
    """Every knob must move a result: each leaf field of SystemConfig is
    read as an attribute somewhere in the package. A field nothing reads
    still changes every content key, forcing cold rebuilds for nothing."""
    package = pathlib.Path(repro.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [path for path, name in _leaf_fields(SystemConfig())
              if name not in read]
    assert unread == [], f"SystemConfig fields no model reads: {unread}"
