"""Flow model: aggregate flows, utilization, queueing, latency."""

import pytest

from repro.config import NocConfig
from repro.noc import FlowModel, Mesh, MessageType, message_bytes


def make_flow(window=1000.0):
    flow = FlowModel(Mesh(NocConfig()))
    flow.set_window(window)
    return flow


def test_local_traffic_never_enters_mesh():
    flow = make_flow()
    flow.inject_mean(MessageType.READ_REQ, 10.0, 0.0)
    assert flow.ledger.total_byte_hops == 0.0
    assert flow.mean_utilization() == 0.0


def test_inject_counts_route_links():
    # A unicast's hop count is the link count of its X-Y route.
    flow = make_flow()
    hops = flow.mesh.hops(0, 3)
    assert hops == len(flow.mesh.route(0, 3)) == 3
    flow.inject_mean(MessageType.READ_RESP, 2.0, hops)
    assert flow.ledger.total_byte_hops == pytest.approx(72 * 2 * 3)
    assert flow.ledger.messages[MessageType.READ_RESP] == 2


def test_empty_or_negative_flows_are_ignored():
    flow = make_flow()
    flow.inject_mean(MessageType.READ_RESP, 0.0, 3.0)
    flow.inject_mean(MessageType.READ_RESP, 5.0, -1.0)
    assert flow.ledger.total_byte_hops == 0.0
    assert flow.mean_utilization() == 0.0


def test_latency_grows_with_distance():
    flow = make_flow()
    near = flow.mean_latency(MessageType.READ_REQ, 1.0)
    far = flow.mean_latency(MessageType.READ_REQ, 14.0)
    assert far > near
    # 14 hops x (5-cycle router + 1-cycle link) is the floor.
    assert far >= 14 * 6


def test_queueing_delay_increases_with_load():
    light = make_flow(window=1_000_000.0)
    heavy = make_flow(window=100.0)
    for f in (light, heavy):
        for _ in range(50):
            f.inject_mean(MessageType.READ_RESP, 10.0, 7.0)
    assert heavy.mean_utilization() > light.mean_utilization() > 0.0
    assert heavy.mean_latency(MessageType.READ_REQ, 7.0) \
        > light.mean_latency(MessageType.READ_REQ, 7.0)


def test_utilization_is_clamped_below_saturation():
    flow = make_flow(window=1.0)
    flow.inject_mean(MessageType.READ_RESP, 1e9, 7.0)
    assert flow.mean_utilization() == pytest.approx(0.98)
    assert flow.mean_latency(MessageType.READ_REQ, 1.0) < 100


def test_queueing_delay_formula_properties():
    flow = make_flow()
    assert flow.queueing_delay(0.0) == 0.0
    assert flow.queueing_delay(0.5) == pytest.approx(0.5)
    # Clamped near saturation, finite.
    assert flow.queueing_delay(1.5) < 100


def test_mean_latency_uses_hop_count():
    flow = make_flow()
    lat3 = flow.mean_latency(MessageType.STREAM_CREDIT, 3.0)
    lat6 = flow.mean_latency(MessageType.STREAM_CREDIT, 6.0)
    assert lat6 > lat3
    assert lat3 >= 3 * 6


def test_multicast_injects_tree_links_once():
    # A multicast is recorded as one message over its X-Y tree's links.
    flow = make_flow()
    mesh = flow.mesh
    flow.inject_mean(MessageType.STREAM_END, 1.0,
                     mesh.multicast_hops(0, [1, 2, 3]))
    size = message_bytes(MessageType.STREAM_END, mesh.config)
    assert flow.ledger.total_byte_hops == size * 3  # shared top-row prefix
    assert flow.ledger.messages[MessageType.STREAM_END] == 1


def test_multicast_skips_self():
    flow = make_flow()
    flow.inject_mean(MessageType.STREAM_END, 1.0,
                     flow.mesh.multicast_hops(4, [4]))
    assert flow.ledger.total_byte_hops == 0.0


def test_inject_uniform_uses_average_distance():
    # NUCA-interleaved flows use the mesh's mean pairwise distance.
    flow = make_flow()
    hops = flow.mesh.average_hops()
    flow.inject_mean(MessageType.READ_REQ, 64.0, hops)
    size = message_bytes(MessageType.READ_REQ, flow.mesh.config)
    assert flow.ledger.total_byte_hops == pytest.approx(size * 64 * hops)
