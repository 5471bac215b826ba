"""Mesh geometry: coordinates, X-Y routing, multicast, aggregates."""

import pytest
from hypothesis import given, strategies as st

from repro.config import NocConfig
from repro.noc import Mesh

MESH = Mesh(NocConfig())
TILES = st.integers(min_value=0, max_value=MESH.num_tiles - 1)
CORNERS = (0, 7, 56, 63)   # the four corner memory controllers


def test_coord_tile_roundtrip():
    for tile in range(MESH.num_tiles):
        x, y = MESH.coord(tile)
        assert MESH.tile(x, y) == tile


def test_coord_rejects_out_of_range():
    with pytest.raises(ValueError):
        MESH.coord(64)
    with pytest.raises(ValueError):
        MESH.tile(8, 0)


def test_hops_examples():
    assert MESH.hops(0, 0) == 0
    assert MESH.hops(0, 7) == 7          # across the top row
    assert MESH.hops(0, 63) == 14        # corner to corner
    assert MESH.hops(0, 8) == 1          # one row down


@given(TILES, TILES)
def test_hops_symmetric_and_route_consistent(a, b):
    assert MESH.hops(a, b) == MESH.hops(b, a)
    route = MESH.route(a, b)
    assert len(route) == MESH.hops(a, b)
    # The route is connected and ends at the destination.
    current = a
    for src, dst in route:
        assert src == current
        assert MESH.hops(src, dst) == 1
        current = dst
    assert current == b


@given(TILES, TILES, TILES)
def test_hops_triangle_inequality(a, b, c):
    assert MESH.hops(a, c) <= MESH.hops(a, b) + MESH.hops(b, c)


def test_route_is_x_then_y():
    route = MESH.route(0, 63)
    xs = [MESH.coord(dst)[0] for _, dst in route]
    # X changes first (monotonic), then stays fixed while Y changes.
    first_y_move = next(i for i, (src, dst) in enumerate(route)
                        if MESH.coord(src)[1] != MESH.coord(dst)[1])
    assert all(MESH.coord(src)[1] == 0 for src, _ in route[:first_y_move])
    assert all(MESH.coord(dst)[0] == 7 for _, dst in route[first_y_move:])


def test_memory_controllers_are_corners():
    assert {MESH.nearest_memory_controller(t) for t in range(64)} \
        == set(CORNERS)


def test_nearest_memory_controller():
    assert MESH.nearest_memory_controller(0) == 0
    assert MESH.nearest_memory_controller(63) == 63
    assert MESH.nearest_memory_controller(9) == 0   # (1,1) closest to (0,0)


@given(TILES)
def test_nearest_mc_is_actually_nearest(tile):
    best = MESH.nearest_memory_controller(tile)
    assert all(MESH.hops(tile, best) <= MESH.hops(tile, mc)
               for mc in CORNERS)


def test_multicast_no_worse_than_unicast_sum():
    dsts = [5, 13, 21, 29]
    tree = MESH.multicast_hops(0, dsts)
    unicast = sum(MESH.hops(0, d) for d in dsts)
    assert 0 < tree <= unicast


def test_multicast_empty_and_self():
    assert MESH.multicast_hops(3, []) == 0
    # Destinations sharing a route prefix pay it once.
    assert MESH.multicast_hops(0, [1, 2, 3]) == 3


def test_multicast_falls_back_without_support():
    no_mc = Mesh(NocConfig(supports_multicast=False))
    dsts = [5, 13]
    assert no_mc.multicast_hops(0, dsts) == sum(no_mc.hops(0, d)
                                                for d in dsts)


def test_average_hops_closed_form_matches_enumeration():
    total = sum(MESH.hops(a, b) for a in range(64) for b in range(64))
    assert MESH.average_hops() == pytest.approx(total / (64 * 64))


def test_link_counts():
    # 8x8 mesh: 2 * 7 * 8 horizontal + 2 * 8 * 7 vertical directed links.
    assert MESH.num_links == 224
