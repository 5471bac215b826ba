"""Mesh topology: coordinates, X-Y routing, hop counts, multicast trees."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config import NocConfig

Coord = Tuple[int, int]


class Mesh:
    """A 2-D mesh of tiles with dimension-ordered (X-then-Y) routing.

    Tiles are numbered row-major: tile ``t`` sits at
    ``(t % width, t // width)``. Memory controllers occupy the four corners,
    matching the paper's "4 corner mem. ctrl.".
    """

    def __init__(self, config: NocConfig) -> None:
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        self.num_tiles = self.width * self.height
        self._corner_tiles = self._corners()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def coord(self, tile: int) -> Coord:
        self._check(tile)
        return tile % self.width, tile // self.width

    def tile(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x},{y}) outside mesh")
        return y * self.width + x

    def _check(self, tile: int) -> None:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} outside mesh of {self.num_tiles}")

    def _corners(self) -> List[int]:
        return [self.tile(0, 0), self.tile(self.width - 1, 0),
                self.tile(0, self.height - 1),
                self.tile(self.width - 1, self.height - 1)]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance — the hop count of the X-Y route."""
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Directed links (tile, tile) of the X-Y route from src to dst."""
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        links: List[Tuple[int, int]] = []
        x, y = sx, sy
        step_x = 1 if dx > x else -1
        while x != dx:
            links.append((self.tile(x, y), self.tile(x + step_x, y)))
            x += step_x
        step_y = 1 if dy > y else -1
        while y != dy:
            links.append((self.tile(x, y), self.tile(x, y + step_y)))
            y += step_y
        return links

    def nearest_memory_controller(self, tile: int) -> int:
        """Closest corner memory controller by hop count (ties -> lowest id)."""
        return min(self._corner_tiles, key=lambda mc: (self.hops(tile, mc), mc))

    # ------------------------------------------------------------------
    # Multicast
    # ------------------------------------------------------------------
    def multicast_hops(self, src: int, dsts: Sequence[int]) -> int:
        """Link count of a multicast from src to dsts.

        We build the X-Y tree: union of the X-Y routes, counting each directed
        link once (the router replicates at branch points, as Garnet's
        multicast support does). Falls back to the sum of unicast hops when
        the mesh has multicast disabled.
        """
        if not dsts:
            return 0
        if not self.config.supports_multicast:
            return sum(self.hops(src, d) for d in dsts)
        links = set()
        for dst in dsts:
            links.update(self.route(src, dst))
        return len(links)

    # ------------------------------------------------------------------
    # Aggregate geometry (used by analytic traffic models)
    # ------------------------------------------------------------------
    def average_hops(self) -> float:
        """Mean hop count between uniformly random distinct tile pairs."""
        # Mean Manhattan distance on a w x h grid (closed form):
        # E|x1-x2| = (w^2-1)/(3w) for uniform ints in [0,w).
        w, h = self.width, self.height
        return (w * w - 1) / (3.0 * w) + (h * h - 1) / (3.0 * h)

    @property
    def num_links(self) -> int:
        """Total directed inter-router links in the mesh."""
        horizontal = 2 * (self.width - 1) * self.height
        vertical = 2 * self.width * (self.height - 1)
        return horizontal + vertical
