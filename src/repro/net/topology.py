"""Node placement generators.

The paper's simulation scenario places 50 static nodes uniformly at random
in a 1000 m x 1000 m area.  ``random_topology`` reproduces that, with an
optional connectivity constraint (a disconnected topology would make
throughput comparisons meaningless, and the paper's results average over
topologies where every receiver is reachable).
"""

from __future__ import annotations

import math
import random
from bisect import insort
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Node count above which the O(N^2) helpers (``is_connected``,
#: ``average_degree``) switch to a :class:`SpatialGridIndex`.  Below it
#: the brute-force scan is faster than building the index.
GRID_AUTO_NODES = 64


class Position(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class SpatialGridIndex:
    """Uniform-cell spatial hash over a list of :class:`Position`.

    Buckets node indices into square cells of side ``cell_size_m``.  A
    range query for radius ``r`` around a node scans only the cells
    overlapping the axis-aligned box of half-width ``r`` -- O(cell
    occupancy) instead of O(N).  The cell box is an exact superset of
    the disk (``floor`` is monotone, so every point with both
    coordinate offsets <= ``r`` falls inside the scanned box), which is
    why :meth:`neighbors_within` can filter candidates with the same
    ``Position.distance_to`` call the brute-force path uses and return
    *bit-identical* neighbor sets.

    Candidate lists come back sorted ascending by node index, matching
    the iteration order of a plain ``for i, pos in enumerate(...)``
    scan; downstream consumers (audible lists, connectivity maps) keep
    their deterministic ordering for free.

    The index is mobility-ready: :meth:`update_position` re-buckets a
    single node and :meth:`rebuild` re-buckets everything, so a future
    mobility model can invalidate incrementally instead of rebuilding
    per query.
    """

    def __init__(
        self, positions: Sequence[Position], cell_size_m: float
    ) -> None:
        if cell_size_m <= 0.0 or not math.isfinite(cell_size_m):
            raise ValueError(
                f"cell size must be positive and finite, got {cell_size_m}"
            )
        self.cell_size_m = float(cell_size_m)
        self._positions: List[Position] = list(positions)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._bucket_all()

    def __len__(self) -> int:
        return len(self._positions)

    def _cell_of(self, position: Position) -> Tuple[int, int]:
        size = self.cell_size_m
        return (
            math.floor(position.x / size),
            math.floor(position.y / size),
        )

    def _bucket_all(self) -> None:
        cells: Dict[Tuple[int, int], List[int]] = {}
        for index, position in enumerate(self._positions):
            cells.setdefault(self._cell_of(position), []).append(index)
        self._cells = cells

    def rebuild(
        self, positions: Optional[Sequence[Position]] = None
    ) -> None:
        """Re-bucket every node (bulk invalidation hook for mobility)."""
        if positions is not None:
            self._positions = list(positions)
        self._bucket_all()

    def update_position(self, index: int, position: Position) -> None:
        """Move one node to ``position`` and re-bucket it."""
        old_cell = self._cell_of(self._positions[index])
        new_cell = self._cell_of(position)
        self._positions[index] = position
        if old_cell == new_cell:
            return
        bucket = self._cells[old_cell]
        bucket.remove(index)
        if not bucket:
            del self._cells[old_cell]
        # insort keeps per-cell lists ascending so candidate lists stay
        # sorted without a per-query sort of every bucket.
        insort(self._cells.setdefault(new_cell, []), index)

    def candidates_within(self, index: int, range_m: float) -> List[int]:
        """Indices in cells overlapping the disk (superset, sorted asc)."""
        return self.candidates_near(self._positions[index], range_m)

    def candidates_near(
        self, position: Position, range_m: float
    ) -> List[int]:
        """Superset of indices within ``range_m`` of an arbitrary point.

        The scanned box is padded by one cell ring: ``hypot`` rounds,
        so a point whose *computed* distance is exactly ``range_m`` can
        sit a few ulps outside the arithmetic box, and the superset
        guarantee must hold against the same rounded comparison the
        brute-force filter uses.  One cell absorbs that slack whenever
        the cell size is not absurdly small against the coordinate
        magnitudes (anything above ``max(|coord|) * 2**-50``).
        """
        if range_m < 0.0:
            return []
        size = self.cell_size_m
        cx_lo = math.floor((position.x - range_m) / size) - 1
        cx_hi = math.floor((position.x + range_m) / size) + 1
        cy_lo = math.floor((position.y - range_m) / size) - 1
        cy_hi = math.floor((position.y + range_m) / size) + 1
        cells = self._cells
        out: List[int] = []
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    out.extend(bucket)
        out.sort()
        return out

    def neighbors_within(self, index: int, range_m: float) -> List[int]:
        """Grid-accelerated :func:`neighbors_within`; identical output."""
        positions = self._positions
        center = positions[index]
        return [
            i
            for i in self.candidates_within(index, range_m)
            if i != index and center.distance_to(positions[i]) <= range_m
        ]


def random_topology(
    num_nodes: int,
    width_m: float = 1000.0,
    height_m: float = 1000.0,
    rng: Optional[random.Random] = None,
    connectivity_range_m: Optional[float] = 250.0,
    max_attempts: int = 200,
) -> List[Position]:
    """Uniform random placement, resampled until connected.

    Connectivity is checked on the unit-disk graph with radius
    ``connectivity_range_m`` (the nominal no-fading radio range).  Pass
    ``None`` to skip the check.
    """
    if num_nodes <= 0:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if rng is None:
        rng = random.Random(0)
    for _ in range(max_attempts):
        positions = [
            Position(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m))
            for _ in range(num_nodes)
        ]
        if connectivity_range_m is None or is_connected(
            positions, connectivity_range_m
        ):
            return positions
    raise RuntimeError(
        f"could not draw a connected topology of {num_nodes} nodes in "
        f"{width_m}x{height_m} m with range {connectivity_range_m} m "
        f"after {max_attempts} attempts"
    )


def grid_topology(
    rows: int, cols: int, spacing_m: float = 200.0
) -> List[Position]:
    """Regular grid, used by tests and the quickstart example."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    return [
        Position(c * spacing_m, r * spacing_m)
        for r in range(rows)
        for c in range(cols)
    ]


def chain_topology(num_nodes: int, spacing_m: float = 200.0) -> List[Position]:
    """Nodes on a line; the canonical multi-hop unit test topology."""
    if num_nodes <= 0:
        raise ValueError("need at least one node")
    return [Position(i * spacing_m, 0.0) for i in range(num_nodes)]


def neighbors_within(
    positions: Sequence[Position], index: int, range_m: float
) -> List[int]:
    """Indices of nodes within ``range_m`` of node ``index`` (excl. itself)."""
    center = positions[index]
    return [
        i
        for i, pos in enumerate(positions)
        if i != index and center.distance_to(pos) <= range_m
    ]


def _neighbor_query(positions: Sequence[Position], range_m: float):
    """Pick brute-force or grid-backed neighbor lookup by problem size.

    Both answer identically (the grid filters its candidate superset
    with the same ``distance_to`` comparison), so the switch is purely
    a constant-factor decision.
    """
    grid = _auto_grid(positions, range_m)
    if grid is not None:
        return lambda index: grid.neighbors_within(index, range_m)
    return lambda index: neighbors_within(positions, index, range_m)


def _auto_grid(
    positions: Sequence[Position], range_m: float
) -> Optional[SpatialGridIndex]:
    """A spatial grid for ``range_m`` queries when the mesh is large."""
    if len(positions) >= GRID_AUTO_NODES and range_m > 0.0 and math.isfinite(
        range_m
    ):
        return SpatialGridIndex(positions, cell_size_m=range_m)
    return None


def is_connected(positions: Sequence[Position], range_m: float) -> bool:
    """True if the unit-disk graph over ``positions`` is connected."""
    n = len(positions)
    if n <= 1:
        return True
    # BFS that tests each step only against the nodes not yet reached,
    # with the same ``distance_to(...) <= range_m`` predicate as
    # neighbors_within; large meshes prune that set through the grid.
    grid = _auto_grid(positions, range_m)
    unseen = set(range(1, n))
    frontier = [0]
    while frontier and unseen:
        current = frontier.pop()
        center = positions[current]
        pool = (
            unseen
            if grid is None
            else unseen.intersection(grid.candidates_within(current, range_m))
        )
        reached = [
            i for i in pool if center.distance_to(positions[i]) <= range_m
        ]
        unseen.difference_update(reached)
        frontier.extend(reached)
    return not unseen


def average_degree(positions: Sequence[Position], range_m: float) -> float:
    """Mean unit-disk degree; a quick density diagnostic for scenarios."""
    if not positions:
        return 0.0
    neighbors = _neighbor_query(positions, range_m)
    total = sum(len(neighbors(i)) for i in range(len(positions)))
    return total / len(positions)
