"""Square-grid cell topology (extension beyond the paper).

The paper's framework only needs a geometry with a *ring structure*:
cells at graph distance ``i`` from a center, with computable ring sizes
and ring-transition statistics.  The square (Manhattan) grid is the
natural third instance and demonstrates that the whole pipeline --
chain, costs, optimizer, simulator -- generalizes beyond the paper's
two geometries.

Cells are integer pairs ``(x, y)`` with 4 neighbors; the ring metric is
the Manhattan distance, under which ring ``r_i`` is a diamond of
``4 i`` cells and the residing area holds

    g(d) = 2 d (d + 1) + 1

cells.  Ring-transition statistics (mirroring the hex derivation of
paper Section 4.1): the 4 *corner* cells of ring ``i`` (on the axes)
have 3 outward / 1 inward neighbors, the ``4 (i - 1)`` *edge* cells
have 2 / 2, giving the ring averages

    p+(i) = 1/2 + 1/(4 i),       p-(i) = 1/2 - 1/(4 i).

(No same-ring moves exist: every step changes the Manhattan distance
by exactly one -- square-lattice parity.)
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .topology import CellTopology

__all__ = ["SquareTopology", "SQUARE_DIRECTIONS"]

#: The four direction vectors, counterclockwise from east.  Order is
#: part of the public contract (seeded walks index into it).
SQUARE_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (0, 1),
    (-1, 0),
    (0, -1),
)

SquareCell = Tuple[int, int]


@lru_cache(maxsize=1024)
def _ring_offsets(radius: int) -> Tuple[SquareCell, ...]:
    """Origin-centered diamond ring (memoized; rings only ever shift)."""
    offsets: List[SquareCell] = []
    # Walk the four diamond edges: E->N->W->S->E.
    x, y = radius, 0
    for dx, dy in ((-1, 1), (-1, -1), (1, -1), (1, 1)):
        for _ in range(radius):
            offsets.append((x, y))
            x += dx
            y += dy
    return tuple(offsets)


class SquareTopology(CellTopology):
    """Infinite square grid with Manhattan ring distance."""

    degree = 4
    dimensions = 2

    @property
    def origin(self) -> SquareCell:
        return (0, 0)

    def validate_cell(self, cell: object) -> None:
        ok = (
            isinstance(cell, tuple)
            and len(cell) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in cell)
        )
        if not ok:
            raise ValueError(f"square cells are (x, y) integer tuples, got {cell!r}")

    def neighbors(self, cell: SquareCell) -> Sequence[SquareCell]:
        self.validate_cell(cell)
        x, y = cell
        return tuple((x + dx, y + dy) for dx, dy in SQUARE_DIRECTIONS)

    def distance(self, a: SquareCell, b: SquareCell) -> int:
        self.validate_cell(a)
        self.validate_cell(b)
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def ring(self, center: SquareCell, radius: int) -> List[SquareCell]:
        """Enumerate the diamond ring counterclockwise from the east corner."""
        self.validate_cell(center)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if radius == 0:
            return [center]
        cx, cy = center
        return [(cx + dx, cy + dy) for dx, dy in _ring_offsets(radius)]

    def ring_size(self, radius: int) -> int:
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 1 if radius == 0 else 4 * radius

    def coverage(self, radius: int) -> int:
        """Return ``g(d) = 2 d (d + 1) + 1``."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 2 * radius * (radius + 1) + 1

    def coverage_curve(self, radius: int) -> np.ndarray:
        r = np.arange(radius + 1.0)
        return 2.0 * r * (r + 1.0) + 1.0

    def is_corner(self, center: SquareCell, cell: SquareCell) -> bool:
        """True if ``cell`` lies on an axis through ``center``.

        Corner cells of ring ``i`` have 3 outward / 1 inward neighbors;
        the rest have 2 / 2.
        """
        self.validate_cell(center)
        self.validate_cell(cell)
        return cell[0] == center[0] or cell[1] == center[1]

    def __repr__(self) -> str:
        return "SquareTopology()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SquareTopology)

    def __hash__(self) -> int:
        return hash(SquareTopology)
