"""Two-dimensional hexagonal cell topology (Figure 1(b) of the paper).

Cells are regular hexagons tiling the plane; each cell has six
neighbors.  We identify cells by *axial coordinates* ``(q, r)``: two of
the three cube coordinates of the standard hexagonal lattice (the third
is ``s = -q - r``).  The hexagonal grid distance

    dist((q1, r1), (q2, r2))
        = (|q1 - q2| + |r1 - r2| + |(q1 + r1) - (q2 + r2)|) / 2

counts the minimum number of cell-to-cell steps, which is exactly the
paper's ring distance: ring ``r_i`` around a center contains the ``6 i``
cells at distance ``i`` (``1`` cell for ``i = 0``), and the residing
area for threshold ``d`` contains ``g(d) = 3 d (d + 1) + 1`` cells
(equation (1)).

The module also exposes the per-cell ring-transition statistics used to
derive the 2-D Markov chain of Section 4.1: within ring ``i`` the six
*corner* cells have 3 outward / 2 same-ring / 1 inward neighbor while
the ``6 (i - 1)`` *edge* cells have 2 / 2 / 2, which averages to the
paper's

    p+(i) = 1/3 + 1/(6 i),      p-(i) = 1/3 - 1/(6 i).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .topology import CellTopology

__all__ = ["HexTopology", "AXIAL_DIRECTIONS"]

#: The six axial direction vectors, in counterclockwise order starting
#: from "east".  The order is part of the public contract: seeded random
#: walks index into it, so reordering would silently change every
#: simulation trace.
AXIAL_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

HexCell = Tuple[int, int]


@lru_cache(maxsize=1024)
def _ring_offsets(radius: int) -> Tuple[HexCell, ...]:
    """Origin-centered ring ``r_radius`` via the perimeter walk.

    The hex plane is vertex-transitive, so any ring is this ring
    translated by its center; memoizing the offsets makes repeated ring
    materialization (the paging hot path) a translate-only operation.
    """
    offsets: List[HexCell] = []
    q = AXIAL_DIRECTIONS[4][0] * radius
    r = AXIAL_DIRECTIONS[4][1] * radius
    for dq, dr in AXIAL_DIRECTIONS:
        for _ in range(radius):
            offsets.append((q, r))
            q += dq
            r += dr
    return tuple(offsets)


class HexTopology(CellTopology):
    """Infinite hexagonal tiling with axial-coordinate cells ``(q, r)``."""

    degree = 6
    dimensions = 2

    @property
    def origin(self) -> HexCell:
        return (0, 0)

    def validate_cell(self, cell: object) -> None:
        ok = (
            isinstance(cell, tuple)
            and len(cell) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in cell)
        )
        if not ok:
            raise ValueError(f"hex cells are (q, r) integer tuples, got {cell!r}")

    def neighbors(self, cell: HexCell) -> Sequence[HexCell]:
        self.validate_cell(cell)
        q, r = cell
        return tuple((q + dq, r + dr) for dq, dr in AXIAL_DIRECTIONS)

    def distance(self, a: HexCell, b: HexCell) -> int:
        self.validate_cell(a)
        self.validate_cell(b)
        dq = a[0] - b[0]
        dr = a[1] - b[1]
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    def ring(self, center: HexCell, radius: int) -> List[HexCell]:
        """Enumerate ring ``r_radius`` counterclockwise from the west corner.

        Uses the standard "walk the perimeter" construction: start at
        ``center + radius * direction[4]`` and take ``radius`` steps in
        each of the six directions in order.
        """
        self.validate_cell(center)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if radius == 0:
            return [center]
        cq, cr = center
        return [(cq + dq, cr + dr) for dq, dr in _ring_offsets(radius)]

    def ring_size(self, radius: int) -> int:
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 1 if radius == 0 else 6 * radius

    def coverage(self, radius: int) -> int:
        """Return ``g(d) = 3 d (d + 1) + 1`` (equation (1), 2-D case)."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 3 * radius * (radius + 1) + 1

    def coverage_curve(self, radius: int) -> np.ndarray:
        r = np.arange(radius + 1.0)
        return 3.0 * r * (r + 1.0) + 1.0

    # ------------------------------------------------------------------
    # Corner/edge cell classification
    # ------------------------------------------------------------------

    def is_corner(self, center: HexCell, cell: HexCell) -> bool:
        """Return True if ``cell`` is a corner of its ring around ``center``.

        The six corners of ring ``i`` lie along the six lattice axes
        from the center; they are the cells with 3 outward neighbors.
        Ring 1 consists entirely of corners.  The center itself is
        (vacuously) a corner.
        """
        self.validate_cell(center)
        self.validate_cell(cell)
        dq = cell[0] - center[0]
        dr = cell[1] - center[1]
        ds = -dq - dr
        # On an axis, one of the three cube coordinates is zero and the
        # other two are opposite.
        return dq == 0 or dr == 0 or ds == 0

    def __repr__(self) -> str:
        return "HexTopology()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HexTopology)

    def __hash__(self) -> int:
        return hash(HexTopology)
