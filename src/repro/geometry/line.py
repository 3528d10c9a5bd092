"""One-dimensional cell topology (Figure 1(a) of the paper).

The coverage area is an infinite line of equal-length cells indexed by
integers.  Cell ``i`` neighbors cells ``i - 1`` and ``i + 1``.  "Ring"
``r_i`` around a center cell ``x`` is the pair ``{x - i, x + i}`` for
``i >= 1`` and ``{x}`` for ``i = 0``, so ``g(d) = 2d + 1`` cells lie
within distance ``d`` (equation (1)).

This geometry models roads, tunnels, and railway lines where terminal
movement is constrained to forward/backward.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .topology import CellTopology

__all__ = ["LineTopology"]


class LineTopology(CellTopology):
    """Infinite 1-D chain of cells indexed by ``int``."""

    degree = 2
    dimensions = 1

    @property
    def origin(self) -> int:
        return 0

    def validate_cell(self, cell: object) -> None:
        if not isinstance(cell, int) or isinstance(cell, bool):
            raise ValueError(f"1-D cells are integers, got {cell!r}")

    def neighbors(self, cell: int) -> Sequence[int]:
        self.validate_cell(cell)
        return (cell - 1, cell + 1)

    def distance(self, a: int, b: int) -> int:
        self.validate_cell(a)
        self.validate_cell(b)
        return abs(a - b)

    def ring(self, center: int, radius: int) -> List[int]:
        self.validate_cell(center)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if radius == 0:
            return [center]
        return [center - radius, center + radius]

    def ring_size(self, radius: int) -> int:
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 1 if radius == 0 else 2

    def coverage(self, radius: int) -> int:
        """Return ``g(d) = 2d + 1`` (equation (1), 1-D case)."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return 2 * radius + 1

    def coverage_curve(self, radius: int) -> np.ndarray:
        r = np.arange(radius + 1.0)
        return 2.0 * r + 1.0

    def __repr__(self) -> str:
        return "LineTopology()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LineTopology)

    def __hash__(self) -> int:
        return hash(LineTopology)
