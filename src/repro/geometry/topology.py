"""Abstract cell-topology interface.

The paper (Section 2.1) defines two coverage-area geometries:

* a **one-dimensional** chain of equal-length cells (roads, tunnels,
  train lines), each with two neighbors, and
* a **two-dimensional** tiling of equal hexagonal cells (a city), each
  with six neighbors.

Both geometries share the notion of a *ring*: ring ``r_i`` around a
center cell is the set of cells at ring-distance exactly ``i``; the
*residing area* of a terminal with threshold ``d`` is the union of rings
``r_0 .. r_d``, whose size is ``g(d)`` (equation (1) of the paper).

:class:`CellTopology` captures the operations the rest of the library
needs -- neighbor enumeration, ring distance, ring and disk enumeration
-- so that the mobility simulator, paging schemes, and validation code
are written once and run on either geometry (or on any future one, e.g.
a square grid, by adding a subclass).
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["Cell", "CellTopology"]

#: A cell identifier.  Concrete topologies use plain integers (1-D) or
#: axial-coordinate pairs (2-D hex); the abstract layer only requires
#: hashability so cells can key dictionaries and sets.
Cell = Hashable


class CellTopology(abc.ABC):
    """Common interface for PCN cell geometries.

    Concrete subclasses must be infinite (or behave as if infinite): the
    analytical model never bounds the coverage area, and the simulator
    relies on being able to walk arbitrarily far from the origin.
    """

    #: Number of neighbors of every cell (2 for the line, 6 for the hex
    #: plane).  The random-walk mobility model moves to each neighbor
    #: with probability ``q / degree``.
    degree: int

    #: Number of spatial dimensions (1 or 2); used for labeling only.
    dimensions: int

    @property
    @abc.abstractmethod
    def origin(self) -> Cell:
        """A canonical cell usable as a default walk starting point."""

    @abc.abstractmethod
    def neighbors(self, cell: Cell) -> Sequence[Cell]:
        """Return the cells adjacent to ``cell``.

        The returned sequence has exactly :attr:`degree` elements and a
        deterministic order, so that seeded random walks are
        reproducible.
        """

    @abc.abstractmethod
    def distance(self, a: Cell, b: Cell) -> int:
        """Return the ring distance between two cells.

        This is the minimum number of cell-to-cell moves needed to reach
        ``b`` from ``a``: ``|a - b|`` on the line and the hexagonal grid
        distance on the plane.
        """

    @abc.abstractmethod
    def ring(self, center: Cell, radius: int) -> Sequence[Cell]:
        """Return all cells at distance exactly ``radius`` from ``center``.

        ``ring(center, 0)`` is ``[center]``.  The order is deterministic.
        """

    @abc.abstractmethod
    def ring_size(self, radius: int) -> int:
        """Return ``len(self.ring(center, radius))`` without enumerating.

        Independent of ``center`` because both paper geometries are
        vertex-transitive.
        """

    def disk(self, center: Cell, radius: int) -> Iterable[Cell]:
        """Yield every cell within distance ``radius`` of ``center``.

        This is the *residing area* for threshold ``radius``; the number
        of cells yielded equals :meth:`coverage` of ``radius``.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        for r in range(radius + 1):
            yield from self.ring(center, r)

    def coverage(self, radius: int) -> int:
        """Return ``g(radius)``: the number of cells within ``radius``.

        Equation (1) of the paper: ``2d + 1`` for the line and
        ``3d(d + 1) + 1`` for the hex plane.  The generic implementation
        sums :meth:`ring_size`; subclasses override with the closed form.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return sum(self.ring_size(r) for r in range(radius + 1))

    def coverage_curve(self, radius: int) -> np.ndarray:
        """``g(0) .. g(radius)`` as one float vector.

        The generic implementation sums :meth:`ring_size`; subclasses
        override with the closed form evaluated on an array.
        """
        return np.cumsum([self.ring_size(r) for r in range(radius + 1)], dtype=float)

    def validate_cell(self, cell: Cell) -> None:
        """Raise ``ValueError`` if ``cell`` is not a cell of this topology.

        Subclasses override; the default accepts everything.
        """

    # ------------------------------------------------------------------
    # Ring-transition statistics
    # ------------------------------------------------------------------

    def ring_transition_counts(self, center: Cell, cell: Cell) -> Tuple[int, int, int]:
        """Classify the neighbors of ``cell`` by ring movement.

        Returns ``(outward, same, inward)``: how many neighbors of
        ``cell`` lie one ring further from ``center``, in the same ring,
        and one ring closer.  These counts underpin the Markov-chain
        transition probabilities ``p+(i)`` and ``p-(i)`` of Section 4.1.
        """
        here = self.distance(center, cell)
        outward = same = inward = 0
        for nb in self.neighbors(cell):
            there = self.distance(center, nb)
            if there == here + 1:
                outward += 1
            elif there == here:
                same += 1
            elif there == here - 1:
                inward += 1
            else:  # pragma: no cover - would indicate a broken metric
                raise AssertionError(
                    f"neighbor {nb!r} of {cell!r} jumped from ring {here} to {there}"
                )
        return outward, same, inward
