"""Direction-persistent mobility (a stress test for the paper's model).

The paper's random walk redraws the direction uniformly at every move
-- the right model for "frequent stop-and-go as well as direction
changes" of pedestrians.  Vehicles do the opposite: they keep heading
the same way for many cells.  :class:`PersistentWalk` interpolates
between the two with one parameter:

``persistence = 0``
    exactly the paper's walk (uniform direction each move);
``persistence -> 1``
    nearly straight-line motion (the fluid-flow regime of [8]).

At each move the walker repeats its previous direction with probability
``persistence`` and redraws uniformly otherwise.  The *move rate* ``q``
is untouched, so the analytical chain sees identical parameters -- any
cost deviation the ``ext-persist`` experiment measures is purely the
model's direction-memory blindness.  Persistence makes net displacement
grow faster (the walk's effective diffusion constant scales like
``(1 + eps) / (1 - eps)``), so the distance-based scheme updates more
often than the chain predicts: the model *underestimates* cost for
vehicle-like users (``results/ext-persist.txt``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ParameterError
from ..geometry.topology import Cell, CellTopology
from .walk import RandomWalk

__all__ = ["PersistentWalk"]


class PersistentWalk(RandomWalk):
    """Random walk with direction memory.

    Drop-in replacement for :class:`RandomWalk` (the simulation engine
    accepts either via its ``walker_factory`` hook).

    Parameters
    ----------
    persistence:
        Probability of repeating the previous move's direction,
        in ``[0, 1)``.  0 reduces to the parent class behavior.
    """

    def __init__(
        self,
        topology: CellTopology,
        move_probability: float,
        persistence: float,
        rng: Optional[np.random.Generator] = None,
        start: Optional[Cell] = None,
    ) -> None:
        if not 0.0 <= persistence < 1.0:
            raise ParameterError(f"persistence must be in [0, 1), got {persistence}")
        super().__init__(topology, move_probability, rng=rng, start=start)
        self.persistence = persistence
        self._last_direction: Optional[int] = None

    def move(self) -> Cell:
        """Move, repeating the previous direction with the set probability."""
        options = self.topology.neighbors(self.position)
        if (
            self._last_direction is not None
            and self.rng.random() < self.persistence
        ):
            index = self._last_direction
        else:
            index = int(self.rng.integers(len(options)))
        self._last_direction = index
        self.position = options[index]
        self.moves += 1
        return self.position

    def __repr__(self) -> str:
        return (
            f"PersistentWalk(topology={self.topology!r}, "
            f"q={self.move_probability}, persistence={self.persistence}, "
            f"position={self.position!r})"
        )
