"""Shared counter-RNG primitives of the array engines' block step.

This module is the single home of the stateless SplitMix64 counter
randomness of :class:`~repro.simulation.vectorized.VectorizedDistanceEngine`
and the fleet shards.  Every uniform is a hash of ``(seed, stream,
slot, global terminal index)``, so a terminal's trajectory does not
depend on the batch or shard it is stepped in.

:func:`mix64` allocates its result; :func:`mix64_into` runs the same
finalizer in place, so the block step hashes each block's key grid in
two reused buffers, and :func:`terminal_keys` finalizes the keys in
their own array.  :func:`uniform_cuts` turns probabilities into integer
cuts on the top 53 hash bits, so events are classified without
converting hashes to floats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "STREAM_CALL",
    "STREAM_DIRECTION",
    "STREAM_EVENT",
    "STREAM_RESIDENCE",
    "STREAM_RESIDENCE_BRANCH",
    "counter_uniforms",
    "drifted_directions",
    "key_uniforms",
    "mix64",
    "mix64_into",
    "slot_key",
    "slot_keys",
    "terminal_keys",
    "uniform_cuts",
]

# -- stateless counter-based randomness --------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SLOT_SALT = 0xD1B54A32D192ED03
_STREAM_SALT = 0x8BB84B93962EACC9
_KEY_OFFSET = 0x632BE59BD9B4E019
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 2.0**-53
_TWO53 = 2.0**53

#: Independent hash streams: slot-event classification, movement
#: direction, and the independent-mode call draw.
STREAM_EVENT, STREAM_DIRECTION, STREAM_CALL = 0, 1, 2

#: CTRW streams: residence-time inverse-CDF draw and the mixture-branch
#: pick (hyperexponential components).  Initial residences hash slot -1
#: on the same streams, which no in-run slot index ever reuses.
STREAM_RESIDENCE, STREAM_RESIDENCE_BRANCH = 3, 4


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wrapping) arrays."""
    x = (x ^ (x >> _S30)) * _MIX_A
    x = (x ^ (x >> _S27)) * _MIX_B
    return x ^ (x >> _S31)


def mix64_into(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`mix64` of the uint64 array ``x`` in place; ``scratch``, of
    the same shape, holds the shifted operands.  Returns ``x``."""
    np.right_shift(x, _S30, out=scratch)
    x ^= scratch
    x *= _MIX_A
    np.right_shift(x, _S27, out=scratch)
    x ^= scratch
    x *= _MIX_B
    np.right_shift(x, _S31, out=scratch)
    x ^= scratch
    return x


def uniform_cuts(p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """uint64 cuts with ``(h >> 11) < cut`` exactly when the uniform
    ``(h >> 11) * 2**-53`` of :func:`key_uniforms` is below ``p``,
    written into ``out``; ``scratch`` is a float64 buffer of ``p``'s
    shape, and may be ``p`` itself.  Returns ``out``.

    Scaling by a power of two is exact, so ``k * 2**-53 < p`` is ``k <
    p * 2**53``, which for an integer ``k`` is ``k < ceil(p * 2**53)``.
    The cut is clamped to ``[0, 2**53]``, and NaN, which no uniform is
    below, cuts at 0.
    """
    with np.errstate(over="ignore"):  # p >= 2**971 scales to inf: cut 2**53
        np.multiply(np.asarray(p, dtype=np.float64), _TWO53, out=scratch)
    np.ceil(scratch, out=scratch)
    np.fmax(scratch, 0.0, out=scratch)
    return np.fmin(scratch, _TWO53, out=out, casting="unsafe")


def slot_key(seed: int, stream: int, slot: int) -> np.uint64:
    """One 64-bit key per ``(seed, stream, slot)``.

    Computed in Python integers (NumPy *scalar* uint64 arithmetic warns
    on wraparound; arrays do not) and finalized with the same SplitMix64
    mix as the vector side.
    """
    x = (
        seed * _GOLDEN + stream * _STREAM_SALT + slot * _SLOT_SALT
        + _KEY_OFFSET
    ) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return np.uint64((x ^ (x >> 31)) & _M64)


def slot_keys(seed: int, streams, first: int, count: int) -> np.ndarray:
    """:func:`slot_key` of each stream and slot ``first .. first+count``.

    Returns a ``(len(streams), count)`` array.  The pre-mix sum is affine
    in the slot, so each row is the wrapping uint64 sequence ``base +
    i * salt`` finalized by :func:`mix64`, all rows in one call.
    """
    base = [
        (seed * _GOLDEN + stream * _STREAM_SALT + first * _SLOT_SALT + _KEY_OFFSET)
        & _M64
        for stream in streams
    ]
    steps = np.arange(count, dtype=np.uint64) * np.uint64(_SLOT_SALT)
    return mix64(np.array(base, dtype=np.uint64)[:, None] + steps)


def terminal_keys(
    offset: int, count: int, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hash keys of the global terminal indices ``offset .. offset+count``,
    finalized in place; ``scratch`` is an optional uint64 buffer of
    ``count`` entries for :func:`mix64_into`."""
    keys = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    keys *= _GOLDEN_U64
    return mix64_into(keys, np.empty_like(keys) if scratch is None else scratch)


def key_uniforms(keys: np.ndarray) -> np.ndarray:
    """U(0,1) of combined ``terminal key ^ slot key`` arrays, any shape.

    :func:`counter_uniforms` XORs one slot key into every terminal key;
    broadcasting the XOR over a block of slot keys draws a whole
    (terminal, slot) grid in one call.
    """
    return (mix64(keys) >> _S11).astype(np.float64) * _INV53


def counter_uniforms(
    idx_keys: np.ndarray, seed: int, stream: int, slot: int
) -> np.ndarray:
    """One U(0,1) per terminal for ``(stream, slot)``, layout-free."""
    return key_uniforms(idx_keys ^ slot_key(seed, stream, slot))


def drifted_directions(
    u: np.ndarray,
    degree: int,
    drift: float,
    drift_direction: int,
    persistence: float,
    last_directions: np.ndarray,
) -> np.ndarray:
    """Direction indices composing drift, persistence, and uniform choice.

    One uniform per mover decides the whole composition: ``u < drift``
    takes the preferred lattice direction, the next ``persistence``
    band repeats the mover's previous direction (movers without one --
    ``last_directions < 0`` -- fall back to a uniform pick over their
    band), and the remaining mass is rescaled to a uniform direction.
    Rescaling a conditioned uniform is again uniform, so the
    distribution matches the per-cell walker's two-draw composition in
    :meth:`repro.mobility.ctrw.CTRWWalk.move` exactly.
    """
    u = np.asarray(u, dtype=np.float64)
    explore = drift + persistence
    # Without drift or persistence (u - 0) / 1 is u: skip two calls per
    # residence-clock round.
    scaled = u if explore == 0.0 else (u - explore) / (1.0 - explore)
    out = np.minimum(
        (scaled * degree).astype(np.int64), degree - 1
    )
    if persistence > 0.0:
        in_persist = (u >= drift) & (u < explore)
        has_last = last_directions >= 0
        repeat = in_persist & has_last
        out[repeat] = last_directions[repeat]
        fresh = in_persist & ~has_last
        if fresh.any():
            band = (u[fresh] - drift) / persistence
            out[fresh] = np.minimum(
                (band * degree).astype(np.int64), degree - 1
            )
    if drift > 0.0:
        out[u < drift] = drift_direction
    return out
