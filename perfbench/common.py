"""Pieces shared by the benchmark's workloads and its runner.

This module imports nothing from the library, so the runner can load it
before it has checked that the library is there.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "expectations"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_counts.json"
#: Workloads, metrics and run length are declared once, here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> Dict[str, str]:
    """``{metric: unit}`` of one metric list of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


class Calibration:
    """A fixed kernel, independent of the library, timed around every op.

    The host this benchmark was tuned on switches, for seconds to
    minutes at a time, between a fast regime and one where the same
    NumPy-bound code takes up to 1.8 times as long; CPU time slows as
    much as wall time, while pure-Python work slows less.  An op's wall
    time times the kernel's reference time over its wall time next to
    the op (the mean of the runs right before and right after it) is the
    op's time on that host in its fast regime, so a regime switch moves
    both and cancels.

    The kernel mixes what the op's time goes to: small-array NumPy calls,
    pure-Python allocation, and streaming through arrays larger than the
    L2 cache.  The weights are the ones under which the op's scaled
    median over 10 s windows moved least across regimes: within 3.5%
    (``paper``, NumPy calls alone), 2.1-3.9% (``tournament``, ``approx``,
    with allocation worth half the calls; 6-11% without) and 1.3%
    (``fleet``, the stream plus twice the calls; 10% with the stream
    alone).  Imports, which set-up times, slow about 1.4 times, like a
    plain interpreter loop (``"interpreter"``), against 1.6 for the
    allocation and 1.8-1.9 for the NumPy calls.
    """

    #: kind -> (small-array NumPy calls, dict entries allocated,
    #: interpreter loop iterations, whether to stream, kernel wall time
    #: on the reference host (a 2-vCPU Xeon VM) in its fast regime)
    KINDS = {
        "dispatch": (300, 0, 0, False, 1.35e-3),
        "mixed": (300, 1000, 0, False, 1.9e-3),
        "stream": (600, 0, 0, True, 8.0e-3),
        "interpreter": (0, 0, 20000, False, 1.48e-3),
    }

    def __init__(self, kind: str) -> None:
        self.calls, self.entries, self.loops, stream, self.reference_s = self.KINDS[kind]
        self._small = np.arange(64, dtype=np.float64)
        self._large = np.arange(2_000_000, dtype=np.float64) if stream else None
        self._scratch = np.empty_like(self._large) if stream else None

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(self.calls):
            total += float(np.cumsum(self._small * 1.0001 + 0.5)[-1])
        table = {}
        for i in range(self.entries):
            table[str(i)] = (i, [i], {"k": i})
        total += len(table)
        for i in range(self.loops):
            total += i * i % 7
        if self._large is not None:
            np.multiply(self._large, 1.0001, out=self._scratch)
            np.add(self._scratch, self._large, out=self._scratch)
            total += float(self._scratch[::4096].sum())
        return total

    def scale(self) -> float:
        """Run the kernel once; reference over measured kernel time."""
        start = time.perf_counter()
        self._kernel()
        return self.reference_s / (time.perf_counter() - start)


@dataclass
class Sample:
    at: float  # seconds from the start of the loop to the start of the op
    latency: float  # seconds
    scale: float  # mean Calibration.scale() just before and just after the op
    ok: bool

    @property
    def scaled(self) -> float:
        """The latency on the reference host in its fast regime."""
        return self.latency * self.scale


def no_span(name: str, **metadata):
    """The untraced stand-in for ``Tracer.span``."""
    return nullcontext()


def delay_key(m) -> str:
    """A delay bound as the golden files spell it (``"1"`` .. ``"inf"``)."""
    return "inf" if m == math.inf else str(int(m))


def close(actual: float, expected: float, tolerance: float) -> bool:
    """Relative agreement, absolute near zero (the golden suite's rule)."""
    return abs(actual - expected) <= tolerance * max(1.0, abs(expected))


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def seed_order(seed: int, pool: Sequence[int]) -> List[int]:
    """The pool shuffled by the benchmark seed; op ``i`` takes entry
    ``i % len(pool)`` (``i = -1``, the warm-up op, takes the last)."""
    return random.Random(seed).sample(list(pool), len(pool))


def deciles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(p10, p50, p90)``, linearly interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0], cuts[4], cuts[8]


class BaseWorkload:
    """One workload: inputs from the seed, ops by index, output checks.

    The constructor builds every input from ``seed`` (input generation is
    part of set-up); ``workdir`` is a fresh directory the workload may
    write to, and ``span`` traces set-up calls in the traced run.

    * ``op(i)`` runs op ``i`` the way a user calls the library; ``i = -1``
      is the set-up's warm-up op.
    * ``check(i, output)`` lists what is wrong with the output (empty
      when it is correct).
    * ``traced_op(i, span)`` replays op ``i`` as the public calls into
      each layer, each inside ``span(<layer>, ...)``, and returns
      ``(summary, counts)``: ``summary`` must equal ``summary(op(i))``
      exactly, ``counts`` holds the op's exact work counts keyed by
      per-layer metric name.
    * ``check_counts(i, counts)`` lists counts that differ from the
      committed reference.

    ``calibration`` names the :class:`Calibration` kernel that scales
    the op's time.
    """

    calibration = "dispatch"

    def __init__(self, seed: int, workdir: Path, span=no_span) -> None:
        self.seed = seed
        self.workdir = workdir

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> List[str]:
        raise NotImplementedError

    def summary(self, output):
        return output

    def traced_op(self, i: int, span) -> Tuple[object, Dict[str, float]]:
        raise NotImplementedError

    def check_counts(self, i: int, counts: Dict[str, float]) -> List[str]:
        return []
