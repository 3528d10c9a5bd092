"""Committed kernel-performance baselines and the regression gate.

``benchmarks/out/kernels.json`` is the one *committed* performance
artifact: it records path-vs-path **ratios** (the banded vs the dense
steady-state solver) rather than absolute times, so the baseline
transfers across CI hosts of different speeds -- two code paths
measured back to back on the same box divide out the hardware.
``bench_analytic.py --kernels`` re-measures those ratios and exits
non-zero when one falls more than :data:`REGRESSION_MARGIN` below its
committed value; ``--write-kernels-baseline`` refreshes the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

OUT_DIR = Path(__file__).parent / "out"
BASELINE_PATH = OUT_DIR / "kernels.json"

#: A measured ratio may fall this far below its committed baseline
#: before the gate fails (>15% regression).
REGRESSION_MARGIN = 0.15


def load_baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    return json.loads(BASELINE_PATH.read_text())


def update_baseline(section: str, payload: dict, provenance: dict) -> Path:
    """Replace one bench's section, preserving the others."""
    baseline = load_baseline()
    baseline[section] = payload
    baseline["provenance"] = provenance
    baseline["gate"] = {"regression_margin": REGRESSION_MARGIN}
    OUT_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    return BASELINE_PATH


def check_ratio(
    name: str,
    measured: float,
    baseline_value: Optional[float],
    margin: float = REGRESSION_MARGIN,
) -> Optional[str]:
    """An error string when ``measured`` regressed past the margin.

    ``None`` baseline means the quantity was not measurable on the
    baseline host -- no gate.
    """
    if baseline_value is None:
        return None
    floor = baseline_value * (1.0 - margin)
    if measured < floor:
        return (
            f"{name}: measured ratio {measured:.3f} fell more than "
            f"{margin:.0%} below the committed baseline "
            f"{baseline_value:.3f} (floor {floor:.3f})"
        )
    return None
