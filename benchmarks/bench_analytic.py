#!/usr/bin/env python
"""ANALYTIC: batched cost-surface solver vs per-threshold scalar path.

    PYTHONPATH=src python benchmarks/bench_analytic.py [--smoke] [--min-speedup X]

Times :meth:`repro.core.costs.CostEvaluator.cost_curve` at the
acceptance operating point (2d-exact, q=0.05, c=0.01, U=100, V=10,
d_max=100) through both evaluation paths -- ``method="scalar"`` (one
chain solve + SDF partition per threshold) and ``method="batched"``
(prefix sums of one steady-state solve for all thresholds) -- verifies the
two agree to 1e-10, times :func:`repro.analysis.grid_sweep` against a
scalar-path optimization loop, demonstrates the on-disk cache, and
writes ``benchmarks/out/analytic.json`` (``benchmarks/out/smoke/``
with ``--smoke``, which is git-ignored).

A fresh model and evaluator are built for every repetition so neither
path benefits from the per-instance memo/surface caches -- the numbers
compare algorithms, not cache hits.

Plain script (no pytest-benchmark dependency) so CI can run it in
smoke mode on every supported Python version.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernels_baseline  # noqa: E402
from repro.analysis.sweep import MODEL_CLASSES, grid_sweep  # noqa: E402
from repro.core.batch import banded_steady_state, batched_steady_states  # noqa: E402
from repro.core.costs import CostEvaluator  # noqa: E402
from repro.core.parameters import CostParams, MobilityParams  # noqa: E402
from repro.core.threshold import find_optimal_threshold  # noqa: E402
from repro.exceptions import SolverError  # noqa: E402
from repro.observability.export import build_provenance  # noqa: E402

OUT_DIR = Path(__file__).parent / "out"

#: The acceptance operating point from the issue.
MODEL_NAME = "2d-exact"
MOBILITY = MobilityParams(move_probability=0.05, call_probability=0.01)
COSTS = CostParams(update_cost=100.0, poll_cost=10.0)
DELAYS = (1, 2, 3, math.inf)

#: Agreement bar between the two evaluation paths (absolute).
AGREEMENT_TOLERANCE = 1e-10


def _fresh_evaluator() -> CostEvaluator:
    """A cold evaluator: no breakdown memo, no cached surface."""
    model = MODEL_CLASSES[MODEL_NAME](MOBILITY)
    return CostEvaluator(model, COSTS)


def _time_curves(method: str, d_max: int, reps: int) -> tuple:
    """Best-of-``reps`` seconds to evaluate all curves in ``DELAYS``.

    Returns ``(seconds, curves)`` where ``curves`` maps delay -> list.
    One (d, m) grid point counts as one "point" for the points/sec
    figures, matching what the exhaustive optimizer consumes.
    """
    best = math.inf
    curves = {}
    for _ in range(reps):
        evaluator = _fresh_evaluator()
        start = time.perf_counter()
        curves = {m: evaluator.cost_curve(m, d_max, method=method) for m in DELAYS}
        best = min(best, time.perf_counter() - start)
    return best, curves


def _time_grid(d_max: int, u_values, m_values, reps: int, workers=None) -> tuple:
    """Best-of-``reps`` seconds for one grid sweep (no cache)."""
    best = math.inf
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = grid_sweep(
            MODEL_NAME,
            {"U": u_values, "m": m_values},
            q=MOBILITY.move_probability,
            c=MOBILITY.call_probability,
            d_max=d_max,
            workers=workers,
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_scalar_grid(d_max: int, u_values, m_values, reps: int) -> float:
    """The pre-batching baseline: scalar exhaustive solve per grid point."""
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        for u in u_values:
            for m in m_values:
                model = MODEL_CLASSES[MODEL_NAME](MOBILITY)
                find_optimal_threshold(
                    model,
                    CostParams(update_cost=u, poll_cost=COSTS.poll_cost),
                    m,
                    d_max=d_max,
                    method="exhaustive-scalar",
                )
        best = min(best, time.perf_counter() - start)
    return best


def run_solver_gate(d: int, reps: int, write_baseline: bool) -> list:
    """Banded vs dense steady-state solvers at depth ``d``; gate ratios.

    At very large ``d`` the backward recursion overflows float64 (its
    unnormalized probabilities grow like ``2**d``), so the only dense
    method that still works is the O(d^3) matrix solve -- that is the
    honest denominator for the banded O(d) path.  The batched matrix of
    every threshold ``0 .. d``, built from prefix sums, must come out
    finite.  Returns a list of failure strings (empty = pass).
    """
    import numpy as np

    def _best(fn, repeats, inner=1):
        """Best-of-``repeats`` mean seconds over ``inner`` back-to-back calls.

        The banded solve finishes in ~0.1 ms, far too quick to time as a
        single call without scheduler noise dominating the ratio -- the
        inner loop amortizes that noise away.
        """
        best_s, out = math.inf, None
        for _ in range(repeats):
            model = MODEL_CLASSES[MODEL_NAME](MOBILITY)
            start = time.perf_counter()
            for _ in range(inner):
                out = fn(model)
            best_s = min(best_s, (time.perf_counter() - start) / inner)
        return best_s, out

    matrix_s, matrix_pi = _best(
        lambda m: m.steady_state(d, method="matrix"), reps
    )
    banded_s, banded_pi = _best(
        lambda m: banded_steady_state(m, d), reps, inner=50
    )
    deviation = float(np.max(np.abs(matrix_pi - banded_pi)))
    try:
        with warnings_suppressed():
            MODEL_CLASSES[MODEL_NAME](MOBILITY).steady_state(
                d, method="recursive"
            )
        recursive_note = "finite (below the overflow horizon)"
    except SolverError:
        recursive_note = (
            "overflow (SolverError): the unnormalized recursion grows "
            "like 2**d and leaves float64 range near d ~ 760"
        )
    batched_s, batched_pi = _best(lambda m: batched_steady_states(m, d), 1)
    entry = {
        "reps": reps,
        "matrix_seconds": matrix_s,
        "banded_seconds": banded_s,
        "banded_vs_matrix_speedup": matrix_s / banded_s,
        "max_abs_deviation": deviation,
        "recursive": recursive_note,
        "batched_banded_seconds": batched_s,
        "batched_banded_finite": bool(np.all(np.isfinite(batched_pi))),
    }
    print(f"solver gate at {MODEL_NAME}, d={d} (best of {reps}):")
    print(f"  dense matrix solve  {matrix_s * 1e3:10.2f} ms")
    print(f"  banded solve        {banded_s * 1e3:10.3f} ms "
          f"({entry['banded_vs_matrix_speedup']:,.0f}x)")
    print(f"  recursive solve     {recursive_note}")
    print(f"  agreement: max |matrix - banded| = {deviation:.2e}")
    print(f"  batched (prefix sums) to d_max={d}: {batched_s:.3f}s, "
          f"finite: {entry['batched_banded_finite']}")

    errors = []
    if deviation > AGREEMENT_TOLERANCE:
        errors.append(
            f"banded/matrix deviation {deviation:.3e} exceeds "
            f"{AGREEMENT_TOLERANCE:.0e}"
        )
    if not entry["batched_banded_finite"]:
        errors.append(f"batched d_max={d} produced non-finite rows")
    key = f"d{d}"
    if write_baseline:
        baseline = kernels_baseline.load_baseline()
        section = baseline.get("analytic", {})
        section[key] = entry
        path = kernels_baseline.update_baseline(
            "analytic", section,
            build_provenance("bench:kernels", {"d": d, "reps": reps}),
        )
        print(f"wrote baseline entry {key} to {path}")
        return errors
    committed = kernels_baseline.load_baseline().get("analytic", {}).get(key)
    if committed is None:
        print(f"  no committed baseline for {key}; gate skipped")
        return errors
    failure = kernels_baseline.check_ratio(
        f"analytic.{key}.banded_vs_matrix_speedup",
        entry["banded_vs_matrix_speedup"],
        committed.get("banded_vs_matrix_speedup"),
    )
    if failure:
        errors.append(failure)
    else:
        print(f"  gate: OK against committed {key} baseline "
              f"(margin {kernels_baseline.REGRESSION_MARGIN:.0%})")
    return errors


@contextmanager
def warnings_suppressed():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small d_max and grid: exercise the code paths, not the hardware",
    )
    parser.add_argument("--d-max", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per timing (best-of)")
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit non-zero if the curve speedup falls below this factor",
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="also run the banded-vs-dense solver gate against the "
        "committed benchmarks/out/kernels.json baseline",
    )
    parser.add_argument(
        "--kernels-only", action="store_true",
        help="run only the solver gate",
    )
    parser.add_argument("--kernels-d", type=int, default=2000,
                        help="steady-state depth for the solver gate")
    parser.add_argument(
        "--write-kernels-baseline", action="store_true",
        help="refresh the analytic section of benchmarks/out/kernels.json "
        "instead of gating against it",
    )
    args = parser.parse_args(argv)

    if args.kernels or args.kernels_only:
        solver_errors = run_solver_gate(
            d=args.kernels_d,
            reps=2 if args.smoke else 3,
            write_baseline=args.write_kernels_baseline,
        )
        for failure in solver_errors:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.kernels_only:
            return 1 if solver_errors else 0
    else:
        solver_errors = []

    if args.smoke:
        d_max = args.d_max or 40
        reps = args.reps or 1
        u_values, m_values = (50.0, 100.0), (1, math.inf)
    else:
        d_max = args.d_max or 100
        reps = args.reps or 3
        u_values, m_values = (20.0, 50.0, 100.0, 300.0, 1000.0), (1, 2, 3, math.inf)

    # -- curve evaluation: scalar vs batched ---------------------------
    scalar_s, scalar_curves = _time_curves("scalar", d_max, reps)
    batched_s, batched_curves = _time_curves("batched", d_max, reps)
    points = len(DELAYS) * (d_max + 1)

    deviation = max(
        abs(a - b)
        for m in DELAYS
        for a, b in zip(scalar_curves[m], batched_curves[m])
    )
    agree = deviation <= AGREEMENT_TOLERANCE
    curve_speedup = scalar_s / batched_s if batched_s else math.inf

    # -- grid sweep: scalar loop vs batched, serial vs pooled ----------
    grid_points = len(u_values) * len(m_values)
    scalar_grid_s = _time_scalar_grid(d_max, u_values, m_values, reps)
    grid_s, grid_result = _time_grid(d_max, u_values, m_values, reps)
    pooled_s, pooled_result = _time_grid(d_max, u_values, m_values, 1, workers=2)
    pool_identical = pooled_result.points == grid_result.points

    # -- cache: second identical sweep is a file read ------------------
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-analytic-cache-"))
    try:
        start = time.perf_counter()
        first = grid_sweep(
            MODEL_NAME, {"U": u_values, "m": m_values},
            q=MOBILITY.move_probability, c=MOBILITY.call_probability,
            d_max=d_max, cache_dir=cache_dir,
        )
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        second = grid_sweep(
            MODEL_NAME, {"U": u_values, "m": m_values},
            q=MOBILITY.move_probability, c=MOBILITY.call_probability,
            d_max=d_max, cache_dir=cache_dir,
        )
        warm_s = time.perf_counter() - start
        cache_ok = (
            not first.from_cache
            and second.from_cache
            and first.points == second.points
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "provenance": build_provenance(
            "bench:analytic",
            {"d_max": d_max, "reps": reps, "smoke": args.smoke},
        ),
        "point": {
            "model": MODEL_NAME,
            "q": MOBILITY.move_probability,
            "c": MOBILITY.call_probability,
            "update_cost": COSTS.update_cost,
            "poll_cost": COSTS.poll_cost,
            "d_max": d_max,
            "delays": [None if m == math.inf else m for m in DELAYS],
        },
        "curve": {
            "points": points,
            "scalar_seconds": scalar_s,
            "batched_seconds": batched_s,
            "scalar_points_per_sec": points / scalar_s,
            "batched_points_per_sec": points / batched_s,
            "speedup": curve_speedup,
            "max_abs_deviation": deviation,
            "agreement_tolerance": AGREEMENT_TOLERANCE,
            "agree": agree,
        },
        "grid": {
            "points": grid_points,
            "scalar_loop_seconds": scalar_grid_s,
            "batched_seconds": grid_s,
            "pooled_workers2_seconds": pooled_s,
            "scalar_points_per_sec": grid_points / scalar_grid_s,
            "batched_points_per_sec": grid_points / grid_s,
            "speedup": scalar_grid_s / grid_s if grid_s else math.inf,
            "pool_identical": pool_identical,
        },
        "cache": {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s if warm_s else math.inf,
            "roundtrip_ok": cache_ok,
        },
    }

    print(f"Analytic solver at {MODEL_NAME}, q={MOBILITY.move_probability}, "
          f"c={MOBILITY.call_probability}, d_max={d_max} "
          f"({payload['mode']} mode):")
    print(f"  curve   scalar  {points / scalar_s:>12,.0f} points/s "
          f"({scalar_s * 1e3:8.2f} ms for {points} points)")
    print(f"  curve   batched {points / batched_s:>12,.0f} points/s "
          f"({batched_s * 1e3:8.2f} ms) | speedup {curve_speedup:7.1f}x")
    print(f"  agreement: max |scalar - batched| = {deviation:.3e} "
          f"({'OK' if agree else 'FAIL'} at {AGREEMENT_TOLERANCE:.0e})")
    print(f"  grid    scalar loop {grid_points / scalar_grid_s:>8,.2f} points/s | "
          f"batched {grid_points / grid_s:>8,.2f} points/s | "
          f"speedup {scalar_grid_s / grid_s:5.1f}x | "
          f"workers=2 identical: {pool_identical}")
    print(f"  cache   cold {cold_s * 1e3:8.2f} ms -> warm {warm_s * 1e3:8.2f} ms "
          f"({cold_s / warm_s:,.0f}x) | roundtrip {'OK' if cache_ok else 'FAIL'}")

    out_dir = OUT_DIR / "smoke" if args.smoke else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "analytic.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if not agree:
        print(
            f"FAIL: scalar/batched deviation {deviation:.3e} exceeds "
            f"{AGREEMENT_TOLERANCE:.0e}",
            file=sys.stderr,
        )
        return 1
    if not (pool_identical and cache_ok):
        print("FAIL: pooled or cached sweep diverged from the serial result",
              file=sys.stderr)
        return 1
    if args.min_speedup and curve_speedup < args.min_speedup:
        print(
            f"FAIL: curve speedup {curve_speedup:.1f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 1 if solver_errors else 0


def test_analytic_smoke():
    """Pytest hook so ``pytest benchmarks/`` also exercises the bench."""
    assert main(["--smoke"]) == 0


def test_solver_gate_smoke():
    """CI solver gate: banded-vs-dense ratio vs the committed baseline."""
    assert main(["--smoke", "--kernels-only"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
