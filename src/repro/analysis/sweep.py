"""Generic parameter sweeps over the analytical model.

The figure/table modules cover the paper's published experiments; this
module provides the free-form sweeps used by the ablation benches and
by downstream users exploring their own parameter regions.

Two entry points:

* :func:`sweep` -- one varied parameter, the rest fixed (the original
  API, kept verbatim for the figure benches);
* :func:`grid_sweep` -- the Cartesian product of any combination of
  ``(q, c, U, V, m)`` axes, solved point-by-point with the batched
  surface solver, optionally fanned out over a process pool
  (``workers=N``) and memoized in an on-disk content-addressed cache.

Every grid point is an independent analytic solve, so the pool needs no
coordination: results are keyed by row-major index and reassembled in
order, making ``workers=N`` output identical to a serial sweep for any
``N`` (the same guarantee, by the same construction, as
:func:`repro.simulation.runner.run_replicated`).

The cache is content-addressed: the file name is the SHA-256 of the
sweep's parameter fingerprint (model, axes, fixed values, ``d_max``,
convention), so distinct sweeps never collide and a repeated sweep is a
single JSON read.  The schema version lives *inside* the payload --
not in the digest -- so a stale-format file for the same sweep is
*found* and refused with a clear message rather than silently
recomputed, mirroring the simulation checkpoint contract.  Sweeps with
a custom ``plan_factory`` bypass the cache entirely: callables have no
stable fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import functools
import math
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.costs import PlanFactory
from ..core.models import MODEL_CLASSES, MobilityModel
from ..core.parameters import CostParams, MobilityParams, validate_delay
from ..core.threshold import find_optimal_threshold
from ..exceptions import ParameterError, SweepPointError
from ..observability.context import current as _observability
from ..parallel import resolve_workers, run_jobs
from ..persist import atomic_write_json, read_checkpoint

__all__ = [
    "SweepPoint",
    "SweepResult",
    "GridSweepResult",
    "sweep",
    "grid_sweep",
    "MODEL_CLASSES",
]

#: Canonical axis order.  Axes may be supplied in any order; the grid
#: is always enumerated row-major in *this* order so that point layout
#: (and the cache fingerprint) is independent of call-site spelling.
_GRID_PARAMS: Tuple[str, ...] = ("q", "c", "U", "V", "m")

#: Bump when the cached payload layout changes incompatibly.
_CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepPoint:
    """One solved grid point of a sweep."""

    q: float
    c: float
    update_cost: float
    poll_cost: float
    max_delay: float
    optimal_d: int
    total_cost: float
    update_component: float
    paging_component: float
    expected_delay: float


@dataclass(frozen=True)
class SweepResult:
    """All solved points plus the sweep's metadata."""

    model_name: str
    varied: str
    points: List[SweepPoint]

    def series(self, attribute: str) -> List[float]:
        """Extract one attribute across points (e.g. ``"total_cost"``)."""
        return [getattr(p, attribute) for p in self.points]


@dataclass(frozen=True)
class GridSweepResult:
    """A solved multi-axis sweep.

    ``axes`` lists the varied parameters in canonical ``(q, c, U, V,
    m)`` order with their value grids; ``points`` holds one
    :class:`SweepPoint` per Cartesian grid point, row-major in that
    same order (the last axis varies fastest).
    """

    model_name: str
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    points: Tuple[SweepPoint, ...]
    d_max: int
    convention: str
    #: True when the points were served from the on-disk cache.
    from_cache: bool = False

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid extent per axis, in axis order."""
        return tuple(len(values) for _, values in self.axes)

    def axis_values(self, param: str) -> Tuple[float, ...]:
        """The value grid of one varied parameter."""
        for name, values in self.axes:
            if name == param:
                return values
        raise ParameterError(
            f"parameter {param!r} is not varied in this sweep; "
            f"axes: {[name for name, _ in self.axes]}"
        )

    def series(self, attribute: str) -> List[float]:
        """Extract one attribute across points (e.g. ``"total_cost"``)."""
        return [getattr(p, attribute) for p in self.points]


def _coerce_axis_value(param: str, value) -> float:
    """Validate and normalize one axis value."""
    if param == "m":
        return validate_delay(value)
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"axis {param!r} values must be finite, got {value}")
    return value


def _canonical_axes(
    axes: Dict[str, Sequence[float]],
) -> Tuple[Tuple[str, Tuple[float, ...]], ...]:
    """Validate the axes mapping and order it canonically."""
    if not axes:
        raise ParameterError("grid_sweep needs at least one axis to vary")
    unknown = sorted(set(axes) - set(_GRID_PARAMS))
    if unknown:
        raise ParameterError(
            f"unknown sweep parameter(s) {unknown}; "
            f"expected a subset of {list(_GRID_PARAMS)}"
        )
    ordered = []
    for param in _GRID_PARAMS:
        if param not in axes:
            continue
        values = tuple(_coerce_axis_value(param, v) for v in axes[param])
        if not values:
            raise ParameterError(f"axis {param!r} has no values")
        ordered.append((param, values))
    return tuple(ordered)


def _solve_grid_point(
    index: int,
    model_name: str,
    q: float,
    c: float,
    update_cost: float,
    poll_cost: float,
    max_delay,
    d_max: int,
    convention: str,
    plan_factory: Optional[PlanFactory],
    models: Optional[Dict[Tuple[float, float], MobilityModel]] = None,
) -> SweepPoint:
    """Solve one grid point for its optimal threshold.

    Module-level so worker processes can pickle and run it; both
    executors run this exact function (see :mod:`repro.parallel`), which
    is what makes ``workers=N`` output identical to a serial sweep.

    A serial sweep passes one ``models`` dict for all its points and
    keeps each ``(q, c)``'s model there, so the points of one chain
    share its memoized steady-state solve.  Sharing is bit-identical:
    the memo returns the matrix a fresh solve would compute.

    Any failure is re-raised as a :class:`SweepPointError` carrying the
    point's parameters: under a process pool, ``future.result()`` would
    otherwise surface the bare original exception with no way to tell
    which of the grid's points (or whose ``plan_factory`` call) was
    responsible.
    """
    point_params = {
        "index": index, "model": model_name, "q": q, "c": c,
        "U": update_cost, "V": poll_cost, "m": max_delay,
    }
    try:
        model = None if models is None else models.get((q, c))
        if model is None:
            model = MODEL_CLASSES[model_name](
                MobilityParams(move_probability=q, call_probability=c)
            )
            if models is not None:
                models[(q, c)] = model
        costs = CostParams(update_cost=update_cost, poll_cost=poll_cost)
        solution = find_optimal_threshold(
            model,
            costs,
            max_delay,
            d_max=d_max,
            plan_factory=plan_factory,
            convention=convention,
        )
    except SweepPointError:
        raise
    except Exception as exc:
        raise SweepPointError(
            f"grid point {point_params} failed to solve: {exc!r}",
            point_params,
        ) from exc
    return SweepPoint(
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay if max_delay == math.inf else float(max_delay),
        optimal_d=solution.threshold,
        total_cost=solution.total_cost,
        update_component=solution.update_cost,
        paging_component=solution.paging_cost,
        expected_delay=solution.breakdown.expected_delay,
    )


# ----------------------------------------------------------------------
# On-disk result cache


def _json_safe(value):
    """Encode a number for the fingerprint/payload (``inf`` -> ``"inf"``)."""
    if value == math.inf:
        return "inf"
    return value


def _json_restore(value):
    """Inverse of :func:`_json_safe`."""
    if value == "inf":
        return math.inf
    return value


def _grid_fingerprint(
    model_name: str,
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...],
    fixed: Dict[str, float],
    d_max: int,
    convention: str,
) -> dict:
    """Everything that determines a grid sweep's output.

    ``workers`` is deliberately absent -- it never changes what a grid
    point computes.  The schema version is stored alongside (not used
    in the digest) so a format change on the *same* sweep is detected
    and refused rather than silently shadowed under a new file name.
    """
    return {
        "version": _CACHE_SCHEMA_VERSION,
        "model": model_name,
        "axes": [
            [param, [_json_safe(v) for v in values]] for param, values in axes
        ],
        "fixed": {key: _json_safe(value) for key, value in sorted(fixed.items())},
        "d_max": d_max,
        "convention": convention,
    }


def _cache_path(cache_dir: Path, fingerprint: dict) -> Path:
    """Content-addressed cache file for one sweep fingerprint."""
    addressed = {k: v for k, v in fingerprint.items() if k != "version"}
    digest = hashlib.sha256(
        json.dumps(addressed, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return cache_dir / f"grid-{digest[:32]}.json"


def _load_cached_points(
    path: Path, fingerprint: dict
) -> Optional[Tuple[SweepPoint, ...]]:
    """Read a cached sweep, validating that it belongs to this request.

    Returns None when the file does not exist; raises
    :class:`~repro.exceptions.ParameterError` when it exists but cannot
    be trusted (unreadable, malformed, schema or fingerprint mismatch)
    -- silence there would hide stale results.
    """
    if not path.exists():
        return None
    return read_checkpoint(
        path,
        fingerprint,
        lambda payload: tuple(
            SweepPoint(
                q=point["q"],
                c=point["c"],
                update_cost=point["update_cost"],
                poll_cost=point["poll_cost"],
                max_delay=_json_restore(point["max_delay"]),
                optimal_d=int(point["optimal_d"]),
                total_cost=point["total_cost"],
                update_component=point["update_component"],
                paging_component=point["paging_component"],
                expected_delay=point["expected_delay"],
            )
            for point in payload["points"]
        ),
        label="sweep cache entry",
        mismatch="a different sweep (model/axes/fixed parameters/d_max/"
        "convention differ)",
        remedy="delete the file (results are recomputed deterministically) "
        "or rerun with the cache disabled (--no-cache)",
    )


def _store_cached_points(
    path: Path, fingerprint: dict, points: Sequence[SweepPoint]
) -> None:
    """Atomically persist a solved sweep: write-to-temp + rename."""
    payload = {
        "fingerprint": fingerprint,
        "points": [
            {
                "q": p.q,
                "c": p.c,
                "update_cost": p.update_cost,
                "poll_cost": p.poll_cost,
                "max_delay": _json_safe(p.max_delay),
                "optimal_d": p.optimal_d,
                "total_cost": p.total_cost,
                "update_component": p.update_component,
                "paging_component": p.paging_component,
                "expected_delay": p.expected_delay,
            }
            for p in points
        ],
    }
    atomic_write_json(path, payload)


# ----------------------------------------------------------------------


def grid_sweep(
    model_name: str,
    axes: Dict[str, Sequence[float]],
    q: float = 0.05,
    c: float = 0.01,
    update_cost: float = 100.0,
    poll_cost: float = 10.0,
    max_delay=1,
    d_max: int = 100,
    convention: str = "paper",
    plan_factory: Optional[PlanFactory] = None,
    workers: Optional[Union[int, str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> GridSweepResult:
    """Solve the optimal threshold over a Cartesian parameter grid.

    Parameters
    ----------
    model_name:
        One of :data:`MODEL_CLASSES` (``"1d"``, ``"2d-exact"``, ...).
    axes:
        Mapping from parameter name (any subset of ``q``, ``c``,
        ``U``, ``V``, ``m``) to its value grid.  The grid is the
        Cartesian product, enumerated row-major in canonical
        ``(q, c, U, V, m)`` order regardless of mapping order.
    q, c, update_cost, poll_cost, max_delay:
        Values for the parameters *not* varied.
    workers:
        ``None``, ``1``, or ``"serial"`` solve in-process; an int > 1
        dispatches grid points to that many worker processes.  Points
        are reassembled by index, so the result is identical for any
        worker count.
    cache_dir:
        Directory for the on-disk result cache; ``None`` (default)
        disables caching.  A repeated sweep with the same parameters
        is served from disk (``from_cache=True``).  Ignored when
        ``plan_factory`` is given -- callables have no stable
        fingerprint, so such sweeps are always recomputed.
    """
    return _grid_sweep(
        model_name,
        axes,
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay,
        d_max=d_max,
        convention=convention,
        plan_factory=plan_factory,
        workers=workers,
        cache_dir=cache_dir,
        models={},
    )


def _grid_sweep(
    model_name: str,
    axes: Dict[str, Sequence[float]],
    q: float,
    c: float,
    update_cost: float,
    poll_cost: float,
    max_delay,
    d_max: int,
    convention: str,
    plan_factory: Optional[PlanFactory],
    workers: Optional[Union[int, str]],
    cache_dir: Optional[Union[str, Path]],
    models: Dict[Tuple[float, float], MobilityModel],
) -> GridSweepResult:
    """:func:`grid_sweep`, keeping the models a serial solve builds.

    A serial sweep that solves (no cache hit, no process pool) leaves
    each chain's model in ``models``, keyed by ``(q, c)``, with its
    steady-state solve memoized;
    :func:`~repro.analysis.compare.run_tournament` hands them to its
    joint leg.
    """
    if model_name not in MODEL_CLASSES:
        raise ParameterError(
            f"unknown model {model_name!r}; known: {sorted(MODEL_CLASSES)}"
        )
    canonical = _canonical_axes(axes)
    pool_size = resolve_workers(workers)
    fixed = {
        "q": q,
        "c": c,
        "U": update_cost,
        "V": poll_cost,
        "m": validate_delay(max_delay),
    }

    obs = _observability()
    cache_file: Optional[Path] = None
    fingerprint: Optional[dict] = None
    if cache_dir is not None and plan_factory is None:
        fingerprint = _grid_fingerprint(model_name, canonical, fixed, d_max, convention)
        cache_file = _cache_path(Path(cache_dir), fingerprint)
        cached = _load_cached_points(cache_file, fingerprint)
        if cached is not None:
            obs.registry.counter(
                "sweep_cache_hits_total", model=model_name
            ).inc()
            return GridSweepResult(
                model_name=model_name,
                axes=canonical,
                points=cached,
                d_max=d_max,
                convention=convention,
                from_cache=True,
            )
        obs.registry.counter(
            "sweep_cache_misses_total", model=model_name
        ).inc()

    # Row-major enumeration of the grid (last axis fastest).
    combos: List[Dict[str, float]] = [{}]
    for param, values in canonical:
        combos = [dict(combo, **{param: v}) for combo in combos for v in values]

    jobs = [
        (
            index,
            (
                index,
                model_name,
                combo.get("q", fixed["q"]),
                combo.get("c", fixed["c"]),
                combo.get("U", fixed["U"]),
                combo.get("V", fixed["V"]),
                combo.get("m", fixed["m"]),
                d_max,
                convention,
                plan_factory,
            ),
            {},
        )
        for index, combo in enumerate(combos)
    ]
    solved: Dict[int, SweepPoint] = {}
    with obs.tracer.span(
        "analysis.grid_sweep",
        model=model_name,
        points=len(combos),
        workers=pool_size or 1,
        d_max=d_max,
    ):
        if pool_size is None:
            # One memo for the whole serial sweep: see _solve_grid_point.
            solve = functools.partial(_solve_grid_point, models=models)
        else:
            solve = _solve_grid_point
            try:
                pickle.dumps(plan_factory)
            except Exception as exc:
                raise ParameterError(
                    f"workers={workers!r} solves grid points in worker "
                    "processes, which requires a picklable plan_factory; pass "
                    "a module-level function rather than a lambda "
                    f"({exc})"
                ) from exc
        run_jobs(solve, jobs, pool_size, solved.__setitem__, merge_key="point")

    points = tuple(solved[i] for i in range(len(combos)))
    if cache_file is not None and fingerprint is not None:
        _store_cached_points(cache_file, fingerprint, points)
    return GridSweepResult(
        model_name=model_name,
        axes=canonical,
        points=points,
        d_max=d_max,
        convention=convention,
        from_cache=False,
    )


def sweep(
    model_name: str,
    varied: str,
    values: Sequence[float],
    q: float = 0.05,
    c: float = 0.01,
    update_cost: float = 100.0,
    poll_cost: float = 10.0,
    max_delay=1,
    d_max: int = 100,
    plan_factory: Optional[PlanFactory] = None,
) -> SweepResult:
    """Solve the optimal threshold along one varied parameter.

    A single-axis :func:`grid_sweep` with the original return type;
    kept as the stable API for the figure benches.

    Parameters
    ----------
    model_name:
        One of ``"1d"``, ``"2d-exact"``, ``"2d-approx"``.
    varied:
        Which parameter the ``values`` list replaces: ``"q"``, ``"c"``,
        ``"U"``, ``"V"``, or ``"m"``.
    values:
        The grid for the varied parameter.
    """
    if varied not in _GRID_PARAMS:
        raise ParameterError(f"varied must be one of q/c/U/V/m, got {varied!r}")
    grid = grid_sweep(
        model_name,
        {varied: values},
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay,
        d_max=d_max,
        plan_factory=plan_factory,
    )
    return SweepResult(
        model_name=model_name, varied=varied, points=list(grid.points)
    )
