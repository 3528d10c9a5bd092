"""One executor for independent, index-keyed jobs.

Three entry points fan independent jobs out to worker processes: simulation
replications (:func:`repro.simulation.runner.run_replicated`), fleet
shards (:func:`repro.simulation.fleet.run_fleet`) and grid points
(:func:`repro.analysis.sweep.grid_sweep`).  They share one contract,
implemented here once:

* ``workers`` of ``None``, ``1`` or ``"serial"`` run every job
  in-process; an int > 1 runs them on that many worker processes
  (:func:`resolve_workers`).  Each job is a pure function of its
  arguments, so the executor changes wall-clock time, never results;
* while an observability session is active, every job runs in a fresh
  session of its own -- in a worker because the parent's session does
  not exist there, and in-process for symmetry -- and their records
  merge into the parent in job-index order after the last job finishes
  (a worker's as the payload it ships back, an in-process job's
  session directly).  ``as_completed`` yields in a nondeterministic
  order, and float merging is only exactly reproducible in a canonical
  one, so this is what makes a pooled run export the same metrics and
  spans as a serial one.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar, Union

from .exceptions import ParameterError
from .observability import context as _obs_context

__all__ = ["Job", "resolve_workers", "run_jobs"]

T = TypeVar("T")

#: One unit of work: its index, the positional arguments of the job
#: function, and the metadata of the span it runs in.
Job = Tuple[int, tuple, dict]


def resolve_workers(workers: Optional[Union[int, str]]) -> Optional[int]:
    """Normalize the ``workers`` argument to a pool size (None = serial)."""
    if workers is None or workers == "serial":
        return None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParameterError(
            f"workers must be a positive int or 'serial', got {workers!r}"
        )
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return None if workers == 1 else workers


def _observed(
    func: Callable[..., T], args: tuple, span: Optional[str], metadata: dict
) -> Tuple[T, _obs_context.Observability]:
    """Run one job in a fresh observability session; return both."""
    with _obs_context.session() as obs:
        with obs.tracer.span(span, **metadata) if span else nullcontext():
            result = func(*args)
    return result, obs


def _call(
    func: Callable[..., T],
    args: tuple,
    observe: bool,
    span: Optional[str],
    metadata: dict,
) -> Tuple[T, Optional[dict]]:
    """Run one job in a worker, in a fresh observability session when
    ``observe``.

    Module-level so worker processes can pickle it.  Returns the job's
    result and the session's collected payload (None when unobserved).
    """
    if not observe:
        return func(*args), None
    result, obs = _observed(func, args, span, metadata)
    return result, obs.collect_payload()


def run_jobs(
    func: Callable[..., T],
    jobs: Sequence[Job],
    pool_size: Optional[int],
    on_result: Callable[[int, T], None],
    span: Optional[str] = None,
    merge_key: str = "index",
) -> None:
    """Run ``func(*args)`` for every job; report each result as it lands.

    ``pool_size`` comes from :func:`resolve_workers`.  ``on_result`` is
    called with ``(index, result)`` in job order in-process and in
    completion order on a pool -- checkpoint writers rely on seeing
    every result as soon as it exists.  Observed jobs run inside a
    ``span`` carrying the job's metadata (no span when None); their
    records merge into the caller's session in index order, stamped
    ``{merge_key: index}``: an in-process job's session directly, a
    worker's as the payload it ships back.
    """
    parent = _obs_context.current()
    observe = parent.enabled
    sessions: Dict[int, _obs_context.Observability] = {}
    payloads: Dict[int, dict] = {}

    if pool_size is None:
        for index, args, metadata in jobs:
            if observe:
                result, sessions[index] = _observed(func, args, span, metadata)
            else:
                result = func(*args)
            on_result(index, result)
    elif jobs:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=min(pool_size, len(jobs))) as pool:
            futures = {
                pool.submit(_call, func, args, observe, span, metadata): index
                for index, args, metadata in jobs
            }
            for future in as_completed(futures):
                index = futures[future]
                result, payload = future.result()
                if payload is not None:
                    payloads[index] = payload
                on_result(index, result)
    for index in sorted(sessions):
        parent.merge(sessions[index], **{merge_key: index})
    for index in sorted(payloads):
        parent.merge_payload(payloads[index], **{merge_key: index})
