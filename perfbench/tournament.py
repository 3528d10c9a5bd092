"""``tournament``: one ``repro-lm compare`` request per op.

Op ``i`` is ``run_tournament("2d-exact", {"m": [1, 2, 3, inf]}, ...)``
with ``d_max = 100`` at a point ``(q, c, U, V)`` drawn from the seed,
log-uniformly over the paper's ranges (q 0.001-0.5, c 0.001-0.1,
U 1-1000), with V in {1, 10}.  Per point it runs the cached distance
grid sweep, the three closed-form baselines, and the Hajek/Mitzel/Yang
jointly-optimal solver at each delay bound.  The last op of every group
of four repeats the group's first point, so a quarter of the distance
legs are reads from the sweep cache, which lives in a directory made
fresh for each run.

Checks: the joint policy never costs more than the distance scheme, the
winner is the cheapest scheme, and a repeat is served from the cache and
returns exactly the payload of its first occurrence.
"""

from __future__ import annotations

import math
import random

from repro.analysis.compare import SCHEMES, run_tournament
from repro.analysis.sweep import grid_sweep
from repro.core.baselines import (
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
)
from repro.core.models import TwoDimensionalModel
from repro.core.parameters import CostParams, MobilityParams
from repro.strategies.jointly_optimal import optimize_joint_policy

from .common import BaseWorkload, delay_key, no_span

MODEL = "2d-exact"
D_MAX = 100
DELAYS = (1, 2, 3, math.inf)
Q_RANGE = (0.001, 0.5)
C_RANGE = (0.001, 0.1)
U_RANGE = (1.0, 1000.0)
V_CHOICES = (1.0, 10.0)
#: Op ``GROUP * k + GROUP - 1`` repeats the point of op ``GROUP * k``.
GROUP = 4
#: Slack of the dominance and winner checks.
COST_TOLERANCE = 1e-9


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload(BaseWorkload):
    calibration = "mixed"

    def __init__(self, seed, workdir, span=no_span):
        super().__init__(seed, workdir)
        self._rng = random.Random(seed)
        self._warmup_point = self._draw()
        self._points = []
        self._first_payloads = {}
        # The traced replay keeps its own cache, so it meets the same
        # hits and misses as the op it replays.
        self.op_cache = workdir / "sweep-cache"
        self.replay_cache = workdir / "sweep-cache-replay"

    def _draw(self):
        rng = self._rng
        return (
            _log_uniform(rng, *Q_RANGE),
            _log_uniform(rng, *C_RANGE),
            _log_uniform(rng, *U_RANGE),
            rng.choice(V_CHOICES),
        )

    def point(self, i):
        """Op ``i``'s ``(q, c, U, V)``."""
        if i < 0:
            return self._warmup_point
        while len(self._points) <= i:
            self._points.append(self._draw())
        if i % GROUP == GROUP - 1:
            return self._points[i - i % GROUP]
        return self._points[i]

    def op(self, i):
        q, c, update_cost, poll_cost = self.point(i)
        return run_tournament(
            MODEL,
            {"m": list(DELAYS)},
            q=q,
            c=c,
            update_cost=update_cost,
            poll_cost=poll_cost,
            d_max=D_MAX,
            cache_dir=self.op_cache,
        )

    def check(self, i, result):
        problems = []
        if len(result.points) != len(DELAYS):
            problems.append(f"{len(result.points)} points, expected {len(DELAYS)}")
        for point in result.points:
            where = f"m={delay_key(point.max_delay)}"
            totals = {entry.scheme: entry.total_cost for entry in point.outcomes}
            if sorted(totals) != sorted(SCHEMES):
                problems.append(f"{where}: schemes {sorted(totals)}")
                continue
            joint, distance = totals["jointly-optimal"], totals["distance"]
            if joint > distance + COST_TOLERANCE:
                problems.append(f"{where}: joint {joint!r} > distance {distance!r}")
            if totals[point.winner] > min(totals.values()) + COST_TOLERANCE:
                problems.append(f"{where}: winner {point.winner} is not the cheapest")
        if i >= 0 and i % GROUP == 0:
            self._first_payloads[i] = result.to_payload()
        elif i >= 0 and i % GROUP == GROUP - 1:
            first = self._first_payloads.pop(i - i % GROUP, None)
            if not result.from_cache:
                problems.append("the repeated point was not served from the sweep cache")
            if result.to_payload() != first:
                problems.append("the repeated point returned a different payload")
        return problems

    def summary(self, result):
        return {
            delay_key(point.max_delay): {
                entry.scheme: (entry.parameter, entry.total_cost)
                for entry in point.outcomes
            }
            for point in result.points
        }

    def traced_op(self, i, span):
        q, c, update_cost, poll_cost = self.point(i)
        with span("analysis.sweep", model=MODEL, q=q, c=c):
            sweep = grid_sweep(
                MODEL,
                {"m": list(DELAYS)},
                q=q,
                c=c,
                update_cost=update_cost,
                poll_cost=poll_cost,
                d_max=D_MAX,
                cache_dir=self.replay_cache,
            )
        mobility = MobilityParams(q, c)
        costs = CostParams(update_cost, poll_cost)
        model = TwoDimensionalModel(mobility)
        topology = model.topology
        baselines = []
        with span("core.baselines", scheme="movement"):
            baselines.append(
                optimal_movement_threshold(topology, mobility, costs, max_threshold=D_MAX)
            )
        with span("core.baselines", scheme="timer"):
            baselines.append(
                optimal_timer_period(topology, mobility, costs, max_period=2 * D_MAX)
            )
        with span("core.baselines", scheme="location-area"):
            baselines.append(optimal_la_radius(topology, mobility, costs, max_radius=D_MAX))
        counts = {
            "strategies.jointly_optimal.iterations": 0,
            "core.threshold.at_bound": 0,
            "analysis.sweep.cache_hits": int(sweep.from_cache),
            "analysis.sweep.cache_misses": int(not sweep.from_cache),
        }
        summary = {}
        for point in sweep.points:
            m = point.max_delay
            with span("strategies.jointly_optimal", model=MODEL, q=q, c=c, m=delay_key(m)):
                policy = optimize_joint_policy(
                    model, costs, m if m == math.inf else int(m), d_max=D_MAX
                )
            counts["strategies.jointly_optimal.iterations"] += policy.iterations
            counts["core.threshold.at_bound"] += point.optimal_d == D_MAX
            outcomes = {
                "distance": (
                    point.optimal_d,
                    point.update_component + point.paging_component,
                )
            }
            for baseline in baselines:
                outcomes[baseline.scheme] = (
                    int(baseline.parameter),
                    float(baseline.update_cost) + float(baseline.paging_cost),
                )
            outcomes["jointly-optimal"] = (
                policy.threshold,
                policy.update_cost + policy.paging_cost,
            )
            summary[delay_key(m)] = outcomes
        return summary, counts
