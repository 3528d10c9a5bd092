"""The ablation and extension experiments EXPERIMENTS.md reports.

Besides the paper's Tables 1-2 and Figures 4-5, EXPERIMENTS.md reports
fifteen ablation (``abl-*``) and extension (``ext-*``) rows.
:data:`EXPERIMENTS` maps each row id to one :class:`Experiment`: a
``compute`` function that returns the experiment's structured results
and a ``render`` function that turns them into the report
``repro-lm reproduce`` writes as ``results/<id>.txt``.
``tests/analysis/test_experiments.py`` gates each row's headline on the
computed results and fails when a committed report is stale.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple

import numpy as np

from ..channel import dimension_channel
from ..core.baselines import (
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
)
from ..core.costs import CostEvaluator
from ..core.delay_penalty import optimize_soft_delay
from ..core.models import OneDimensionalModel, SquareGridModel, TwoDimensionalModel
from ..core.optimizers import exhaustive_search, hill_climb, simulated_annealing
from ..core.parameters import CostParams, MobilityParams
from ..core.sensitivity import regret_surface
from ..core.threshold import find_optimal_threshold
from ..core.transient import mixing_time, transient_cost
from ..faults import ResilientEngine, SignalingPolicy, UpdateLoss
from ..geometry import HexTopology
from ..mobility import BatchedArrivals, PersistentWalk
from ..paging import blanket_partition, optimal_contiguous_partition, sdf_partition
from ..simulation import SimulationEngine, run_replicated, validate_against_model
from ..strategies import (
    DistanceStrategy,
    DynamicStrategy,
    LocationAreaStrategy,
    MovementStrategy,
    TimerStrategy,
)
from ..workload import DEFAULT_MIX, Population, plan_fleet
from .crossover import compute_crossover_map
from .paper_data import TABLE_U_VALUES
from .report import render_table

__all__ = ["EXPERIMENTS", "Experiment"]


class Experiment(NamedTuple):
    """One EXPERIMENTS.md row: its results, and their rendering."""

    compute: Callable[[], object]
    render: Callable[[object], str]

    def __repr__(self) -> str:  # no function addresses: docs/API.md is generated
        return f"Experiment({self.compute.__name__}, {self.render.__name__})"


def _delay_label(m):
    return "inf" if m == math.inf else int(m)


# -- ABL-SOLVER: closed form and recursion vs the matrix solve ---------------


def _solvers():
    """Worst |p_i| disagreement with the matrix solve over a (q, c, d) grid."""
    grid = [(q, c, d) for q in (0.05, 0.3) for c in (0.005, 0.05) for d in (2, 10, 40)]

    def deviation(model, d, method):
        exact = model.steady_state(d, method="matrix")
        return float(np.max(np.abs(model.steady_state(d, method=method) - exact)))

    worst_1d = worst_2d = 0.0
    for q, c, d in grid:
        model1 = OneDimensionalModel(MobilityParams(q, c))
        model2 = TwoDimensionalModel(MobilityParams(q, c))
        worst_1d = max(
            worst_1d,
            deviation(model1, d, "closed_form"),
            deviation(model1, d, "recursive"),
        )
        worst_2d = max(worst_2d, deviation(model2, d, "recursive"))
    return {"worst_1d": worst_1d, "worst_2d": worst_2d, "points": len(grid)}


def _render_solvers(result) -> str:
    return "\n".join(
        [
            "Solver ablation: max |p_i| disagreement vs matrix solve",
            f"  1-D closed form / recursive: {result['worst_1d']:.3e}",
            f"  2-D recursive:               {result['worst_2d']:.3e}",
            f"  grid: {result['points']} (q, c, d) points",
        ]
    )


# -- ABL-OPT: exhaustive scan vs annealing vs greedy descent -----------------

#: Search bound of the optimizer ablation.
OPT_D_MAX = 100


def _optimizers():
    """The three searchers over a thinned Table 1/2 grid (2-D model)."""
    model = TwoDimensionalModel(MobilityParams(0.05, 0.01))
    rows = []
    regret = 0.0
    greedy_failures = 0
    for U in TABLE_U_VALUES[::3]:
        for m in (1, 3, math.inf):
            evaluator = CostEvaluator(model, CostParams(U, 10.0))

            def objective(d):
                return evaluator.total_cost(d, m)

            exact = exhaustive_search(objective, OPT_D_MAX)
            # Cooling sized for D = 100: the unbounded-delay curve is flat
            # past the optimum, so a short schedule with a small
            # neighborhood can strand the walk far from d* (Section 6's
            # "adjusted based on the required accuracy").
            annealed = simulated_annealing(
                objective, OPT_D_MAX, seed=17, y=60.0, exit_temperature=0.03,
                neighborhood=10,
            )
            greedy = hill_climb(objective, OPT_D_MAX, start=0)
            regret = max(
                regret,
                (annealed.optimal_cost - exact.optimal_cost)
                / max(exact.optimal_cost, 1e-12),
            )
            greedy_failures += greedy.optimal_threshold != exact.optimal_threshold
            rows.append(
                [
                    int(U),
                    _delay_label(m),
                    exact.optimal_threshold,
                    annealed.optimal_threshold,
                    greedy.optimal_threshold,
                    exact.evaluations,
                    annealed.evaluations,
                    greedy.evaluations,
                ]
            )
    return {"rows": rows, "regret": regret, "greedy_failures": greedy_failures}


def _render_optimizers(result) -> str:
    headers = [
        "U", "m", "d*(exh)", "d*(ann)", "d*(greedy)",
        "evals(exh)", "evals(ann)", "evals(greedy)",
    ]
    return "\n".join(
        [
            render_table(
                headers, result["rows"], title="Optimizer ablation (2-D model)"
            ),
            "",
            f"worst annealing cost regret: {result['regret']:.2%}",
            f"greedy local-minimum failures: "
            f"{result['greedy_failures']}/{len(result['rows'])}",
        ]
    )


# -- ABL-PART: SDF vs DP-optimal vs blanket partitioning ---------------------


def _partitioning():
    """Expected polled cells of three partitions over a (d, m) grid."""
    model = TwoDimensionalModel(MobilityParams(0.2, 0.01))
    topology = model.topology
    rows = []
    worst_gap = 0.0
    for d in (2, 4, 6, 8, 12):
        for m in (2, 3, 4):
            p = model.steady_state(d)
            sizes = [topology.ring_size(i) for i in range(d + 1)]
            optimal = optimal_contiguous_partition(d, m, p, sizes)
            e_sdf = sdf_partition(d, m).expected_polled_cells(topology, p)
            e_opt = optimal.expected_polled_cells(topology, p)
            e_blanket = blanket_partition(d).expected_polled_cells(topology, p)
            gap = (e_sdf - e_opt) / e_opt if e_opt else 0.0
            worst_gap = max(worst_gap, gap)
            rows.append(
                [d, m, e_blanket, e_sdf, e_opt, f"{gap:.1%}", optimal.describe()]
            )
    return {"rows": rows, "worst_gap": worst_gap}


def _render_partitioning(result) -> str:
    headers = ["d", "m", "E[cells] blanket", "SDF", "DP-opt", "SDF gap", "DP plan"]
    return "\n".join(
        [
            render_table(
                headers, result["rows"],
                title="Partitioning ablation (2-D exact, q=0.2 c=0.01)",
            ),
            "",
            f"worst SDF-vs-optimal gap: {result['worst_gap']:.1%}",
        ]
    )


# -- ABL-BASELINE: the update strategies under simulation --------------------

_SHOOTOUT_MOBILITY = MobilityParams(0.3, 0.02)
_SHOOTOUT_COSTS = CostParams(update_cost=30.0, poll_cost=1.0)
_SHOOTOUT_DELAY = 2


def _strategies():
    """Five strategies on one hex workload, 3 x 120,000 slots each.

    The distance threshold is the analytic optimum; the movement and
    timer budgets and the LA radius are matched to the same radius.
    """
    mobility, costs, m = _SHOOTOUT_MOBILITY, _SHOOTOUT_COSTS, _SHOOTOUT_DELAY
    d_star = find_optimal_threshold(
        TwoDimensionalModel(mobility), costs, m, convention="physical"
    ).threshold
    factories = {
        "distance(d*)": lambda: DistanceStrategy(d_star, max_delay=m),
        "movement(M=d*)": lambda: MovementStrategy(max(d_star, 1), max_delay=m),
        "timer(T=d*/q)": lambda: TimerStrategy(
            max(int(round(d_star / mobility.q)), 1), max_delay=m
        ),
        "location-area(d*)": lambda: LocationAreaStrategy(d_star),
        "dynamic": lambda: DynamicStrategy(
            costs, max_delay=m, smoothing=0.005, recompute_interval=10
        ),
    }
    results = {
        name: run_replicated(
            HexTopology(), factory, mobility, costs,
            slots=120_000, replications=3, seed=31,
        )
        for name, factory in factories.items()
    }
    return {"d_star": d_star, "results": results}


def _render_strategies(result) -> str:
    mobility, costs = _SHOOTOUT_MOBILITY, _SHOOTOUT_COSTS
    headers = ["strategy", "mean C_T", "95% CI", "mean C_u", "mean C_v", "page delay"]
    rows = [
        [
            name,
            r.mean_total_cost,
            r.total_cost_ci(),
            r.mean_update_cost,
            r.mean_paging_cost,
            r.mean_paging_delay,
        ]
        for name, r in result["results"].items()
    ]
    return render_table(
        headers,
        rows,
        title=(
            f"Strategy shoot-out (hex grid, q={mobility.q} c={mobility.c} "
            f"U={costs.U} V={costs.V} m={_SHOOTOUT_DELAY}, "
            f"d*={result['d_star']})"
        ),
    )


# -- ABL-ANALYTIC and ABL-CROSSOVER: the schemes in closed form --------------

#: U = 50, V = 2: the costs of the scheme comparisons and of the hex
#: robustness, fleet and persistence experiments.
_HEX_COSTS = CostParams(update_cost=50.0, poll_cost=2.0)


def _baselines():
    """Each scheme optimally tuned at delay 1 over a (q, c) grid.

    Movement-based may legitimately beat distance-based when c >= q/2:
    most calls then arrive before any move, so the movement counter
    bounds the paging disk to one cell while the distance scheme
    blankets its residing area.  Any other loss is a violation.
    """
    topology = HexTopology()
    rows = []
    losses = []
    for q in (0.02, 0.1, 0.4):
        for c in (0.005, 0.02, 0.08):
            mobility = MobilityParams(q, c)
            distance = find_optimal_threshold(
                TwoDimensionalModel(mobility), _HEX_COSTS, 1, convention="physical"
            )
            movement = optimal_movement_threshold(topology, mobility, _HEX_COSTS)
            timer = optimal_timer_period(topology, mobility, _HEX_COSTS)
            la = optimal_la_radius(topology, mobility, _HEX_COSTS, max_radius=30)
            rows.append(
                [
                    q, c,
                    f"d={distance.threshold}", distance.total_cost,
                    f"M={movement.parameter}", movement.total_cost,
                    f"T={timer.parameter}", timer.total_cost,
                    f"n={la.parameter}", la.total_cost,
                ]
            )
            rivals = {"movement": movement, "timer": timer, "la": la}
            losses += [
                (q, c, name)
                for name, rival in rivals.items()
                if distance.total_cost > rival.total_cost + 1e-9
            ]
    violations = [
        (q, c, name)
        for q, c, name in losses
        if not (name == "movement" and c >= q / 2)
    ]
    return {"rows": rows, "losses": losses, "violations": violations}


def _render_baselines(result) -> str:
    headers = [
        "q", "c",
        "dist param", "dist C_T",
        "mvmt param", "mvmt C_T",
        "timer param", "timer C_T",
        "LA param", "LA C_T",
    ]
    return "\n".join(
        [
            render_table(
                headers, result["rows"],
                title="Analytic scheme comparison (hex, U=50 V=2, delay 1, "
                "each scheme optimally tuned)",
            ),
            "",
            f"distance-based losses (expected only vs movement at c >= q/2): "
            f"{result['losses'] or 'none'}",
            f"unexpected dominance violations: {result['violations'] or 'none'}",
        ]
    )


def _crossover():
    """Winner maps over a 7 x 7 log grid of (q, c), at delays 1 and 2."""
    qs = list(np.logspace(np.log10(0.02), np.log10(0.5), 7))
    cs = list(np.logspace(np.log10(0.002), np.log10(0.1), 7))
    return {m: compute_crossover_map(_HEX_COSTS, qs, cs, max_delay=m) for m in (1, 2)}


def _render_crossover(maps) -> str:
    sections = []
    for m, crossover in maps.items():
        boundary = "; the boundary tracks c ~ q/2" if m == 1 else ""
        sections.append(
            "\n".join(
                [
                    f"Cheapest scheme per (q, c), hex geometry, delay {m}, "
                    "each scheme optimally tuned:",
                    "",
                    crossover.render(),
                    "",
                    f"distance-based wins {crossover.share('distance'):.0%} of the "
                    f"grid, movement-based {crossover.share('movement'):.0%}{boundary}",
                ]
            )
        )
    return "\n\n".join(sections)


# -- EXT-SQUARE, EXT-SOFT, EXT-TRANSIENT: the paper's model extended ---------

_EXT_MOBILITY = MobilityParams(0.2, 0.02)
_EXT_COSTS = CostParams(50.0, 5.0)


def _square():
    """The square-grid chain vs the grid simulation at three (d, m)."""
    rows = []
    for d, m in ((1, 1), (3, 2), (5, 3)):
        comparison = validate_against_model(
            SquareGridModel(_EXT_MOBILITY), _EXT_COSTS, d=d, m=m,
            slots=100_000, replications=3, seed=61 + d,
        )
        rows.append(
            [d, m, comparison.predicted_total, comparison.measured_total,
             comparison.relative_error]
        )
    return rows


def _render_square(rows) -> str:
    return render_table(
        ["d", "m", "predicted C_T", "measured C_T", "rel err"],
        [row[:-1] + [f"{row[-1]:.2%}"] for row in rows],
        title="Square-grid extension: model vs grid simulation (q=0.2 c=0.02)",
    )


def _soft_delay():
    """The soft-delay policy as the per-cycle delay penalty w grows."""
    model = TwoDimensionalModel(_EXT_MOBILITY)
    rows = []
    for penalty in (0.0, 1.0, 5.0, 20.0, 100.0, 1e6):
        policy = optimize_soft_delay(model, _EXT_COSTS, penalty, d_max=30)
        rows.append(
            [
                penalty,
                policy.threshold,
                policy.expected_delay,
                policy.update_cost + policy.paging_cell_cost,
                policy.plan.describe(),
            ]
        )
    return rows


def _render_soft_delay(rows) -> str:
    return render_table(
        ["delay penalty w", "d*", "E[cycles]", "signaling cost", "partition"],
        rows,
        title="Soft-delay frontier (2-D exact, q=0.2 c=0.02 U=50 V=5)",
    )


def _transient():
    """Slots from a fresh location fix until the steady-state model holds."""
    rows = []
    for q, c in ((0.05, 0.01), (0.2, 0.02), (0.4, 0.08)):
        model = TwoDimensionalModel(MobilityParams(q, c))
        d = max(find_optimal_threshold(model, _EXT_COSTS, 2).threshold, 1)
        analysis = transient_cost(CostEvaluator(model, _EXT_COSTS), d, 2, horizon=3000)
        rows.append(
            [
                q,
                c,
                d,
                mixing_time(model, d, tolerance=0.01),
                analysis.slots_to_within(0.01),
                analysis.per_slot_cost[0],
                analysis.steady_state_cost,
            ]
        )
    return rows


def _render_transient(rows) -> str:
    return render_table(
        ["q", "c", "d", "mixing slots (tv<=1%)", "cost-convergence slots",
         "cost at t=0", "steady C_T"],
        rows,
        title="Transient horizon: slots until the steady-state model is valid",
    )


# -- EXT-ROBUST: the tuned policy under bursty traffic and independent events


def _robustness():
    """The Bernoulli-tuned distance policy (hex, m = 2) driven by bursty
    calls of the same mean rate and by independent move/call draws."""

    def run(mobility, d, seed, arrivals=None, event_mode="exclusive"):
        return SimulationEngine(
            HexTopology(), DistanceStrategy(d, max_delay=2), mobility,
            _HEX_COSTS, seed=seed, arrivals=arrivals, event_mode=event_mode,
        ).run(150_000).mean_total_cost

    rows = []
    worst_bursty = worst_indep = 0.0
    for q, c in ((0.1, 0.01), (0.3, 0.02)):
        mobility = MobilityParams(q, c)
        d = find_optimal_threshold(
            TwoDimensionalModel(mobility), _HEX_COSTS, 2, convention="physical"
        ).threshold
        base = np.mean([run(mobility, d, seed) for seed in (1, 2, 3)])
        bursty = np.mean(
            [
                run(
                    mobility, d, seed,
                    arrivals=BatchedArrivals(
                        c, burstiness=6.0, mean_busy_slots=80.0,
                        rng=np.random.default_rng(1000 + seed),
                    ),
                )
                for seed in (1, 2, 3)
            ]
        )
        indep = np.mean(
            [run(mobility, d, seed, event_mode="independent") for seed in (4, 5, 6)]
        )
        bursty_shift = abs(bursty - base) / base
        indep_shift = abs(indep - base) / base
        worst_bursty = max(worst_bursty, bursty_shift)
        worst_indep = max(worst_indep, indep_shift)
        rows.append(
            [q, c, d, base, bursty, f"{bursty_shift:.2%}", indep, f"{indep_shift:.2%}"]
        )
    return {"rows": rows, "worst_bursty": worst_bursty, "worst_indep": worst_indep}


def _render_robustness(result) -> str:
    return "\n".join(
        [
            render_table(
                ["q", "c", "d*", "C_T Bernoulli", "C_T bursty", "bursty shift",
                 "C_T independent", "indep shift"],
                result["rows"],
                title="Robustness of the tuned policy to traffic assumptions "
                "(hex, m=2, same mean rates)",
            ),
            "",
            f"worst cost shift under bursty traffic: {result['worst_bursty']:.2%}",
            f"worst cost shift under independent events: {result['worst_indep']:.2%}",
        ]
    )


# -- EXT-CHANNEL: paging-channel dimensioning --------------------------------


def _channel():
    """The channel at each delay bound, for populations of increasing size."""
    model = TwoDimensionalModel(MobilityParams(0.05, 0.01))
    return {
        n: dimension_channel(
            model, CostParams(100.0, 10.0), terminals=n, delays=(1, 2, 3, math.inf)
        )
        for n in (10, 40, 60, 80)
    }


def _render_channel(populations) -> str:
    rows = [
        [
            n,
            _delay_label(p.delay_bound),
            p.threshold,
            p.per_terminal_cost,
            p.utilization,
            "-" if not p.feasible else f"{p.mean_wait_slots:.3f}",
            "-" if not p.feasible else f"{p.setup_latency:.3f}",
            p.polling_bandwidth,
            "yes" if p.feasible else "OVERLOAD",
        ]
        for n, points in populations.items()
        for p in points
    ]
    return render_table(
        ["n", "m", "d*", "per-user C_T", "rho", "E[wait]", "setup latency",
         "poll bandwidth", "feasible"],
        rows,
        title="Paging-channel dimensioning (2-D, q=0.05 c=0.01 U=100 V=10)",
    )


# -- EXT-FLEET: per-user vs shared thresholds --------------------------------


def _fleet():
    """Per-user and shared thresholds over a 150-user default mix."""
    return plan_fleet(
        Population(DEFAULT_MIX), _HEX_COSTS, max_delay=2, users=150, seed=11,
        model_class=TwoDimensionalModel, d_max=40,
    )


def _render_fleet(plan) -> str:
    profile_rows = [
        [name, personal, shared, f"{(shared - personal) / personal:.1%}"]
        for name, (personal, shared) in sorted(plan.by_profile().items())
    ]
    quantiles = plan.regret_quantiles((0.5, 0.9, 0.99))
    return "\n".join(
        [
            render_table(
                ["profile", "per-user C_T", "shared C_T", "profile regret"],
                profile_rows,
                title=(
                    f"Fleet of {plan.size} users (hex, U=50 V=2, m=2); "
                    f"shared threshold d={plan.shared_threshold}"
                ),
            ),
            "",
            f"fleet cost, per-user tuning:   {plan.personal_fleet_cost:.4f} /slot/user",
            f"fleet cost, shared threshold:  {plan.shared_fleet_cost:.4f} /slot/user",
            f"fleet-wide saving:             {plan.fleet_saving:.1%}",
            "per-user relative regret quantiles: "
            + ", ".join(f"p{int(q * 100)}={v:.0%}" for q, v in quantiles.items()),
        ]
    )


# -- EXT-PERSIST: the memoryless-walk assumption vs direction persistence ----

_PERSIST_MOBILITY = MobilityParams(0.3, 0.01)
_PERSIST_D, _PERSIST_M = 3, 2


def _persistence():
    """Model error of the chain when walkers keep their direction.

    The move rate q stays the same, so the chain sees identical
    parameters at every persistence level.
    """
    predicted = CostEvaluator(
        TwoDimensionalModel(_PERSIST_MOBILITY), _HEX_COSTS, convention="physical"
    ).total_cost(_PERSIST_D, _PERSIST_M)
    rows = []
    for persistence in (0.0, 0.3, 0.6, 0.9):

        def walker(topology, q, rng, start, persistence=persistence):
            return PersistentWalk(
                topology, q, persistence=persistence, rng=rng, start=start
            )

        measured = float(
            np.mean(
                [
                    SimulationEngine(
                        HexTopology(),
                        DistanceStrategy(_PERSIST_D, max_delay=_PERSIST_M),
                        _PERSIST_MOBILITY,
                        _HEX_COSTS,
                        seed=seed,
                        walker_factory=walker,
                    ).run(120_000).mean_total_cost
                    for seed in (1, 2, 3)
                ]
            )
        )
        error = (measured - predicted) / predicted
        rows.append([persistence, predicted, measured, error])
    return rows


def _render_persistence(rows) -> str:
    mobility = _PERSIST_MOBILITY
    return "\n".join(
        [
            render_table(
                ["persistence", "model C_T", "measured C_T", "model error"],
                [row[:-1] + [f"{row[-1]:+.1%}"] for row in rows],
                title=(
                    f"Random-walk assumption vs direction persistence "
                    f"(hex, q={mobility.q} c={mobility.c} d={_PERSIST_D} "
                    f"m={_PERSIST_M})"
                ),
            ),
            "",
            "the chain model assumes memoryless direction; persistent walkers",
            "escape the residing area faster, so the model underestimates cost",
        ]
    )


# -- EXT-SENS: regret of misestimated (q, c) ---------------------------------


def _sensitivity():
    """Regret of the threshold tuned for (q, c) misestimated by each pair
    of factors (truth q = 0.1, c = 0.01, m = 2)."""
    return regret_surface(
        TwoDimensionalModel, MobilityParams(0.1, 0.01), CostParams(100.0, 5.0), 2,
        factors=(0.25, 0.5, 1.0, 2.0, 4.0), d_max=50,
    )


def _render_sensitivity(surface) -> str:
    factors = list(surface)
    headers = ["q factor \\ c factor"] + [str(f) for f in factors]
    regrets = [
        [qf] + [f"{surface[qf][cf].regret:.1%}" for cf in factors] for qf in factors
    ]
    thresholds = [
        [qf] + [surface[qf][cf].assumed_threshold for cf in factors] for qf in factors
    ]
    return "\n".join(
        [
            render_table(
                headers,
                regrets,
                title=(
                    "Regret of operating at a misestimated optimum "
                    "(2-D, truth q=0.1 c=0.01, U=100 V=5, m=2)"
                ),
            ),
            "",
            render_table(headers, thresholds, title="Chosen threshold per estimate"),
        ]
    )


# -- EXT-FAIL: lost update messages and recovery paging ----------------------

_FAIL_MOBILITY = MobilityParams(0.3, 0.02)
_FAIL_D, _FAIL_M = 3, 2


def _failure():
    """Cost, delay and recoveries at each update-loss rate (3 x 120,000 slots)."""
    rows = []
    for loss in (0.0, 0.1, 0.3, 0.5):
        totals, delays, violations, recoveries, calls = [], [], 0, 0, 0
        for seed in (1, 2, 3):
            engine = ResilientEngine(
                topology=HexTopology(),
                strategy=DistanceStrategy(_FAIL_D, max_delay=_FAIL_M),
                mobility=_FAIL_MOBILITY,
                costs=CostParams(30.0, 2.0),
                faults=[UpdateLoss(loss)],
                signaling=SignalingPolicy.fire_and_forget(),
                seed=seed,
            )
            snapshot = engine.run(120_000)
            totals.append(snapshot.mean_total_cost)
            delays.append(snapshot.mean_paging_delay)
            violations += sum(
                count
                for cycles, count in snapshot.delay_histogram.items()
                if cycles > _FAIL_M
            )
            recoveries += engine.recovery_pagings
            calls += snapshot.calls
        rows.append(
            [loss, float(np.mean(totals)), float(np.mean(delays)),
             violations / calls, recoveries]
        )
    return rows


def _render_failure(rows) -> str:
    lossless = rows[0][1]
    return "\n".join(
        [
            render_table(
                ["update loss", "C_T", "vs lossless", "mean page delay",
                 "delay-bound violations", "recovery pagings"],
                [
                    [f"{loss:.0%}", cost, f"{cost / lossless - 1:+.1%}", delay,
                     f"{violated:.2%}", recoveries]
                    for loss, cost, delay, violated, recoveries in rows
                ],
                title=(
                    f"Lost-update failure injection (hex, q={_FAIL_MOBILITY.q} "
                    f"c={_FAIL_MOBILITY.c} d={_FAIL_D} m={_FAIL_M})"
                ),
            ),
            "",
            "recovery paging forfeits the delay bound on the affected calls",
            "but keeps every call answerable; degradation is graceful.",
        ]
    )


#: Row id -> experiment, in EXPERIMENTS.md's order.
EXPERIMENTS: Dict[str, Experiment] = {
    "abl-solver": Experiment(_solvers, _render_solvers),
    "abl-opt": Experiment(_optimizers, _render_optimizers),
    "abl-part": Experiment(_partitioning, _render_partitioning),
    "abl-baseline": Experiment(_strategies, _render_strategies),
    "ext-square": Experiment(_square, _render_square),
    "ext-soft": Experiment(_soft_delay, _render_soft_delay),
    "ext-transient": Experiment(_transient, _render_transient),
    "abl-analytic": Experiment(_baselines, _render_baselines),
    "ext-robust": Experiment(_robustness, _render_robustness),
    "ext-channel": Experiment(_channel, _render_channel),
    "ext-fleet": Experiment(_fleet, _render_fleet),
    "ext-persist": Experiment(_persistence, _render_persistence),
    "ext-sens": Experiment(_sensitivity, _render_sensitivity),
    "abl-crossover": Experiment(_crossover, _render_crossover),
    "ext-fail": Experiment(_failure, _render_failure),
}
