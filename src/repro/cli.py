"""Command-line interface: ``repro-lm`` / ``python -m repro``.

Subcommands map one-to-one onto the paper's experiments plus the
library's own validation tooling::

    repro-lm reproduce              # every paper artifact and experiment into results/
    repro-lm table1                 # reproduce Table 1 (1-D)
    repro-lm table2                 # reproduce Table 2 (2-D + near-opt)
    repro-lm fig4 --dimensions 2    # Figure 4(b) series + ASCII plot
    repro-lm fig5 --dimensions 1    # Figure 5(a)
    repro-lm optimize --q 0.05 --c 0.01 --update-cost 100 \\
             --poll-cost 10 --max-delay 3 --model 2d-exact
    repro-lm sweep --model 2d-exact --vary U=20,50,100,300 \\
             --vary m=1,3,inf --workers 4      # cached grid sweep
    repro-lm simulate --q 0.05 --c 0.01 --threshold 3 --slots 100000 \\
             --workers 4            # replications on a process pool
    repro-lm validate               # simulation-vs-model campaign
    repro-lm speed                  # engine vs vectorized throughput
    repro-lm fleet --terminals 1000000 --shards 32 --workers 8 \\
             --checkpoint fleet.ckpt.json   # sharded heterogeneous fleet
    repro-lm faults --loss 0.2 --outage-rate 0.01   # resilience report

Every data-producing command accepts ``--csv PATH`` to also write the
rows as CSV.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

# Only what ``build_parser`` reads: each constant comes from the module
# that defines it, and none of those loads the simulators, the check
# modules, the sweep machinery or another command's modules.  Each
# command imports its own modules inside its handler.
from .analysis.figures import FIGURE_POINTS
from .analysis.validate import CAMPAIGN_REPLICATIONS, CAMPAIGN_SLOTS
from .conformance.sampling import ALL_MODELS, SUITES
from .core.models import MODEL_CLASSES
from .exceptions import ParameterError, ReproError
from .mobility.ctrw import MOBILITY_PRESETS

__all__ = ["main", "build_parser"]


def _delay(value: str) -> float:
    if value in ("inf", "unbounded", "none"):
        return math.inf
    return int(value)


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    """``--metrics-out`` / ``--trace`` for instrumented subcommands."""
    p.add_argument(
        "--metrics-out", dest="metrics_out", metavar="PATH",
        help="write a provenance-stamped metrics/trace artifact (JSON "
        "lines) here; inspect it with 'repro-lm metrics summarize PATH'",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="collect tracing spans and print a span summary",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-lm",
        description="Akyildiz & Ho '95 location update / paging reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "reproduce",
        help="write Tables 1-2, Figures 4-5, the validation campaign, "
        "SUMMARY.txt and the ablation and extension experiments into one "
        "directory",
    )
    p.add_argument("--outdir", default="results", help="default: results")
    p.add_argument(
        "--quick", action="store_true",
        help="5-point figure sweeps and 30,000-slot validation runs, "
        "without the experiments (smoke runs; the committed results/ use "
        "the default)",
    )

    for name in ("table1", "table2"):
        p = sub.add_parser(name, help=f"reproduce the paper's {name}")
        p.add_argument("--csv", help="also write the rows to this CSV path")

    for name in ("fig4", "fig5"):
        p = sub.add_parser(name, help=f"reproduce the paper's {name} curves")
        p.add_argument("--dimensions", type=int, choices=(1, 2), default=1)
        p.add_argument(
            "--points", type=int, default=FIGURE_POINTS[name],
            help=f"sweep resolution (default {FIGURE_POINTS[name]})",
        )
        p.add_argument("--csv", help="also write the series to this CSV path")
        p.add_argument("--no-plot", action="store_true", help="skip the ASCII plot")

    p = sub.add_parser("optimize", help="optimal threshold for one user")
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument("--q", type=float, required=True, help="move probability")
    p.add_argument("--c", type=float, required=True, help="call probability")
    p.add_argument("--update-cost", type=float, required=True, help="U")
    p.add_argument("--poll-cost", type=float, required=True, help="V")
    p.add_argument("--max-delay", type=_delay, default=1, help="m (int or 'inf')")
    p.add_argument("--d-max", type=int, default=100, help="search bound D")
    p.add_argument(
        "--method",
        choices=("exhaustive", "exhaustive-scalar", "annealing", "hill"),
        default="exhaustive",
    )

    p = sub.add_parser(
        "sweep",
        help="solve a Cartesian parameter grid (cached, optionally pooled)",
    )
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument(
        "--vary", action="append", required=True, metavar="PARAM=SPEC",
        help="axis to vary; PARAM is one of q/c/U/V/m, SPEC is either a "
        "comma list (e.g. 'U=20,50,100' or 'm=1,3,inf') or "
        "'start:stop:count[:log]' (e.g. 'q=0.01:0.4:10'); repeatable",
    )
    p.add_argument("--q", type=float, default=0.05, help="fixed move probability")
    p.add_argument("--c", type=float, default=0.01, help="fixed call probability")
    p.add_argument("--update-cost", type=float, default=100.0, help="fixed U")
    p.add_argument("--poll-cost", type=float, default=10.0, help="fixed V")
    p.add_argument("--max-delay", type=_delay, default=1, help="fixed m")
    p.add_argument("--d-max", type=int, default=100, help="search bound D")
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for grid points (1 = serial; results are "
        "identical either way)",
    )
    p.add_argument(
        "--cache-dir", default="benchmarks/out/cache",
        help="on-disk result cache directory (default: benchmarks/out/cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute without reading or writing the result cache",
    )
    p.add_argument("--csv", help="also write the grid points to this CSV path")
    _add_observability_flags(p)

    p = sub.add_parser("simulate", help="simulate the distance-based scheme")
    p.add_argument("--dimensions", type=int, choices=(1, 2), default=2)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--update-cost", type=float, default=100.0)
    p.add_argument("--poll-cost", type=float, default=10.0)
    p.add_argument("--threshold", type=int, required=True, help="d")
    p.add_argument("--max-delay", type=_delay, default=1)
    p.add_argument("--slots", type=int, default=100_000)
    p.add_argument("--replications", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--warmup", type=int, default=0,
        help="slots discarded before metering (fresh-fix transient)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for replications (1 = serial; results are "
        "bit-identical either way)",
    )
    p.add_argument(
        "--mobility", choices=MOBILITY_PRESETS, default="uniform",
        help="mobility process: 'uniform' (the paper's walk, default) or a "
        "CTRW preset -- 'ctrw-exp' (geometric residence, degenerate with "
        "uniform), 'ctrw-fixed' (deterministic), 'ctrw-hyper' "
        "(hyperexponential), 'ctrw-pareto' (truncated-Pareto heavy tail), "
        "'ctrw-drift' (directional drift)",
    )
    p.add_argument(
        "--drift", type=float, default=0.4,
        help="drift weight for --mobility ctrw-drift (default 0.4)",
    )
    _add_observability_flags(p)

    p = sub.add_parser(
        "approx",
        help="approximation-error report: analytic model vs simulated "
        "CTRW mobility truth",
    )
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--c", type=float, default=0.02)
    p.add_argument("--update-cost", type=float, default=50.0)
    p.add_argument("--poll-cost", type=float, default=10.0)
    p.add_argument("--threshold", type=int, default=2, help="d")
    p.add_argument("--max-delay", type=int, default=2)
    p.add_argument("--slots", type=int, default=4000)
    p.add_argument("--terminals", type=int, default=256)
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drift", type=float, default=0.4)
    p.add_argument(
        "--models", default=None,
        help="comma-separated subset of mobility models (default: all of "
        f"{', '.join(MOBILITY_PRESETS)})",
    )
    p.add_argument("--csv", help="also write the rows to this CSV path")
    p.add_argument(
        "--report", metavar="PATH",
        help="write the rows as a provenance-stamped JSONL artifact "
        "(kind='approximation' records)",
    )

    p = sub.add_parser("validate", help="simulation-vs-model campaign")
    p.add_argument("--slots", type=int, default=CAMPAIGN_SLOTS)
    p.add_argument("--replications", type=int, default=CAMPAIGN_REPLICATIONS)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per campaign point (1 = serial)",
    )

    p = sub.add_parser(
        "speed",
        help="throughput bench: per-cell engine vs vectorized distance engine",
    )
    p.add_argument("--dimensions", type=int, choices=(1, 2), default=2)
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--c", type=float, default=0.01)
    p.add_argument("--update-cost", type=float, default=100.0)
    p.add_argument("--poll-cost", type=float, default=10.0)
    p.add_argument("--threshold", type=int, default=3, help="d")
    p.add_argument("--max-delay", type=_delay, default=1)
    p.add_argument("--engine-slots", type=int, default=20_000,
                   help="slots for the per-cell engine timing")
    p.add_argument("--vector-slots", type=int, default=5_000,
                   help="slots for the vectorized engine timing")
    p.add_argument("--terminals", type=int, default=2048,
                   help="batch width K of the vectorized engine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path",
                   help="also write the machine-readable report here")
    _add_observability_flags(p)

    p = sub.add_parser(
        "fleet",
        help="sharded heterogeneous fleet simulation with streaming "
        "metric merges and fleet-granularity checkpoints",
    )
    p.add_argument("--terminals", type=int, default=100_000,
                   help="fleet size (population sampled from the default mix)")
    p.add_argument("--shards", type=int, default=8,
                   help="contiguous population shards (unit of parallelism "
                   "and checkpointing; totals are shard-layout invariant)")
    p.add_argument("--slots", type=int, default=200)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for shards (1 = serial; results "
                   "are bit-identical either way)")
    p.add_argument("--seed", type=int, default=0,
                   help="event-noise seed (the population seed is separate "
                   "and recorded in the checkpoint fingerprint)")
    p.add_argument("--population-seed", type=int, default=0,
                   help="population sampling seed")
    p.add_argument("--update-cost", type=float, default=50.0, help="U")
    p.add_argument("--poll-cost", type=float, default=2.0, help="V")
    p.add_argument("--max-delay", type=_delay, default=2, help="m (int or 'inf')")
    p.add_argument("--d-max", type=int, default=30,
                   help="per-profile threshold search bound")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="fleet checkpoint JSON, updated after every shard; "
                   "rerun with identical parameters to resume")
    p.add_argument("--json", dest="json_path",
                   help="also write the machine-readable report here")
    _add_observability_flags(p)

    p = sub.add_parser(
        "faults",
        help="fault injection: cost/delay degradation vs the fault-free baseline",
    )
    p.add_argument("--dimensions", type=int, choices=(1, 2), default=2)
    p.add_argument("--q", type=float, default=0.2, help="move probability")
    p.add_argument("--c", type=float, default=0.02, help="call probability")
    p.add_argument("--update-cost", type=float, default=50.0)
    p.add_argument("--poll-cost", type=float, default=2.0)
    p.add_argument("--threshold", type=int, default=3, help="d")
    p.add_argument("--max-delay", type=_delay, default=2)
    p.add_argument("--slots", type=int, default=50_000)
    p.add_argument("--replications", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", type=float, default=0.0, help="update-loss probability")
    p.add_argument("--page-loss", type=float, default=0.0, help="missed-poll probability")
    p.add_argument("--outage-rate", type=float, default=0.0,
                   help="per-tick base-station outage hazard")
    p.add_argument("--outage-duration", type=int, default=10,
                   help="outage length in ticks")
    p.add_argument("--register-failure-rate", type=float, default=0.0,
                   help="per-slot register failover hazard")
    p.add_argument("--failover-slots", type=int, default=20,
                   help="stale-read window after a register failure")
    p.add_argument("--retries", type=int, default=3,
                   help="max update retransmissions (each charged U)")
    p.add_argument("--backoff", type=float, default=2.0,
                   help="exponential backoff factor between retries")
    p.add_argument("--repages", type=int, default=1,
                   help="full re-pages before expanding-ring recovery")
    p.add_argument("--json", dest="json_path",
                   help="also write the machine-readable report here")

    p = sub.add_parser(
        "soft-delay",
        help="jointly optimize threshold and partition under a delay penalty",
    )
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--update-cost", type=float, required=True)
    p.add_argument("--poll-cost", type=float, required=True)
    p.add_argument(
        "--penalty", type=float, required=True, help="cost per polling cycle per call"
    )
    p.add_argument("--d-max", type=int, default=50)

    p = sub.add_parser(
        "policy",
        help="optimize a user's threshold and export the deployable policy JSON",
    )
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--update-cost", type=float, required=True)
    p.add_argument("--poll-cost", type=float, required=True)
    p.add_argument("--max-delay", type=_delay, default=1)
    p.add_argument("--output", help="write the policy JSON here (default: stdout)")

    p = sub.add_parser(
        "metrics",
        help="derived operating characteristics of one (d, m) policy, "
        "or 'metrics summarize PATH' for a --metrics-out artifact",
    )
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument("--q", type=float, help="move probability")
    p.add_argument("--c", type=float, help="call probability")
    p.add_argument("--threshold", type=int, help="d")
    p.add_argument("--max-delay", type=_delay, default=1, help="m (int or 'inf')")
    msub = p.add_subparsers(dest="metrics_command")
    ps = msub.add_parser(
        "summarize",
        help="render a --metrics-out artifact as human-readable tables",
    )
    ps.add_argument("path", help="JSON-lines artifact written by --metrics-out")

    p = sub.add_parser(
        "show",
        help="ASCII hex map: ring distances, paging order, or occupancy",
    )
    p.add_argument(
        "what", choices=("rings", "paging", "occupancy"),
        help="rings: Figure 1(b); paging: polling cycles; occupancy: steady state",
    )
    p.add_argument("--threshold", type=int, default=4, help="d (map radius)")
    p.add_argument("--max-delay", type=_delay, default=2, help="m (paging map)")
    p.add_argument("--q", type=float, default=0.1, help="q (occupancy map)")
    p.add_argument("--c", type=float, default=0.01, help="c (occupancy map)")

    p = sub.add_parser(
        "conformance",
        help="differential conformance suite: cross-backend oracles plus "
        "the paper's metamorphic invariants",
    )
    p.add_argument(
        "--suite", choices=SUITES, default="quick",
        help="quick: PR-sized sweep; full: nightly breadth with larger "
        "simulation budgets and the process-pool oracle",
    )
    p.add_argument("--seed", type=int, default=0, help="suite sampling seed")
    p.add_argument(
        "--models", metavar="NAMES",
        help="comma list restricting the swept models "
        f"(default: all of {','.join(ALL_MODELS)})",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="write the provenance-stamped JSONL check report here",
    )
    _add_observability_flags(p)

    p = sub.add_parser(
        "compare",
        help="cross-scheme tournament: distance/movement/timer/LA/"
        "jointly-optimal winner map over a parameter grid",
    )
    p.add_argument("--model", choices=sorted(MODEL_CLASSES), default="2d-exact")
    p.add_argument(
        "--vary", action="append", default=[], metavar="PARAM=SPEC",
        help="axis to vary; PARAM is one of q/c/U/V/m, SPEC is either a "
        "comma list (e.g. 'U=20,50,100' or 'm=1,3,inf') or "
        "'start:stop:count[:log]'; repeatable.  Without --vary the "
        "tournament runs at the single fixed operating point",
    )
    p.add_argument("--q", type=float, default=0.05, help="fixed move probability")
    p.add_argument("--c", type=float, default=0.01, help="fixed call probability")
    p.add_argument("--update-cost", type=float, default=100.0, help="fixed U")
    p.add_argument("--poll-cost", type=float, default=10.0, help="fixed V")
    p.add_argument("--max-delay", type=_delay, default=1, help="fixed m")
    p.add_argument("--d-max", type=int, default=100, help="search bound D")
    p.add_argument(
        "--schemes", metavar="NAMES",
        help="comma list restricting the field (distance always runs); "
        "default: all of distance,movement,timer,location-area,"
        "jointly-optimal",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the distance grid leg (1 = serial)",
    )
    p.add_argument(
        "--cache-dir", default="benchmarks/out/cache",
        help="on-disk sweep cache directory (default: benchmarks/out/cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute without reading or writing the sweep cache",
    )
    p.add_argument("--json", help="write the full tournament payload here")
    p.add_argument("--csv", help="write the per-point winner table here")
    _add_observability_flags(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "reproduce": _cmd_reproduce,
            "table1": _cmd_table1,
            "table2": _cmd_table2,
            "fig4": _cmd_fig4,
            "fig5": _cmd_fig5,
            "optimize": _cmd_optimize,
            "sweep": _cmd_sweep,
            "simulate": _cmd_simulate,
            "approx": _cmd_approx,
            "validate": _cmd_validate,
            "speed": _cmd_speed,
            "fleet": _cmd_fleet,
            "faults": _cmd_faults,
            "soft-delay": _cmd_soft_delay,
            "conformance": _cmd_conformance,
            "compare": _cmd_compare,
            "show": _cmd_show,
            "metrics": _cmd_metrics,
            "policy": _cmd_policy,
        }[args.command]
        if getattr(args, "metrics_out", None) or getattr(args, "trace", False):
            return _run_observed(handler, args)
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_observed(handler, args) -> int:
    """Run one subcommand inside an observability session.

    Instrumentation is strictly read-only (it never draws randomness or
    feeds back into computation), so the command's printed numbers are
    bit-identical with or without these flags.
    """
    from .analysis.report import render_table
    from .observability import session
    from .observability.export import build_provenance, write_artifact

    with session() as obs:
        code = handler(args)
        if args.metrics_out:
            params = {
                key: value
                for key, value in vars(args).items()
                if key not in ("command", "metrics_out", "trace")
            }
            provenance = build_provenance(
                args.command, params, seed=getattr(args, "seed", None)
            )
            path = write_artifact(args.metrics_out, obs, provenance)
            print(f"\nwrote metrics artifact to {path}")
        if args.trace:
            rows = obs.tracer.summary()
            if rows:
                print()
                print(
                    render_table(
                        ["span", "count", "total s", "mean s"],
                        [list(row) for row in rows],
                        title="Trace spans",
                    )
                )
    return code


def _cmd_reproduce(args) -> int:
    import time

    from .analysis.reproduce import reproduce

    started = time.perf_counter()
    lines = reproduce(args.outdir, quick=args.quick)
    print("\n".join(lines))
    print(f"\nwrote {args.outdir}/ in {time.perf_counter() - started:.1f}s")
    return 0


def _cmd_table1(args) -> int:
    from .analysis.report import write_csv
    from .analysis.reproduce import render_table1
    from .analysis.tables import compute_table1, table1_rows

    table = compute_table1()
    print(render_table1(table))
    if args.csv:
        write_csv(args.csv, *table1_rows(table))
    return 0


def _cmd_table2(args) -> int:
    from .analysis.report import write_csv
    from .analysis.reproduce import render_table2
    from .analysis.tables import compute_table2, table2_rows

    table = compute_table2()
    print(render_table2(table))
    if args.csv:
        write_csv(args.csv, *table2_rows(table))
    return 0


def _figure_output(figure, args) -> int:
    from .analysis.report import write_csv
    from .analysis.reproduce import render_figure

    print(render_figure(figure, plot=not args.no_plot))
    if args.csv:
        write_csv(args.csv, *figure.as_rows())
    return 0


def _cmd_fig4(args) -> int:
    from .analysis.figures import compute_figure4

    return _figure_output(compute_figure4(args.dimensions, points=args.points), args)


def _cmd_fig5(args) -> int:
    from .analysis.figures import compute_figure5

    return _figure_output(compute_figure5(args.dimensions, points=args.points), args)


def _cmd_optimize(args) -> int:
    from .core.parameters import CostParams, MobilityParams
    from .core.threshold import find_optimal_threshold

    model = MODEL_CLASSES[args.model](
        MobilityParams(move_probability=args.q, call_probability=args.c)
    )
    costs = CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost)
    solution = find_optimal_threshold(
        model, costs, args.max_delay, d_max=args.d_max, method=args.method
    )
    b = solution.breakdown
    print(f"model:            {args.model}")
    print(f"optimal d*:       {solution.threshold}")
    print(f"total cost C_T:   {solution.total_cost:.6f}")
    print(f"  update C_u:     {b.update_cost:.6f}")
    print(f"  paging C_v:     {b.paging_cost:.6f}")
    print(f"expected delay:   {b.expected_delay:.3f} polling cycles")
    print(f"evaluations:      {solution.search.evaluations}")
    return 0


_DELAY_AXIS = "axis 'm' takes positive integers or inf"


def _parse_axis_spec(param: str, spec: str):
    """Parse one ``--vary`` value grid.

    Comma lists take each token verbatim (``inf`` allowed for ``m``);
    ``start:stop:count[:log]`` expands to an evenly spaced grid, rounded
    to integers for ``m``, where a range that rounds two points to one
    delay bound is refused.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ParameterError(
                f"bad range spec {spec!r} for {param!r}; expected "
                "start:stop:count or start:stop:count:log"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ParameterError(
                f"non-numeric range spec {spec!r} for axis {param!r}"
            ) from None
        if count < 2:
            raise ParameterError(f"range spec {spec!r} needs count >= 2")
        if len(parts) == 4:
            if start <= 0 or stop <= 0:
                raise ParameterError(
                    f"log range spec {spec!r} needs positive endpoints"
                )
            ratio = (stop / start) ** (1.0 / (count - 1))
            values = [start * ratio**i for i in range(count)]
        else:
            step = (stop - start) / (count - 1)
            values = [start + step * i for i in range(count)]
        if param == "m":
            return _delay_range(spec, values)
        return values
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ParameterError(f"empty value list for axis {param!r}")
    try:
        if param == "m":
            return [_delay(t) for t in tokens]
        return [float(t) for t in tokens]
    except ValueError:
        if param == "m":
            raise ParameterError(f"{_DELAY_AXIS}, got {spec!r}") from None
        raise ParameterError(
            f"non-numeric value in {spec!r} for axis {param!r}"
        ) from None


def _delay_range(spec: str, values: List[float]) -> List[int]:
    """Round a ``--vary m=`` range to delay bounds."""
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(
            f"{_DELAY_AXIS}; range spec {spec!r} needs finite endpoints "
            "(list inf in a comma list, e.g. m=1,2,inf)"
        )
    bounds = [int(round(v)) for v in values]
    repeated = sorted({m for m in bounds if bounds.count(m) > 1})
    if repeated:
        raise ParameterError(
            f"{_DELAY_AXIS}; range spec {spec!r} rounds to the repeated "
            f"delay bounds {repeated}"
        )
    return bounds


def _cmd_sweep(args) -> int:
    from .analysis.report import render_table, write_csv
    from .analysis.sweep import grid_sweep

    axes = {}
    for entry in args.vary:
        param, sep, spec = entry.partition("=")
        if not sep:
            raise ReproError(
                f"--vary takes PARAM=SPEC (e.g. U=20,50,100), got {entry!r}"
            )
        param = param.strip()
        if param in axes:
            raise ReproError(f"axis {param!r} given more than once")
        axes[param] = _parse_axis_spec(param, spec.strip())
    result = grid_sweep(
        args.model,
        axes,
        q=args.q,
        c=args.c,
        update_cost=args.update_cost,
        poll_cost=args.poll_cost,
        max_delay=args.max_delay,
        d_max=args.d_max,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    varied = [name for name, _ in result.axes]
    headers = varied + ["d*", "C_T", "C_u", "C_v", "E[delay]"]
    attr = {"q": "q", "c": "c", "U": "update_cost", "V": "poll_cost",
            "m": "max_delay"}
    rows = [
        [getattr(p, attr[name]) for name in varied]
        + [p.optimal_d, p.total_cost, p.update_component, p.paging_component,
           p.expected_delay]
        for p in result.points
    ]
    shape = " x ".join(str(n) for n in result.shape)
    title = (
        f"Grid sweep ({args.model}, {shape} = {len(result.points)} points, "
        f"d_max={args.d_max})"
    )
    print(render_table(headers, rows, title=title))
    source = "cache" if result.from_cache else (
        f"{args.workers} worker(s)" if args.workers > 1 else "serial solve"
    )
    print(f"\nsource: {source}")
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


def _cmd_simulate(args) -> int:
    from functools import partial

    from .core.parameters import CostParams, MobilityParams
    from .geometry import HexTopology, LineTopology
    from .mobility.ctrw import mobility_preset
    from .simulation.runner import run_replicated
    from .strategies.distance import DistanceStrategy

    topology = LineTopology() if args.dimensions == 1 else HexTopology()
    mobility = MobilityParams(move_probability=args.q, call_probability=args.c)
    costs = CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost)
    spec = mobility_preset(args.mobility, args.q, drift=args.drift)
    if spec is not None and args.dimensions == 1:
        print("CTRW mobility presets require --dimensions 2", file=sys.stderr)
        return 2
    result = run_replicated(
        topology=topology,
        strategy_factory=partial(
            DistanceStrategy, args.threshold, max_delay=args.max_delay
        ),
        mobility=mobility,
        costs=costs,
        slots=args.slots,
        replications=args.replications,
        seed=args.seed,
        warmup_slots=args.warmup,
        workers=args.workers,
        walker_factory=None if spec is None else spec.walker_factory(),
    )
    if spec is not None:
        print(f"mobility:         {args.mobility} "
              f"(q_eff={spec.effective_move_probability():.4f}, "
              f"residence cv^2={spec.residence.cv2():.2f})")
    print(f"replications:     {result.replications} x {args.slots} slots")
    print(f"mean C_T:         {result.mean_total_cost:.6f} "
          f"(+/- {result.total_cost_ci():.6f} at 95%)")
    print(f"  mean C_u:       {result.mean_update_cost:.6f}")
    print(f"  mean C_v:       {result.mean_paging_cost:.6f}")
    print(f"mean page delay:  {result.mean_paging_delay:.3f} cycles")
    return 0


def _cmd_approx(args) -> int:
    from .analysis.approximation import (
        MOBILITY_MODELS,
        approximation_report,
        approximation_rows,
        write_approximation_artifact,
    )
    from .analysis.report import render_table, write_csv

    if args.models:
        models = tuple(name.strip() for name in args.models.split(",") if name.strip())
    else:
        models = MOBILITY_MODELS
    report = approximation_report(
        q=args.q,
        c=args.c,
        d=args.threshold,
        m=args.max_delay,
        update_cost=args.update_cost,
        poll_cost=args.poll_cost,
        slots=args.slots,
        terminals=args.terminals,
        warmup_slots=args.warmup,
        seed=args.seed,
        models=models,
        drift=args.drift,
    )
    headers = [
        "mobility", "q_eff", "cv^2", "simulated", "exact",
        "exact err", "approx err", "deviation", "converges",
    ]
    rows = approximation_rows(report)
    title = (f"analytic vs simulated cost, q={args.q} c={args.c} "
             f"d={args.threshold} m={args.max_delay}")
    print(render_table(headers, rows, title=title))
    if args.csv:
        write_csv(args.csv, headers, rows)
        print(f"wrote {args.csv}")
    if args.report:
        path = write_approximation_artifact(args.report, report)
        print(f"wrote {path}")
    return 0


def _cmd_faults(args) -> int:
    import numpy as np

    from .analysis.report import render_table
    from .core.parameters import CostParams, MobilityParams
    from .faults import (
        BaseStationOutage,
        PageLoss,
        RegisterDegradation,
        ResilientEngine,
        SignalingPolicy,
        UpdateLoss,
    )
    from .geometry import HexTopology, LineTopology
    from .strategies.distance import DistanceStrategy

    if args.replications < 1:
        raise ParameterError(f"replications must be >= 1, got {args.replications}")

    def build_faults():
        faults = []
        if args.loss:
            faults.append(UpdateLoss(args.loss))
        if args.page_loss:
            faults.append(PageLoss(args.page_loss))
        if args.outage_rate:
            faults.append(BaseStationOutage(args.outage_rate, args.outage_duration))
        if args.register_failure_rate:
            faults.append(
                RegisterDegradation(args.register_failure_rate, args.failover_slots)
            )
        return faults

    topology_factory = LineTopology if args.dimensions == 1 else HexTopology
    mobility = MobilityParams(move_probability=args.q, call_probability=args.c)
    costs = CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost)
    signaling = SignalingPolicy(
        max_update_retries=args.retries,
        backoff_factor=args.backoff,
        max_repage_attempts=args.repages,
    )

    def campaign(faulted: bool):
        import numpy.random as npr

        snapshots, reports = [], []
        children = npr.SeedSequence(args.seed).spawn(args.replications)
        for child in children:
            engine = ResilientEngine(
                topology=topology_factory(),
                strategy=DistanceStrategy(args.threshold, max_delay=args.max_delay),
                mobility=mobility,
                costs=costs,
                faults=build_faults() if faulted else [],
                signaling=signaling,
                seed=child,
            )
            snapshots.append(engine.run(args.slots))
            reports.append(engine.fault_report())
        return snapshots, reports

    base_snaps, _ = campaign(faulted=False)
    fault_snaps, fault_reports = campaign(faulted=True)

    def mean(values):
        return float(np.mean(values))

    base_cost = mean([s.mean_total_cost for s in base_snaps])
    fault_cost = mean([s.mean_total_cost for s in fault_snaps])
    base_delay = mean([s.mean_paging_delay for s in base_snaps])
    fault_delay = mean([s.mean_paging_delay for s in fault_snaps])
    rows = [
        ["mean C_T / slot", base_cost, fault_cost,
         f"{fault_cost / base_cost - 1:+.1%}" if base_cost else "n/a"],
        ["mean C_u / slot",
         mean([s.mean_update_cost for s in base_snaps]),
         mean([s.mean_update_cost for s in fault_snaps]), ""],
        ["mean C_v / slot",
         mean([s.mean_paging_cost for s in base_snaps]),
         mean([s.mean_paging_cost for s in fault_snaps]), ""],
        ["mean page delay (cycles)", base_delay, fault_delay,
         f"{fault_delay / base_delay - 1:+.1%}" if base_delay else "n/a"],
    ]
    totals = {
        key: sum(r[key] for r in fault_reports)
        for key in (
            "lost_transmissions", "lost_updates", "update_retries",
            "stale_lookups", "missed_polls", "repages",
            "recovery_pagings", "recovery_cells",
        )
    }
    faults_desc = ", ".join(fault_reports[0]["faults"]) or "none"
    print(
        render_table(
            ["metric", "fault-free", "faulted", "degradation"],
            rows,
            title=(
                f"Fault injection ({args.dimensions}-D, q={args.q}, c={args.c}, "
                f"d={args.threshold}, m={args.max_delay}, "
                f"{args.replications} x {args.slots} slots)"
            ),
        )
    )
    print(f"\nfaults:            {faults_desc}")
    print(f"signaling:         retries={args.retries} backoff={args.backoff} "
          f"repages={args.repages}")
    for key in ("lost_transmissions", "update_retries", "lost_updates",
                "stale_lookups", "missed_polls", "repages",
                "recovery_pagings", "recovery_cells"):
        print(f"{key + ':':<19}{totals[key]}")
    if args.json_path:
        import json
        from pathlib import Path

        payload = {
            "config": {
                "dimensions": args.dimensions, "q": args.q, "c": args.c,
                "update_cost": args.update_cost, "poll_cost": args.poll_cost,
                "threshold": args.threshold,
                "max_delay": None if args.max_delay == math.inf else args.max_delay,
                "slots": args.slots, "replications": args.replications,
                "seed": args.seed,
                "faults": fault_reports[0]["faults"],
                "signaling": {"retries": args.retries, "backoff": args.backoff,
                              "repages": args.repages},
            },
            "baseline": {"mean_total_cost": base_cost,
                         "mean_paging_delay": base_delay},
            "faulted": {"mean_total_cost": fault_cost,
                        "mean_paging_delay": fault_delay},
            "degradation": {
                "cost": fault_cost / base_cost - 1 if base_cost else None,
                "delay": fault_delay / base_delay - 1 if base_delay else None,
            },
            "counters": totals,
        }
        Path(args.json_path).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote JSON report to {args.json_path}")
    return 0


def _cmd_speed(args) -> int:
    from .core.parameters import CostParams, MobilityParams
    from .geometry import HexTopology, LineTopology
    from .simulation.vectorized import throughput_report

    topology = LineTopology() if args.dimensions == 1 else HexTopology()
    report = throughput_report(
        topology=topology,
        threshold=args.threshold,
        mobility=MobilityParams(move_probability=args.q, call_probability=args.c),
        costs=CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost),
        max_delay=args.max_delay,
        engine_slots=args.engine_slots,
        vector_slots=args.vector_slots,
        terminals=args.terminals,
        seed=args.seed,
    )
    eng, vec = report["engine"], report["vectorized"]
    print(
        f"Throughput at d={args.threshold}, m={args.max_delay}, "
        f"q={args.q}, c={args.c} ({args.dimensions}-D):"
    )
    print(f"  per-cell engine:  {eng['slots_per_sec']:>14,.0f} slots/sec "
          f"({eng['terminal_slots']:,} slots in {eng['seconds']:.3f}s)")
    print(f"  vectorized (K={vec['terminals']}): {vec['slots_per_sec']:>10,.0f} "
          f"terminal-slots/sec ({vec['terminal_slots']:,} in {vec['seconds']:.3f}s)")
    print(f"  speedup:          {report['speedup']:.1f}x")
    if args.json_path:
        import json
        from pathlib import Path

        Path(args.json_path).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote JSON report to {args.json_path}")
    return 0


def _cmd_fleet(args) -> int:
    from .analysis.report import render_table
    from .core.parameters import CostParams
    from .simulation.fleet import fleet_report

    report = fleet_report(
        args.terminals,
        shards=args.shards,
        slots=args.slots,
        workers=args.workers,
        seed=args.seed,
        costs=CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost),
        max_delay=args.max_delay,
        d_max=args.d_max,
        population_seed=args.population_seed,
        checkpoint=args.checkpoint,
    )
    config = report["config"]
    print(
        f"Fleet: {config['terminals']:,} terminals, {config['shards']} shards, "
        f"{config['slots']} slots, m={config['max_delay']}"
    )
    print(f"population:        " + ", ".join(
        f"{name}={count:,}" for name, count in config["population"].items()
    ))
    print(f"build time:        {report['build_seconds']:.3f}s")
    print(f"run time:          {report['run_seconds']:.3f}s "
          f"({report['terminal_slots_per_sec']:,.0f} terminal-slots/sec)")
    print(f"mean C_T / slot:   {report['mean_total_cost']:.6f}")
    print(f"  mean C_u:        {report['mean_update_cost']:.6f}")
    print(f"  mean C_v:        {report['mean_paging_cost']:.6f}")
    print(f"mean page delay:   {report['mean_paging_delay']:.3f} cycles")
    rows = [
        [name, f"{stats['terminals']:,}", stats["update_cost"],
         stats["paging_cost"], stats["mean_total_cost"]]
        for name, stats in report["per_profile"].items()
    ]
    print()
    print(render_table(
        ["profile", "terminals", "C_u total", "C_v total", "mean C_T/slot"],
        rows, title="Per-profile breakdown",
    ))
    rss = report["peak_rss_bytes"]
    print(f"\npeak RSS:          {rss['max'] / 2**20:,.0f} MiB "
          f"(budget {report['rss_budget_bytes'] / 2**20:,.0f} MiB, "
          f"{'within' if report['rss_within_budget'] else 'OVER'} budget)")
    if args.json_path:
        import json
        from pathlib import Path

        Path(args.json_path).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote JSON report to {args.json_path}")
    return 0


def _cmd_validate(args) -> int:
    from .analysis.reproduce import render_validation
    from .analysis.validate import run_validation_campaign

    outcomes = run_validation_campaign(
        slots=args.slots, replications=args.replications, workers=args.workers
    )
    print(render_validation(outcomes))
    return 0 if all(outcome.ok for outcome in outcomes) else 1


def _cmd_conformance(args) -> int:
    from .conformance import run_conformance, write_report

    models = (
        [name.strip() for name in args.models.split(",") if name.strip()]
        if args.models
        else None
    )
    report = run_conformance(suite=args.suite, seed=args.seed, models=models)
    print(report.render())
    if args.report:
        path = write_report(report, args.report)
        print(f"\nwrote conformance report to {path}")
    return 0 if report.ok else 1


def _cmd_soft_delay(args) -> int:
    from .core.delay_penalty import optimize_soft_delay
    from .core.parameters import CostParams, MobilityParams

    model = MODEL_CLASSES[args.model](
        MobilityParams(move_probability=args.q, call_probability=args.c)
    )
    costs = CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost)
    policy = optimize_soft_delay(model, costs, args.penalty, d_max=args.d_max)
    print(f"model:             {args.model}")
    print(f"optimal d*:        {policy.threshold}")
    print(f"partition:         {policy.plan.describe()}")
    print(f"expected delay:    {policy.expected_delay:.3f} polling cycles")
    print(f"total cost:        {policy.total_cost:.6f}")
    print(f"  update C_u:      {policy.update_cost:.6f}")
    print(f"  polling cost:    {policy.paging_cell_cost:.6f}")
    print(f"  delay cost:      {policy.delay_cost:.6f}")
    return 0


def _cmd_policy(args) -> int:
    from .core.parameters import CostParams, MobilityParams
    from .core.policy_io import Policy
    from .core.threshold import find_optimal_threshold

    model = MODEL_CLASSES[args.model](
        MobilityParams(move_probability=args.q, call_probability=args.c)
    )
    costs = CostParams(update_cost=args.update_cost, poll_cost=args.poll_cost)
    solution = find_optimal_threshold(model, costs, args.max_delay)
    policy = Policy.sdf(model.topology, solution.threshold, args.max_delay)
    text = policy.to_json()
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(
            f"wrote policy (d={solution.threshold}, "
            f"C_T={solution.total_cost:.4f}) to {args.output}"
        )
    else:
        print(text)
    return 0


def _cmd_metrics(args) -> int:
    from .core.costs import CostEvaluator
    from .core.derived import derive_metrics
    from .core.parameters import CostParams, MobilityParams

    if getattr(args, "metrics_command", None) == "summarize":
        from .observability.export import read_artifact, summarize_artifact

        print(summarize_artifact(read_artifact(args.path)))
        return 0
    missing = [
        flag
        for flag, value in (
            ("--q", args.q), ("--c", args.c), ("--threshold", args.threshold)
        )
        if value is None
    ]
    if missing:
        raise ReproError(
            "metrics needs " + ", ".join(missing) + " for the analytic "
            "report, or a subcommand: repro-lm metrics summarize PATH"
        )
    model = MODEL_CLASSES[args.model](
        MobilityParams(move_probability=args.q, call_probability=args.c)
    )
    evaluator = CostEvaluator(model, CostParams(update_cost=1.0, poll_cost=1.0))
    metrics = derive_metrics(evaluator, args.threshold, args.max_delay)
    print(f"model:                      {args.model}  (d={args.threshold}, "
          f"m={args.max_delay})")
    print(f"update rate:                {metrics.update_rate:.6f} /slot")
    print(f"mean slots between updates: {metrics.mean_slots_between_updates:.1f}")
    print(f"register fix rate:          {metrics.fix_rate:.6f} /slot")
    print(f"mean fix gap:               {metrics.mean_fix_gap:.1f} slots")
    print(f"mean register staleness:    {metrics.mean_register_staleness:.1f} slots")
    print(f"mean distance from center:  {metrics.mean_distance:.3f} rings")
    print(f"P(at center ring):          {metrics.at_center_probability:.3f}")
    print(f"cells polled per call:      {metrics.cells_per_call:.3f}")
    print(f"polling cycles per call:    {metrics.cycles_per_call:.3f}")
    return 0


def _cmd_show(args) -> int:
    from .analysis.hexmap import (
        render_occupancy,
        render_paging_order,
        render_ring_distances,
    )
    from .core.models import TwoDimensionalModel
    from .core.parameters import MobilityParams
    from .paging import sdf_partition

    if args.what == "rings":
        print(f"Ring distances within d={args.threshold} (paper Figure 1(b)):")
        print(render_ring_distances(args.threshold))
    elif args.what == "paging":
        plan = sdf_partition(args.threshold, args.max_delay)
        print(
            f"Polling cycle per cell, d={args.threshold}, "
            f"m={args.max_delay} ({plan.describe()}):"
        )
        print(render_paging_order(plan))
    else:
        model = TwoDimensionalModel(
            MobilityParams(move_probability=args.q, call_probability=args.c)
        )
        print(
            f"Steady-state per-cell occupancy, d={args.threshold}, "
            f"q={args.q}, c={args.c} (darker = more likely):"
        )
        print(render_occupancy(model, args.threshold))
    return 0


def _cmd_compare(args) -> int:
    import json as json_module
    from pathlib import Path

    from .analysis.compare import run_tournament
    from .analysis.report import render_table, write_csv

    axes = {}
    for entry in args.vary:
        param, sep, spec = entry.partition("=")
        if not sep:
            raise ReproError(
                f"--vary takes PARAM=SPEC (e.g. U=20,50,100), got {entry!r}"
            )
        param = param.strip()
        if param in axes:
            raise ReproError(f"axis {param!r} given more than once")
        axes[param] = _parse_axis_spec(param, spec.strip())
    if not axes:
        # Degenerate single-point tournament: vary m over just the
        # fixed value so grid_sweep has an axis to enumerate.
        axes = {"m": [args.max_delay]}
    schemes = None
    if args.schemes:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]

    result = run_tournament(
        args.model,
        axes,
        q=args.q,
        c=args.c,
        update_cost=args.update_cost,
        poll_cost=args.poll_cost,
        max_delay=args.max_delay,
        d_max=args.d_max,
        schemes=schemes,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    )

    varied = [name for name, _ in result.axes]
    headers = varied + [f"{s} C_T" for s in result.schemes] + ["winner"]
    attr = {"q": "q", "c": "c", "U": "update_cost", "V": "poll_cost",
            "m": "max_delay"}
    rows = []
    for point in result.points:
        row = [getattr(point, attr[name]) for name in varied]
        row += [point.outcome(s).total_cost for s in result.schemes]
        row.append(point.winner)
        rows.append(row)
    shape = " x ".join(str(n) for n in result.shape)
    print(
        render_table(
            headers,
            rows,
            title=(
                f"Scheme tournament ({args.model}, {shape} = "
                f"{len(result.points)} points, d_max={args.d_max})"
            ),
        )
    )
    counts = result.winner_counts()
    summary = ", ".join(f"{s}: {counts[s]}" for s in result.schemes)
    print(f"\nwins: {summary}")
    source = "cache" if result.from_cache else (
        f"{args.workers} worker(s)" if args.workers > 1 else "serial solve"
    )
    print(f"source: {source}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json_module.dumps(result.to_payload(), indent=2) + "\n"
        )
        print(f"payload: {args.json}")
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
