#!/usr/bin/env python3
"""Closed-loop benchmark of the location-update and paging reproduction.

Run from the repository root; the library is imported from ``src/``, so
there is nothing to build::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's ops back to back for
``--seconds`` seconds -- the next op starts when the previous one
returns -- and checks every op's output.  Diagnostics go to standard
output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``perfbench/README.md`` documents the workloads and every metric.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.common import SPEC, Calibration, Sample, deciles, no_span, units  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
#: Set-up samples per run: this process plus fresh interpreters.  One
#: sample swings by a third between identical runs on a busy host.
SETUP_SAMPLES = 7
#: Calibration runs of each kind after a set-up; their median scales it.
SETUP_CALIBRATIONS = 5
PROBE_TIMEOUT_S = 150
#: Failure messages printed per run; later failures are only counted.
MAX_FAILURE_REPORTS = 5


@dataclasses.dataclass
class SetUp:
    """One set-up sample: wall seconds of the imports and of the rest,
    and the calibration scales of each, measured right after."""

    imports: float
    rest: float
    imports_scale: float
    rest_scale: float

    @property
    def seconds(self) -> float:
        return self.imports * self.imports_scale + self.rest * self.rest_scale


class Failures:
    """Counts failed ops and prints the first few to standard error."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, i: int, problems: List[str]) -> None:
        self.count += 1
        if self.count <= MAX_FAILURE_REPORTS:
            print(f"op {i} failed: {'; '.join(problems[:3])}", file=sys.stderr)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Closed-loop benchmark; see perfbench/README.md."
    )
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0, help="makes every input of the run")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(SPEC["run_seconds"]),
        help="how long the loop measures",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="0: end-to-end metrics; 1: per-layer metrics of a traced run",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this interpreter, print it and exit "
        "(how a run samples its set-up time)",
    )
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int, workdir: Path, span=no_span):
    """Import the workload, build its inputs and run one checked warm-up op."""
    module = importlib.import_module(f"perfbench.{workload_name}")
    workload = module.Workload(seed, workdir, span=span)
    problems = workload.check(-1, workload.op(-1))
    if problems:
        raise RuntimeError(f"the warm-up op failed its check: {problems[:3]}")
    return workload


def timed_set_up(args, workdir: Path):
    """Set up in this interpreter; return the workload and its
    :class:`SetUp` sample.

    Imports are scaled by the ``"interpreter"`` calibration, input
    generation and the warm-up op by the workload's own, like every op:
    the host's slow regime slows imports about 1.4 times and NumPy-bound
    code up to 1.9 times.
    """
    importlib.import_module(f"perfbench.{args.workload}")
    imported = time.perf_counter()
    workload = set_up(args.workload, args.seed, workdir)
    rest = time.perf_counter() - imported
    scales = [
        statistics.median(calibration.scale() for _ in range(SETUP_CALIBRATIONS))
        for calibration in (Calibration("interpreter"), Calibration(workload.calibration))
    ]
    return workload, SetUp(imported - _START, rest, *scales)


def run_op(workload, i: int, failures: Failures):
    """Run and check op ``i``; return ``(latency_s, output or None)``.

    Only the op is timed, not its check.
    """
    start = time.perf_counter()
    try:
        output = workload.op(i)
    except Exception:  # a raising op is a failed op; the run goes on
        latency = time.perf_counter() - start
        failures.add(i, [traceback.format_exc(limit=4)])
        return latency, None
    latency = time.perf_counter() - start
    try:
        problems = workload.check(i, output)
    except Exception:  # a check that cannot read the output fails the op
        problems = [traceback.format_exc(limit=4)]
    if problems:
        failures.add(i, problems)
        return latency, None
    return latency, output


def closed_loop(workload, seconds: float, failures: Failures, after_op=None) -> List[Sample]:
    """Ops ``0, 1, ...`` back to back until ``seconds`` have passed, with
    a calibration run before the first op and after each op.

    An op's scale is the mean of the runs on either side, so an op during
    which the regime switches gets a scale between the two.
    ``after_op(i, output)`` runs after each correct op, untimed.
    """
    calibration = Calibration(workload.calibration)
    samples = []
    start = time.perf_counter()
    before = calibration.scale()
    i = 0
    while time.perf_counter() - start < seconds:
        at = time.perf_counter() - start
        latency, output = run_op(workload, i, failures)
        after = calibration.scale()
        samples.append(Sample(at, latency, (before + after) / 2, output is not None))
        before = after
        if after_op is not None and output is not None:
            after_op(i, output)
        i += 1
    return samples


def report_latencies(args, samples: List[Sample], failed: int, attempted: int) -> float:
    """Print the ungated diagnostics; return the median scaled op latency
    in seconds."""
    ok = [s for s in samples if s.ok] or samples
    elapsed = samples[-1].at + samples[-1].latency
    tag = f"[{args.workload}]"
    print(
        f"{tag} seed {args.seed}: {len(samples)} ops in {elapsed:.1f} s "
        f"({len(samples) / elapsed:.2f} ops/s); {failed} of {attempted} failed, "
        f"error_rate {failed / attempted:.4f}"
    )
    for label, values in (
        ("wall", [s.latency for s in ok]),
        ("scaled", [s.scaled for s in ok]),
    ):
        p10, p50, p90 = deciles(values)
        print(
            f"{tag} {label} op latency ms: p10 {p10 * 1e3:.3f}, p50 {p50 * 1e3:.3f}, "
            f"p90 {p90 * 1e3:.3f} (n={len(ok)})"
        )
    per_second = {}
    for sample in samples:
        per_second.setdefault(int(sample.at), []).append(sample)
    seconds = [group for _, group in sorted(per_second.items())]
    print(
        f"{tag} per-second median wall ms: "
        + " ".join(f"{statistics.median(s.latency for s in g) * 1e3:.1f}" for g in seconds)
    )
    print(
        f"{tag} per-second median calibration scale: "
        + " ".join(f"{statistics.median(s.scale for s in g):.2f}" for g in seconds)
    )
    return statistics.median(s.scaled for s in ok)


def result_line(failed: int, attempted: int, metrics, section: str) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units(section).items()
        },
    }


def probe_setup(args) -> SetUp:
    """Time one set-up in a fresh interpreter (this one has its imports
    cached)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    return SetUp(**json.loads(completed.stdout.splitlines()[-1]))


def untraced_run(args, workdir: Path) -> dict:
    workload, setup = timed_set_up(args, workdir)
    setups = [setup]
    failures = Failures()
    samples = closed_loop(workload, args.seconds, failures)
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50 = report_latencies(args, samples, failures.count, len(samples))
    setup_s = statistics.median(s.seconds for s in setups)
    print(
        f"[{args.workload}] set-up s (imports x scale + rest x scale): "
        + " ".join(
            f"{s.imports:.3f}x{s.imports_scale:.2f}+{s.rest:.3f}x{s.rest_scale:.2f}"
            for s in setups
        )
        + f"; median {setup_s:.3f}; peak RSS {peak_rss_mib:.1f} MiB"
    )
    metrics = {
        "op_p50_scaled_ms": p50 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    return result_line(failures.count, len(samples), metrics, "end_to_end")


def trace_op(workload, i: int, failures: Failures, expected=None):
    """Replay op ``i`` under a fresh observability session."""
    from repro.observability.context import session

    with session() as obs:
        start = time.perf_counter()
        try:
            summary, counts = workload.traced_op(i, obs.tracer.span)
        except Exception:  # a raising replay is a failed op; the run goes on
            failures.add(i, [traceback.format_exc(limit=4)])
            return None
        wall = time.perf_counter() - start
    problems = workload.check_counts(i, counts)
    if expected is not None and summary != expected:
        problems.append("the traced replay computed another output than the op")
    if problems:
        failures.add(i, problems)
        return None
    return layers.TracedOp.from_records(
        i, wall, obs.tracer.records, counts, summary, obs.collect_payload()
    )


def traced_run(args, workdir: Path) -> dict:
    """Each correct op is followed by its traced replay on the same input;
    afterwards the first traced op runs again in a fresh workload and
    must repeat its counts exactly."""
    from repro.observability.context import session

    with session() as setup_obs:
        workload = set_up(args.workload, args.seed, workdir, span=setup_obs.tracer.span)
    population_s = sum(
        record.duration
        for record in setup_obs.tracer.records
        if record.name == "workload.profiles"
    )
    with session() as warm_up:
        workload.traced_op(-1, warm_up.tracer.span)

    failures = Failures()
    traced: List[layers.TracedOp] = []

    def replay(i, output):
        op = trace_op(workload, i, failures, expected=workload.summary(output))
        if op is not None:
            traced.append(op)

    samples = closed_loop(workload, args.seconds, failures, after_op=replay)
    attempted = len(samples) + sum(sample.ok for sample in samples)
    if traced:
        first = traced[0]
        fresh = importlib.import_module(f"perfbench.{args.workload}").Workload(
            args.seed, workdir / "again"
        )
        attempted += 1
        again = trace_op(fresh, first.index, failures)
        if again is not None and again.exact() != first.exact():
            failures.add(first.index, ["a second run of the op recorded other counts"])

    report_latencies(args, samples, failures.count, attempted)
    metrics = layers.per_layer_metrics(traced, samples, population_s)
    tag = f"[{args.workload}]"
    if traced:
        rows = layers.layer_table(traced, samples)
        print(f"{tag} self time per layer of a traced op (median scaled ms, share of op time):")
        for layer, self_ms, share in rows:
            print(f"{tag}   {layer:<38} {self_ms:10.3f} ms {share:6.1f} %")
        print(
            f"{tag} traced op {metrics['traced_op_ms']:.3f} ms (median of "
            f"{len(traced)}); tracing overhead "
            f"{metrics['observability.trace_overhead_pct']:+.2f} % (median over "
            "traced/untraced pairs of the same op)"
        )
        print(f"{tag} exact counts of op {traced[0].index}: {json.dumps(traced[0].counts)}")
        path = layers.write_artifact(
            OUT_DIR / f"trace-{args.workload}.jsonl",
            traced,
            metrics,
            rows,
            params={"workload": args.workload, "seconds": args.seconds},
            seed=args.seed,
        )
        print(f"{tag} trace artifact {path} (repro-lm metrics summarize reads it)")
    return result_line(failures.count, attempted, metrics, "per_layer")


def main(argv=None) -> int:
    args = parse_args(argv)
    library = ROOT / "src" / "repro"
    if not library.is_dir():
        print(
            f"error: no library at {library}; run the benchmark from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, setup = timed_set_up(args, workdir)
            print(json.dumps(dataclasses.asdict(setup)))
            return 0
        result = traced_run(args, workdir) if args.trace else untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
