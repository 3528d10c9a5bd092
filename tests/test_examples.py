"""Smoke tests: the shipped examples must actually run.

Each example is executed as a subprocess (exactly how a user would run
it) and its output checked for the landmark lines.  The slowest
examples (``dynamic_user``, ``optimal_partitioning``) are excluded to
keep the suite fast; the remaining six cover every subsystem the
examples exercise.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS

pytestmark = pytest.mark.slow

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

#: (script, landmark strings that must appear on stdout)
FAST_EXAMPLES = [
    ("quickstart.py", ["Two-dimensional (city) coverage", "Steady-state ring"]),
    ("highway_1d.py", ["distance-based", "location-area", "Per-user thresholds"]),
    ("delay_tradeoff.py", ["pedestrian, light traffic", "gap closed"]),
    ("soft_delay.py", ["Delay/signaling frontier", "square"]),
    ("city_2d.py", ["Per-class optimal thresholds", "busiest base stations"]),
    ("operator_planning.py", ["Fleet policy", "Paging-channel feasibility"]),
]


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}:\n{result.stderr[-2000:]}"
    )
    return result.stdout


@pytest.mark.parametrize("name,landmarks", FAST_EXAMPLES)
def test_example_runs(name, landmarks):
    output = run_example(name)
    for landmark in landmarks:
        assert landmark in output, f"{name}: missing {landmark!r} in output"


def test_all_examples_present():
    # The README's table must not drift from the directory contents.
    expected = {
        "quickstart.py",
        "city_2d.py",
        "highway_1d.py",
        "delay_tradeoff.py",
        "dynamic_user.py",
        "optimal_partitioning.py",
        "soft_delay.py",
        "operator_planning.py",
        "failure_drill.py",
    }
    actual = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= actual


def test_examples_have_docstrings_and_main():
    for path in EXAMPLES_DIR.glob("*.py"):
        source = path.read_text()
        assert source.lstrip().startswith('"""'), f"{path.name} lacks a docstring"
        assert '__name__ == "__main__"' in source, f"{path.name} lacks a main guard"


class TestReproduceScript:
    def test_quick_run_produces_all_artifacts(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "reproduce", "--quick",
             "--outdir", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        # --quick leaves the ablation and extension experiments out.
        results_dir = EXAMPLES_DIR.parent / "results"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in results_dir.iterdir() if p.stem not in EXPERIMENTS
        )
        summary = (tmp_path / "SUMMARY.txt").read_text().splitlines()
        assert result.stdout.startswith("\n".join(summary))
        assert summary[:4] == [
            "Table 1: worst |C_T - paper| = 0.0005; d* agrees in 112/112 cells",
            "Table 2: worst |C_T - paper| = 0.0005, worst |C'_T - paper| = "
            "0.0005; d* agrees in 84/84, d' in 84/84 cells",
            "fig4a: shape violations = 0; ceiling = 0.399",
            "fig4b: shape violations = 0; ceiling = 2.391",
        ]
        assert summary[4].startswith("fig5a: shape violations = 0; ceiling = 0.602; ")
        assert "d* jumps along the sweep" in summary[4]
        assert summary[5].startswith("fig5b: shape violations = 0; ceiling = 1.382; ")
        assert "of the delay-1 gap" in summary[5]
        assert summary[6].startswith(
            "validation: 8/8 cases agree; worst relative error"
        )
        assert len(summary) == 7
        validation = (tmp_path / "validation.txt").read_text().splitlines()
        assert "95% CI" in validation[1]
        assert len(validation) == 3 + 8


class TestApiDocsGenerator:
    def test_docs_up_to_date(self):
        scripts_dir = EXAMPLES_DIR.parent / "scripts"
        result = subprocess.run(
            [sys.executable, str(scripts_dir / "gen_api_docs.py"), "--check"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_docs_cover_key_modules(self):
        api = (EXAMPLES_DIR.parent / "docs" / "API.md").read_text()
        for section in (
            "## `repro`",
            "## `repro.core.models`",
            "## `repro.paging`",
            "## `repro.simulation`",
            "## `repro.channel`",
        ):
            assert section in api
