"""The committed ``results/`` tree is what ``repro-lm reproduce`` writes.

The quick end-to-end run of the command is in ``tests/test_examples.py``.
"""

from pathlib import Path

import pytest

from repro.analysis.reproduce import write_figures, write_tables
from repro.cli import main

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: The analytic artifacts: deterministic, so committed byte for byte.
PAPER_ARTIFACTS = [
    f"{name}.{ext}"
    for name in ("table1", "table2", "fig4a", "fig4b", "fig5a", "fig5b")
    for ext in ("txt", "csv")
]


def test_committed_results_are_what_the_renderers_write(tmp_path):
    write_tables(tmp_path)
    write_figures(tmp_path)
    for name in PAPER_ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), (
            f"results/{name} is stale; regenerate it with 'repro-lm reproduce'"
        )


@pytest.mark.parametrize(
    "argv,artifact",
    [
        (["table1"], "table1.txt"),
        (["table2"], "table2.txt"),
        (["fig4", "--dimensions", "1"], "fig4a.txt"),
        (["fig4", "--dimensions", "2"], "fig4b.txt"),
        (["fig5", "--dimensions", "1"], "fig5a.txt"),
        (["fig5", "--dimensions", "2"], "fig5b.txt"),
    ],
)
def test_single_artifact_commands_print_the_committed_file(capsys, argv, artifact):
    assert main(argv) == 0
    assert capsys.readouterr().out == (RESULTS / artifact).read_text()
