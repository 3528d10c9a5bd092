"""Shared helpers for the benchmark harness.

Each bench runs one ablation or extension experiment (EXPERIMENTS.md's
ABL-* and EXT-* rows) and gates on its headline result; running
``pytest benchmarks/ --benchmark-only -s`` prints every report on
stdout, and every bench also writes its rendering into
``benchmarks/out/``.  The paper's own tables and figures are not
benches: ``repro-lm reproduce`` writes them into ``results/``.

Every artifact written here is provenance-stamped with the same
schema the observability exporter uses (git revision, library version,
parameter fingerprint), so a committed ``benchmarks/out/`` file can
always be traced to the commit and inputs that produced it -- the
fix for the historical drift where out/ carried anonymous snapshots.
"""

import json
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def _provenance(name: str, params: dict) -> dict:
    from repro.observability.export import build_provenance

    return build_provenance(f"bench:{name}", params, seed=params.get("seed"))


def emit(out_dir: Path, name: str, text: str, **params) -> None:
    """Print a bench's report and persist it under benchmarks/out/.

    Alongside the human-readable ``<name>.txt`` this writes a stamped
    ``<name>.json`` twin carrying the provenance block and the rendered
    report, so even text-only benches leave a traceable artifact.
    """
    print()
    print(text)
    (out_dir / f"{name}.txt").write_text(text + "\n")
    (out_dir / f"{name}.json").write_text(
        json.dumps(
            {"provenance": _provenance(name, params), "report": text},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def emit_json(out_dir: Path, name: str, payload: dict, **params) -> None:
    """Persist a bench's results as ``benchmarks/out/<name>.json``.

    The text rendering is for humans; dashboards and regression
    trackers consume this machine-readable twin instead of scraping
    tables.  A ``provenance`` block is injected unless the payload
    already carries one.
    """
    stamped = dict(payload)
    stamped.setdefault("provenance", _provenance(name, params))
    (out_dir / f"{name}.json").write_text(
        json.dumps(stamped, indent=2, sort_keys=True) + "\n"
    )
