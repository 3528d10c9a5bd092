"""Start-up: each entry point imports only the code it runs.

Every import-set check runs in a fresh interpreter, since this one has
long since imported everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis

SRC = str(Path(repro.__file__).resolve().parent.parent)
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its last line of output."""
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.splitlines()[-1]


def loaded(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    return set(json.loads(fresh(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )))


def among(modules: set, packages) -> list:
    """The ``packages`` (or their submodules) present in ``modules``."""
    return sorted(
        name for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )


@pytest.mark.parametrize(
    "module", ["repro", "repro.analysis.tables", "repro.analysis.figures"]
)
def test_analytic_modules_load_no_simulator_and_no_check(module):
    modules = loaded(f"import {module}")
    assert among(modules, (
        "scipy", "repro.simulation", "repro.conformance", "repro.analysis.sweep",
        "repro.parallel", "repro.persist",
    )) == []


def test_the_cli_loads_only_what_its_parser_reads():
    modules = loaded("import repro.cli")
    assert among(modules, (
        "scipy", "repro.simulation", "repro.conformance.oracles", "repro.faults",
        "repro.channel", "repro.analysis.experiments", "concurrent.futures.process",
        "repro.analysis.reproduce", "repro.analysis.tables", "repro.analysis.report",
        "repro.analysis.sweep", "repro.parallel", "repro.persist",
        "repro.mobility.arrivals", "repro.mobility.fluid", "repro.mobility.traces",
    )) == []


def test_the_banded_solve_loads_scipy_when_called():
    modules = loaded(
        "from repro import MobilityParams, OneDimensionalModel\n"
        "from repro.core.batch import banded_steady_state\n"
        "banded_steady_state(OneDimensionalModel(MobilityParams(0.1, 0.01)), 5)"
    )
    assert "scipy.linalg" in modules


def sweep_after(first: str) -> str:
    """Where ``repro.analysis.sweep`` points once ``first`` has run."""
    return fresh(
        f"{first}\n"
        "from repro.analysis import sweep\n"
        "print(sweep.__module__, sweep.__name__)"
    )


def test_sweep_stays_the_function_after_its_submodule_is_imported():
    assert sweep_after("import repro.analysis.sweep") == "repro.analysis.sweep sweep"
    assert inspect.isfunction(repro.analysis.sweep)


@pytest.mark.parametrize("first", [
    "from repro.analysis.sweep import grid_sweep",
    "import repro.analysis.compare",
])
def test_sweep_stays_the_function_whichever_route_imports_its_submodule(first):
    assert sweep_after(first) == "repro.analysis.sweep sweep"


def test_deferred_check_modules_still_fill_the_registry():
    ids = "from repro.conformance import REGISTRY\nprint(json.dumps(REGISTRY.ids()))"
    direct = json.loads(fresh("import json\n" + ids))
    after_cli = json.loads(fresh("import json\nimport repro.cli\n" + ids))
    assert after_cli == direct
    assert len(direct) > 30


def check_lazy_re_exports(package) -> None:
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name


def test_every_lazy_re_export_resolves():
    check_lazy_re_exports(repro.analysis)


def test_every_lazy_mobility_re_export_resolves():
    check_lazy_re_exports(importlib.import_module("repro.mobility"))
