"""approximation_report: a preset's row does not depend on the others,
bad slot counts are refused, and no per-terminal snapshot is built."""

import pytest

from repro.analysis.approximation import MOBILITY_MODELS, approximation_report
from repro.core.parameters import CostParams, MobilityParams
from repro.exceptions import ParameterError
from repro.geometry import HexTopology
from repro.simulation import vectorized

SMALL = dict(slots=200, terminals=64, warmup_slots=20, seed=3)


@pytest.fixture(scope="module")
def full_rows():
    return {row.mobility: row for row in approximation_report(**SMALL).rows}


@pytest.mark.parametrize("name", MOBILITY_MODELS)
def test_one_preset_report_equals_its_row_of_the_full_report(full_rows, name):
    (row,) = approximation_report(models=(name,), **SMALL).rows
    assert row == full_rows[name]


def test_preset_order_does_not_change_rows(full_rows):
    rows = approximation_report(models=("ctrw-exp", "uniform"), **SMALL).rows
    assert [row.mobility for row in rows] == ["ctrw-exp", "uniform"]
    assert all(row == full_rows[row.mobility] for row in rows)


@pytest.fixture
def no_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(vectorized, "VectorizedDistanceEngine", refuse)


@pytest.mark.parametrize("slots", [0, -5])
def test_rejects_fewer_than_one_slot_before_building_an_engine(no_engine, slots):
    with pytest.raises(ParameterError, match="slots must be >= 1"):
        approximation_report(**{**SMALL, "slots": slots})


def test_rejects_an_invalid_chain_before_building_an_engine(no_engine):
    # ctrw-fixed moves every round(1 / 0.7) = 1 slot: q_eff = 1, and
    # q_eff + c > 1 has no chain.
    with pytest.raises(ParameterError, match="'ctrw-fixed'.*q_eff=1 at q=0.7"):
        approximation_report(**{**SMALL, "q": 0.7})


def test_rejects_a_repeated_model_before_building_an_engine(no_engine):
    with pytest.raises(ParameterError, match=r"\['uniform'\] asked for more than once"):
        approximation_report(models=("uniform", "ctrw-exp", "uniform"), **SMALL)


def test_report_builds_no_meter_snapshots(monkeypatch):
    built = []
    build = vectorized._meter_snapshots

    def counted(*args):
        snapshots = build(*args)
        built.append(len(snapshots))
        return snapshots

    monkeypatch.setattr(vectorized, "_meter_snapshots", counted)
    approximation_report(**SMALL)
    assert built == []
    # The count is live: reading a result's snapshots builds them.
    engine = vectorized.VectorizedDistanceEngine(
        HexTopology(), 2, MobilityParams(0.2, 0.02), CostParams(50.0, 10.0),
        terminals=5,
    )
    assert len(engine.run(3).snapshots) == 5
    assert built == [5]
