"""approximation_report: a preset's row does not depend on the others."""

import pytest

from repro.analysis.approximation import MOBILITY_MODELS, approximation_report

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
