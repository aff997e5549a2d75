"""Acceptance suite: one test per reference-value row, at the stated
tolerances.  Each test prints its PASS/FAIL line with the measured
numbers; the CLI ``reproduce`` command runs the same row functions."""

import pytest

from beqpt import acceptance


def _check(row_fn):
    row = row_fn()
    status = "PASS" if row.passed else "FAIL"
    print(f"[{status}] {row.key}: {row.title}")
    for key, value in row.measured.items():
        print(f"         {key} = {value}")
    assert row.passed, (row.key, row.measured)


def test_criterion_01_realignment_fixed_points():
    _check(acceptance.row_realignment_fixed_points)


def test_criterion_02_ccnr_extremal_4x4():
    _check(acceptance.row_ccnr_extremal_4x4)


def test_criterion_03_ccnr_extremal_3x3():
    _check(acceptance.row_ccnr_extremal_3x3)


def test_criterion_04_analytic_vs_numeric_ccnr():
    _check(acceptance.row_analytic_vs_numeric)


def test_criterion_05_faithfulness_table():
    _check(acceptance.row_faithfulness_table)


def test_criterion_06_gamma_family():
    _check(acceptance.row_gamma_family)


def test_criterion_07_aaqpt_roundtrip():
    _check(acceptance.row_aaqpt_roundtrip)


def test_criterion_08_werner_filtering():
    _check(acceptance.row_werner_filtering)


def test_criterion_09_ccnr_monotonicity():
    _check(acceptance.row_ccnr_monotonicity)


@pytest.mark.slow
def test_criterion_10_seesaw_optimization():
    _check(acceptance.row_seesaw)


def test_criterion_11_realign_variant_consistency():
    _check(acceptance.row_realign_variant_consistency)
