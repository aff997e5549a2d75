"""Acceptance suite: one test per reference-value row, at the stated
tolerances.  Each test prints its PASS/FAIL line with the measured
numbers.  The tests are made from ``acceptance.ROWS``, the list the CLI
``reproduce`` command runs, so every row it reports has a test."""

import pytest

from beqpt import acceptance


def _check(row_fn):
    row = row_fn()
    status = "PASS" if row.passed else "FAIL"
    print(f"[{status}] {row.key}: {row.title}")
    for key, value in row.measured.items():
        print(f"         {key} = {value}")
    assert row.passed, (row.key, row.measured)


def _row_test(row_fn):
    def test():
        _check(row_fn)
    return pytest.mark.slow(test) if row_fn is acceptance.row_seesaw else test


globals().update((f"test_criterion_{n:02d}_{fn.__name__.removeprefix('row_')}", _row_test(fn))
                 for n, fn in enumerate(acceptance.ROWS, 1))
