"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
and asserting at its pinned tolerance.  Run with `pytest tests/test_acceptance.py -v -s`
or via `degseq verify`.
"""

import pytest

from degseq import sampler, verify


@pytest.mark.parametrize("number,name", [(c[0], c[1]) for c in verify.CHECKS])
def test_acceptance_criterion(number, name):
    result = verify.run_check(number)
    print(result.line())
    assert result.passed, "criterion %d (%s) failed: %s" % (number, name, result.details)
    if number in (8, 9, 11):  # the Monte Carlo checks run on every CPU the process may use
        assert result.details["workers"] == sampler.available_cpus()
