"""Acceptance gate: every registered verification suite runs at its stated
tolerances and prints its verdict and lines (shown with ``pytest -s``)."""
import pytest

from anchorkit import suites


@pytest.mark.parametrize("suite_name", sorted(suites.SUITES))
def test_acceptance_criterion(suite_name):
    result = suites.run_suite(suite_name)
    print(f"\n[{suite_name}] {'PASS' if result.passed else 'FAIL'}")
    for line in result.lines:
        print(f"    {line}")
    assert result.passed, f"suite {suite_name} failed"
