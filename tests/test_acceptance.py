"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import pytest

from striplab.acceptance import CRITERIA, run_criterion

_FAST = [num for num, _, _, slow in CRITERIA if not slow]
_SLOW = [num for num, _, _, slow in CRITERIA if slow]


def _report(result):
    print("\nACCEPTANCE " + str(result))


@pytest.mark.parametrize("number", _FAST)
def test_acceptance_criterion(number):
    result = run_criterion(number)
    _report(result)
    assert result.passed, f"criterion {number}: {result.detail}"


@pytest.mark.slow
@pytest.mark.parametrize("number", _SLOW)
def test_acceptance_criterion_slow(number):
    result = run_criterion(number)
    _report(result)
    assert result.passed, f"criterion {number}: {result.detail}"
