"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import pytest

from striplab import spectral as sp
from striplab.acceptance import CRITERIA, _negative_reference_metric, run_criterion

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


def _criterion3_nu8(half_width, cells):
    m = _negative_reference_metric()
    (res,) = sp.frame_sweep(m, [8.0], half_width, cells)
    return res.eigenvalues[0]


@pytest.mark.slow
def test_criterion3_nu8_converges_at_second_order_in_the_frame_cells():
    """nu(8) of criterion 3's frame, whose grid has 1120 cells on a half-width
    of 14: halving h cuts the error by about 4, and widening the box at equal
    h moves nothing. Evidence for the printed 0.7453, not a new gate."""
    nu = [_criterion3_nu8(14.0, cells) for cells in (560, 1120, 2240)]
    ratio = (nu[0] - nu[1]) / (nu[1] - nu[2])
    assert 3.5 <= ratio <= 4.5, (nu, ratio)
    assert abs(_criterion3_nu8(18.0, 1440) - nu[1]) <= 1e-8
