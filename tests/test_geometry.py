import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from striplab import geometry as geo
from striplab.errors import (
    CurvatureDomainError,
    EnvelopeViolation,
    GeometryInvalid,
    NonPositiveMetric,
)


GEOM_07 = geo.StripGeometry(a=0.7, L=5.0, n1=16, n2=24)


def test_constant_curvature_cosine_closed_form():
    m = geo.solve_jacobi(geo.constant_on_box(1.0, math.inf), GEOM_07)
    f, d2f = m.sample([0.0, 2.0], [0.5])
    assert abs(f[0, 0] - math.cos(0.5)) < 1e-6
    assert abs(f[1, 0] - math.cos(0.5)) < 1e-6
    assert abs(d2f[0, 0] + math.sin(0.5)) < 1e-6


def test_constant_negative_curvature_cosh_closed_form():
    m = geo.solve_jacobi(geo.constant_on_box(-1.0, math.inf), GEOM_07)
    f, d2f = m.sample([0.0], [0.5, -0.5])
    assert abs(f[0, 0] - math.cosh(0.5)) < 1e-6
    assert abs(d2f[0, 0] - math.sinh(0.5)) < 1e-6
    assert abs(d2f[0, 1] + math.sinh(0.5)) < 1e-6


def test_zero_profile_gives_unit_metric_exactly():
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=1.0, L=4.0, n1=8, n2=8))
    assert np.all(m.f == 1.0)
    assert np.all(m.d2f == 0.0)
    assert m.flat


def _swept_columns(profile, x1, levels, base_step):
    """The RK4 sweep of both sides, as ``jacobi_columns`` runs it on a
    curved profile."""
    f = np.empty((x1.size, levels.size))
    d2f = np.empty_like(f)
    for side, sign in ((levels >= 0, 1.0), (levels < 0, -1.0)):
        lv = sign * levels[side]
        order = np.argsort(lv)
        ff, fp = geo._rk4_sweep(profile, x1, lv[order], base_step, sign)
        f[:, side] = ff[:, np.argsort(order)]
        d2f[:, side] = fp[:, np.argsort(order)]
    return f, d2f


def test_zero_curvature_skips_the_sweep_bit_for_bit(monkeypatch):
    """K = 0 gives f = 1 and f' = +0.0 without evaluating the profile, bit for
    bit what the RK4 sweep returns, including the sign of the zeros."""
    prof = geo.zero_profile()
    x1 = np.linspace(-4.0, 4.0, 9)
    levels = np.array([0.45, -0.8, 0.0, -0.1, 0.8, 0.2, -0.45])
    f_ref, d2f_ref = _swept_columns(prof, x1, levels, 0.01)

    def no_evaluate(*_):
        raise AssertionError("profile evaluated")

    monkeypatch.setattr(prof, "_k_eval", no_evaluate)
    f, d2f = geo.jacobi_columns(prof, x1, levels, 0.01)
    assert np.array_equal(f, f_ref) and np.array_equal(d2f, d2f_ref)
    assert np.array_equal(np.signbit(d2f), np.signbit(d2f_ref))
    assert not np.signbit(d2f).any()


def test_axis_initial_conditions_exact():
    prof = geo.gaussian_bump(amplitude=0.3, width=1.5, support_radius=4.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=6.0, n1=24, n2=16))
    j0 = np.argmin(np.abs(m.x2))
    assert np.all(m.f[:, j0] == 1.0)
    assert np.all(m.d2f[:, j0] == 0.0)


@pytest.mark.parametrize(
    "kbar,expected",
    [(0.1, (0.1 / 0.9)), (0.0, 0.0), (0.4, (0.4 / 0.6))],
)
def test_taylor_envelope_values(kbar, expected):
    prof = geo.constant_on_box(kbar, math.inf)
    lo, hi = geo.taylor_envelope(prof, 1.0, x1=[0.0])
    assert lo[0] == pytest.approx(1.0 - expected, abs=1e-12)
    assert hi[0] == pytest.approx(1.0 + expected, abs=1e-12)


def test_taylor_envelope_domain_error():
    prof = geo.constant_on_box(1.1, math.inf)
    with pytest.raises(CurvatureDomainError):
        geo.taylor_envelope(prof, 1.0, x1=[0.0])


@pytest.mark.parametrize("x1", [None, []])
def test_taylor_envelope_needs_columns(x1):
    with pytest.raises(GeometryInvalid):
        geo.taylor_envelope(geo.constant_on_box(0.1, math.inf), 1.0, x1)


def test_geometry_gate_rejects_wide_strip():
    prof = geo.gaussian_bump(amplitude=0.9, width=1.0, support_radius=3.0)
    with pytest.raises(GeometryInvalid):
        geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=6.0, n1=8, n2=8))


def test_truncation_must_exceed_support():
    prof = geo.gaussian_bump(amplitude=0.1, width=1.0, support_radius=5.0)
    with pytest.raises(GeometryInvalid):
        geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=4.0, n1=8, n2=8))


def test_ruled_strip_closed_forms():
    # rotation rate 1 at the center; wide strip allowed for the closed form
    prof = geo.ruled_profile(1.0, 4.0)
    geom = geo.StripGeometry(a=1.2, L=8.0, n1=64, n2=24)
    m = geo.ruled_strip(prof, geom)
    assert m.profile is prof
    f, d2f = m.sample([0.0], [1.0])
    assert f[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert prof.evaluate(np.array(0.0), np.array(1.0)) == pytest.approx(-0.25, abs=1e-12)
    V = geo.effective_potential(m)
    j = np.argmin(np.abs(m.x2 - 1.0))
    i = np.argmin(np.abs(m.x1))
    # theta^2 (2 - theta^2 x2^2) / (4 f^4) at theta = x2 = 1
    assert V[i, j] == pytest.approx(0.0625, abs=1e-12)
    j0 = np.argmin(np.abs(m.x2))
    assert V[i, j0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "theta_dot",
    [
        geo.gaussian_bump(amplitude=-0.5, width=1.0, support_radius=3.0),
        lambda x1: 0.5 * geo.smooth_cutoff(x1, 1.0, 3.0),
    ],
    ids=["gaussian-bump", "callable"],
)
def test_ruled_strip_takes_only_ruled_profiles(theta_dot):
    with pytest.raises(ValueError, match="ruled kind"):
        geo.ruled_strip(theta_dot, geo.StripGeometry(a=0.5, L=4.0, n1=16, n2=8))


def test_ruled_flat_limit():
    prof = geo.ruled_profile(1e-30, 2.0)
    m = geo.ruled_strip(prof, geo.StripGeometry(a=0.5, L=4.0, n1=16, n2=8))
    assert np.allclose(m.f, 1.0)
    assert np.allclose(m.profile.evaluate(m.x1[:, None], m.x2[None, :]), 0.0)


def test_effective_potential_constant_negative_axis():
    m = geo.solve_jacobi(geo.constant_on_box(-1.0, math.inf), GEOM_07)
    V = geo.effective_potential(m)
    j0 = np.argmin(np.abs(m.x2))
    assert V[:, j0] == pytest.approx(0.5, abs=1e-12)


def test_effective_potential_flat_zero():
    m = geo.solve_jacobi(geo.zero_profile(), GEOM_07)
    V = geo.effective_potential(m)
    assert np.all(V == 0.0)


def test_ruled_potential_nonnegative_under_certificate():
    # |theta'| a < sqrt(2) keeps the effective potential nonnegative
    prof = geo.ruled_profile(0.9, 4.0)
    geom = geo.StripGeometry(a=1.2, L=8.0, n1=32, n2=24)
    m = geo.ruled_strip(prof, geom)
    assert 0.9 * 1.2 < math.sqrt(2.0)
    V = geo.effective_potential(m)
    assert V.min() >= -1e-14


def test_metric_one_outside_support_exactly():
    prof = geo.gaussian_bump(amplitude=0.3, width=1.0, support_radius=3.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=8.0, n1=64, n2=16))
    outside = np.abs(m.x1) > 3.0
    assert np.all(m.f[outside] == 1.0)
    assert np.all(m.d2f[outside] == 0.0)


@settings(max_examples=12, deadline=None)
@given(
    amplitude=hst.floats(min_value=-0.45, max_value=0.45),
    width=hst.floats(min_value=0.5, max_value=3.0),
)
def test_envelope_containment_property(amplitude, width):
    if abs(amplitude) < 1e-6:
        amplitude = 0.1
    prof = geo.gaussian_bump(amplitude=amplitude, width=width, support_radius=4.0)
    geom = geo.StripGeometry(a=1.0, L=6.0, n1=24, n2=16)
    m = geo.solve_jacobi(prof, geom)  # raises EnvelopeViolation on failure
    assert np.all(m.f >= m.envelope_lower[:, None] - 1e-9)
    assert np.all(m.f <= m.envelope_upper[:, None] + 1e-9)


def _jacobi_residual(n2):
    prof = geo.gaussian_bump(amplitude=0.4, width=1.5, support_radius=4.0)
    geom = geo.StripGeometry(a=1.0, L=6.0, n1=12, n2=n2)
    m = geo.solve_jacobi(prof, geom)
    K = prof.evaluate(m.x1[:, None], m.x2[None, :])
    h = m.x2[1] - m.x2[0]
    res = (m.f[:, 2:] - 2 * m.f[:, 1:-1] + m.f[:, :-2]) / h**2 + K[:, 1:-1] * m.f[:, 1:-1]
    return np.abs(res).max()


def test_jacobi_residual_second_order():
    r1 = _jacobi_residual(16)
    r2 = _jacobi_residual(32)
    assert r1 / r2 >= 3.5
    assert r2 < 1e-3


def test_ruled_strip_residual_against_own_curvature():
    prof = geo.ruled_profile(0.6, 3.0)
    geom = geo.StripGeometry(a=0.5, L=6.0, n1=32, n2=64)
    m = geo.ruled_strip(prof, geom)
    K = prof.evaluate(m.x1[:, None], m.x2[None, :])
    h = m.x2[1] - m.x2[0]
    res = (m.f[:, 2:] - 2 * m.f[:, 1:-1] + m.f[:, :-2]) / h**2 + K[:, 1:-1] * m.f[:, 1:-1]
    assert np.abs(res).max() < 1e-4


def test_metric_table_columns():
    prof = geo.gaussian_bump(amplitude=0.2, width=1.0, support_radius=3.0)
    geom = geo.StripGeometry(a=1.0, L=5.0, n1=8, n2=8)
    m = geo.solve_jacobi(prof, geom)
    table = geo.metric_table(m)
    assert table.shape == (9 * 9, 6)
    assert table[:, 4] == pytest.approx(prof.evaluate(table[:, 0], table[:, 1]), abs=1e-15)
    # V column consistent with the pointwise formula
    V = geo.effective_potential(m)
    assert np.allclose(table[:, 5], V.ravel())


@pytest.mark.parametrize("plateau_fraction", [-0.1, 1.0, 1.5, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda pf: geo.gaussian_bump(0.3, 1.0, 3.0, plateau_fraction=pf),
        lambda pf: geo.ruled_profile(0.5, 3.0, plateau_fraction=pf),
    ],
    ids=["gaussian_bump", "ruled_profile"],
)
def test_plateau_fraction_outside_the_unit_interval_is_rejected(build, plateau_fraction):
    with pytest.raises(ValueError, match="plateau_fraction"):
        build(plateau_fraction)
    assert build(0.0).support_radius == 3.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["amplitude", "width", "support_radius", "center"])
def test_gaussian_bump_rejects_non_finite_parameters(key, bad):
    params = {"amplitude": 0.3, "width": 1.0, "support_radius": 3.0, "center": 0.0}
    with pytest.raises(ValueError, match=f"{key} must be finite, got {bad}"):
        geo.gaussian_bump(**{**params, key: bad})


@pytest.mark.parametrize(
    "value, half_length, named",
    [(math.nan, 2.0, "value"), (math.inf, 2.0, "value"), (0.1, math.nan, "half_length"),
     (0.1, -math.inf, "half_length")],
)
def test_constant_on_box_rejects_non_finite_parameters_but_an_infinite_box(value, half_length, named):
    with pytest.raises(ValueError, match=f"{named} must be finite"):
        geo.constant_on_box(value, half_length)
    assert geo.constant_on_box(0.1, math.inf).support_radius == math.inf


def test_constant_on_box_rejects_a_negative_half_length():
    with pytest.raises(ValueError, match="half_length must be nonnegative, got -1.0"):
        geo.constant_on_box(0.1, -1.0)
    assert geo.constant_on_box(0.1, 0.0).support_radius == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["theta_dot_max", "support_radius"])
def test_ruled_profile_rejects_non_finite_parameters(key, bad):
    params = {"theta_dot_max": 0.5, "support_radius": 4.0}
    with pytest.raises(ValueError, match=f"{key} must be finite, got {bad}"):
        geo.ruled_profile(**{**params, key: bad})


_GEOM_05 = geo.StripGeometry(a=0.5, L=6.0, n1=16, n2=8)


@pytest.mark.parametrize(
    "certify, error",
    [
        (lambda: geo.check_compatible(replace(geo.constant_on_box(0.1, 4.0), sup_norm=math.nan),
                                      _GEOM_05), GeometryInvalid),
        (lambda: geo.check_compatible(replace(geo.ruled_profile(0.3, 4.0), support_radius=math.nan),
                                      _GEOM_05), GeometryInvalid),
        (lambda: geo.solve_jacobi(replace(geo.constant_on_box(0.1, 4.0),
                                          _k_eval=lambda x1, x2: np.where(np.abs(x1) < 1.0, np.nan, 0.0)),
                                  _GEOM_05), NonPositiveMetric),
        (lambda: geo.solve_jacobi(replace(geo.constant_on_box(0.1, 4.0),
                                          _axis_inf=lambda x1: np.full_like(x1, np.nan)),
                                  _GEOM_05), EnvelopeViolation),
        (lambda: geo.ruled_strip(replace(geo.ruled_profile(0.3, 4.0),
                                         theta_dot=lambda x1: np.full_like(x1, np.nan)),
                                 _GEOM_05), EnvelopeViolation),
    ],
    ids=["gate-nan-sup-norm", "truncation-nan-support", "jacobi-nan-field", "jacobi-nan-envelope",
         "ruled-nan-field"],
)
def test_a_nan_field_is_never_certified(certify, error):
    """Every certification test is written so that NaN fails it."""
    with pytest.raises(error):
        certify()
