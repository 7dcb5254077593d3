"""Strip geometry: curvature profiles, the transverse metric factor and its certificates.

The metric of the strip is diagonal with a single nontrivial coefficient
``f(x1, x2)`` obtained per longitudinal column by integrating the transverse
initial value problem  f'' + K f = 0,  f(x1, 0) = 1,  f'(x1, 0) = 0,
where ``K`` is the Gauss curvature expressed in strip coordinates.
Every certified field comes with per-column two-sided Taylor envelopes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CurvatureDomainError,
    EnvelopeViolation,
    GeometryInvalid,
    NonPositiveMetric,
)

__all__ = [
    "CurvatureProfile",
    "StripGeometry",
    "MetricField",
    "zero_profile",
    "gaussian_bump",
    "constant_on_box",
    "ruled_profile",
    "smooth_cutoff",
    "check_compatible",
    "solve_jacobi",
    "taylor_envelope",
    "ruled_strip",
    "effective_potential",
    "jacobi_columns",
    "metric_table",
]


def smooth_cutoff(r: np.ndarray, r_full: float, r_zero: float) -> np.ndarray:
    """C-infinity plateau cutoff: 1 for |r| <= r_full, exactly 0 for |r| >= r_zero."""
    r = np.abs(np.asarray(r, dtype=float))
    if not r_zero > r_full >= 0.0:
        raise ValueError("need 0 <= r_full < r_zero")
    s = np.clip((r - r_full) / (r_zero - r_full), 0.0, 1.0)

    def _g(u):
        out = np.zeros_like(u)
        pos = u > 0.0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    num = _g(1.0 - s)
    den = num + _g(s)
    return num / den


def _finite(**params) -> None:
    """Raise ValueError naming the first of ``params`` that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _plateau_radius(plateau_fraction: float, support_radius: float) -> float:
    """Radius of a cutoff's plateau, which must start before the support ends."""
    if not 0.0 <= plateau_fraction < 1.0:
        raise ValueError(f"plateau_fraction must lie in [0, 1), got {plateau_fraction!r}")
    return plateau_fraction * support_radius


@dataclass(eq=False)
class CurvatureProfile:
    """Evaluable Gauss curvature with declared support radius and bounds.

    ``evaluate`` must vanish identically for |x1| > support_radius and stay
    below ``sup_norm`` in absolute value; ``axis_infimum`` is the tabulated
    small-width limit of the column-wise essential infimum, used by the
    thin-strip bounds; |K| is largest on the axis, so its absolute value is
    the column-wise sup of |K|.
    """

    kind: str
    support_radius: float
    sup_norm: float
    _k_eval: Callable = None
    _axis_inf: Callable = None
    theta_dot: Callable = None

    def evaluate(self, x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return self._k_eval(x1, x2)

    def axis_infimum(self, x1):
        return self._axis_inf(np.asarray(x1, float))


def _x1_profile(kind, shape, support_radius, sup_norm) -> CurvatureProfile:
    """Profile constant across the width, K(x1, x2) = shape(x1)."""
    return CurvatureProfile(
        kind=kind,
        support_radius=support_radius,
        sup_norm=sup_norm,
        _k_eval=lambda x1, x2: shape(x1) * np.ones_like(x2),
        _axis_inf=shape,
    )


def zero_profile() -> CurvatureProfile:
    return _x1_profile("zero", np.zeros_like, 0.0, 0.0)


def gaussian_bump(
    amplitude: float,
    width: float,
    support_radius: float,
    center: float = 0.0,
    plateau_fraction: float = 0.6,
) -> CurvatureProfile:
    """Gaussian bump in x1 (constant across the width), smoothly cut off.

    The cutoff makes the support exact so that the metric is identically 1
    beyond ``support_radius``, not just close to it. Parameters must be finite.
    """
    _finite(amplitude=amplitude, width=width, support_radius=support_radius, center=center)
    if support_radius <= 0 or width <= 0:
        raise ValueError("width and support_radius must be positive")
    r_full = _plateau_radius(plateau_fraction, support_radius)

    def shape(x1):
        g = amplitude * np.exp(-((x1 - center) ** 2) / (2.0 * width**2))
        return g * smooth_cutoff(x1 - center, r_full, support_radius)

    return _x1_profile("gaussian-bump", shape, abs(center) + support_radius, abs(amplitude))


def constant_on_box(value: float, half_length: float) -> CurvatureProfile:
    """Constant curvature inside |x1| <= half_length, zero outside.

    ``half_length = inf`` gives the constant-everywhere test profile whose
    metric has the cos/cosh closed forms; other parameters must be finite,
    and ``half_length`` nonnegative.
    """
    _finite(value=value, half_length=0.0 if half_length == math.inf else half_length)
    if half_length < 0:
        raise ValueError(f"half_length must be nonnegative, got {half_length!r}")

    def shape(x1):
        if math.isinf(half_length):
            return np.full_like(x1, value)
        return np.where(np.abs(x1) <= half_length, value, 0.0)

    return _x1_profile("constant-on-box", shape, half_length, abs(value))


def ruled_profile(
    theta_dot_max: float,
    support_radius: float,
    plateau_fraction: float = 0.5,
) -> CurvatureProfile:
    """Rotation-rate profile of a ruled strip: a C-infinity compactly supported
    plateau bump theta_dot, with K = -theta_dot^2 / f^4 derived from it.
    Parameters must be finite."""
    _finite(theta_dot_max=theta_dot_max, support_radius=support_radius)
    if support_radius <= 0:
        raise ValueError("support_radius must be positive")
    r_full = _plateau_radius(plateau_fraction, support_radius)

    def theta_dot(x1):
        return theta_dot_max * smooth_cutoff(x1, r_full, support_radius)

    def k_eval(x1, x2):
        td2 = theta_dot(x1) ** 2
        f2 = 1.0 + td2 * x2**2
        return -td2 / f2**2

    return CurvatureProfile(
        kind="ruled",
        support_radius=support_radius,
        sup_norm=theta_dot_max**2,
        _k_eval=k_eval,
        # |K| is maximal on the axis; K(x1, 0) = -theta_dot^2
        _axis_inf=lambda x1: -theta_dot(x1) ** 2,
        theta_dot=theta_dot,
    )


@dataclass(frozen=True)
class StripGeometry:
    """Computational strip: half-width ``a``, longitudinal box [-L, L] and
    cell counts ``n1`` (longitudinal) and ``n2`` (transverse)."""

    a: float
    L: float
    n1: int
    n2: int

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.L < math.inf):
            raise GeometryInvalid("a and L must be positive and finite")
        if self.n1 < 4 or self.n2 < 4:
            raise GeometryInvalid("need at least 4 cells per direction")

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n1 + 1)

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(-self.a, self.a, self.n2 + 1)


def check_compatible(profile: CurvatureProfile, geom: StripGeometry) -> None:
    """Enforce the construction invariants tying a profile to a strip.

    The smallness gate sup|K| a^2 < 1/2 guarantees positivity of the
    integrated metric. Ruled profiles have a closed-form metric that is
    positive by construction for every half-width, so they skip that gate
    and keep only the truncation requirement. Each test is written so that
    NaN fails it.
    """
    if not (profile.kind == "ruled" or profile.sup_norm * geom.a**2 < 0.5):
        raise GeometryInvalid(
            f"sup|K| a^2 = {profile.sup_norm * geom.a ** 2:.4g} >= 1/2; "
            "the strip is too wide for this curvature"
        )
    if not (profile.support_radius == math.inf or geom.L > profile.support_radius):
        raise GeometryInvalid(
            f"truncation L = {geom.L} must exceed the support radius "
            f"{profile.support_radius}"
        )


@dataclass(eq=False)
class MetricField:
    """Metric factor and its transverse derivative sampled on the tensor grid,
    together with per-column Taylor envelopes, a column sampler that
    re-evaluates the field at arbitrary coordinates and the curvature profile
    it was built from."""

    x1: np.ndarray
    x2: np.ndarray
    f: np.ndarray      # (n1+1, n2+1)
    d2f: np.ndarray    # (n1+1, n2+1), transverse derivative of f
    envelope_lower: np.ndarray  # per column
    envelope_upper: np.ndarray
    column_sampler: Callable  # (x1_array, x2_levels) -> (f, d2f)
    profile: CurvatureProfile  # the generating curvature

    @property
    def flat(self) -> bool:
        return self.profile.sup_norm == 0.0

    def sample(self, x1, x2_levels):
        """Evaluate (f, d2f) on the tensor of the given columns and levels."""
        return self.column_sampler(np.asarray(x1, float), np.asarray(x2_levels, float))


def _rk4_sweep(profile, x1, levels, base_step, sign):
    """Integrate f'' = -K f from 0 through the given levels on one side.

    ``levels`` are nonnegative distances from the axis, ascending; ``sign``
    selects the transverse direction. Vectorized across all columns at once.
    Returns (f, d2f) of shape (len(x1), len(levels)).
    """
    m = x1.size
    f = np.ones(m)
    fp = np.zeros(m)
    out_f = np.empty((m, levels.size))
    out_fp = np.empty((m, levels.size))
    pos = 0.0
    for j, lev in enumerate(levels):
        gap = lev - pos
        if gap > 0:
            nsub = max(1, int(math.ceil(gap / base_step - 1e-12)))
            h = sign * gap / nsub
            for _ in range(nsub):
                x2c = sign * pos
                k1f = fp
                k1p = -profile.evaluate(x1, np.full(m, x2c)) * f
                k_mid = profile.evaluate(x1, np.full(m, x2c + 0.5 * h))
                k2f = fp + 0.5 * h * k1p
                k2p = -k_mid * (f + 0.5 * h * k1f)
                k3f = fp + 0.5 * h * k2p
                k3p = -k_mid * (f + 0.5 * h * k2f)
                k4f = fp + h * k3p
                k4p = -profile.evaluate(x1, np.full(m, x2c + h)) * (f + h * k3f)
                f = f + (h / 6.0) * (k1f + 2 * k2f + 2 * k3f + k4f)
                fp = fp + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
                pos += abs(h)
        out_f[:, j] = f
        out_fp[:, j] = fp
    return out_f, out_fp


def jacobi_columns(profile, x1, x2_levels, base_step):
    """Per-column transverse integration of the metric ODE, landing exactly
    on the requested levels. Fourth-order fixed-step scheme."""
    x1 = np.asarray(x1, float)
    x2_levels = np.asarray(x2_levels, float)
    # K = 0 (sup_norm 0) leaves f = 1 and f' = 0, as the sweep itself would
    f = np.ones((x1.size, x2_levels.size))
    d2f = np.zeros_like(f)
    neg = x2_levels < 0
    for side, sign in ((~neg, 1.0), (neg, -1.0)):
        if side.any() and profile.sup_norm != 0.0:
            lv = sign * x2_levels[side]
            order = np.argsort(lv)
            ff, fp = _rk4_sweep(profile, x1, lv[order], base_step, sign)
            inv = np.argsort(order)
            f[:, side] = ff[:, inv]
            d2f[:, side] = fp[:, inv]
    return f, d2f


def taylor_envelope(profile: CurvatureProfile, a: float, x1):
    """Two-sided per-column bounds 1 -/+ Kbar a^2 / (1 - Kbar a^2), with
    Kbar = |axis_infimum(x1)| the column-wise sup of |K|.

    ``x1`` holds the column coordinates; None or an empty set raises
    GeometryInvalid.
    """
    if x1 is None or np.size(x1) == 0:
        raise GeometryInvalid("taylor_envelope needs at least one column coordinate x1")
    x1 = np.asarray(x1, float)
    kbar = np.abs(profile.axis_infimum(x1))
    q = kbar * a**2
    if np.any(q >= 1.0):
        raise CurvatureDomainError(
            "column curvature bound times a^2 reaches 1; envelope undefined"
        )
    half = q / (1.0 - q)
    return 1.0 - half, 1.0 + half


def solve_jacobi(profile: CurvatureProfile, geom: StripGeometry) -> MetricField:
    """Integrate the metric ODE on every grid column and certify the result.

    Integration runs from the axis outward in both directions with a fixed
    RK4 step at four times the transverse grid resolution; the derivative is
    taken from the integrator state rather than re-differenced. A NaN
    sample fails the positivity and envelope tests.
    """
    check_compatible(profile, geom)
    x1 = geom.x1
    x2 = geom.x2
    base_step = geom.a / (4 * geom.n2)
    f, d2f = jacobi_columns(profile, x1, x2, base_step)

    lower, upper = taylor_envelope(profile, geom.a, x1)
    slack = 10.0 * base_step**2 * max(profile.sup_norm, 1.0)
    if not np.all(f > 0.0):
        raise NonPositiveMetric("metric factor non-positive; a^2 restriction violated")
    if not (np.all(f >= lower[:, None] - slack) and np.all(f <= upper[:, None] + slack)):
        raise EnvelopeViolation("metric sample outside its Taylor envelope")

    def sampler(cols, levels):
        return jacobi_columns(profile, cols, levels, base_step)

    return MetricField(
        x1=x1,
        x2=x2,
        f=f,
        d2f=d2f,
        envelope_lower=lower,
        envelope_upper=upper,
        column_sampler=sampler,
        profile=profile,
    )


def ruled_strip(profile, geom: StripGeometry) -> MetricField:
    """Closed-form metric of a ruled strip, f = sqrt(1 + theta_dot^2 x2^2).

    ``profile`` is a ruled CurvatureProfile, as ``ruled_profile`` builds;
    any other input raises ValueError. No ODE integration is involved. The
    sampled field is checked against the metric ODE by finite differences
    (a NaN sample fails).
    """
    if not isinstance(profile, CurvatureProfile) or profile.kind != "ruled":
        raise ValueError("profile passed to ruled_strip must be of ruled kind")
    td = profile.theta_dot
    check_compatible(profile, geom)

    def closed_form(cols, levels):
        td2 = td(np.asarray(cols, float))[:, None] ** 2
        xx = np.asarray(levels, float)[None, :] ** 2
        f = np.sqrt(1.0 + td2 * xx)
        d2f = td2 * np.asarray(levels, float)[None, :] / f
        return f, d2f

    x1, x2 = geom.x1, geom.x2
    f, d2f = closed_form(x1, x2)
    K = profile.evaluate(x1[:, None], x2[None, :])

    # residual of the metric ODE on the samples, interior transverse nodes
    h = x2[1] - x2[0]
    resid = (f[:, 2:] - 2 * f[:, 1:-1] + f[:, :-2]) / h**2 + K[:, 1:-1] * f[:, 1:-1]
    # second-order differencing: tolerance scales with h^2 of the 4th derivative
    scale = max(1.0, profile.sup_norm**2) * h**2
    if not np.max(np.abs(resid)) <= max(1e-6, 10.0 * scale):
        raise EnvelopeViolation("ruled closed form violates the metric ODE residual")

    # exact closed-form column envelope (sharper than the generic bound and
    # valid for every half-width)
    td_cols = td(x1)
    lower = np.ones_like(x1)
    upper = np.sqrt(1.0 + td_cols**2 * geom.a**2)
    return MetricField(
        x1=x1,
        x2=x2,
        f=f,
        d2f=d2f,
        envelope_lower=lower,
        envelope_upper=upper,
        column_sampler=closed_form,
        profile=profile,
    )


def effective_potential(metric: MetricField) -> np.ndarray:
    """Pointwise effective transverse potential -K/2 - (d2f/f)^2 / 4 on the grid.

    This is the potential produced by the ground-state substitution
    phi = f^(-1/2) psi in the weighted transverse quotient; for ruled strips
    it reduces to theta'^2 (2 - theta'^2 x2^2) / (4 f^4). K is the metric's
    own profile.
    """
    K = metric.profile.evaluate(metric.x1[:, None], metric.x2[None, :])
    return -0.5 * K - 0.25 * (metric.d2f / metric.f) ** 2


def metric_table(metric: MetricField) -> np.ndarray:
    """Inspection table with columns (x1, x2, f, d2f, K, V), row-major in x1."""
    K = metric.profile.evaluate(metric.x1[:, None], metric.x2[None, :])
    V = effective_potential(metric)
    X1, X2 = np.meshgrid(metric.x1, metric.x2, indexing="ij")
    return np.column_stack(
        [X1.ravel(), X2.ravel(), metric.f.ravel(), metric.d2f.ravel(), K.ravel(), V.ravel()]
    )
