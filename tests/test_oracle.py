import math
import warnings

import numpy as np
import pytest

from striplab import oracle
from striplab.errors import TailTooLarge


def test_transverse_energies():
    assert oracle.transverse_energy(1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert oracle.transverse_energy(2, 1.0) == pytest.approx(math.pi**2, rel=1e-15)


def test_mode_value_at_axis():
    # sqrt(2/pi) sin(pi/2)
    val = oracle.mode_function(1, math.pi / 2, 0.0)
    assert val == pytest.approx(0.7978845608028654, abs=1e-12)


def test_mode_orthonormality_by_quadrature():
    a = 1.3
    nodes, weights = np.polynomial.legendre.leggauss(160)
    x = a * nodes
    w = a * weights
    modes = oracle.transverse_modes(a, 4)
    for m in modes:
        assert abs(np.sum(w * oracle.mode_function(m.index, a, x) ** 2) - 1.0) < 1e-10
        assert abs(oracle.mode_function(m.index, a, np.array(a))) < 1e-12
        assert abs(oracle.mode_function(m.index, a, np.array(-a))) < 1e-12
    assert abs(np.sum(
        w * oracle.mode_function(modes[0].index, a, x) * oracle.mode_function(modes[1].index, a, x)
    )) < 1e-10


def test_gauss_kernel_value():
    assert oracle.gauss_kernel(0.0, 0.0, 1.0) == pytest.approx(
        0.28209479177387814, abs=1e-15
    )


def test_flat_kernel_symmetry():
    a = 1.0
    v1, _ = oracle.flat_kernel((0.3, 0.2), (-0.5, -0.4), 0.7, a)
    v2, _ = oracle.flat_kernel((-0.5, -0.4), (0.3, 0.2), 0.7, a)
    assert v1 == pytest.approx(v2, rel=1e-14)


def test_flat_kernel_chapman_kolmogorov():
    a = 1.0
    x = (0.2, 0.1)
    xp = (-0.3, 0.4)
    t1, t2 = 0.4, 0.6
    n1, w1 = np.polynomial.legendre.leggauss(120)
    z1 = 8.0 * n1
    wz1 = 8.0 * w1
    n2, w2 = np.polynomial.legendre.leggauss(80)
    z2 = a * n2
    wz2 = a * w2
    acc = 0.0
    for zi, wi in zip(z1, wz1):
        left = np.array([oracle.flat_kernel(x, (zi, z2j), t1, a)[0] for z2j in z2])
        right = np.array([oracle.flat_kernel((zi, z2j), xp, t2, a)[0] for z2j in z2])
        acc += wi * np.sum(wz2 * left * right)
    direct, _ = oracle.flat_kernel(x, xp, t1 + t2, a)
    assert abs(acc - direct) < 1e-6


def test_halfline_kernel_value_and_limits():
    v = oracle.killed_halfline_kernel(1.0, 1.0, 1.0)
    exact = (1.0 - math.exp(-1.0)) / math.sqrt(4.0 * math.pi)
    assert v == pytest.approx(exact, abs=1e-15)
    assert v == pytest.approx(0.178325, abs=1e-5)  # printed approximation
    assert oracle.killed_halfline_kernel(1.0, 1.0, 1e-12) < 1e-11
    # dominated by the free kernel
    xs = np.linspace(0.1, 3.0, 7)
    p0 = oracle.killed_halfline_kernel(0.8, xs, xs[::-1])
    p = oracle.gauss_kernel(xs, xs[::-1], 0.8)
    assert np.all(p0 <= p + 1e-15)


def test_halfline_kernel_heat_residual():
    h = 1e-3
    xs = np.linspace(0.5, 2.5, 9)
    t = 1.2
    dpt = (
        oracle.killed_halfline_kernel(t + h, xs, 1.0)
        - oracle.killed_halfline_kernel(t - h, xs, 1.0)
    ) / (2 * h)
    dxx = (
        oracle.killed_halfline_kernel(t, xs + h, 1.0)
        - 2 * oracle.killed_halfline_kernel(t, xs, 1.0)
        + oracle.killed_halfline_kernel(t, xs - h, 1.0)
    ) / h**2
    assert np.abs(dpt - dxx).max() < 1e-4


def test_flat_survival_whole_strip_long_time_limit():
    a = math.pi / 2
    t = 12.0
    v, _ = oracle.flat_survival((0.0, 0.0), None, t, a)
    j1 = oracle.mode_function(1, a, 0.0)
    intj1 = math.sqrt(1.0 / a) * (2.0 * a / math.pi) * 2.0
    assert v * math.exp(t) == pytest.approx(j1 * intj1, rel=1e-6)


def test_flat_survival_bounded_box_polynomial_decay():
    a = math.pi / 2
    B = ((-0.5, 0.5), (-a, a))
    t1, t2 = 8.0, 32.0
    v1, _ = oracle.flat_survival((0.0, 0.0), B, t1, a)
    v2, _ = oracle.flat_survival((0.0, 0.0), B, t2, a)
    ratio = (v2 * math.exp(t2)) / (v1 * math.exp(t1))
    assert ratio == pytest.approx(0.5, rel=0.05)  # t^{-1/2} between t and 4t


def test_flat_survival_clips_the_box_to_the_strip():
    """Alive paths lie inside the strip, so a box reaching past its walls
    gives the same survival as the box cut at the walls."""
    values = [
        oracle.flat_survival((0.0, 0.0), ((-1.0, 1.0), (-w, w)), 1.0, 1.0)[0]
        for w in (1.0, 2.0, 3.0)
    ]
    assert values[0] == pytest.approx(0.05620203849, abs=1e-11)
    assert values[1] == values[0] and values[2] == values[0]


@pytest.mark.parametrize(
    "x0, B, a, named",
    [
        ((0.0, 0.0), ((1.0, -1.0), (0.0, 0.5)), 1.0, "low edge above"),
        ((0.0, 0.0), ((-1.0, 1.0), (0.5, 0.0)), 1.0, "low edge above"),
        ((0.0, 1.5), None, 1.0, "outside the open strip"),
        ((0.0, 1.0), None, 1.0, "outside the open strip"),
        ((0.0, 0.0), None, 0.0, "positive and finite"),
        ((0.0, 0.0), None, math.inf, "positive and finite"),
        ((math.nan, 0.0), None, 1.0, "x1 = nan and t = 1.0 must both be finite"),
        ((math.inf, 0.0), ((0.0, 1.0), (0.0, 0.5)), 1.0, "x1 = inf and t = 1.0 must both be finite"),
    ],
    ids=["reversed-x1", "reversed-x2", "start-outside", "start-on-wall", "zero-a", "infinite-a",
         "nan-x1", "infinite-x1"],
)
def test_flat_survival_rejects_bad_input(x0, B, a, named):
    with pytest.raises(ValueError, match=named):
        oracle.flat_survival(x0, B, 1.0, a)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_times_are_refused_before_the_tail_floor(t):
    """A non-finite t is a ValueError; a finite t below 0.01 is TailTooLarge
    naming t, raised before any Gaussian or erf factor is formed, so with no
    warning, for the kernel and for survival with or without a box."""
    if math.isfinite(t):
        error, match = TailTooLarge, f"t = {t} below the oracle floor"
    else:
        error, match = ValueError, f"t = {t} must"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for B in (None, ((0.0, 1.0), (0.0, 0.5))):
            with pytest.raises(error, match=match):
                oracle.flat_survival((0.0, 0.0), B, t, 1.0)
        with pytest.raises(error, match=match):
            oracle.flat_kernel((0.0, 0.0), (0.0, 0.0), t, 1.0)
    with pytest.raises(TailTooLarge):
        oracle.flat_survival((0.0, 0.0), None, 0.005, 1.0)


@pytest.mark.parametrize(
    "x, xp, a, named",
    [
        ((0.0, 1.5), (0.0, 0.0), 1.0, "not both in the closed strip"),
        ((0.0, 0.0), (0.0, -1.5), 1.0, "not both in the closed strip"),
        ((0.0, math.nan), (0.0, 0.0), 1.0, "not both in the closed strip"),
        ((0.0, 0.0), (0.0, 0.0), 0.0, "positive and finite, not 0.0"),
        ((0.0, 0.0), (0.0, 0.0), -1.0, "positive and finite, not -1.0"),
        ((0.0, 0.0), (0.0, 0.0), math.inf, "positive and finite, not inf"),
        ((math.nan, 0.0), (0.0, 0.0), 1.0, "x1 = nan, x1' = 0.0 and t = 1.0 must all be finite"),
        ((0.0, 0.0), (-math.inf, 0.0), 1.0, "x1 = 0.0, x1' = -inf and t = 1.0 must all be finite"),
    ],
    ids=["x-outside", "xp-outside", "nan-x2", "zero-a", "negative-a", "infinite-a", "nan-x1",
         "infinite-x1p"],
)
def test_flat_kernel_rejects_bad_input(x, xp, a, named):
    with pytest.raises(ValueError, match=named):
        oracle.flat_kernel(x, xp, 1.0, a)


@pytest.mark.parametrize(
    "t, x, y, named",
    [
        (0.0, 1.0, 1.0, "t must be positive, not 0.0"),
        (math.nan, 1.0, 1.0, "t must be positive, not nan"),
        (1.0, -1.0, 1.0, "x and y must be nonnegative"),
        (1.0, math.nan, 1.0, "x and y must be nonnegative"),
        (1.0, [0.5, math.nan], 1.0, "x and y must be nonnegative"),
        (1.0, 1.0, math.nan, "x and y must be nonnegative"),
    ],
    ids=["zero-t", "nan-t", "negative-x", "nan-x", "nan-x-in-array", "nan-y"],
)
def test_killed_halfline_kernel_rejects_bad_input(t, x, y, named):
    with pytest.raises(ValueError, match=named):
        oracle.killed_halfline_kernel(t, x, y)


@pytest.mark.parametrize(
    "a, n_max, named",
    [
        (0.0, 3, "positive and finite, not 0.0"),
        (-1.0, 1, "positive and finite, not -1.0"),
        (math.nan, 3, "positive and finite, not nan"),
        (math.inf, 3, "positive and finite, not inf"),
        (1.0, 0, "n_max must be at least 1"),
    ],
    ids=["zero-a", "negative-a", "nan-a", "infinite-a", "no-modes"],
)
def test_transverse_modes_rejects_bad_input(a, n_max, named):
    with pytest.raises(ValueError, match=named):
        oracle.transverse_modes(a, n_max)


def test_flat_kernel_vanishes_on_the_walls():
    for wall in (-1.0, 1.0):
        v, tail = oracle.flat_kernel((0.0, wall), (0.3, 0.2), 1.0, 1.0)
        assert abs(v) <= 1e-16 and tail <= 1e-8


def test_flat_kernel_marginal_matches_survival():
    a = 1.0
    t = 0.8
    x0 = (0.0, 0.3)
    B = ((-1.0, 2.0), (-0.5, 0.8))
    nodes1, w1 = np.polynomial.legendre.leggauss(80)
    y1 = 0.5 * (nodes1 + 1.0) * 3.0 - 1.0
    wy1 = w1 * 1.5
    nodes2, w2 = np.polynomial.legendre.leggauss(60)
    y2 = 0.5 * (nodes2 + 1.0) * 1.3 - 0.5
    wy2 = w2 * 0.65
    acc = 0.0
    for yi, wi in zip(y1, wy1):
        vals = np.array([oracle.flat_kernel(x0, (yi, yj), t, a)[0] for yj in y2])
        acc += wi * np.sum(wy2 * vals)
    direct, _ = oracle.flat_survival(x0, B, t, a)
    assert acc == pytest.approx(direct, abs=1e-8)


def test_tail_refusals():
    with pytest.raises(TailTooLarge):
        oracle.flat_kernel((0, 0), (0, 0), 0.005, 1.0)
    # so wide a strip needs more than 100 000 terms for a tail bound of 1e-8
    with pytest.raises(TailTooLarge, match="cannot meet the tail tolerance 1e-8"):
        oracle.flat_survival((0, 0), None, 0.02, 1e6)


def _long_series(t, a, x2, weights, n_max=400):
    """sum over n <= n_max of exp(-E_n t) phi_n(x2) weights(n), with the
    energies and modes written out here."""
    n = np.arange(1, n_max + 1)
    k = n * math.pi / (2.0 * a)
    return float(np.sum(np.exp(-k**2 * t) * np.sin(k * (x2 + a)) / math.sqrt(a) * weights(n, k)))


def test_tail_bound_honest():
    """Each returned tail bound is at most 1e-8 and covers the distance from
    the value to a 400-term sum, at times where the chosen truncation keeps
    far fewer terms."""
    a, t = 1.0, 0.05
    x, xp = (0.0, 0.1), (0.2, -0.3)
    value, tail = oracle.flat_kernel(x, xp, t, a)
    gauss = math.exp(-((x[0] - xp[0]) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)
    long = gauss * _long_series(t, a, x[1], lambda n, k: np.sin(k * (xp[1] + a)) / math.sqrt(a))
    assert 0 < tail <= 1e-8
    assert abs(long - value) <= tail
    for t in (0.02, 0.05, 0.3):
        value, tail = oracle.flat_survival((0.0, 0.25), None, t, a)
        # integral of the n-th mode over the whole cross-section
        long = _long_series(t, a, 0.25, lambda n, k: (1 - np.cos(2 * k * a)) / (k * math.sqrt(a)))
        assert 0 < tail <= 1e-8
        assert abs(long - value) <= tail
