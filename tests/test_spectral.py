import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.interpolate import RegularGridInterpolator

from striplab import geometry as geo
from striplab import spectral as sp
from striplab.acceptance import _negative_reference_metric
from striplab.errors import (
    GeometryInvalid,
    GridMisaligned,
    HypothesisFailed,
    LinearSolveFailure,
    NoConvergence,
    ShiftInsideSpectrum,
    SingularMass,
    TruncationWarning,
)
from striplab.oracle import transverse_energy
from striplab.spectral import core, operators, solve


@pytest.fixture(scope="module")
def flat_pair():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=30.0, n1=300, n2=32)
    )
    return m, sp.assemble_hk(m)


@pytest.fixture(scope="module")
def ruled_certified():
    prof = geo.ruled_profile(0.35, 6.0)
    geom = geo.StripGeometry(a=0.5, L=12.0, n1=192, n2=40)
    return geo.ruled_strip(prof, geom)


def test_flat_lowest_eigenvalue_near_transverse_ground(flat_pair):
    m, pair = flat_pair
    res = sp.lowest_eigenpairs(pair, k=1)
    assert res.eigenvalues[0] == pytest.approx(1.0, abs=5e-3)
    assert res.residuals[0] < 1e-8


def test_flat_unit_halfwidth_lowest():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=1.0, L=30.0, n1=300, n2=32)
    )
    res = sp.lowest_eigenpairs(sp.assemble_hk(m), k=1)
    assert res.eigenvalues[0] == pytest.approx(math.pi**2 / 4.0, abs=2e-2)


def test_tensor_decomposition(flat_pair):
    m, pair = flat_pair
    res = sp.lowest_eigenpairs(pair, k=3)
    g1 = sp.gauss_points_1d(m.x1)
    every = np.ones(m.x1.size, bool)
    S1 = sp.assemble_1d(m.x1, [("dd", np.ones_like(g1))], every)
    M1 = sp.assemble_1d(m.x1, [("mass", np.ones_like(g1))], every)
    keep = np.arange(1, m.x1.size - 1)
    xi = scipy.linalg.eigh(
        S1[keep][:, keep].toarray(),
        M1[keep][:, keep].toarray(),
        subset_by_index=[0, 2],
        eigvals_only=True,
    )
    expected = sp.flat_transverse_ground(m.x2) + xi
    assert np.abs(res.eigenvalues - expected).max() < 1e-9


def _flat_interior_pair(x):
    """Unit-weight 1-D stiffness/mass pair on the interior nodes of ``x``."""
    ones = np.ones((x.size - 1, 3))
    interior = np.ones(x.size, bool)
    interior[[0, -1]] = False
    return sp.OperatorPair(
        *(sp.assemble_1d(x, [(k, ones)], interior) for k in ("dd", "mass")),
        grid=sp.WeightedGrid(x, np.zeros(1), interior),
    )


def test_transverse_1d_levels():
    a = 1.0
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=4.0, n1=8, n2=200))
    res = sp.lowest_eigenpairs(_flat_interior_pair(m.x2), k=3)
    exact = np.array([1.0, 4.0, 9.0]) * (math.pi / (2 * a)) ** 2
    assert np.abs(res.eigenvalues / exact - 1.0).max() < 1e-3


@pytest.mark.parametrize("a, n2", [(0.5, 40), (0.5, 32), (math.pi / 2, 48), (1.0, 30)])
def test_flat_transverse_ground_is_exact_to_round_off(a, n2):
    """E1h lies within 1e-15 relative of a 40-digit eigensolve of the same
    assembled pencil (its mass matrix symmetrized, which moves no entry by
    more than one ulp): the frame operator multiplies its error by e^s."""
    mpmath = pytest.importorskip("mpmath")
    x2 = np.linspace(-a, a, n2 + 1)
    pair = _flat_interior_pair(x2)
    with mpmath.workdps(40):
        K, M = (mpmath.matrix(A.toarray().tolist()) for A in (pair.S, pair.M))
        Linv = mpmath.inverse(mpmath.cholesky((M + M.T) / 2))
        A = Linv * K * Linv.T
        ref = min(mpmath.eigsy((A + A.T) / 2, eigvals_only=True))
        assert abs(mpmath.mpf(sp.flat_transverse_ground(x2)) / ref - 1) <= 1e-15


def test_flat_transverse_ground_is_the_separable_propagators_lowest_level(flat_pair):
    m, _ = flat_pair
    _, (l2, _, _) = core._sine_factors(m.x1, m.x2)[1]
    assert l2[0] == l2.min()
    assert sp.flat_transverse_ground(m.x2) == l2[0]


def test_oscillator_spectra_and_pinned_variant():
    y = np.linspace(-20.0, 20.0, 2000)
    res = sp.lowest_eigenpairs(sp.harmonic_oscillator(False, y), k=4)
    assert np.abs(res.eigenvalues - np.array([0.25, 0.75, 1.25, 1.75])).max() < 1e-4
    yd = np.linspace(-20.0, 20.0, 2001)
    resd = sp.lowest_eigenpairs(sp.harmonic_oscillator(True, yd), k=4)
    # pinned problem = two decoupled half-lines: doubly degenerate levels
    assert resd.eigenvalues[0] == pytest.approx(resd.eigenvalues[1], abs=1e-8)
    assert resd.eigenvalues[0] == pytest.approx(0.75, abs=1e-4)
    assert resd.eigenvalues[2] == pytest.approx(1.75, abs=1e-4)
    with pytest.raises(GridMisaligned):
        sp.harmonic_oscillator(True, y)  # no node at the origin


def test_oscillator_odd_functions_match_pinned():
    yd = np.linspace(-18.0, 18.0, 1201)
    free = sp.lowest_eigenpairs(sp.harmonic_oscillator(False, yd), k=2)
    pinned = sp.lowest_eigenpairs(sp.harmonic_oscillator(True, yd), k=2)
    # first excited free eigenvector is odd, hence also a pinned eigenvector
    v_free = free.eigenvectors[:, 1]
    kept_free = np.flatnonzero(~np.isin(np.arange(yd.size), [0, yd.size - 1]))
    full_free = np.zeros(yd.size)
    full_free[kept_free] = v_free
    pinned_keep = np.ones(yd.size, dtype=bool)
    pinned_keep[[0, yd.size // 2, -1]] = False  # the box ends and the origin
    full_pinned = np.zeros(yd.size)
    full_pinned[pinned_keep] = pinned.eigenvectors[:, 0]
    # compare up to sign and the degenerate even/odd mixing of the pinned pair
    overlap = abs(np.dot(full_free, full_pinned)) / (
        np.linalg.norm(full_free) * np.linalg.norm(full_pinned)
    )
    span = np.zeros(yd.size)
    span[pinned_keep] = pinned.eigenvectors[:, 1]
    coef = np.array([np.dot(full_free, full_pinned), np.dot(full_free, span)])
    proj = coef[0] * full_pinned + coef[1] * span
    rel = np.linalg.norm(full_free / np.linalg.norm(full_free) - proj / np.linalg.norm(proj))
    assert rel < 1e-5 or overlap > 0.999


def test_domain_monotonicity_under_extra_mask(flat_pair):
    """The middle unknown of the flat pair joins the Dirichlet mask: the
    pair assembled on that masked grid has a lowest eigenvalue no lower."""
    m, pair = flat_pair
    base = sp.lowest_eigenpairs(pair, k=1).eigenvalues[0]
    keep = pair.grid.keep.copy()
    keep[np.flatnonzero(keep)[pair.n // 2]] = False
    sub = sp.assemble_hk(m, sp.WeightedGrid(pair.grid.x1, pair.grid.x2, keep))
    assert sub.n == pair.n - 1
    masked = sp.lowest_eigenpairs(sub, k=1).eigenvalues[0]
    assert masked >= base - 1e-12


def test_positive_bump_pulls_eigenvalue_below_threshold():
    a = 1.0
    prof = geo.gaussian_bump(amplitude=0.45, width=2.0, support_radius=8.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=a, L=24.0, n1=240, n2=24))
    pair = sp.assemble_hk(m)
    lam = sp.lowest_eigenpairs(pair, k=1).eigenvalues[0]
    assert lam < transverse_energy(1, a)


def test_transverse_mu_flat_exactly_zero():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=8.0, n1=16, n2=24)
    )
    assert sp.transverse_mu_profile(m, [0.0])[0] == 0.0


def test_transverse_mu_lower_bounded_by_potential(ruled_certified):
    m = ruled_certified
    for x1, mu in zip([0.0, 2.0, 4.5], sp.transverse_mu_profile(m, [0.0, 2.0, 4.5])):
        f, d2f = m.sample(np.array([x1]), m.x2)
        K = m.profile.evaluate(np.full_like(m.x2, x1), m.x2)
        V = -0.5 * K - 0.25 * (d2f[0] / f[0]) ** 2
        assert mu >= V.min() - 5e-3
        assert mu > 0.0


def test_frame_operator_flat_matches_direct_assembly():
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=8.0, n1=16, n2=16))
    gy = sp.make_y_grid(m, 13.0, 130)
    s = 2.0
    pair = sp.assemble_Ls(m, s, gy)
    e1h = sp.flat_transverse_ground(m.x2)  # of the full cross-section
    g1 = sp.gauss_points_1d(gy.x1)
    g2 = sp.gauss_points_1d(gy.x2)
    ones = np.ones((g1.shape[0], g2.shape[0], 3, 3))
    Y = g1.reshape(-1, 1, 3, 1) * ones
    es = math.exp(s)
    S_direct = sp.assemble_2d(
        gy.x1,
        gy.x2,
        [
            ("d1d1", ones),
            ("d2d2", es * ones),
            ("mass", -es * e1h * ones + Y**2 / 16.0),
        ],
        np.ones(gy.x1.size * gy.x2.size, bool),
    )
    kept = np.flatnonzero(gy.keep)
    S_direct = S_direct[kept][:, kept]
    diff = abs(pair.S - S_direct).max()
    assert diff < 1e-9 * max(abs(S_direct).max(), 1.0)


def _full_section_frame_pair(metric, s, grid_y):
    """The frame pair on the full cross-section [-a, a], walls Dirichlet: the
    problem the half-section grid of ``make_y_grid`` replaced."""
    return sp.assemble_Ls(metric, s, sp.make_grid(grid_y.x1, metric.x2))


def _full_box_frame_grid(metric, half_width, n_cells):
    """The frame grid on the whole box [-half_width, half_width], box ends
    Dirichlet, times the half cross-section: the grid ``make_y_grid`` returns
    for a metric not even in x1, built here for the frame levels odd in y1
    that its mirror half y1 >= 0 does not hold."""
    y1 = np.linspace(-half_width, half_width, n_cells + 1)
    x2 = operators._half_nodes(metric)
    keep = np.zeros((y1.size, x2.size), dtype=bool)
    keep[1:-1, :-1] = True
    return sp.WeightedGrid(x1=y1, x2=x2, keep=keep.ravel())


@pytest.mark.parametrize("s", [0.0, 4.0, 8.0])
def test_half_section_frame_eigenvalues_match_the_full_section(s, ruled_certified):
    """The two lowest frame eigenvalues are even in x2 on both sections. The
    reference runs ARPACK to 1e-13, so that what is compared is the
    reduction and not the 1e-8 stopping rule of either solve."""
    m = ruled_certified
    gy = _full_box_frame_grid(m, 14.0, 280)
    assert gy.x2[0] == 0.0 and gy.x2[-1] == m.x2[-1]
    half = sp.assemble_Ls(m, s, gy)
    full = _full_section_frame_pair(m, s, gy)
    assert 2 * half.n - full.n == gy.x1.size - 2  # one axis node per column
    nu = sp.lowest_eigenpairs(half, k=2).eigenvalues
    ref, _ = _splu_eigenvalues(full, k=2, tol=1e-13)
    assert np.abs(nu / ref - 1.0).max() <= 1e-10


def test_mirror_half_frame_gives_the_full_box_eigenvalue(monkeypatch):
    """Criterion 3's strip is even in x1, so ``make_y_grid`` keeps only the
    mirror half y1 >= 0 of the frame box, on the box's own nodes, and its
    sweep gives the full box's lowest eigenvalue. The frame operator cancels
    e^s E1h, so the round-off between the two grows like e^s: the bound is
    1e-10 relative up to s = 4 and 3e-9 at s = 8."""
    m = _negative_reference_metric()
    gy = sp.make_y_grid(m, 14.0, 280)
    full = _full_box_frame_grid(m, 14.0, 280)
    assert gy.x1.tobytes() == full.x1[140:].tobytes() and abs(gy.x1[0]) <= 1e-12
    # one kept node y1 = 0 on each of the kept levels x2 < a
    assert 2 * np.count_nonzero(gy.keep) - np.count_nonzero(full.keep) == gy.x2.size - 1
    lattice = [0.0, 2.0, 4.0, 8.0]
    mirror = sp.frame_sweep(m, lattice, 14.0, 280)
    monkeypatch.setattr(operators, "make_y_grid", lambda *args: full)
    whole = sp.frame_sweep(m, lattice, 14.0, 280)
    for s, a, b in zip(lattice, mirror, whole):
        bound = 1e-10 if s <= 4.0 else 3e-9
        assert abs(a.eigenvalues[0] / b.eigenvalues[0] - 1.0) <= bound, s


@pytest.mark.parametrize("case", ["off-centre-bump", "odd-cells"])
def test_a_frame_box_without_a_mirror_is_the_full_box(case, monkeypatch):
    """A bump off x1 = 0 is not even in x1, and an odd number of frame cells
    leaves no node at y1 = 0: either way ``make_y_grid`` returns the full box,
    and the sweep on it is, bit for bit, the sweep on the hand-built box."""
    if case == "off-centre-bump":
        prof = geo.gaussian_bump(amplitude=-0.6, width=1.5, support_radius=4.0, center=1.0)
        m = geo.solve_jacobi(prof, geo.StripGeometry(a=0.5, L=8.0, n1=96, n2=24))
        cells = 130
    else:
        m, cells = _negative_metric(), 131
    gy = sp.make_y_grid(m, 13.0, cells)
    full = _full_box_frame_grid(m, 13.0, cells)
    assert gy.x1[0] == -13.0
    for name in ("x1", "x2", "keep"):
        assert getattr(gy, name).tobytes() == getattr(full, name).tobytes()
    lattice = [0.0, 4.0]
    sweep = sp.frame_sweep(m, lattice, 13.0, cells)
    monkeypatch.setattr(operators, "make_y_grid", lambda *args: full)
    for a, b in zip(sweep, sp.frame_sweep(m, lattice, 13.0, cells)):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
        assert a.iterations == b.iterations


_HALF_SECTION_USERS = {
    "make_y_grid": lambda m: sp.make_y_grid(m, 14.0, 56),
    "transverse_mu_profile": lambda m: sp.transverse_mu_profile(m, [0.0, 1.0]),
    # the half section is refused before the global gap is read
    "hardy_constant": lambda m: sp.hardy_constant(m, (-2.0, 2.0), np.zeros(m.x1.size)),
}


@pytest.mark.parametrize("user", sorted(_HALF_SECTION_USERS))
def test_half_section_needs_an_axis_node(user):
    m = geo.ruled_strip(
        geo.ruled_profile(0.35, 6.0), geo.StripGeometry(a=0.5, L=12.0, n1=96, n2=41)
    )
    with pytest.raises(GeometryInvalid, match="n2 = 41"):
        _HALF_SECTION_USERS[user](m)


@pytest.mark.parametrize("user", sorted(_HALF_SECTION_USERS))
def test_half_section_needs_a_metric_even_in_x2(user, ruled_certified):
    m = ruled_certified
    # odd part 2e-3 x2 f, largest at the wall: 1e-3 sqrt(1 + 0.35^2 0.5^2)
    tilted = dataclasses.replace(m, f=m.f * (1.0 + 1e-3 * m.x2))
    with pytest.raises(GeometryInvalid, match=r"not even in x2: .* reaches 1\.015e-03"):
        _HALF_SECTION_USERS[user](tilted)


def test_frame_eigenvalue_flat_quarter():
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=8.0, n1=16, n2=24))
    gy = sp.make_y_grid(m, 14.0, 480)
    for s in [0.0, 4.0]:
        nu = sp.lowest_eigenpairs(sp.assemble_Ls(m, s, gy), k=1).eigenvalues[0]
        assert nu == pytest.approx(0.25, abs=2e-4)


def test_frame_truncation_warning():
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=8.0, n1=16, n2=8))
    gy = sp.make_y_grid(m, 4.0, 64)
    with pytest.warns(TruncationWarning):
        sp.assemble_Ls(m, 0.0, gy)


def test_oscillator_eigenvalues_from_frame_pair():
    # frame pair on a flat strip reproduces oscillator levels in its
    # longitudinal factor: check the first two frame levels at s = 0
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=8.0, n1=16, n2=24))
    gy = _full_box_frame_grid(m, 14.0, 480)  # level 3/4 is odd in y1
    res = sp.lowest_eigenpairs(sp.assemble_Ls(m, 0.0, gy), k=2)
    assert res.eigenvalues[0] == pytest.approx(0.25, abs=2e-4)
    assert res.eigenvalues[1] == pytest.approx(0.75, abs=1e-3)


def test_hardy_constants_formula_values():
    # sup|K| a^2 = 0.2 and |J| = 2 give c = 0.05 and C = 1.2
    prof = geo.gaussian_bump(amplitude=-0.2, width=1.2, support_radius=3.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=6.0, n1=96, n2=32))
    hc = sp.hardy_constant(m, (-1.0, 1.0), sp.transverse_mu_profile(m, m.x1))
    assert hc.c == pytest.approx(0.05, abs=1e-12)
    assert hc.C == pytest.approx(1.2, abs=1e-12)
    assert hc.lambda_J > 0
    assert 0 < hc.c_K < hc.c


def test_hardy_flat_hypothesis_fails():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=8.0, n1=32, n2=24)
    )
    with pytest.raises(HypothesisFailed):
        sp.hardy_constant(m, (-2.0, 2.0), sp.transverse_mu_profile(m, m.x1))


def test_hardy_positive_curvature_hypothesis_fails():
    prof = geo.gaussian_bump(amplitude=0.3, width=1.5, support_radius=4.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=8.0, n1=64, n2=24))
    with pytest.raises(HypothesisFailed):
        sp.hardy_constant(m, (-2.0, 2.0), sp.transverse_mu_profile(m, m.x1))


def test_pick_hardy_interval(ruled_certified):
    m = ruled_certified
    hc = sp.pick_hardy_interval(m)
    assert hc.c_K > 0
    assert hc.J[0] < 0 < hc.J[1]


def test_pick_hardy_interval_computes_the_global_gap_once(ruled_certified, monkeypatch):
    from striplab.spectral import hardy

    m = ruled_certified
    calls = []

    def counting(metric, x1):
        calls.append(np.size(x1))
        return sp.transverse_mu_profile(metric, x1)

    monkeypatch.setattr(hardy, "transverse_mu_profile", counting)
    hc = sp.pick_hardy_interval(m)
    assert calls.count(m.x1.size) == 1
    # given the global gap, the public entry point gives the same constants
    assert sp.hardy_constant(m, hc.J, hardy.transverse_mu_profile(m, m.x1)) == hc
    assert calls.count(m.x1.size) == 2


def test_thin_strip_constant_values():
    assert sp.thin_strip_constant(0.1) == pytest.approx(2.6031e-3, abs=1e-7)
    assert sp.thin_strip_constant(0.0) == 0.0


@pytest.mark.parametrize("xi", [0.75, 1.0, 1.78, math.nan])
def test_thin_strip_constant_refuses_xi_squared_from_one_half(xi):
    """The constant needs xi^2 < 1/2: at xi = 1 the formula divides by zero,
    and above it would give a positive but meaningless constant (0.0278 at
    criterion 8's xi = 1.78)."""
    with pytest.raises(ValueError, match=f"xi = {xi}"):
        sp.thin_strip_constant(xi)
    prof = geo.ruled_profile(1.0, 4.0)
    with pytest.raises(ValueError, match="xi"):
        sp.thin_strip_bound(prof, math.sqrt(xi), np.linspace(-6.0, 6.0, 13))


def test_thin_strip_bound_negative_bump_applicable():
    prof = geo.gaussian_bump(amplitude=-0.3, width=1.5, support_radius=4.0)
    x1 = np.linspace(-6.0, 6.0, 601)
    b = sp.thin_strip_bound(prof, a=0.2, x1=x1)
    inside = np.abs(x1) < 1.0
    assert np.all(b[inside] > 0)


def test_thin_strip_bound_zero_width_limit():
    prof = geo.gaussian_bump(amplitude=-0.3, width=1.5, support_radius=4.0)
    b0 = sp.thin_strip_bound(prof, a=1e-9, x1=np.array([0.0]))
    assert b0[0] == pytest.approx(0.15, rel=1e-6)
    assert sp.thin_strip_constant(prof.sup_norm * 1e-18) < 1e-12


def test_hardy_verify_zero_weight_nonnegative(flat_pair):
    m, _ = flat_pair
    rho = np.zeros((m.x1.size, m.x2.size))
    assert sp.hardy_verify(m, rho, trials=30, seed=3) >= -1e-6


def test_hardy_verify_holds_one_trial_vector_at_a_time(flat_pair):
    """Its peak allocation does not grow with the trial count: 600 trials on
    the 301 x 33 nodes of flat_pair would take 48 MB held all at once."""
    m, _ = flat_pair
    rho = np.zeros((m.x1.size, m.x2.size))
    all_at_once = 600 * m.x1.size * m.x2.size * 8
    tracemalloc.start()
    try:
        sp.hardy_verify(m, rho, trials=600, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * all_at_once


def test_hardy_verify_flat_falsified_by_constant_weight():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=40.0, n1=320, n2=24)
    )
    rho = 0.05 * np.ones((m.x1.size, m.x2.size))
    assert sp.hardy_verify(m, rho, trials=60, seed=7) < 0.0


def test_hardy_verify_certified_weight(ruled_certified):
    m = ruled_certified
    hc = sp.pick_hardy_interval(m)
    rho = sp.hardy_weight(m, hc)
    assert sp.hardy_verify(m, rho, trials=60, seed=7) >= -1e-6


def test_perturbed_threshold_zero_potential_identity(flat_pair):
    m, pair = flat_pair
    base = sp.lowest_eigenpairs(pair, k=1).eigenvalues[0]
    lam = sp.perturbed_threshold(m, np.zeros((m.x1.size, m.x2.size)))
    assert lam == pytest.approx(base, abs=1e-12)


def test_perturbed_threshold_flat_criticality():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=40.0, n1=320, n2=24)
    )
    V = -0.1 * np.exp(-m.x1[:, None] ** 2 / 2.0) * np.ones(m.x2.size)[None, :]
    lam = sp.perturbed_threshold(m, V)
    assert lam < transverse_energy(1, m.x2[-1])
    with pytest.raises(ValueError):
        sp.perturbed_threshold(m, -V)


def test_perturbed_threshold_certified_strip_resists_small_bump(ruled_certified):
    m = ruled_certified
    V = -0.002 * np.exp(-m.x1[:, None] ** 2 / 2.0) * np.ones(m.x2.size)[None, :]
    lam = sp.perturbed_threshold(m, V)
    assert lam >= transverse_energy(1, m.x2[-1])


def test_shift_inside_spectrum_detected(flat_pair):
    m, pair = flat_pair
    with pytest.raises(ShiftInsideSpectrum):
        sp.lowest_eigenpairs(pair, k=2, sigma=1.005)


@pytest.mark.parametrize("converged", [1, 0])
def test_arpack_non_convergence_names_the_best_residual(flat_pair, monkeypatch, converged):
    """The error's message, which the CLI prints, carries the residual of the
    lowest pair ARPACK returned, or says that none converged."""
    m, pair = flat_pair
    vecs = np.ones((pair.n, converged))

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("stub", np.ones(converged), vecs)

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    best = r"\d\.\d{3}e[+-]\d\d" if converged else "none, no eigenvalue converged"
    with pytest.raises(NoConvergence, match=rf"within 4000 iterations \(best residual: {best}\)"):
        sp.lowest_eigenpairs(pair, k=1)


def _poisoned(v, value):
    """A copy of the nodal array ``v`` with ``value`` at one interior node."""
    v = v.copy()
    v[v.shape[0] // 2, v.shape[1] // 2] = value
    return v


@pytest.mark.parametrize(
    "call",
    [
        lambda m, field: sp.hardy_verify(m, field, trials=10, seed=3),
        lambda m, field: sp.perturbed_threshold(m, -np.abs(field)),
        lambda m, field: sp.assemble_potential(m, sp.make_grid(m.x1, m.x2), field),
    ],
    ids=["hardy_verify", "perturbed_threshold", "assemble_potential"],
)
@pytest.mark.parametrize(
    "bad, named",
    [
        (lambda v: _poisoned(v, np.nan), "(193, 41) with 1 of its 7913"),
        (lambda v: _poisoned(v, np.inf), "(193, 41) with 1 of its 7913"),
        (lambda v: v.ravel(), "(7913,) with 0 of its 7913"),
        (lambda v: v[:, :-1], "(193, 40) with 0 of its 7720"),
    ],
    ids=["nan", "inf", "flattened", "one-column-short"],
)
def test_nodal_inputs_that_are_not_finite_or_not_nodal_are_refused(
    ruled_certified, monkeypatch, call, bad, named
):
    """A NaN passes every sign check, since comparisons with it are false, so
    these functions check that their nodal input is finite and of the metric's
    shape, and name what they got, before anything is assembled."""
    m = ruled_certified
    field = 0.01 * np.exp(-m.x1[:, None] ** 2) * np.ones(m.x2.size)[None, :]

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the input was checked")
    monkeypatch.setattr(sp.hardy, "assemble_hk", no_assembly)
    monkeypatch.setattr(operators, "assemble_2d", no_assembly)
    with pytest.raises(ValueError, match=re.escape("of shape (193, 41), not one of shape " + named)):
        call(m, bad(field))


# ---------------------------------------------------------------------------
# The implementations the spectral layer replaced, kept as references: the
# per-element einsum assembly, the gemm assembly through COO, the sparse-LU
# shift-invert, the per-column dense eigh for mu and the interpolator-based
# potential.


def _einsum_assemble_2d(x1, x2, terms):
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    n1, n2 = x1.size - 1, x2.size - 1
    f1 = core._direction_tensors(core._uniform_spacing(x1))
    f2 = core._direction_tensors(core._uniform_spacing(x2))
    local = np.zeros((n1 * n2, 4, 4))
    for kind, coeff in terms:
        k1, k2 = core._KIND_FACTORS[kind]
        contrib = np.einsum(
            "eab,aij,bkl->eikjl", coeff.reshape(n1 * n2, 3, 3), f1[k1], f2[k2]
        )
        local += contrib.reshape(n1 * n2, 4, 4)
    e1, e2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    base = (e1 * (n2 + 1) + e2).ravel()
    glob = base[:, None] + np.array([0, 1, n2 + 1, n2 + 2])[None, :]
    rows = np.repeat(glob[:, :, None], 4, axis=2)
    cols = np.repeat(glob[:, None, :], 4, axis=1)
    n_nodes = x1.size * x2.size
    return scipy.sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(n_nodes, n_nodes)
    ).tocsr()


def _restrict(mat, kept):
    """The rows and columns of the listed node indices."""
    return mat[kept][:, kept].tocsr()


def _einsum_restricted(x1, x2, terms, keep):
    """``_einsum_assemble_2d`` on the nodes of the mask, by ``_restrict``."""
    return _restrict(_einsum_assemble_2d(x1, x2, terms), np.flatnonzero(keep))


def _coo_assemble_1d(nodes, terms):
    """Element matrices scattered as COO on every node and summed into CSR by
    scipy."""
    nodes = np.asarray(nodes, float)
    local = core.element_matrices_1d(nodes, terms)
    e = np.arange(nodes.size - 1)
    rows = (e[:, None, None] + np.array([0, 1])[None, :, None]) * np.ones((1, 1, 2), int)
    cols = (e[:, None, None] + np.array([0, 1])[None, None, :]) * np.ones((1, 2, 1), int)
    return scipy.sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(nodes.size, nodes.size)
    ).tocsr()


def _coo_assemble_2d(x1, x2, terms):
    """Element matrices by one gemm per term, scattered as COO on every node
    and summed into CSR by scipy."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    n1, n2 = x1.size - 1, x2.size - 1
    f1 = core._direction_tensors(core._uniform_spacing(x1))
    f2 = core._direction_tensors(core._uniform_spacing(x2))
    local = np.zeros((n1 * n2, 16))
    for kind, coeff in terms:
        k1, k2 = core._KIND_FACTORS[kind]
        kernel = np.einsum("aij,bkl->abikjl", f1[k1], f2[k2]).reshape(9, 16)
        local += coeff.reshape(n1 * n2, 9) @ kernel
    e1, e2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    base = (e1 * (n2 + 1) + e2).ravel()
    glob = base[:, None] + np.array([0, 1, n2 + 1, n2 + 2])[None, :]
    rows = np.repeat(glob[:, :, None], 4, axis=2)
    cols = np.repeat(glob[:, None, :], 4, axis=1)
    n_nodes = x1.size * x2.size
    return scipy.sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(n_nodes, n_nodes)
    ).tocsr()


def _splu_eigenvalues(pair, k, sigma=-1.0, tol=1e-8):
    """Sorted eigenvalues and solve count of the sparse-LU shift-invert, with
    ARPACK at ``tol`` as in ``lowest_eigenpairs``."""
    n = pair.n
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    lu = spla.splu((pair.S - sigma * pair.M).tocsc())
    solves = 0

    def op(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    vals = spla.eigsh(
        pair.S, k=k, M=pair.M, sigma=sigma, which="LM", v0=v0, maxiter=4000, tol=tol,
        OPinv=spla.LinearOperator((n, n), matvec=op, dtype=float),
    )[0]
    return np.sort(vals), solves


def _eigh_mu_profile(metric, x1):
    x1 = np.atleast_1d(np.asarray(x1, float))
    x2 = metric.x2
    g2 = sp.gauss_points_1d(x2)
    e1h = sp.operators.flat_transverse_ground(x2)
    f, _ = metric.sample(x1, g2.ravel())
    interior = np.arange(1, x2.size - 1)
    out = np.empty(x1.size)
    for i in range(x1.size):
        c = f[i].reshape(g2.shape)
        every = np.ones(x2.size, bool)
        S = sp.assemble_1d(x2, [("dd", c)], every)[interior][:, interior]
        M = sp.assemble_1d(x2, [("mass", c)], every)[interior][:, interior]
        out[i] = scipy.linalg.eigh(
            S.toarray(), M.toarray(), subset_by_index=[0, 0], eigvals_only=True
        )[0] - e1h
    return out


def _interpolated_potential(metric, grid, v_nodal):
    g1, g2, F = operators._coeff_grid(metric, grid.x1, grid.x2)
    v_nodal = np.asarray(v_nodal, float).reshape(grid.shape)
    interp = RegularGridInterpolator((grid.x1, grid.x2), v_nodal)
    X1 = np.repeat(g1.ravel(), g2.size)
    X2 = np.tile(g2.ravel(), g1.size)
    V = interp(np.stack([X1, X2], axis=-1)).reshape(
        g1.shape[0], 3, g2.shape[0], 3
    ).transpose(0, 2, 1, 3)
    M_full = _einsum_assemble_2d(grid.x1, grid.x2, [("mass", V * F)])
    return _restrict(M_full, np.flatnonzero(grid.keep))


def _negative_metric():
    prof = geo.gaussian_bump(amplitude=-0.6, width=1.5, support_radius=4.0)
    return geo.solve_jacobi(prof, geo.StripGeometry(a=0.5, L=8.0, n1=96, n2=24))


def _flat_hk():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=20.0, n1=160, n2=24)
    )
    return lambda: sp.assemble_hk(m)


def _curved_hk():
    m = geo.ruled_strip(
        geo.ruled_profile(0.35, 6.0), geo.StripGeometry(a=0.5, L=12.0, n1=192, n2=40)
    )
    return lambda: sp.assemble_hk(m)


def _curved_frame():
    m = _negative_metric()
    gy = sp.make_y_grid(m, 14.0, 280)
    return lambda: sp.assemble_Ls(m, 4.0, gy)


PAIRS = {"flat_hk": _flat_hk, "curved_hk": _curved_hk, "curved_frame": _curved_frame}


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_gemm_assembly_matches_einsum(case, monkeypatch):
    """The operators' own terms, assembled by einsum on every node and then
    restricted, against the stencil assembly onto the kept nodes."""
    build = PAIRS[case]()
    new = build()
    calls = []
    monkeypatch.setattr(
        operators, "assemble_2d", lambda *args: calls.append(args) or _einsum_restricted(*args)
    )
    ref = build()
    assert len(calls) == 2  # S and M, both from the einsum reference
    for A, B in ((new.S, ref.S), (new.M, ref.M)):
        assert abs(A - B).max() <= 1e-12 * abs(B).max()


_KINDS = sorted(core._KIND_FACTORS)


@settings(max_examples=60, deadline=None)
@given(
    n1=hst.integers(1, 9),
    n2=hst.integers(1, 9),
    h=hst.tuples(hst.floats(1e-2, 10.0), hst.floats(1e-2, 10.0)),
    kinds=hst.lists(hst.sampled_from(_KINDS), min_size=1, max_size=5),
    mask=hst.sampled_from(["none", "walls", "free-ends"]),
    extra=hst.integers(0, 3),
    seed=hst.integers(0, 2**32 - 1),
)
def test_stencil_assembly_is_bit_identical_to_coo(n1, n2, h, kinds, mask, extra, seed):
    """Same CSR structure and the same bits as the COO assembly restricted to
    the kept nodes: walls Dirichlet, with or without the x1 ends, plus up to
    three more masked nodes, or every node kept."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-5.0, 5.0) + h[0] * np.arange(n1 + 1)
    x2 = h[1] * np.arange(n2 + 1)
    terms = [(kind, rng.standard_normal((n1, n2, 3, 3))) for kind in kinds]
    ref = _coo_assemble_2d(x1, x2, terms)
    if mask == "none":
        keep = np.ones(x1.size * x2.size, bool)
    else:
        keep = np.ones((x1.size, x2.size), bool)
        keep[:, [0, -1]] = False
        if mask == "walls":
            keep[[0, -1], :] = False
        keep = keep.ravel()
        keep[rng.choice(keep.size, size=min(extra, keep.size), replace=False)] = False
        ref = _restrict(ref, np.flatnonzero(keep))
    new = sp.assemble_2d(x1, x2, terms, keep)
    assert new.shape == ref.shape
    for a, b in ((new.indptr, ref.indptr), (new.indices, ref.indices), (new.data, ref.data)):
        assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(new.data), np.signbit(ref.data))
    # the cached transpose permutation: entry k of the structure holds k
    *_, transpose = core._csr_structure(x1.size, x2.size, keep)
    numbered = scipy.sparse.csr_matrix(
        (np.arange(new.nnz, dtype=float), new.indices, new.indptr), shape=new.shape
    )
    flipped = numbered.T.tocsr()
    flipped.sort_indices()
    for a, b in ((flipped.indptr, new.indptr), (flipped.indices, new.indices)):
        assert np.array_equal(a, b)
    assert np.array_equal(flipped.data, numbered.data[transpose])


@settings(max_examples=80, deadline=None)
@given(
    n=hst.integers(1, 40),
    h=hst.floats(1e-2, 10.0),
    kinds=hst.lists(hst.sampled_from(["dd", "mass"]), min_size=1, max_size=3),
    mask=hst.sampled_from(["none", "ends", "holes"]),
    first=hst.integers(1, 39),
    gaps=hst.lists(hst.integers(1, 3), max_size=2),
    seed=hst.integers(0, 2**32 - 1),
)
def test_1d_assembly_is_bit_identical_to_coo(n, h, kinds, mask, first, gaps, seed):
    """Same CSR structure and the same bits as the COO assembly restricted to
    the kept nodes: every node kept, both ends masked, or the ends and up to three
    interior holes, spaced 1 to 3 nodes apart so adjacent holes occur."""
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(-5.0, 5.0) + h * np.arange(n + 1)
    terms = [(kind, rng.standard_normal((n, 3))) for kind in kinds]
    ref = _coo_assemble_1d(nodes, terms)
    if mask == "none":
        keep = np.ones(n + 1, bool)
    else:
        keep = np.ones(n + 1, bool)
        keep[[0, -1]] = False
        if mask == "holes":
            holes = first + np.cumsum([0, *gaps])
            keep[holes[holes < n]] = False
        ref = _restrict(ref, np.flatnonzero(keep))
    new = sp.assemble_1d(nodes, terms, keep)
    assert new.shape == ref.shape
    for a, b in ((new.indptr, ref.indptr), (new.indices, ref.indices), (new.data, ref.data)):
        assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(new.data), np.signbit(ref.data))


def _dense_band_factor(A):
    """``cholesky_banded`` of the upper band read from ``A.toarray()``: row
    bw - d of the band holds diagonal d, right-aligned, for bw the farthest
    diagonal above the main one holding a nonzero."""
    dense = A.toarray()
    rows, cols = np.nonzero(np.triu(dense))
    bw = int((cols - rows).max())
    ab = np.zeros((bw + 1, dense.shape[0]))
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(dense, d)
    return scipy.linalg.cholesky_banded(ab)


@settings(max_examples=40, deadline=None)
@given(
    kind=hst.sampled_from(["ruled", "bump"]),
    a=hst.floats(0.3, 1.5),
    strength=hst.floats(-1.0, 1.0),
    width=hst.floats(0.3, 3.0),
    support=hst.floats(1.0, 6.0),
    plateau=hst.floats(0.0, 0.9),
    n1=hst.integers(4, 20),
    n2=hst.integers(4, 12),
    holes=hst.lists(hst.integers(0, 10**6), max_size=4),
)
def test_assembled_pairs_hold_their_invariants_on_random_profiles_and_masks(
    kind, a, strength, width, support, plateau, n1, n2, holes
):
    """On a random admissible ruled or bump profile, the pair of
    ``make_grid`` and the pair with up to four more kept nodes in the
    Dirichlet mask are symmetric through the transpose permutation and have
    positive lumped mass; the masked pair's lowest eigenvalue is no lower;
    and ``banded_cholesky`` of either pair's S + M, written from its CSR data
    through the cached band layout, is bit for bit the factor of the band
    read from the dense matrix.

    Symmetry holds to round-off, 1e-12 of the largest entry as in
    ``OperatorPair.check``, not exactly: the 1-D value-value factor of
    ``core._direction_tensors`` rounds its two off-diagonal entries
    differently on some cell sizes (a = 1, L = 2, n1 = 4, n2 = 5 here)."""
    geom = geo.StripGeometry(a=a, L=support + 1.0, n1=n1, n2=n2)
    if kind == "ruled":
        m = geo.ruled_strip(geo.ruled_profile(abs(strength), support, plateau), geom)
    else:
        amplitude = 0.49 * strength / a**2  # sup|K| a^2 < 1/2
        m = geo.solve_jacobi(geo.gaussian_bump(amplitude, width, support, 0.0, plateau), geom)
    grid = sp.make_grid(m.x1, m.x2)
    keep = grid.keep.copy()
    kept = np.flatnonzero(keep)
    keep[kept[np.unique(np.asarray(holes, int) % kept.size)[: kept.size - 1]]] = False
    pairs = [sp.assemble_hk(m, grid), sp.assemble_hk(m, sp.WeightedGrid(grid.x1, grid.x2, keep))]
    lowest = []
    for pair in pairs:
        *_, transpose = core._csr_structure(*pair.grid.shape, pair.grid.keep)
        for A in (pair.S, pair.M):
            assert np.abs(A.data - A.data[transpose]).max() <= 1e-12 * np.abs(A.data).max()
        assert (np.asarray(pair.M.sum(axis=1)).ravel() > 0).all()
        lowest.append(sp.lowest_eigenpairs(pair, k=1).eigenvalues[0])
        factor = core.banded_cholesky(pair.shifted(-1.0), pair.grid)
        ref = _dense_band_factor(pair.S + pair.M)
        assert factor.shape == ref.shape
        assert np.array_equal(factor.view(np.uint64), ref.view(np.uint64))
    assert lowest[1] >= lowest[0] - 1e-10 * abs(lowest[0])


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_banded_cholesky_eigenpairs_match_sparse_lu(case):
    pair = PAIRS[case]()()
    assert pair.n > 400  # the shift-invert path, not the dense one
    res = sp.lowest_eigenpairs(pair, k=3)
    vals, solves = _splu_eigenvalues(pair, k=3)
    assert np.abs(res.eigenvalues / vals - 1.0).max() <= 1e-9
    assert res.iterations == solves


def test_lowest_eigenpairs_rejects_k_above_the_pair_size():
    pair = sp.harmonic_oscillator(False, np.linspace(-5.0, 5.0, 50))
    assert pair.n == 48
    assert sp.lowest_eigenpairs(pair, k=48).eigenvalues.size == 48
    with pytest.raises(ValueError, match=r"n = 48 unknowns.*k = 49"):
        sp.lowest_eigenpairs(pair, k=49)


def test_warm_started_frame_sweep_matches_cold_with_fewer_solves():
    m = _negative_metric()
    gy = sp.make_y_grid(m, 14.0, 280)
    lattice = [0.0, 2.0, 4.0, 8.0]
    cold = [sp.lowest_eigenpairs(sp.assemble_Ls(m, s, gy), k=1) for s in lattice]
    warm = sp.frame_sweep(m, lattice, 14.0, 280)
    assert cold[0].eigenvectors.shape[0] > 400  # the shift-invert path
    for c, w in zip(cold, warm):
        nu = c.eigenvalues[0]
        assert abs(w.eigenvalues[0] / nu - 1.0) <= 1e-12
        assert w.residuals[0] <= solve._TOL * 100 * max(abs(nu), 1.0)
    assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)


@pytest.mark.parametrize(
    "bad, named",
    [
        (lambda n: np.ones(5), "entries"),
        (lambda n: np.full(n, np.nan), "finite"),
        (lambda n: np.zeros(n), "nonzero"),
    ],
    ids=["wrong-length", "nan", "zero"],
)
def test_lowest_eigenpairs_rejects_a_bad_start(bad, named):
    pair = PAIRS["curved_frame"]()()
    assert pair.n > 400  # the shift-invert path, not the dense one
    with pytest.raises(ValueError, match=named):
        sp.lowest_eigenpairs(pair, k=1, start=bad(pair.n))


@pytest.mark.parametrize("matrix", ["S", "M"])
def test_check_catches_one_perturbed_off_diagonal(matrix, ruled_certified):
    """``OperatorPair.check`` compares every entry with its mirror: moving
    one off-diagonal entry by 1e-8 of the largest raises."""
    pair = sp.assemble_hk(ruled_certified)
    pair.check()
    A = getattr(pair, matrix).copy()
    row = pair.n // 2
    lo, hi = A.indptr[row], A.indptr[row + 1]
    entry = lo + np.flatnonzero(A.indices[lo:hi] != row)[0]
    A.data[entry] += 1e-8 * abs(A.data).max()
    bad = dataclasses.replace(pair, **{matrix: A})
    with pytest.raises(ValueError, match="lost symmetry"):
        bad.check()


@pytest.mark.parametrize(
    "matrix, value, error",
    [
        ("S", math.nan, ValueError),
        ("M", math.nan, SingularMass),
        ("S", math.inf, ValueError),
        ("M", math.inf, SingularMass),
    ],
    ids=["nan-in-S", "nan-in-M", "inf-in-S", "inf-in-M"],
)
def test_check_refuses_non_finite_entries(flat_pair, matrix, value, error):
    """A NaN fails every comparison, so gates written as ``x > tol`` let it
    through."""
    _, pair = flat_pair
    A = getattr(pair, matrix).copy()
    A.data[5] = value
    bad = dataclasses.replace(pair, **{matrix: A})
    # inf - inf in the mirror comparison is NaN, which the check refuses
    with pytest.raises(error, match="non-finite"), np.errstate(invalid="ignore"):
        bad.check()


def test_asymmetric_pair_raises(flat_pair):
    """Entry (0, 1) of the grid pair's S moves by 1e-3 of the largest entry,
    and its mirror (1, 0) does not."""
    _, pair = flat_pair
    S = pair.S.copy()
    entry = np.flatnonzero(S.indices[S.indptr[0]:S.indptr[1]] == 1)[0]
    S.data[entry] += 1e-3 * abs(pair.S).max()
    bad = dataclasses.replace(pair, S=S)
    assert bad.n > 400
    with pytest.raises(LinearSolveFailure, match="not symmetric"):
        sp.lowest_eigenpairs(bad, k=1)


@pytest.mark.parametrize("case", ["off-structure"])
def test_a_pair_with_no_structure_to_factor_on_is_refused_before_factoring(
    flat_pair, monkeypatch, case
):
    """``banded_cholesky`` factors CSR data on the pair grid's structure: a
    pair whose grid masks one more node than its matrices leave out is
    refused before anything is factored."""
    _, pair = flat_pair
    keep = pair.grid.keep.copy()
    keep[np.flatnonzero(keep)[0]] = False
    bad = dataclasses.replace(pair, grid=sp.WeightedGrid(pair.grid.x1, pair.grid.x2, keep))
    assert bad.n > 400  # the shift-invert path, not the dense one
    monkeypatch.setattr(solve, "banded_cholesky", lambda *args: pytest.fail("factored"))
    with pytest.raises(GridMisaligned, match="structure"):
        sp.lowest_eigenpairs(bad, k=1)


@pytest.mark.parametrize("kind", ["ruled", "jacobi"])
def test_batched_mu_profile_matches_per_column_eigh(kind, ruled_certified):
    m = ruled_certified if kind == "ruled" else _negative_metric()
    cols = np.concatenate([m.x1, sp.gauss_points_1d(m.x1[::4]).ravel()])
    mu = sp.transverse_mu_profile(m, cols)
    ref = _eigh_mu_profile(m, cols)
    assert np.ptp(ref) > 1e-2  # curved columns, not only flat ones
    assert np.abs(mu - ref).max() <= 1e-10


def test_batched_mu_profile_splits_long_column_lists(ruled_certified, monkeypatch):
    """numpy solves each pencil of a stack on its own, so the batch bound
    moves no bit: the transverse gaps in batches of 5 and at the default
    bound, and the 97-node Hardy slices one pencil at a time."""
    m = ruled_certified
    whole = sp.transverse_mu_profile(m, m.x1)
    J = sp.pick_hardy_interval(m).J
    hc = sp.hardy_constant(m, J, whole)
    monkeypatch.setattr(core, "_PENCIL_BATCH_ENTRIES", 5 * 20**2)  # 5 half-section pencils
    assert np.array_equal(sp.transverse_mu_profile(m, m.x1), whole)
    monkeypatch.setattr(core, "_PENCIL_BATCH_ENTRIES", 1)  # one pencil per batch
    assert sp.hardy_constant(m, J, whole) == hc


def test_hardy_interval_pencil_memory_is_bounded(ruled_certified):
    """Criterion 10's strip: the dense pencils of the transverse gaps and the
    Hardy slices are alive a bounded batch at a time, not as whole stacks
    (7.6 MB traced when they were)."""
    tracemalloc.start()
    try:
        sp.pick_hardy_interval(ruled_certified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _per_slice_lambda_J(metric, J, n_cells=96):
    """lambda_J as one sparse assembly and dense eigh per transverse level:
    the loop the batched slice computation replaced."""
    nodes = np.linspace(J[0], J[1], n_cells + 1)
    gcols = sp.gauss_points_1d(nodes)
    mu_g = sp.transverse_mu_profile(metric, gcols.ravel()).reshape(gcols.shape)
    lam = np.inf
    for x2v in metric.x2:
        f, _ = metric.sample(gcols.ravel(), np.array([x2v]))
        f_g = f[:, 0].reshape(gcols.shape)
        every = np.ones(nodes.size, bool)
        S = sp.assemble_1d(nodes, [("dd", 1.0 / f_g), ("mass", mu_g * f_g)], every)
        M = sp.assemble_1d(nodes, [("mass", f_g)], every)
        lam = min(lam, scipy.linalg.eigh(
            S.toarray(), M.toarray(), subset_by_index=[0, 0], eigvals_only=True
        )[0])
    return lam


@pytest.mark.parametrize("kind", ["ruled", "jacobi"])
def test_batched_hardy_slices_match_per_slice_eigh(kind, ruled_certified):
    m = ruled_certified if kind == "ruled" else _negative_metric()
    hc = sp.pick_hardy_interval(m)
    assert hc.lambda_J == pytest.approx(_per_slice_lambda_J(m, hc.J), rel=1e-10)


@pytest.mark.parametrize("kind", ["flat", "ruled"])
def test_potential_matches_grid_interpolator(kind, ruled_certified):
    if kind == "flat":
        m = geo.solve_jacobi(
            geo.zero_profile(), geo.StripGeometry(a=1.0, L=10.0, n1=80, n2=16)
        )
    else:
        m = ruled_certified
    grid = sp.make_grid(m.x1, m.x2)
    v = np.random.default_rng(11).uniform(-1.0, 1.0, grid.shape)
    new = sp.assemble_potential(m, grid, v)
    ref = _interpolated_potential(m, grid, v)
    assert abs(new - ref).max() <= 1e-13 * abs(ref).max()



@pytest.mark.parametrize("free_ends", [False, True], ids=["dirichlet", "free-ends"])
def test_element_matrices_match_assemble_1d(free_ends, ruled_certified):
    """Dense tridiagonal matrices built from a batch of element matrices are
    the COO 1-D assembly, entry for entry: curved transverse columns of the
    half cross-section, free on the axis and Dirichlet at the wall, and
    longitudinal slices with free ends."""
    m = ruled_certified
    if free_ends:  # slices at three transverse levels
        nodes = np.linspace(-6.0, 2.0, 41)
        g = sp.gauss_points_1d(nodes)
        f, _ = m.sample(g.ravel(), m.x2[:3])
        c = f.T.reshape(3, *g.shape)
    else:  # three transverse columns
        nodes = operators._half_nodes(m)
        g = sp.gauss_points_1d(nodes)
        f, _ = m.sample([0.0, 1.5, 4.0], g.ravel())
        c = f.reshape(3, *g.shape)
    assert np.ptp(c) > 1e-3  # curved coefficients
    w = 1.0 + g**2
    local = core.element_matrices_1d(nodes, [("dd", 1.0 / c), ("mass", w * c)])
    dense = core._tridiagonal(local, wall=not free_ends)
    keep = slice(None) if free_ends else slice(None, -1)
    for i in range(3):
        ref = _coo_assemble_1d(nodes, [("dd", 1.0 / c[i]), ("mass", w * c[i])])
        assert np.array_equal(dense[i], ref[keep][:, keep].toarray())
