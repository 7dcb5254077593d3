import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import eigh

from striplab import evolution as ev
from striplab import geometry as geo
from striplab import spectral as sp
from striplab.errors import (
    BadCheckpoint,
    DegenerateFit,
    LinearSolveFailure,
    NotInWeightedSpace,
)
from striplab.oracle import mode_function, transverse_energy
from striplab.spectral import core


@pytest.fixture(scope="module")
def flat_small():
    m = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=20.0, n1=160, n2=24)
    )
    return m, sp.assemble_hk(m)


@pytest.fixture(scope="module")
def curved_small():
    prof = geo.gaussian_bump(amplitude=0.45, width=2.0, support_radius=8.0)
    m = geo.solve_jacobi(prof, geo.StripGeometry(a=1.0, L=12.0, n1=120, n2=20))
    return m, sp.assemble_hk(m)


def _splu_reference(pair, u0, t_grid, dt, shift=0.0):
    """The general sparse LU stepping loop: the reference both propagators of
    ``evolve`` are checked against. Returns (t, u) pairs, the checkpoint k
    steps after the start at time u0.t + k dt."""
    t_grid = np.asarray(sorted(set(float(t) for t in t_grid)))
    B = (pair.S - shift * pair.M).tocsc()
    lu = spla.splu((pair.M + 0.5 * dt * B).tocsc())
    A_minus = (pair.M - 0.5 * dt * B).tocsr()
    u = u0.u.copy()
    t0 = float(u0.t)
    done = 0
    out = []
    for tk in t_grid:
        k = int(round((tk - t0) / dt))
        for _ in range(k - done):
            u = lu.solve(A_minus @ u)
        done = k
        out.append((t0 + k * dt, u))
    return out


def _sine_coefficients(factors, u):
    """Coefficients C of the kept-node vector ``u`` = vec(P1 C P2^T) in the
    M-orthonormal sine eigenvectors P = S diag(d) of the 1-D pairs, by dense
    products: as M P = P diag(m), C = P1^T M1 U M2 P2 = diag(m1) P1^T U P2 diag(m2)."""
    (l1, m1, d1), (l2, m2, d2) = factors
    P1, P2 = _sine_basis(l1.size, d1), _sine_basis(l2.size, d2)
    return m1[:, None] * (P1.T @ u.reshape(l1.size, l2.size) @ P2) * m2


def _separable_evolve(grid, u0, t_grid, dt, shift=0.0, keep_states=False):
    """``evolve`` of the state ``u0`` on the flat pair of ``grid`` (``make_grid``'s),
    run on the separable propagator that only a flat ``decay_run`` takes."""
    factors = core._sine_factors(grid.x1, grid.x2)[1]
    C0 = _sine_coefficients(factors, u0.u)
    start = lambda: ev._separable_propagator(factors, C0, dt, shift)
    return ev._checkpoint_loop(start, u0.t, t_grid, dt, shift, keep_states)


def _mode1_fraction_reference(pair, u):
    """The inline remainder fraction ``evolve`` used to compute before it
    called ``_mode1_remainder``."""
    x2 = pair.grid.x2
    h2 = x2[1] - x2[0]
    j1 = mode_function(1, float(x2[-1]), x2)
    w2 = np.full(x2.size, h2)
    w2[0] = w2[-1] = h2 / 2.0
    n1, n2 = pair.grid.shape
    full = np.zeros(n1 * n2)
    full[pair.grid.keep] = u
    U = full.reshape(n1, n2)
    phi = (U * (w2 * j1)[None, :]).sum(axis=1)
    R = U - phi[:, None] * j1[None, :]
    r = R.ravel()[pair.grid.keep]
    nrm = math.sqrt(max(u @ (pair.M @ u), 0.0))
    rem = math.sqrt(max(r @ (pair.M @ r), 0.0))
    return rem / nrm if nrm > 0 else 0.0


@pytest.fixture(scope="module")
def flat_open_ends(flat_small):
    """The flat_small strip with its x1 ends left free: still a flat strip,
    but its kept nodes are not the interior tensor set."""
    m, _ = flat_small
    keep = np.ones((m.x1.size, m.x2.size), bool)
    keep[:, [0, -1]] = False
    return m, sp.assemble_hk(m, sp.WeightedGrid(m.x1, m.x2, keep.ravel()))


@pytest.mark.parametrize("name", ["interior", "half-frame", "open-ends"])
def test_extend_and_restrict_are_the_kept_node_layout(flat_small, flat_open_ends, name):
    """``restrict`` inverts ``extend`` bit for bit, ``extend`` leaves exact
    zeros on the masked nodes, and both agree with the x1-major flattening
    through the mask they replaced."""
    m, _ = flat_small
    grid = {
        "interior": sp.make_grid(m.x1, m.x2),
        "half-frame": sp.make_y_grid(m, 14.0, 112),
        "open-ends": flat_open_ends[1].grid,
    }[name]
    n1, n2 = grid.shape
    u = np.random.default_rng(5).standard_normal(np.count_nonzero(grid.keep))
    u[::7] = -0.0
    full = grid.extend(u)
    assert full.shape == grid.shape
    assert grid.restrict(full).tobytes() == u.tobytes()
    assert full.ravel()[grid.keep].tobytes() == u.tobytes()
    masked = full.ravel()[~grid.keep]
    assert masked.size > 0 and np.all(masked == 0.0) and not np.signbit(masked).any()
    assert np.array_equal(grid.restrict(grid.x1[:, None]), np.repeat(grid.x1, n2)[grid.keep])
    assert np.array_equal(grid.restrict(grid.x2), np.tile(grid.x2, n1)[grid.keep])


@pytest.mark.parametrize(
    "case, t_grid, shift",
    [
        ("flat_small", [0.5], 0.0),
        ("curved_small", [0.5], 0.0),
        ("flat_small", [0.5], "e1"),
        ("curved_small", [0.0, 0.1, 0.25, 0.6], "e1"),
        ("flat_small", [0.0, 0.1, 0.25, 0.6], "e1"),
        ("flat_open_ends", [0.0, 0.1, 0.25, 0.6], "e1"),
    ],
    ids=["flat", "curved", "shifted", "checkpoints", "flat-checkpoints", "flat-open-ends"],
)
def test_banded_cholesky_matches_sparse_lu(request, case, t_grid, shift):
    """``evolve``'s banded Cholesky against sparse LU, on flat, curved and
    open-ended pairs."""
    m, pair = request.getfixturevalue(case)
    if shift == "e1":
        shift = sp.flat_transverse_ground(m.x2)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    tr = ev.evolve(pair, u0, t_grid, dt=0.01, shift=shift, keep_states=True)
    ref = _splu_reference(pair, u0, t_grid, dt=0.01, shift=shift)
    assert len(tr.states) == len(ref) == len(t_grid)
    assert np.array_equal(tr.times, [t for t, _ in ref])
    for st, (_, u_ref), nf in zip(tr.states, ref, tr.norm_f):
        assert np.abs(st.u - u_ref).max() <= 1e-11 * np.abs(u_ref).max()
        nf_ref = math.sqrt(u_ref @ (pair.M @ u_ref))
        assert abs(nf - nf_ref) <= 1e-11 * nf_ref


@pytest.mark.parametrize("case", ["flat_small", "curved_small", "flat_open_ends"])
def test_evolve_factors_one_banded_cholesky_on_every_pair(request, monkeypatch, case):
    """``evolve`` has one propagator: a flat pair is stepped by banded solves
    like any other, from one factorisation of the n x n step matrix, whose
    CSR data sits on the pair's structure."""
    m, pair = request.getfixturevalue(case)
    calls = []

    def spy(data, grid):
        calls.append((data.size, np.count_nonzero(grid.keep)))
        return sp.core.banded_cholesky(data, grid)

    monkeypatch.setattr(ev, "banded_cholesky", spy)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    ev.evolve(pair, u0, [0.0, 0.2], dt=0.01, shift=sp.flat_transverse_ground(m.x2))
    assert calls == [(pair.S.nnz, pair.n)]


@pytest.mark.parametrize("case", ["flat_small", "curved_small"])
def test_checkpoints_at_the_fit_window_ends_are_kept(request, case):
    """Checkpoint k is recorded at exactly u0.t + k dt, so the samples at both
    ends of criterion 5's fit window [5, 100] take part in the fit: widening
    the window by half a step changes nothing. Times accumulated step by step
    drift to 4.999999999999938 and 100.00000000001425 and fall outside."""
    m, _ = request.getfixturevalue(case)
    dt = 0.01
    # decay_run's step for checkpoints every 5 and the window [5, 100] is dt,
    # its datum the mode datum of alpha 1 and its shift flat_transverse_ground
    tr, _, _ = ev.decay_run(m, t_end=100.0, checkpoint_step=5.0)
    assert tr.times.tolist() == [k * dt for k in range(0, 10001, 500)]
    assert tr.times[1] == 5.0 and tr.times[-1] == 100.0
    e1 = transverse_energy(1, m.x2[-1])
    fit = ev.fit_decay(tr, e1, (5.0, 100.0))
    wide = ev.fit_decay(tr, e1, (5.0 - dt / 2, 100.0 + dt / 2))
    assert (fit.gamma_hat, fit.lambda_hat) == (wide.gamma_hat, wide.lambda_hat)


def test_decay_run_defaults_its_window_and_step_from_t_end(flat_small):
    m, _ = flat_small
    tr, fit, e1h = ev.decay_run(m, t_end=20.0)
    assert fit.window == (5.0, 20.0)
    assert e1h == sp.flat_transverse_ground(m.x2)
    # the default step 0.5 / ceil(0.5 / min(0.01, 15 / 2000)) divides the
    # checkpoint step, so every checkpoint lands on its lattice point
    assert tr.times.size == 41 and tr.times[-1] == 20.0
    assert ((tr.times >= 5.0) & (tr.times <= 20.0)).sum() == 31


def test_decay_run_rejects_a_zero_checkpoint_step(flat_small):
    m, _ = flat_small
    with pytest.raises(BadCheckpoint, match="checkpoint_step"):
        ev.decay_run(m, t_end=20.0, checkpoint_step=0.0)


@pytest.mark.parametrize(
    "case, t_end, window, named",
    [
        ("flat_small", 3.0, None, r"fit window \(5.0, 3.0\)"),
        ("flat_small", math.inf, None, "t_end must be positive and finite, not inf"),
        ("flat_small", 0.0, None, "t_end must be positive and finite, not 0.0"),
        ("flat_small", 20.0, (12.0, 2.0), r"fit window \(12.0, 2.0\)"),
        ("curved_small", 20.0, (12.0, 2.0), r"fit window \(12.0, 2.0\)"),
    ],
    ids=["default-window-reversed", "infinite-t_end", "zero-t_end", "reversed-window",
         "curved-reversed-window"],
)
def test_decay_run_rejects_bad_times_before_assembly(request, monkeypatch, case, t_end, window, named):
    """Neither the element assembly (curved metrics) nor the 1-D stencils and
    their sine eigendata (flat ones) are reached."""
    def no_assembly(*args):
        raise AssertionError("assembled before the times were checked")

    monkeypatch.setattr(ev, "assemble_hk", no_assembly)
    monkeypatch.setattr(ev, "_sine_factors", no_assembly)
    with pytest.raises(ValueError, match=named):
        ev.decay_run(request.getfixturevalue(case)[0], t_end=t_end, window=window)


def test_a_cross_section_off_the_axis_takes_the_banded_path(flat_small, monkeypatch):
    """A flat strip on x2 shifted off the axis has a Kronecker-sum pair, but its
    sampled first mode is not the first sine vector, so the coefficient
    remainder would be wrong there: ``decay_run`` assembles the pair and
    steps it by banded solves, the run of ``evolve`` on that pair."""
    m, _ = flat_small
    off = dataclasses.replace(m, x2=m.x2 + 0.25)
    assert core._sine_factors(off.x1, off.x2) is None
    calls = []

    def spy(data, grid):
        calls.append((data.size, np.count_nonzero(grid.keep)))
        return sp.core.banded_cholesky(data, grid)

    monkeypatch.setattr(ev, "banded_cholesky", spy)
    tr, _, e1h = ev.decay_run(off, t_end=1.0, checkpoint_step=0.1, window=(0.0, 1.0), dt=0.01)
    pair = sp.assemble_hk(off)
    assert calls == [(pair.S.nnz, pair.n)]
    u0 = ev.weighted_initial(pair, alpha=1.0)
    ref = _splu_reference(pair, u0, tr.times, 0.01, e1h)
    for nf, (_, u_ref) in zip(tr.norm_f, ref):
        nf_ref = math.sqrt(u_ref @ (pair.M @ u_ref))
        assert abs(nf - nf_ref) <= 1e-11 * nf_ref
    assert np.abs(tr.final.u - u_ref).max() <= 1e-11 * np.abs(u_ref).max()
    assert tr.mode1_fraction[-1] == ev._mode1_remainder(pair, tr.final.u) / tr.final.norm_f


def test_flat_decay_run_assembles_no_elements_and_transforms_only_returned_states(
    flat_small, monkeypatch
):
    m, _ = flat_small

    def no_elements(*args, **kwargs):
        raise AssertionError("a flat decay run built or checked a 2-D pair")

    # the run goes from the 1-D stencils to the sine basis: no 2-D pair at all
    monkeypatch.setattr(sp.operators, "assemble_2d", no_elements)
    monkeypatch.setattr(ev, "assemble_hk", no_elements)
    monkeypatch.setattr(core.OperatorPair, "check", no_elements)
    transforms = []
    sine_transform = ev._sine_transform
    monkeypatch.setattr(ev, "_sine_transform", lambda X: transforms.append(X) or sine_transform(X))
    tr, _, _ = ev.decay_run(m, t_end=20.0)
    assert tr.times.size == 41
    # the datum's coefficients come from two 1-D transforms; the final state
    # is formed on its first read, and only then
    assert len(transforms) == 0
    assert tr.final is tr.final and tr.final.t == 20.0
    assert len(transforms) == 1


@pytest.fixture(scope="module")
def flat_narrow():
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=1.0, L=12.0, n1=96, n2=16))
    return m, sp.assemble_hk(m)


@pytest.mark.parametrize("case, alpha", [("flat_small", 1.0), ("flat_narrow", 0.8)])
def test_flat_decay_run_matches_evolve_on_the_assembled_pair(request, case, alpha):
    """The flat decay run, which goes from the 1-D stencils straight to the
    sine basis, is the decay run of ``evolve`` on ``assemble_hk``'s pair,
    which takes the same steps by banded solves: an independent reference."""
    m, pair = request.getfixturevalue(case)
    tr, fit, e1h = ev.decay_run(m, alpha=alpha, t_end=20.0, dt=0.01)
    u0 = ev.weighted_initial(pair, alpha=alpha)
    ref = ev.evolve(pair, u0, np.arange(0.0, 20.0 + 1e-9, 0.5), dt=0.01, shift=e1h)
    ref_fit = ev.fit_decay(ref, e1h, (5.0, 20.0))
    assert tr.times.tolist() == ref.times.tolist() and tr.shift == ref.shift
    assert np.all(np.abs(tr.norm_f - ref.norm_f) <= 1e-12 * ref.norm_f)
    assert np.abs(tr.mode1_fraction - ref.mode1_fraction).max() <= 1e-12
    assert abs(fit.gamma_hat - ref_fit.gamma_hat) <= 1e-12
    assert abs(fit.lambda_hat - ref_fit.lambda_hat) <= 1e-12
    assert tr.final.t == ref.final.t and tr.final.u.shape == ref.final.u.shape
    assert np.abs(tr.final.u - ref.final.u).max() <= 1e-12 * np.abs(ref.final.u).max()


@pytest.mark.parametrize("case", ["flat_small", "flat_narrow"])
@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_flat_decay_datum_coefficients_are_those_of_the_nodal_datum(
    request, monkeypatch, case, alpha
):
    """The flat decay run's datum coefficients, the outer product of two 1-D
    sine transforms, are the dense 2-D transform of ``weighted_initial``'s datum."""
    m, pair = request.getfixturevalue(case)
    starts = []
    propagator = ev._separable_propagator
    monkeypatch.setattr(
        ev, "_separable_propagator", lambda *args: starts.append(args[1]) or propagator(*args)
    )
    ev.decay_run(m, alpha=alpha, t_end=10.0, dt=0.01)
    (C0,) = starts
    ref = _sine_coefficients(
        core._sine_factors(m.x1, m.x2)[1], ev.weighted_initial(pair, alpha=alpha).u
    )
    assert C0.shape == ref.shape
    assert np.abs(C0 - ref).max() <= 1e-14 * np.abs(ref).max()


# at gaps 999 and 1000 about a tenth of the powers underflow to signed zeros
@pytest.mark.parametrize("gap", [49, 50, 999, 1000])
def test_the_step_power_is_r_to_the_gap_within_2_ulp_and_of_its_sign(flat_small, gap):
    """``_power`` takes |r|**gap and restores the sign by parity: the same
    number as r**gap up to rounding, on factors that are mostly negative."""
    m, _ = flat_small
    (l1, _, _), (l2, _, _) = core._sine_factors(m.x1, m.x2)[1]
    lam = l1[:, None] + l2[None, :] - sp.flat_transverse_ground(m.x2)
    dt = 0.1
    r = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
    assert (r < 0).mean() > 0.8
    p, ref = ev._power(r, gap), r**gap
    np.testing.assert_array_max_ulp(p, ref, maxulp=2)
    assert np.array_equal(np.signbit(p), np.signbit(ref))


@pytest.mark.parametrize(
    "bad, error, named",
    [
        ({"alpha": 0.5}, NotInWeightedSpace, "not above 1/2"),
        ({"alpha": math.nan}, NotInWeightedSpace, "not above 1/2"),
        ({"dt": math.nan}, ValueError, "dt must be positive and finite"),
        ({"dt": -0.01}, ValueError, "dt must be positive and finite"),
    ],
    ids=["alpha-half", "alpha-nan", "dt-nan", "dt-negative"],
)
def test_flat_decay_run_refuses_bad_input_before_propagating(flat_small, monkeypatch, bad, error, named):
    """The flat run takes ``weighted_initial``'s and ``evolve``'s checks: a bad
    ``dt`` is a ``ValueError``, not the propagator's indefinite step."""
    def no_propagation(*args):
        raise AssertionError("built a propagator for bad input")

    monkeypatch.setattr(ev, "_separable_propagator", no_propagation)
    with pytest.raises(error, match=named):
        ev.decay_run(flat_small[0], t_end=20.0, **bad)


@pytest.mark.parametrize("case", ["flat_small", "curved_small", "separable"])
def test_a_non_finite_state_raises_on_both_propagators(request, case):
    """``evolve``'s banded propagator checks the state at each checkpoint, the
    separable one, which only a flat decay run takes, its coefficients."""
    if case == "separable":
        m, _ = request.getfixturevalue("flat_small")
        factors = core._sine_factors(m.x1, m.x2)[1]
        C0 = np.ones((factors[0][0].size, factors[1][0].size))
        C0[3, 2] = math.nan
        start = lambda: ev._separable_propagator(factors, C0, 0.01, 0.0)
        with pytest.raises(LinearSolveFailure, match="non-finite values"):
            ev._checkpoint_loop(start, 0.0, [0.0, 0.1], 0.01, 0.0, False)
        return
    m, pair = request.getfixturevalue(case)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    u0.u[u0.u.size // 2] = math.nan
    with pytest.raises(LinearSolveFailure, match="non-finite values"):
        ev.evolve(pair, u0, [0.0, 0.1], dt=0.01)


@settings(max_examples=40, deadline=None)
@given(
    n1=hst.integers(2, 40),
    n2=hst.integers(2, 24),
    h1=hst.floats(1e-2, 10.0),
    a=hst.floats(1e-2, 10.0),
    offset=hst.floats(0.0, 1.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_kronecker_pair_is_the_flat_assembly_and_its_coefficients_hold_the_norms(
    n1, n2, h1, a, offset, seed
):
    """The exact tensor factorisation on random uniform flat grids: the flat
    pair of ``assemble_hk`` is the Kronecker sum S = K1 (x) M2 + M1 (x) K2,
    M = M1 (x) M2 of the interior 1-D stencils, and the norm and mode-1
    remainder read off the sine coefficients of a random state are those of
    ``_norm_f`` and ``_mode1_remainder``."""
    x1 = h1 * (np.arange(n1 + 1) - round(offset * n1))
    x2 = np.linspace(-a, a, n2 + 1)
    grid = sp.make_grid(x1, x2)
    # a flat metric samples f = 1 at any point, so the grid alone sets the pair
    flat = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=2.0, n1=4, n2=4))
    pair = sp.assemble_hk(flat, grid)
    stencils, factors = core._sine_factors(x1, x2)
    (K1, M1), (K2, M2) = (
        [sps.diags(st, [-1, 0, 1], shape=(x.size - 2, x.size - 2)) for st in pair_st]
        for pair_st, x in zip(stencils, (x1, x2))
    )
    for A, B in ((pair.S, sps.kron(K1, M2) + sps.kron(M1, K2)), (pair.M, sps.kron(M1, M2))):
        assert abs(A - B).max() <= 1e-12 * abs(B).max()
    u = np.random.default_rng(seed).standard_normal(pair.n)
    norm, rem = ev._coefficient_norms(_sine_coefficients(factors, u))
    ref = ev._norm_f(pair, u)
    assert abs(norm - ref) <= 1e-12 * ref
    assert abs(rem - ev._mode1_remainder(pair, u)) <= 1e-12 * ref


def test_mode1_fraction_matches_inline_projection(curved_small):
    m, pair = curved_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    u0.u = u0.u + 0.1 * np.sin(3.0 * np.arange(u0.u.size))
    tr = ev.evolve(pair, u0, [0.0, 0.05, 0.2], dt=0.01, keep_states=True)
    expected = [_mode1_fraction_reference(pair, st.u) for st in tr.states]
    assert tr.mode1_fraction.tolist() == expected
    assert expected[0] > 0.0


def test_indefinite_step_matrix_raises(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    dt = 0.01
    with pytest.raises(LinearSolveFailure, match="positive definite"):
        ev.evolve(pair, u0, [0.1], dt=dt, shift=10.0 / dt)


def test_asymmetric_pair_raises(flat_small):
    m, pair = flat_small
    n = pair.n
    skew = sps.csr_matrix(([1e-3], ([0], [1])), shape=(n, n))
    bad = dataclasses.replace(pair, S=pair.S + skew)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    with pytest.raises(LinearSolveFailure, match="not symmetric"):
        ev.evolve(bad, u0, [0.1], dt=0.01)


def test_checkpoints_that_repeat_a_sample_are_rejected(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    with pytest.raises(BadCheckpoint, match="same step"):
        ev.evolve(pair, u0, [0.0, 0.004, 0.1], dt=0.01)
    later = ev.evolve(pair, u0, [0.3], dt=0.01, keep_states=True).final
    with pytest.raises(BadCheckpoint, match="before the start"):
        ev.evolve(pair, later, [0.1, 0.2, 0.5], dt=0.01)
    # a checkpoint at the start time itself records the initial state
    again = ev.evolve(pair, later, [later.t], dt=0.01)
    assert again.times.tolist() == [later.t]


@pytest.mark.parametrize("case", ["flat_small", "flat_open_ends"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_non_finite_checkpoints_are_rejected(request, case, bad):
    """Both propagators: NaN used to snap to step INT_MIN, and on the banded
    path returned a checkpoint at t = -9.2e16 holding the t = 0.5 state; a
    step count past int64 wraps the same way."""
    m, pair = request.getfixturevalue(case)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    with pytest.raises(BadCheckpoint, match="within 2\\*\\*53 steps"):
        ev.evolve(pair, u0, [0.5, bad], dt=0.01)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.01])
def test_non_positive_or_non_finite_dt_is_rejected(flat_small, dt):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        ev.evolve(pair, u0, [0.5], dt=dt)


def _eigh_eigenbasis(K, M):
    """The dense generalized eigensolve the separable propagator used before
    its closed-form sine basis: eigenvalues as the Rayleigh quotients of the
    M-orthonormal eigenvectors P, which are accurate relative to l."""
    _, P = eigh(K.toarray(), M.toarray())
    return np.einsum("ij,ij->j", P, K @ P) / np.einsum("ij,ij->j", P, M @ P), P


def _interior_pair(x):
    """Unit-weight 1-D stiffness and mass on the interior nodes of ``x``."""
    ones = np.ones((x.size - 1, 3))
    interior = np.ones(x.size, bool)
    interior[[0, -1]] = False
    return tuple(sp.assemble_1d(x, [(k, ones)], interior) for k in ("dd", "mass"))


def _sine_basis(n, d):
    j = np.arange(1, n + 1)
    return np.sin(np.outer(j, j) * math.pi / (n + 1)) * d


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(2, 200), h=hst.floats(1e-3, 10.0))
def test_interior_pair_is_toeplitz_and_sine_basis_diagonalises_it(n, h):
    """Each of the three diagonals is exactly constant; the element mass
    matrix is symmetric only to round-off, so the two off-diagonals may differ
    in the last bit."""
    x = h * np.arange(n + 2)
    K, M = _interior_pair(x)
    for A in (K, M):
        D = A.toarray()
        toeplitz = D[0, 0] * np.eye(n) + D[0, 1] * np.eye(n, k=1) + D[1, 0] * np.eye(n, k=-1)
        assert np.array_equal(D, toeplitz)
        assert abs(D[1, 0] - D[0, 1]) <= 1e-15 * abs(D[0, 1])
    l, m, d = core._sine_eigenpairs(*core._interior_stencils(x), n)
    P = _sine_basis(n, d)
    assert np.abs(P.T @ (M @ P) - np.eye(n)).max() <= 1e-12
    KP, MP = K @ P, M @ P
    assert np.abs(KP - MP * l).max() <= 1e-12 * np.abs(KP).max()
    assert np.abs(MP - P * m).max() <= 1e-12 * np.abs(MP).max()


@pytest.mark.parametrize("x", [np.linspace(-20.0, 20.0, 161), np.linspace(-60.0, 60.0, 601),
                               np.linspace(-math.pi / 2, math.pi / 2, 49)])
def test_closed_form_eigenvalues_match_dense_rayleigh_quotients(x):
    K, M = _interior_pair(x)
    l, m, d = core._sine_eigenpairs(*core._interior_stencils(x), x.size - 2)
    l_ref, P_ref = _eigh_eigenbasis(K, M)
    assert np.abs(l / l_ref - 1.0).max() <= 1e-12
    # same eigenvectors up to sign
    overlap = np.abs(_sine_basis(l.size, d).T @ (M @ P_ref))
    assert np.abs(overlap - np.eye(l.size)).max() <= 1e-9


def _per_k_reference(pair, u0, t_grid, dt, shift):
    """The dense separable propagator with a fresh power r**k at every
    checkpoint, on the eigh eigenbases."""
    (K1, M1), (K2, M2) = (_interior_pair(x) for x in (pair.grid.x1, pair.grid.x2))
    (l1, P1), (l2, P2) = _eigh_eigenbasis(K1, M1), _eigh_eigenbasis(K2, M2)
    lam = l1[:, None] + l2[None, :] - shift
    r = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
    U0 = u0.u.reshape(l1.size, l2.size)
    C0 = P1.T @ (M1 @ ((M2 @ U0.T).T)) @ P2
    ks = np.rint((np.asarray(t_grid) - u0.t) / dt).astype(int)
    return [u0.u if k == 0 else (P1 @ (C0 * r**k) @ P2.T).ravel() for k in ks]


@pytest.mark.parametrize(
    "t_grid", [np.linspace(0.0, 100.0, 201), [0.0, 0.01, 0.37, 0.5, 3.0]],
    ids=["201-to-t100", "uneven"],
)
def test_running_product_matches_per_k_powers(flat_small, t_grid):
    m, pair = flat_small
    shift = sp.flat_transverse_ground(m.x2)
    u0 = ev.weighted_initial(pair, alpha=1.0)
    u0.u = u0.u + 1e-3 * np.sin(3.0 * np.arange(u0.u.size))  # every mode present
    tr = _separable_evolve(pair.grid, u0, t_grid, dt=0.01, shift=shift, keep_states=True)
    ref = _per_k_reference(pair, u0, t_grid, 0.01, shift)
    assert len(tr.states) == len(ref)
    for st, u_ref in zip(tr.states, ref):
        assert np.abs(st.u - u_ref).max() <= 1e-11 * np.abs(u_ref).max()


def test_weighted_initial_mode_normalized(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    lw = np.asarray(pair.M.sum(axis=1)).ravel()
    x1 = np.repeat(pair.grid.x1, pair.grid.x2.size)[pair.grid.keep]
    assert math.sqrt(lw @ (np.exp(x1**2 / 4.0) * u0.u**2)) == pytest.approx(1.0, rel=1e-10)
    assert u0.t == 0.0


def test_weighted_initial_ignores_later_assemblies_on_its_grid():
    """A frame pair's Gaussian-weighted norm comes from its own mass matrix,
    not from whichever pair was assembled last on the shared grid."""
    m = geo.ruled_strip(
        geo.ruled_profile(0.35, 6.0), geo.StripGeometry(a=0.5, L=12.0, n1=96, n2=16)
    )
    gy = sp.make_y_grid(m, 14.0, 112)
    p0 = sp.assemble_Ls(m, 0.0, gy)
    before = ev.weighted_initial(p0).u
    sp.assemble_Ls(m, 8.0, gy)
    assert np.array_equal(ev.weighted_initial(p0).u, before)


def test_weighted_initial_rejects_shallow_decay(flat_small):
    m, pair = flat_small
    with pytest.raises(NotInWeightedSpace):
        ev.weighted_initial(pair, alpha=0.4)


def test_eigenvector_decays_at_its_eigenvalue(flat_small):
    m, pair = flat_small
    res = sp.lowest_eigenpairs(pair, k=1)
    lam = res.eigenvalues[0]
    u0 = ev.HeatState(u=res.eigenvectors[:, 0], t=0.0, norm_f=1.0)
    tr = ev.evolve(pair, u0, [0.5, 1.0], dt=0.002)
    for t, nf in zip(tr.times, tr.norm_f):
        assert nf == pytest.approx(math.exp(-lam * t), rel=1e-6)


def test_trajectory_starts_exactly_at_initial_state(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    tr = ev.evolve(pair, u0, [0.0, 0.1], dt=0.01, keep_states=True)
    assert tr.times[0] == 0.0
    assert np.array_equal(tr.states[0].u, u0.u)


def test_semigroup_composition(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    two_leg = ev.evolve(pair, u0, [0.3], dt=0.01, keep_states=True)
    second = ev.evolve(pair, two_leg.states[-1], [0.8], dt=0.01, keep_states=True)
    direct = ev.evolve(pair, u0, [0.8], dt=0.01, keep_states=True)
    diff = np.abs(second.states[-1].u - direct.states[-1].u).max()
    assert diff < 1e-12
    # step-refinement consistency: second order in dt
    coarse = ev.evolve(pair, u0, [0.8], dt=0.02)
    fine = ev.evolve(pair, u0, [0.8], dt=0.005)
    assert abs(coarse.norm_f[-1] - fine.norm_f[-1]) < 10 * (0.02**2)


def test_norm_monotone_nonincreasing(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    tr = ev.evolve(pair, u0, np.linspace(0.0, 2.0, 11), dt=0.01)
    assert np.all(np.diff(tr.norm_f) <= 1e-14)


def test_flat_norm_matches_closed_form_series():
    a = math.pi / 2
    geom = geo.StripGeometry(a=a, L=25.0, n1=625, n2=112)
    m = geo.solve_jacobi(geo.zero_profile(), geom)
    grid = sp.make_grid(m.x1, m.x2)
    x1g = grid.restrict(m.x1[:, None])
    x2g = grid.restrict(m.x2)
    sig = 2.0
    u0v = np.exp(-(x1g**2) / (2 * sig**2)) * mode_function(1, a, x2g)
    u0 = ev.HeatState(u=u0v, t=0.0, norm_f=0.0)
    tr = _separable_evolve(grid, u0, [0.1, 1.0, 5.0, 10.0], dt=0.01)
    for t, nf in zip(tr.times, tr.norm_f):
        exact = math.exp(-t) * math.sqrt(sig**2 * math.sqrt(math.pi / (sig**2 + 2 * t)))
        assert abs(nf - exact) / exact < 1e-3


def test_project_mode1_pure_and_orthogonal(flat_small):
    m, pair = flat_small
    a = math.pi / 2
    x1g = pair.grid.restrict(m.x1[:, None])
    x2g = pair.grid.restrict(m.x2)
    g = np.exp(-(x1g**2) / 4.0)
    u1 = ev.HeatState(u=g * mode_function(1, a, x2g), t=0.0, norm_f=1.0)
    assert ev._mode1_remainder(pair, u1.u) < 2e-3

    u2 = ev.HeatState(u=g * mode_function(2, a, x2g), t=0.0, norm_f=1.0)
    nrm = math.sqrt(u2.u @ (pair.M @ u2.u))
    assert ev._mode1_remainder(pair, u2.u) == pytest.approx(nrm, rel=1e-2)


def test_mode1_dominance_rate(flat_small):
    m, pair = flat_small
    a = math.pi / 2
    x1g = pair.grid.restrict(m.x1[:, None])
    x2g = pair.grid.restrict(m.x2)
    g = np.exp(-(x1g**2) / 4.0)
    u0v = g * (mode_function(1, a, x2g) + mode_function(2, a, x2g))
    u0 = ev.HeatState(u=u0v, t=0.0, norm_f=1.0)
    tr = ev.evolve(pair, u0, [0.5, 1.0], dt=0.005)
    f1, f2 = tr.mode1_fraction
    # remainder fraction decays at least at the transverse gap rate
    gap = 3.0  # E2 - E1 = 4 - 1
    assert f2 <= f1 * math.exp(-gap * 0.5) * 1.2


def test_fit_decay_recovers_synthetic_law():
    t = np.linspace(2.0, 80.0, 200)
    lam, gam = 0.7, 0.4
    norm = np.exp(-lam * t) * (1 + t) ** (-gam)
    tr = ev.Trajectory(
        times=t,
        norm_f=norm,
        mode1_fraction=np.full_like(t, math.nan),
        shift=0.0,
    )
    fit = ev.fit_decay(tr, lam, (2.0, 80.0))
    assert fit.gamma_hat == pytest.approx(gam, abs=1e-9)
    assert fit.lambda_hat == pytest.approx(lam, abs=1e-9)
    # the law is exact, so both fits leave (almost) no residual
    assert max(fit.stderr_gamma, fit.stderr_lambda, fit.residual_norm) < 1e-8


def test_fit_decay_degenerate_window(flat_small):
    m, pair = flat_small
    u0 = ev.weighted_initial(pair, alpha=1.0)
    tr = ev.evolve(pair, u0, [0.0, 0.5, 1.0], dt=0.01)
    with pytest.raises(DegenerateFit):
        ev.fit_decay(tr, 1.0, (0.0, 1.0))
