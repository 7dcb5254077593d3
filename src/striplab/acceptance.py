"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion builds its own fixed configuration (grids, profiles, seeds are
frozen here) and returns a CriterionResult with a pass flag and a detail
string. The criteria run the pipelines the CLI runners run: the frame sweeps
of criteria 2 and 3 are ``spectral.frame_sweep``, the decay fits of criteria
4 and 5 ``evolution.decay_run`` and the weight of criterion 10
``spectral.hardy_weight``. Criterion 8 is the long Monte Carlo one and is
tagged slow.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import evolution as ev
from . import geometry as geo
from . import oracle
from . import spectral as sp
from . import stochastic as st

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _c1_oscillator():
    y = np.linspace(-20.0, 20.0, 2000)
    res = sp.lowest_eigenpairs(sp.harmonic_oscillator(False, y), k=4)
    target = np.array([0.25, 0.75, 1.25, 1.75])
    err_h = np.abs(res.eigenvalues - target).max()
    # the pinned problem decouples into two half-line copies, so its levels
    # are doubly degenerate; compare de-duplicated levels on a grid with a
    # node at the origin
    yd = np.linspace(-20.0, 20.0, 2001)
    resd = sp.lowest_eigenpairs(sp.harmonic_oscillator(True, yd), k=4)
    lev = []
    for v in resd.eigenvalues:
        if not lev or abs(v - lev[-1]) > 1e-3:
            lev.append(v)
    err_d = np.abs(np.array(lev[:2]) - np.array([0.75, 1.75])).max()
    ok = err_h <= 1e-4 and err_d <= 1e-4
    return ok, f"free-levels err {err_h:.2e}, pinned-levels err {err_d:.2e} (tol 1e-4)"


def _c2_flat_frames():
    a = math.pi / 2
    geom = geo.StripGeometry(a=a, L=20.0, n1=200, n2=32)
    m = geo.solve_jacobi(geo.zero_profile(), geom)
    sweep = sp.frame_sweep(m, [0.0, 1.0, 2.0, 4.0, 8.0], 16.0, 640)
    worst = max(abs(res.eigenvalues[0] - 0.25) for res in sweep)
    return worst <= 1e-3, f"max |nu0(s) - 1/4| = {worst:.2e} over s in {{0,1,2,4,8}} (tol 1e-3)"


def _negative_reference_metric(L=10.0, n1=160, n2=40):
    prof = geo.ruled_profile(0.35, 6.0)
    geom = geo.StripGeometry(a=0.5, L=L, n1=n1, n2=n2)
    return geo.ruled_strip(prof, geom)


def _c3_negative_frames():
    m = _negative_reference_metric()
    cert = sp.pick_hardy_interval(m)
    if cert.c_K <= 0:
        return False, f"hardy constant not positive: c_K = {cert.c_K:.3e}"
    sweep = sp.frame_sweep(m, [0.0, 2.0, 4.0, 8.0], 14.0, 1120)
    nus = np.array([res.eigenvalues[0] for res in sweep])
    mono = bool(np.all(np.diff(nus) >= -1e-9))
    dev = abs(nus[-1] - 0.75)
    ok = mono and dev <= 0.05
    return ok, (
        f"c_K = {cert.c_K:.3e} > 0; nu(s) = {np.round(nus, 4).tolist()} "
        f"monotone = {mono}, |nu(8) - 3/4| = {dev:.4f} (tol 0.05)"
    )


def _c4_flat_decay():
    a = math.pi / 2
    geom = geo.StripGeometry(a=a, L=60.0, n1=600, n2=48)
    m = geo.solve_jacobi(geo.zero_profile(), geom)
    _, fit, _ = ev.decay_run(m)
    e1_exact = oracle.transverse_energy(1, a)
    ok = abs(fit.gamma_hat - 0.25) <= 0.05 and abs(fit.lambda_hat - e1_exact) <= 0.01
    return ok, (
        f"gamma_hat = {fit.gamma_hat:.4f} (want 0.25 +- 0.05), "
        f"lambda_hat = {fit.lambda_hat:.5f} (want {e1_exact:.5f} +- 0.01)"
    )


def _c5_negative_decay():
    m = _negative_reference_metric(L=60.0, n1=900, n2=40)
    _, fit, _ = ev.decay_run(m)
    ok = abs(fit.gamma_hat - 0.75) <= 0.10
    return ok, f"gamma_hat = {fit.gamma_hat:.4f} (want 0.75 +- 0.10)"


def _c6_positive_gap():
    a = 1.0
    prof = geo.gaussian_bump(amplitude=0.45, width=2.0, support_radius=8.0)
    geom = geo.StripGeometry(a=a, L=30.0, n1=450, n2=30)
    m = geo.solve_jacobi(prof, geom)
    pair = sp.assemble_hk(m)
    e1 = oracle.transverse_energy(1, a)
    # quadrature value of the mode-curvature pairing (hypothesis check)
    K = prof.evaluate(m.x1[:, None], m.x2[None, :])
    j1 = oracle.mode_function(1, a, m.x2)
    w1 = np.full(m.x1.size, m.x1[1] - m.x1[0]); w1[[0, -1]] *= 0.5
    w2 = np.full(m.x2.size, m.x2[1] - m.x2[0]); w2[[0, -1]] *= 0.5
    pairing = float(np.sum(w1[:, None] * w2[None, :] * K * m.f * j1[None, :] ** 2))
    lam = sp.lowest_eigenpairs(pair, k=1).eigenvalues[0]
    gap = e1 - lam
    u0 = ev.weighted_initial(pair, alpha=1.0)
    t_grid = np.arange(0.0, 50.0 + 1e-9, 0.5)
    tr = ev.evolve(pair, u0, t_grid, dt=0.01, shift=lam)
    sel = (tr.times >= 5.0) & (tr.times <= 50.0)
    ratio = tr.norm_f[sel]
    dev = float(np.max(np.abs(ratio / np.median(ratio) - 1.0)))
    ok = pairing > 0 and gap > 0 and dev <= 0.02
    return ok, (
        f"pairing = {pairing:.3f} > 0, lambda_K = {lam:.5f} < E1 = {e1:.5f} "
        f"(gap {gap:.4f}), exponential-law deviation {dev:.4f} on [5,50] (tol 0.02)"
    )


def _c7_mc_vs_oracle():
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=30.0, n1=60, n2=16))
    sde = st.sde_from_metric(m)
    ens = st.simulate_killed(
        sde, (0.0, 0.0), t_max=1.0, dt=1e-3, n_paths=100_000, seed=20260809
    )
    est = st.survival_estimate(ens, None, 1.0)
    exact, tail = oracle.flat_survival((0.0, 0.0), None, 1.0, a)
    dev = abs(est.probability - exact)
    ok = dev <= 3.0 * est.half_width
    return ok, (
        f"MC {est.probability:.5f} +- {est.half_width:.5f} vs series {exact:.5f} "
        f"(tail bound {tail:.1e}); deviation = {dev / est.half_width:.2f} half-widths (tol 3)"
    )


def _mc_slope(metric, lattice, dt, seed, box):
    """Pointwise decay rate of the survival in ``box`` at the times of
    ``lattice``, from a million killed paths started at the origin."""
    ens = st.simulate_killed(
        st.sde_from_metric(metric), (0.0, 0.0), t_max=lattice[-1], dt=dt, n_paths=1_000_000,
        seed=seed, checkpoints=lattice,
    )
    return st.pointwise_rate([st.survival_estimate(ens, box, t) for t in lattice], 1.0)


def _c8_pointwise_exponents():
    a = math.pi / 2
    # flat side
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=40.0, n1=80, n2=16))
    flat_fit = _mc_slope(m, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 0.02, 77, ((-0.5, 0.5), (-a, a)))
    # certified negative side: strong rotation bump, window inside the
    # curved region where the accelerated decay is the measured signal
    prof = geo.ruled_profile(0.85, 8.0, plateau_fraction=0.75)
    mneg = geo.ruled_strip(prof, geo.StripGeometry(a=a, L=40.0, n1=400, n2=32))
    mu = sp.transverse_mu_profile(mneg, np.linspace(-8.0, 8.0, 33))
    certified = bool(mu.min() >= -1e-8 and mu.max() > 1e-3)
    neg_fit = _mc_slope(mneg, [5.0, 5.5, 6.0, 6.5, 7.0, 7.5], 0.005, 78, ((-4.0, 4.0), (-a, a)))
    ok = (
        abs(flat_fit.slope + 0.5) <= 0.1
        and certified
        and neg_fit.slope <= -1.2
    )
    return ok, (
        f"flat slope = {flat_fit.slope:.3f} +- {flat_fit.stderr:.3f} (want -0.5 +- 0.1); "
        f"negative slope = {neg_fit.slope:.3f} +- {neg_fit.stderr:.3f} (want <= -1.2, "
        f"transverse gap nonneg and nontrivial: {certified})"
    )


def _c9_jacobi_taylor():
    errs = []
    geom = geo.StripGeometry(a=0.7, L=5.0, n1=16, n2=24)
    for sign, ref in [(1.0, math.cos(0.5)), (-1.0, math.cosh(0.5))]:
        prof = geo.constant_on_box(sign, math.inf)
        m = geo.solve_jacobi(prof, geom)
        f, _ = m.sample([0.0], [0.5])
        errs.append(abs(f[0, 0] - ref))
    worst_closed = max(errs)

    # envelope containment on freshly certified metrics
    contained = True
    checks = [
        geo.solve_jacobi(
            geo.gaussian_bump(amplitude=0.3, width=2.0, support_radius=6.0),
            geo.StripGeometry(a=1.0, L=10.0, n1=100, n2=24),
        ),
        geo.ruled_strip(
            geo.ruled_profile(0.5, 4.0), geo.StripGeometry(a=0.6, L=8.0, n1=80, n2=24)
        ),
    ]
    for m in checks:
        lo = m.envelope_lower[:, None] - 1e-9
        hi = m.envelope_upper[:, None] + 1e-9
        contained &= bool(np.all(m.f >= lo) and np.all(m.f <= hi))
    ok = worst_closed <= 1e-6 and contained
    return ok, (
        f"closed-form error {worst_closed:.2e} (tol 1e-6); envelopes contained: {contained}"
    )


def _c10_hardy_suite():
    m = _negative_reference_metric(L=12.0, n1=192, n2=40)
    cert = sp.pick_hardy_interval(m)
    margin = sp.hardy_verify(m, sp.hardy_weight(m, cert), trials=100, seed=4242)

    a = math.pi / 2
    mf = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=a, L=40.0, n1=320, n2=24)
    )
    V = -0.15 * np.exp(-mf.x1[:, None] ** 2 / 4.0) * np.ones_like(mf.x2)[None, :]
    lam = sp.perturbed_threshold(mf, V)
    e1 = oracle.transverse_energy(1, a)
    ok = cert.c_K > 0 and margin >= -1e-6 and lam < e1
    return ok, (
        f"c_K = {cert.c_K:.3e} > 0, margin = {margin:.3e} (tol -1e-6); "
        f"flat perturbed threshold {lam:.5f} < E1 = {e1:.5f}"
    )


CRITERIA = [
    (1, "harmonic-oscillator spectrum", _c1_oscillator, False),
    (2, "flat self-similar invariance", _c2_flat_frames, False),
    (3, "negative-curvature frame limit", _c3_negative_frames, False),
    (4, "flat weighted decay", _c4_flat_decay, False),
    (5, "negative-curvature decay", _c5_negative_decay, False),
    (6, "positive-curvature gap", _c6_positive_gap, False),
    (7, "monte carlo vs closed form", _c7_mc_vs_oracle, False),
    (8, "pointwise exponents", _c8_pointwise_exponents, True),
    (9, "jacobi/taylor certification", _c9_jacobi_taylor, False),
    (10, "hardy suite", _c10_hardy_suite, False),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn, _slow in CRITERIA:
        if num == number:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(
                number=num,
                name=name,
                passed=bool(passed),
                detail=detail,
                seconds=time.perf_counter() - t0,
            )
    raise ValueError(f"no criterion {number}")


def run_all(include_slow: bool = True):
    results = []
    for num, name, fn, slow in CRITERIA:
        if slow and not include_slow:
            continue
        results.append(run_criterion(num))
    return results
