"""Transverse gaps, Hardy constants and the perturbed threshold.

The quantities here certify (or falsify) the positivity of the shifted
operator: the column-wise transverse gap mu, the explicit Hardy constants
of the weighted strip, the thin-strip lower bound, randomized verification
of the operator inequality, and the lowest eigenvalue under an attractive
potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import HypothesisFailed
from ..geometry import MetricField, smooth_cutoff
from ..oracle import mode_function, transverse_energy
from .core import (
    OperatorPair,
    _lowest_eigenvalues,
    element_matrices_1d,
    gauss_points_1d,
)
from .operators import (
    _half_nodes,
    _nodal_field,
    assemble_hk,
    assemble_potential,
    flat_transverse_ground,
)
from .solve import lowest_eigenpairs

__all__ = [
    "transverse_mu_profile",
    "HardyConstants",
    "hardy_constant",
    "pick_hardy_interval",
    "thin_strip_bound",
    "thin_strip_constant",
    "hardy_weight",
    "hardy_verify",
    "perturbed_threshold",
]

# a transverse gap within this distance of zero counts as zero
_MU_TOL = 1e-8
# cells of the longitudinal grid on which the Hardy constants are computed
_HARDY_CELLS = 96


def transverse_mu_profile(metric: MetricField, x1) -> np.ndarray:
    """Column-wise lowest transverse eigenvalue minus the flat reference.

    The reference is ``flat_transverse_ground`` on the metric's cross-section
    grid, exact to round-off, so a flat column gives the batched pencil
    solve's own round-off (6.4e-13 on a box profile); only a metric that is
    flat everywhere returns exact zeros.

    Each column's ground state is even in x2, so its eigenvalue is that of
    the half cross-section (``_half_nodes``, which raises ``GeometryInvalid``
    for an odd n2 or a metric not even in x2), free on the axis and Dirichlet
    at the wall. The metric is sampled once for all columns and their
    element matrices are formed in one stack; ``core._lowest_eigenvalues``
    solves the dense pencils a batch of bounded size at a time, so a long
    column list takes no more pencil memory than a short one.
    """
    x1 = np.atleast_1d(np.asarray(x1, float))
    x2 = _half_nodes(metric)
    if metric.flat:
        return np.zeros(x1.size)
    g2 = gauss_points_1d(x2)
    e1h = flat_transverse_ground(metric.x2)
    f, _ = metric.sample(x1, g2.ravel())
    f = f.reshape(x1.size, *g2.shape)
    S = element_matrices_1d(x2, [("dd", f)])
    M = element_matrices_1d(x2, [("mass", f)])
    return _lowest_eigenvalues(S, M, wall=True) - e1h


@dataclass(frozen=True)
class HardyConstants:
    c: float
    C: float
    lambda_J: float
    c_K: float
    J: tuple


def hardy_constant(metric: MetricField, J: tuple, mu_global: np.ndarray):
    """Explicit Hardy constants (c, C, lambda_J, c_K) for the interval J, given
    the caller's ``mu_global`` = transverse_mu_profile(metric, metric.x1).

    c and C come from the classical strip inequality rewritten with the
    metric bounds; lambda_J is the lowest eigenvalue of the free-ends
    longitudinal operator with the transverse gap as potential, taken as the
    minimum over transverse slices (the form carries no transverse coupling).
    The metric is even in x2, so the slices at the levels x2 >= 0 of
    ``_half_nodes`` give that minimum; ``GeometryInvalid`` is raised for an
    odd n2 or a metric not even in x2. The slices' dense pencils, like the
    transverse gaps', are solved a batch of bounded size at a time
    (``core._lowest_eigenvalues``).
    """
    j0, j1 = float(J[0]), float(J[1])
    if not j1 > j0:
        raise ValueError("J must be a nondegenerate interval")
    q = float(metric.profile.sup_norm * float(metric.x2[-1]) ** 2)  # sup|K| a^2
    if q >= 0.5:
        raise HypothesisFailed(
            f"explicit constants require sup|K| a^2 < 1/2 (got {q:.3g}); "
            "certify such strips through the transverse gap and the "
            "randomized margin instead"
        )

    nodes = np.linspace(j0, j1, _HARDY_CELLS + 1)
    gcols = gauss_points_1d(nodes)
    mu_cols = transverse_mu_profile(metric, gcols.ravel())
    if mu_cols.min() < -_MU_TOL:
        raise HypothesisFailed(
            f"transverse gap dips to {mu_cols.min():.3e} on J; hypothesis fails"
        )
    if mu_cols.max() <= _MU_TOL:
        raise HypothesisFailed("transverse gap is trivial on J")
    # global nonnegativity on the computed grid (the operator bound is global)
    if mu_global.min() < -_MU_TOL:
        raise HypothesisFailed(
            f"transverse gap negative ({mu_global.min():.3e}) outside J"
        )

    c = (1.0 - q) / 16.0
    C = (1.0 / 8.0 + 4.0 / (j1 - j0) ** 2) / (1.0 - (q / (1.0 - q)) ** 2)

    # lowest eigenvalue of the free-ends slice operator of every transverse
    # level x2 >= 0: f is sampled once and the element matrices of every
    # slice are formed in one stack
    mu_g = mu_cols.reshape(gcols.shape)
    levels = _half_nodes(metric)
    f, _ = metric.sample(gcols.ravel(), levels)
    f = f.T.reshape(levels.size, *gcols.shape)
    S = element_matrices_1d(nodes, [("dd", 1.0 / f), ("mass", mu_g * f)])
    M = element_matrices_1d(nodes, [("mass", f)])
    lam = float(_lowest_eigenvalues(S, M, wall=False).min())
    c_K = c * lam / (lam + C)
    return HardyConstants(c=float(c), C=float(C), lambda_J=lam, c_K=float(c_K), J=(j0, j1))


def pick_hardy_interval(metric: MetricField):
    """Choose the positivity island of the transverse gap maximizing lambda_J."""
    mu = transverse_mu_profile(metric, metric.x1)
    pos = mu > _MU_TOL
    if not pos.any():
        raise HypothesisFailed("transverse gap has no positivity island")
    edges = np.flatnonzero(np.diff(pos.astype(int)))
    starts = [0] if pos[0] else []
    starts += [int(i) + 1 for i in edges if not pos[i] and pos[i + 1]]
    ends = [int(i) for i in edges if pos[i] and not pos[i + 1]]
    if pos[-1]:
        ends.append(pos.size - 1)
    best = None
    for s, e in zip(starts, ends):
        if e <= s:
            continue
        J = (float(metric.x1[s]), float(metric.x1[e]))
        try:
            hc = hardy_constant(metric, J, mu)
        except HypothesisFailed:
            continue
        if best is None or hc.lambda_J > best.lambda_J:
            best = hc
    if best is None:
        raise HypothesisFailed("no usable positivity island")
    return best


def thin_strip_constant(xi: float) -> float:
    """The width-correction constant of the thin-strip lower bound.

    With r = xi^2 / (1 - xi^2) it is xi^2 (1 + r)^2 / (4 (1 - r)^2), defined
    for r < 1, that is xi^2 < 1/2; any other ``xi``, NaN included, raises
    ValueError naming it.
    """
    if not xi**2 < 0.5:
        raise ValueError(f"the thin-strip constant needs xi^2 < 1/2, got xi = {xi}")
    r = xi**2 / (1.0 - xi**2)
    return 0.25 * xi**2 * (1.0 + r) ** 2 / (1.0 - r) ** 2


def thin_strip_bound(profile, a: float, x1) -> np.ndarray:
    """Pointwise lower-bound field -k/2 - C(xi) 1_[-R,R] for the transverse gap
    at the columns ``x1``, with xi = sup|K| a^2.
    """
    x1 = np.asarray(x1, float)
    xi = profile.sup_norm * a**2
    cxi = thin_strip_constant(xi)
    if math.isfinite(profile.support_radius):
        inside = np.abs(x1) <= profile.support_radius
    else:
        inside = np.ones_like(x1, dtype=bool)
    return -0.5 * profile.axis_infimum(x1) - cxi * inside


def _trial_vectors(grid, a: float, trials: int, seed: int):
    """Deterministic compactly supported trial family on the full grid,
    yielded one nodal array of the grid's shape at a time.

    Mixes three shapes: pure first-mode envelopes (including the widest one,
    the canonical near-critical witness), mode-mixed envelopes, and mildly
    rough ones. Everything is reproducible from the seed alone.
    """
    rng = np.random.default_rng(seed)
    x1, x2 = grid.x1, grid.x2
    L = float(x1[-1])
    cut = smooth_cutoff(x1, 0.8 * L, 0.98 * L)
    for i in range(trials):
        if i % 6 == 0:
            c, w = 0.0, 0.5 * L  # widest pure witness
        else:
            c = rng.uniform(-0.5 * L, 0.5 * L)
            w = math.exp(rng.uniform(math.log(0.4), math.log(0.5 * L)))
        env = np.exp(-(((x1 - c) / w) ** 2)) * cut
        tr = mode_function(1, a, x2)
        if i % 3 == 1:
            tr = tr + 0.4 * rng.standard_normal() * mode_function(2, a, x2)
            tr = tr + 0.25 * rng.standard_normal() * mode_function(3, a, x2)
        psi = env[:, None] * tr[None, :]
        if i % 3 == 2:
            bubble = (a**2 - x2**2) / a**2
            psi = psi + 0.05 * rng.standard_normal(psi.shape) * env[:, None] * bubble[None, :]
        yield psi


def hardy_weight(metric: MetricField, cert: HardyConstants) -> np.ndarray:
    """Nodal candidate weight c_K / (1 + (x1 - x10)^2) on the metric's grid,
    with c_K and the midpoint x10 of J from the certificate ``cert``: the
    weight ``hardy_verify`` is run on."""
    x10 = 0.5 * (cert.J[0] + cert.J[1])
    return (cert.c_K / (1.0 + (metric.x1 - x10) ** 2))[:, None] * np.ones_like(metric.x2)[None, :]


def hardy_verify(metric: MetricField, rho: np.ndarray, trials: int, seed: int) -> float:
    """Minimum randomized margin of  S - E1 M - M_rho  over ``trials`` trial
    vectors, with (S, M) = ``assemble_hk(metric)`` on the metric's own grid,
    E1 the exact transverse ground energy ``oracle.transverse_energy(1, a)``
    and ``rho`` the nodal candidate weight on that grid.

    A negative return is a valid falsification, not an error. The trial
    family mixes narrow, wide and mildly rough compactly supported shapes.
    ``ValueError`` is raised, before assembly, for fewer than one trial, a
    negative ``seed``, and a weight that ``_nodal_field`` refuses or that is negative.
    """
    if trials < 1:
        raise ValueError(f"hardy_verify needs at least one trial, not trials = {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    rho = _nodal_field(metric, rho, "the candidate weight")
    if rho.min() < 0:
        raise ValueError("the candidate weight must be nonnegative")
    pair = assemble_hk(metric)
    grid = pair.grid
    M_rho = assemble_potential(metric, grid, rho)
    a = float(grid.x2[-1])
    e1 = transverse_energy(1, a)
    margins = np.empty(trials)
    for i, psi in enumerate(_trial_vectors(grid, a, trials, seed)):
        v = grid.restrict(psi)
        denom = float(v @ (pair.M @ v))
        margins[i] = (float(v @ (pair.S @ v)) - e1 * denom - float(v @ (M_rho @ v))) / denom
    return float(margins.min())


def perturbed_threshold(metric: MetricField, v_nodal: np.ndarray) -> float:
    """Lowest eigenvalue of ``assemble_hk(metric)``, on the metric's own grid,
    with the attractive potential of nodal values ``v_nodal`` (nonpositive and
    accepted by ``_nodal_field``, else ``ValueError`` before assembly) added to
    its stiffness matrix."""
    v_nodal = _nodal_field(metric, v_nodal, "the perturbation")
    if v_nodal.max() > 0:
        raise ValueError("perturbation must be nonpositive")
    pair = assemble_hk(metric)
    M_v = assemble_potential(metric, pair.grid, v_nodal)
    perturbed = OperatorPair(S=pair.on_structure(pair.S.data + M_v.data), M=pair.M, grid=pair.grid)
    res = lowest_eigenpairs(perturbed, k=1)
    return float(res.eigenvalues[0])
