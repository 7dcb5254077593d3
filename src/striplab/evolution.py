"""Dirichlet heat semigroup in the weighted space: stepping, norms, fits.

Evolution runs on the (optionally spectrally shifted) stiffness/mass pair
with the trapezoidal one-step scheme, which is unconditionally stable and
second order in the step. Long runs are always shifted by the discrete
transverse ground energy: the unshifted semigroup decays through hundreds of
e-foldings over the fit windows used here and would underflow.

The implicit matrix M + dt/2 (S - shift M), symmetric positive definite for
the shifts and steps used here, is factored once per run as a banded
Cholesky, and every step is one banded solve. Its CSR data is formed on the
pair's own stencil structure and written into the band through the layout
cached with it (``spectral.core.banded_cholesky``): nodes are numbered
x1-major, so the band spans one transverse column of kept nodes plus one.

``decay_run`` on a flat metric builds no 2-D pair and forms no 2-D nodal
array. On a Dirichlet flat strip the step is diagonal in the product of the
two closed-form sine bases of the interior 1-D stencils, so the state stays
in that basis: the mode datum is a product of an x1 and an x2 profile, so
its coefficients are the outer product of their two 1-D sine transforms,
normalised with the lumped mass of M1 (x) M2; each checkpoint multiplies
them by a power of the step's amplification factors and reads both recorded
norms off them, and nodal values, two fast sine transforms, are formed only
when the final state is read. This separable propagator runs through
``evolve``'s own checkpoint loop and checks, costs per checkpoint, not per
step, agrees with ``evolve`` on ``assemble_hk``'s pair to round-off, and
loads no scipy: the banded propagator imports its solver where it factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import numpy.fft  # numpy loads it lazily, on the first np.fft lookup

from .errors import BadCheckpoint, DegenerateFit, LinearSolveFailure, NotInWeightedSpace
from .oracle import mode_function
from .spectral import assemble_hk, flat_transverse_ground
from .spectral.core import (
    OperatorPair,
    _lumped_rows,
    _sine_factors,
    banded_cholesky,
)

__all__ = [
    "HeatState",
    "Trajectory",
    "DecayFit",
    "weighted_initial",
    "evolve",
    "fit_decay",
    "decay_run",
]


@dataclass(eq=False)
class HeatState:
    u: np.ndarray          # values on unmasked nodes
    t: float
    norm_f: float


@dataclass(eq=False)
class Trajectory:
    """Norms and mode-1 fractions at the checkpoints, the kept states, and
    ``final``, the state at the last checkpoint (None without one), which
    ``_final`` forms on its first read: on a flat decay run its nodal
    values cost a 2-D sine transform, and a decay fit never reads them."""
    times: np.ndarray
    norm_f: np.ndarray
    mode1_fraction: np.ndarray
    shift: float           # evolved generator is (S - shift M); norms are of
                           # the gauged variable exp(shift t) u(t)
    states: list = field(default_factory=list)
    _final: Callable[[], HeatState | None] = field(default=lambda: None, repr=False)

    @cached_property
    def final(self) -> HeatState | None:
        return self._final()


def _norm_f(pair: OperatorPair, u: np.ndarray) -> float:
    return float(math.sqrt(max(u @ (pair.M @ u), 0.0)))


def weighted_initial(pair: OperatorPair, alpha: float = 1.0) -> HeatState:
    """Mode datum at t = 0 on the pair's kept nodes: w^-alpha times the first
    transverse mode, divided once by its Gaussian-weighted norm (requires
    alpha > 1/2, else ``NotInWeightedSpace``). The state carries the plain
    norm of the datum.
    """
    grid = pair.grid
    x1g = grid.restrict(grid.x1[:, None])
    x2g = grid.restrict(grid.x2)
    lumped = np.asarray(pair.M.sum(axis=1)).ravel()
    g, j1, norm = _mode_datum(
        alpha, float(grid.x2[-1]), x1g, x2g, lambda w1, w2: lumped @ (w1 * w2)
    )
    u = g * j1 / norm
    return HeatState(u=u, t=0.0, norm_f=_norm_f(pair, u))


def _mode_datum(alpha: float, a: float, x1, x2, quadrature):
    """Factors (g, j1, norm) of the mode datum g j1 / norm: g = w^-alpha =
    exp(-alpha x1^2/4) at ``x1``, j1 the first transverse mode of the section
    of half-width ``a`` at ``x2``, and norm the datum's Gaussian-weighted
    norm, sqrt(quadrature(w1, w2)), where ``quadrature`` sums the lumped mass
    times w1(x1) w2(x2) for w1 = exp((1 - 2 alpha) x1^2/4) and w2 = j1^2;
    ``NotInWeightedSpace`` unless alpha > 1/2, before anything is computed."""
    if not alpha > 0.5:  # NaN included
        raise NotInWeightedSpace(
            f"alpha = {alpha} is not above 1/2: datum not in the Gaussian-weighted space"
        )
    # (1 - 2 alpha) x1^2/4 <= 0
    j1 = mode_function(1, a, x2)
    norm = math.sqrt(float(quadrature(np.exp((1.0 - 2.0 * alpha) * x1**2 / 4.0), j1**2)))
    return np.exp(-alpha * x1**2 / 4.0), j1, norm


def _not_positive_definite(detail) -> LinearSolveFailure:
    return LinearSolveFailure(f"implicit step matrix is not positive definite: {detail}")


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("implicit step produced non-finite values")


def _dst(X):
    """X S along the last axis for the sine matrix S: -1/2 Im FFT of the odd
    extension."""
    zero = np.zeros((*X.shape[:-1], 1))
    odd = np.concatenate([zero, X, zero, -X[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd).imag[..., 1:-1]


def _sine_transform(X):
    """S1 X S2 for the sine matrices S: ``_dst`` along each axis."""
    return _dst(_dst(X).T).T


def _product_coefficients(factors, g: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Coefficients C of the product state g(x1) j(x2) = vec(P1 C P2^T) in the
    M-orthonormal eigenvectors P = S diag(d) of the 1-D pairs: as M P =
    P diag(m), C = P1^T M1 (g j^T) M2 P2 = diag(d1 m1) (S1 g)(S2 j)^T diag(d2 m2),
    the outer product of one 1-D sine transform per factor."""
    (_, m1, d1), (_, m2, d2) = factors
    return np.outer(d1 * m1 * _dst(g), d2 * m2 * _dst(j))


def _coefficient_norms(C: np.ndarray):
    """The M-norm of the state of coefficients C, its Frobenius norm since P is
    M-orthonormal, and its mode-1 remainder (``_mode1_remainder``): on an
    axis-symmetric cross-section the sampled first mode is the first
    transverse sine vector, so the remainder drops the first column of C."""
    rem2 = float(np.einsum("ij,ij->", C[:, 1:], C[:, 1:]))
    return math.sqrt(float(C[:, 0] @ C[:, 0]) + rem2), math.sqrt(rem2)


def _power(r: np.ndarray, gap: int) -> np.ndarray:
    """r**gap as |r|**gap with the sign of r restored when gap is odd: equal in
    real arithmetic, within about 1 ulp in floating point, and much faster
    on negative bases."""
    p = np.abs(r) ** gap
    return np.copysign(p, r, out=p) if gap % 2 else p


def _separable_propagator(factors, C: np.ndarray, dt: float, shift: float):
    """Map taking the trapezoidal scheme ``gap`` steps further, for a
    Kronecker-sum pair, from the start state of coefficients C
    (``_product_coefficients``) to the new state's norm, its mode-1 remainder
    and a function forming its nodal values.

    One step multiplies the coefficients entrywise by
    r = (1 - dt/2 l) / (1 + dt/2 l), l = l1_i + l2_j - shift; ``gap`` steps
    by its power (``_power``).
    """
    (l1, _, d1), (l2, _, d2) = factors
    lam = l1[:, None] + l2[None, :] - shift
    plus = 1.0 + 0.5 * dt * lam
    if not plus.min() > 0.0:
        raise _not_positive_definite(f"its smallest eigenvalue factor is {plus.min():.3e}")
    r = (1.0 - 0.5 * dt * lam) / plus
    last_gap, r_gap = 0, None

    def advance(gap: int):
        nonlocal C, last_gap, r_gap
        if gap:
            if gap != last_gap:
                last_gap, r_gap = gap, _power(r, gap)
            C = C * r_gap
        norm, rem = _coefficient_norms(C)
        _require_finite(norm)  # a NaN or inf anywhere in C makes its sum of squares one
        return norm, rem, lambda C=C: _sine_transform(d1[:, None] * C * d2).ravel()

    return advance


def _banded_propagator(pair: OperatorPair, u0: np.ndarray, dt: float, shift: float):
    """Map taking the trapezoidal scheme ``gap`` steps further by banded
    Cholesky solves, to the new state's norm, its mode-1 remainder
    (``_mode1_remainder``) and a function returning its nodal values."""
    from scipy.linalg import LinAlgError, cho_solve_banded

    # dt/2 (S - shift M) and M -+ it on the pair's structure, as scipy.sparse
    # would form them
    half_step = pair.shifted(shift)
    half_step *= 0.5 * dt
    try:
        factor = banded_cholesky(pair.M.data + half_step, pair.grid)
    except LinAlgError as exc:
        raise _not_positive_definite(exc) from exc
    A_minus = pair.on_structure(np.subtract(pair.M.data, half_step, out=half_step))
    u = u0.copy()

    def advance(gap: int):
        nonlocal u
        for _ in range(gap):
            u = cho_solve_banded((factor, False), A_minus @ u, check_finite=False)
        _require_finite(u)
        return _norm_f(pair, u), _mode1_remainder(pair, u), lambda u=u: u

    return advance


def evolve(
    pair: OperatorPair,
    u0: HeatState,
    t_grid,
    dt: float,
    shift: float = 0.0,
    keep_states: bool = False,
) -> Trajectory:
    """Trapezoidal evolution of the pair, recording at the checkpoints the
    norm and the fraction of it off the first transverse mode.

    Checkpoints snap to whole multiples of ``dt`` after ``u0.t``; checkpoint
    k steps after the start is recorded at time ``u0.t + k dt``. A checkpoint
    before ``u0.t``, or two that snap to the same step, raise
    ``BadCheckpoint``, as does one not finite or over 2**53 steps away; a
    ``dt`` not positive and finite raises ``ValueError``. With ``shift``
    nonzero the gauged variable exp(shift t) u(t) is evolved and recorded.

    The implicit matrix M + dt/2 (S - shift M) is factored once as a banded
    Cholesky and every step is one banded solve (see the module docstring).
    ``LinearSolveFailure`` is raised when that matrix is not symmetric
    positive definite, and when a checkpoint holds non-finite values.
    """
    return _checkpoint_loop(
        lambda: _banded_propagator(pair, u0.u, dt, shift), u0.t, t_grid, dt, shift, keep_states
    )


def _checkpoint_loop(start, t0, t_grid, dt: float, shift: float, keep_states: bool) -> Trajectory:
    """``evolve``'s checks of ``dt`` and of the checkpoints after ``t0``, then
    its recording loop over the advance map that ``start()`` returns (a
    propagator's, built only once the checks pass)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    t0 = float(t0)
    t_grid = np.asarray(sorted(set(float(tk) for tk in t_grid)))
    steps = (t_grid - t0) / dt
    if not (np.abs(steps) <= 2.0**53).all():  # NaN, inf, or past exact integer steps
        raise BadCheckpoint(f"checkpoints {t_grid} are not all within 2**53 steps of t = {t0}")
    if t_grid.size and t_grid[0] < t0 - 1e-12:
        raise BadCheckpoint(f"checkpoint t = {t_grid[0]} lies before the start t = {t0}")
    targets = np.rint(steps).astype(int)
    dup = np.flatnonzero(np.diff(targets) == 0)
    if dup.size:
        i = dup[0]
        raise BadCheckpoint(
            f"checkpoints t = {t_grid[i]} and {t_grid[i + 1]} snap to the same "
            f"step of dt = {dt}"
        )
    advance = start()

    times, nf, m1 = [], [], []
    states = []
    nodal = None
    for k, gap in zip(targets.tolist(), np.diff(targets, prepend=0).tolist()):
        norm, rem, nodal = advance(gap)
        times.append(t0 + k * dt)
        nf.append(norm)
        m1.append(rem / norm if norm > 0 else 0.0)
        if keep_states:
            states.append(HeatState(u=nodal(), t=times[-1], norm_f=norm))

    def final():
        if not times:
            return None
        return states[-1] if keep_states else HeatState(u=nodal(), t=times[-1], norm_f=nf[-1])

    return Trajectory(
        times=np.asarray(times),
        norm_f=np.asarray(nf),
        mode1_fraction=np.asarray(m1),
        shift=shift,
        states=states,
        _final=final,
    )


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    gamma_hat: float
    stderr_lambda: float
    stderr_gamma: float
    window: tuple
    residual_norm: float


def _slope(X: np.ndarray, y: np.ndarray):
    """Least squares of y on the columns of X: minus the coefficient of column
    1, its standard error and the residual sum of squares."""
    coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
    rss = float(res[0]) if res.size else float(((X @ coef - y) ** 2).sum())
    cov = rss / max(len(y) - X.shape[1], 1) * np.linalg.inv(X.T @ X)
    return -coef[1], math.sqrt(cov[1, 1]), rss


def fit_decay(trajectory: Trajectory, E1: float, window: tuple) -> DecayFit:
    """Polynomial exponent and exponential rate from the norm trajectory.

    The constrained regression removes the reference exponential at rate
    ``E1`` and reads the slope against log(1+t); the unconstrained fit keeps
    both the exponential rate and the polynomial exponent free.
    """
    t0, t1 = window
    tt = trajectory.times
    sel = (tt >= t0) & (tt <= t1) & (trajectory.norm_f > 0)
    if sel.sum() < 8:
        raise DegenerateFit(f"only {int(sel.sum())} samples inside the window")
    t = tt[sel]
    # stored norms carry the gauge exp(shift t); undo it against E1
    y = np.log(trajectory.norm_f[sel]) + (E1 - trajectory.shift) * t
    lt = np.log1p(t)

    gamma_hat, stderr_gamma, rss = _slope(np.column_stack([np.ones_like(lt), lt]), y)
    # unconstrained: log|u| = c - lambda t - gamma log(1+t)
    z = np.log(trajectory.norm_f[sel]) - trajectory.shift * t
    lambda_hat, stderr_lambda, _ = _slope(np.column_stack([np.ones_like(t), t, lt]), z)
    return DecayFit(
        lambda_hat=float(lambda_hat),
        gamma_hat=float(gamma_hat),
        stderr_lambda=float(stderr_lambda),
        stderr_gamma=float(stderr_gamma),
        window=(float(t0), float(t1)),
        residual_norm=math.sqrt(rss),
    )


def decay_run(metric, alpha=1.0, t_end=100.0, checkpoint_step=0.5, window=None, dt=None):
    """``(trajectory, fit, E1h)`` of the mode datum of decay ``alpha`` on the
    metric's default grid (``make_grid``), evolved in the gauge of E1h =
    ``flat_transverse_ground(metric.x2)`` to checkpoints every positive and
    finite ``checkpoint_step`` (else ``BadCheckpoint``) up to ``t_end`` and
    fitted on ``window``, by default (5, min(100, t_end)). ``dt`` defaults to
    the largest step at most min(0.01, window length / 2000) that divides
    ``checkpoint_step``, so every checkpoint lands on its lattice point. A
    ``t_end`` not positive and finite, and a window whose low end is not
    below its high end, raise ``ValueError`` before anything is assembled.

    A flat metric on a cross-section symmetric about the axis is run from
    the 1-D stencils in the sine basis (``_sine_factors``), with no 2-D pair
    built or checked and no 2-D nodal array formed unless
    ``trajectory.final`` is read; any other metric is assembled
    (``assemble_hk``) and evolved with ``evolve``. Both take the same checks
    and agree to round-off."""
    if not 0 < checkpoint_step < math.inf:
        raise BadCheckpoint(f"checkpoint_step must be positive and finite, not {checkpoint_step}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, not {t_end}")
    window = (5.0, min(100.0, t_end)) if window is None else window
    if not window[0] < window[1]:
        raise ValueError(f"fit window {tuple(window)} does not have its low end below its high end")
    if dt is None:
        dt = min(0.01, (window[1] - window[0]) / 2000.0)
        dt = checkpoint_step / math.ceil(checkpoint_step / dt)
    t_grid = np.arange(0.0, t_end + 1e-9, checkpoint_step)
    sine = _sine_factors(metric.x1, metric.x2) if metric.flat else None
    if sine is None:
        e1h = flat_transverse_ground(metric.x2)
        pair = assemble_hk(metric)
        u0 = weighted_initial(pair, alpha)
        trajectory = evolve(pair, u0, t_grid, dt=dt, shift=e1h)
    else:
        # the flat pair's interior nodes are a full (n1 - 1) x (n2 - 1) block,
        # and the lumped mass of M1 (x) M2 the outer product of the 1-D ones,
        # so its quadrature of a product w1(x1) w2(x2) is a product of 1-D sums
        ((_, m1), (_, m2)), factors = sine
        e1h = float(factors[1][0][0])  # flat_transverse_ground(metric.x2), bit for bit
        x1, x2 = metric.x1[1:-1], metric.x2[1:-1]
        l1, l2 = _lumped_rows(m1, x1.size), _lumped_rows(m2, x2.size)
        g, j1, norm = _mode_datum(
            alpha, float(metric.x2[-1]), x1, x2, lambda w1, w2: (l1 @ w1) * (l2 @ w2)
        )
        C0 = _product_coefficients(factors, g, j1) / norm
        trajectory = _checkpoint_loop(
            lambda: _separable_propagator(factors, C0, dt, e1h), 0.0, t_grid, dt, e1h, False
        )
    return trajectory, fit_decay(trajectory, e1h, window), e1h


def _mode1_remainder(pair: OperatorPair, u: np.ndarray) -> float:
    """Weighted norm of the kept-node state ``u`` minus its transverse-mode-1
    projection, column by column."""
    x2 = pair.grid.x2
    h2 = x2[1] - x2[0]
    j1 = mode_function(1, float(x2[-1]), x2)
    w2 = np.full(x2.size, h2)
    w2[0] = w2[-1] = h2 / 2.0
    U = pair.grid.extend(u)
    phi = (U * (w2 * j1)[None, :]).sum(axis=1)
    R = U - phi[:, None] * j1[None, :]
    return _norm_f(pair, pair.grid.restrict(R))
