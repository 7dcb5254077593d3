"""Dirichlet heat semigroup in the weighted space: stepping, norms, fits.

Evolution runs on the (optionally spectrally shifted) stiffness/mass pair
with the trapezoidal one-step scheme, which is unconditionally stable and
second order in the step. Long runs are always shifted by the discrete
transverse ground energy: the unshifted semigroup decays through hundreds of
e-foldings over the fit windows used here and would underflow.

The implicit matrix M + dt/2 (S - shift M) is symmetric positive definite for
the shifts and steps used here, so it is factored once per run as a banded
Cholesky. Its band is read off the matrix: nodes are numbered x1-major, so
it spans one transverse column of kept nodes plus one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded

from .errors import BadCheckpoint, DegenerateFit, LinearSolveFailure, NotInWeightedSpace
from .oracle import mode_function
from .spectral.core import OperatorPair, banded_cholesky

__all__ = [
    "HeatState",
    "Trajectory",
    "DecayFit",
    "Mode1Projection",
    "weighted_initial",
    "evolve",
    "fit_decay",
    "project_mode1",
    "seminorm_decay_bound",
    "SeminormPrediction",
]


@dataclass(eq=False)
class HeatState:
    u: np.ndarray          # values on unmasked nodes
    t: float
    norm_f: float
    norm_wf: float         # may be inf when the Gaussian-weighted norm diverges


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    norm_f: np.ndarray
    norm_wf: np.ndarray
    mode1_fraction: np.ndarray
    shift: float           # evolved generator is (S - shift M); norms are of
                           # the gauged variable exp(shift t) u(t)
    final: HeatState
    states: list = field(default_factory=list)


def _log_weighted_norm_sq(pair: OperatorPair, u: np.ndarray) -> float:
    """Gaussian-weighted squared norm by lumped quadrature, in log space.

    Products are formed as exp(log w + 2 log|u| + log weight) so the huge
    weight values at the far ends never meet the tiny state values directly.
    """
    grid = pair.grid
    lw = grid.lumped_weights
    x1 = np.repeat(grid.x1, grid.x2.size)[pair.kept]
    nz = u != 0.0
    if not nz.any():
        return -math.inf
    logs = (
        np.log(lw[nz])
        + x1[nz] ** 2 / 4.0
        + 2.0 * np.log(np.abs(u[nz]))
    )
    m = logs.max()
    if not math.isfinite(m):
        return math.inf
    return float(m + math.log(np.exp(logs - m).sum()))


def _norms(pair: OperatorPair, u: np.ndarray, t: float) -> HeatState:
    nf = float(math.sqrt(max(u @ (pair.M @ u), 0.0)))
    lw2 = _log_weighted_norm_sq(pair, u)
    nwf = math.inf if lw2 == math.inf else math.exp(0.5 * lw2)
    return HeatState(u=u, t=t, norm_f=nf, norm_wf=nwf)


def weighted_initial(pair: OperatorPair, kind: str, alpha: float = 1.0, box=None) -> HeatState:
    """Initial datum at t = 0.

    kind 'mode': w^-alpha times the first transverse mode, normalized in the
    Gaussian-weighted norm (requires alpha > 1/2); 'indicator': nodal
    indicator of a rectangle; 'delta': nodal spike at the box midpoint,
    normalized in the plain weighted norm.
    """
    grid = pair.grid
    x1g = np.repeat(grid.x1, grid.x2.size)[pair.kept]
    x2g = np.tile(grid.x2, grid.x1.size)[pair.kept]
    a = float(grid.x2[-1])
    if kind == "mode":
        if alpha <= 0.5:
            raise NotInWeightedSpace(
                f"alpha = {alpha} <= 1/2: datum not in the Gaussian-weighted space"
            )
        u = np.exp(-alpha * x1g**2 / 4.0) * mode_function(1, a, x2g)
        state = _norms(pair, u, 0.0)
        u = u / state.norm_wf
        return _norms(pair, u, 0.0)
    if kind in ("indicator", "delta") and box is None:
        raise ValueError(f"{kind!r} initial data needs a box")
    if kind == "indicator":
        (bx0, bx1), (by0, by1) = box
        u = ((x1g >= bx0) & (x1g <= bx1) & (x2g >= by0) & (x2g <= by1)).astype(float)
        return _norms(pair, u, 0.0)
    if kind == "delta":
        (bx0, bx1), (by0, by1) = box
        cx, cy = 0.5 * (bx0 + bx1), 0.5 * (by0 + by1)
        i = np.argmin((x1g - cx) ** 2 + (x2g - cy) ** 2)
        u = np.zeros(x1g.size)
        u[i] = 1.0
        state = _norms(pair, u, 0.0)
        return _norms(pair, u / state.norm_f, 0.0)
    raise ValueError(f"unknown initial kind {kind!r}")


def evolve(
    pair: OperatorPair,
    u0: HeatState,
    t_grid,
    dt: float,
    shift: float = 0.0,
    record_mode1: bool = False,
    keep_states: bool = False,
) -> Trajectory:
    """Trapezoidal evolution of the pair, recording norms at the checkpoints.

    Checkpoints snap to whole multiples of ``dt`` after ``u0.t``; the actual
    times are reported. A checkpoint before ``u0.t``, or two that snap to the
    same step, raise ``BadCheckpoint``. With ``shift`` nonzero the gauged
    variable exp(shift t) u(t) is evolved and recorded.

    The implicit matrix M + dt/2 (S - shift M) is factored once as a banded
    Cholesky whose band is read off the matrix; ``LinearSolveFailure`` is
    raised when it is not symmetric positive definite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t = float(u0.t)
    t_grid = np.asarray(sorted(set(float(tk) for tk in t_grid)))
    if t_grid.size and t_grid[0] < t - 1e-12:
        raise BadCheckpoint(f"checkpoint t = {t_grid[0]} lies before the start t = {t}")
    targets = np.rint((t_grid - t) / dt).astype(int)
    dup = np.flatnonzero(np.diff(targets) == 0)
    if dup.size:
        i = dup[0]
        raise BadCheckpoint(
            f"checkpoints t = {t_grid[i]} and {t_grid[i + 1]} snap to the same "
            f"step of dt = {dt}"
        )
    B = pair.S - shift * pair.M
    try:
        factor = banded_cholesky(pair.M + 0.5 * dt * B)
    except LinAlgError as exc:
        raise LinearSolveFailure(
            f"implicit step matrix is not positive definite: {exc}"
        ) from exc
    A_minus = (pair.M - 0.5 * dt * B).tocsr()

    u = u0.u.copy()
    times, nf, nwf, m1 = [], [], [], []
    states = []

    def record(ucur, tcur):
        st = _norms(pair, ucur, tcur)
        times.append(tcur)
        nf.append(st.norm_f)
        nwf.append(st.norm_wf)
        if record_mode1:
            rem = project_mode1(st, pair).remainder_norm
            m1.append(rem / st.norm_f if st.norm_f > 0 else 0.0)
        else:
            m1.append(math.nan)
        if keep_states:
            states.append(st)
        return st

    last = None
    done = 0
    for k in targets:
        for _ in range(k - done):
            u = cho_solve_banded((factor, False), A_minus @ u, check_finite=False)
            if not np.all(np.isfinite(u)):
                raise LinearSolveFailure("implicit step produced non-finite values")
            t += dt
        done = k
        last = record(u, t)

    return Trajectory(
        times=np.asarray(times),
        norm_f=np.asarray(nf),
        norm_wf=np.asarray(nwf),
        mode1_fraction=np.asarray(m1),
        shift=shift,
        final=last,
        states=states,
    )


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    gamma_hat: float
    stderr_lambda: float
    stderr_gamma: float
    window: tuple
    residual_norm: float


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

    X1 = np.column_stack([np.ones_like(lt), lt])
    coef1, res1, *_ = np.linalg.lstsq(X1, y, rcond=None)
    gamma_hat = -coef1[1]
    dof1 = max(len(t) - 2, 1)
    rss1 = float(res1[0]) if res1.size else float(((X1 @ coef1 - y) ** 2).sum())
    cov1 = rss1 / dof1 * np.linalg.inv(X1.T @ X1)
    stderr_gamma = math.sqrt(cov1[1, 1])

    # unconstrained: log|u| = c - lambda t - gamma log(1+t)
    z = np.log(trajectory.norm_f[sel]) - trajectory.shift * t
    X2 = np.column_stack([np.ones_like(t), t, lt])
    coef2, res2, *_ = np.linalg.lstsq(X2, z, rcond=None)
    lambda_hat = -coef2[1]
    dof2 = max(len(t) - 3, 1)
    rss2 = float(res2[0]) if res2.size else float(((X2 @ coef2 - z) ** 2).sum())
    cov2 = rss2 / dof2 * np.linalg.inv(X2.T @ X2)
    stderr_lambda = math.sqrt(cov2[1, 1])

    return DecayFit(
        lambda_hat=float(lambda_hat),
        gamma_hat=float(gamma_hat),
        stderr_lambda=float(stderr_lambda),
        stderr_gamma=float(stderr_gamma),
        window=(float(t0), float(t1)),
        residual_norm=math.sqrt(rss1),
    )


@dataclass(frozen=True)
class Mode1Projection:
    x1: np.ndarray
    phi: np.ndarray
    remainder_norm: float


def project_mode1(state: HeatState, pair: OperatorPair) -> Mode1Projection:
    """Transverse-mode-1 profile of the state and the orthogonal remainder."""
    x2 = pair.grid.x2
    h2 = x2[1] - x2[0]
    j1 = mode_function(1, float(x2[-1]), x2)
    w2 = np.full(x2.size, h2)
    w2[0] = w2[-1] = h2 / 2.0
    n1, n2 = pair.grid.shape
    full = np.zeros(n1 * n2)
    full[pair.kept] = state.u
    U = full.reshape(n1, n2)
    phi = (U * (w2 * j1)[None, :]).sum(axis=1)
    R = U - phi[:, None] * j1[None, :]
    r = R.ravel()[pair.kept]
    rem = math.sqrt(max(r @ (pair.M @ r), 0.0))
    return Mode1Projection(x1=pair.grid.x1, phi=phi, remainder_norm=rem)


@dataclass(frozen=True)
class SeminormPrediction:
    average: float      # (1/s_max) integral of nu over the lattice
    tail: float         # last lattice value, the limit estimate
    predicted_exponent: float


def seminorm_decay_bound(s_values, nu_values) -> SeminormPrediction:
    """Predicted polynomial exponent from frame-eigenvalue samples.

    The running average reconstructs the integral bound; the tail value
    estimates the limiting frame eigenvalue, which lower-bounds the decay
    exponent.
    """
    s = np.atleast_1d(np.asarray(s_values, float))
    nu = np.atleast_1d(np.asarray(nu_values, float))
    if s.size != nu.size or s.size == 0:
        raise ValueError("need matching, nonempty lattices")
    if s.size == 1:
        v = float(nu[0])
        return SeminormPrediction(average=v, tail=v, predicted_exponent=v)
    order = np.argsort(s)
    s, nu = s[order], nu[order]
    total = np.trapezoid(nu, s) + nu[0] * s[0]  # constant continuation to 0
    avg = float(total / s[-1])
    tail = float(nu[-1])
    return SeminormPrediction(average=avg, tail=tail, predicted_exponent=tail)
