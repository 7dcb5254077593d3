"""Killed diffusion on the strip: simulation, survival estimates, rate fits.

The process clock matches the heat equation with a full Laplacian, so the
diffusion coefficient is sqrt(2) per coordinate (twice a probabilist's
Brownian motion). Kills happen at the transverse walls only, with a per-step
Brownian-bridge crossing correction against each wall.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily, on the first np.random lookup

from .errors import (
    BadCheckpoint,
    BadStart,
    CheckpointMissing,
    InsufficientSignal,
    StepTooLarge,
    TooFewSurvivors,
)
from .geometry import MetricField

__all__ = [
    "SdeSpec",
    "PathEnsemble",
    "SurvivalEstimate",
    "RateFit",
    "sde_from_metric",
    "simulate_killed",
    "survival_estimate",
    "pointwise_rate",
    "conditional_distribution",
]

_CHUNK = 1 << 16
_SQRT2 = math.sqrt(2.0)


@dataclass(eq=False)
class SdeSpec:
    """Drift and diffusion fields of the strip diffusion.

    Outside the curvature support the drift vanishes identically and the
    diffusion is the constant sqrt(2) pair; inside, fields are tabulated on
    the metric grid and interpolated bilinearly. ``table`` stacks b1, b2 and
    1/f along its first axis, so one set of cell indices and weights serves
    all three.
    """

    a: float
    flat: bool
    support: float           # |x1| beyond which the fields are exactly flat
    x1: np.ndarray = None
    x2: np.ndarray = None
    table: np.ndarray = None  # (3, n1, n2): b1, b2, 1/f

    def __post_init__(self):
        if self.flat:
            return
        # per axis, for the cell coordinate (p - origin) / h clipped to top
        self._origin = (self.x1[0], self.x2[0])
        self._h = (self.x1[1] - self.x1[0], self.x2[1] - self.x2[0])
        self._top = (self.x1.size - 1.001, self.x2.size - 1.001)
        # a view, not a copy: take on the flattened grid axis keeps each
        # field's samples contiguous
        self._cells = self.table.reshape(3, -1)

    def _bilinear(self, p1, p2):
        """(3, len(p1)) interpolated b1, b2, 1/f, computed in place as
        ``c00 (1-fs)(1-ft) + c10 fs (1-ft) + c01 (1-fs) ft + c11 fs ft``, each
        product and sum in that order."""
        s = p1 - self._origin[0]
        s /= self._h[0]
        t = p2 - self._origin[1]
        t /= self._h[1]
        for c, top in ((s, self._top[0]), (t, self._top[1])):
            np.maximum(c, 0.0, out=c)
            np.minimum(c, top, out=c)
        i = s.astype(np.int64)
        j = t.astype(np.int64)
        fs, ft = s, t
        fs -= i
        ft -= j
        gs = 1.0 - fs
        gt = 1.0 - ft
        # one gather of all three fields per corner
        n2 = self.x2.size
        k = i * n2
        k += j
        v = self._cells.take(k, axis=1)
        v *= gs
        v *= gt
        # k walks on to the corners (i+1, j), (i, j+1) and (i+1, j+1)
        for step, ws, wt in ((n2, fs, gt), (1 - n2, gs, ft), (n2, fs, ft)):
            k += step
            w = self._cells.take(k, axis=1)
            w *= ws
            w *= wt
            v += w
        return v

    def fields(self, p1, p2):
        """(b1, b2, sigma1) at the given positions; sigma2 is constant."""
        if self.flat:
            z = np.zeros_like(p1)
            return z, z, np.full_like(p1, _SQRT2)
        # _bilinear clips to the grid and works point by point, so it takes
        # every point; those outside the support are then set exactly flat
        v = self._bilinear(p1, p2)
        outside = np.abs(p1) > self.support
        if outside.any():
            v[0:2, outside] = 0.0
            v[2, outside] = 1.0
        v[2] *= _SQRT2
        return v[0], v[1], v[2]


def sde_from_metric(metric: MetricField) -> SdeSpec:
    """Drift-diffusion form of the strip generator.

    b = (-f^-3 d1f, f^-1 d2f), sigma = diag(sqrt2/f, sqrt2); the longitudinal
    derivative comes from central differences of the sampled metric.
    """
    a = float(metric.x2[-1])
    if metric.flat:
        return SdeSpec(a=a, flat=True, support=0.0)
    f = metric.f
    d1f = np.gradient(f, metric.x1, axis=0)
    b1 = -d1f / f**3
    b2 = metric.d2f / f
    # pad the support so interpolation cells straddling the edge stay exact
    h1 = metric.x1[1] - metric.x1[0]
    nonflat = np.flatnonzero(np.abs(f - 1.0).max(axis=1) > 1e-14)
    support = abs(metric.x1[nonflat]).max() + 2 * h1 if nonflat.size else 0.0
    return SdeSpec(
        a=a,
        flat=False,
        support=float(support),
        x1=metric.x1,
        x2=metric.x2,
        table=np.stack([b1, b2, 1.0 / f]),
    )


@dataclass(eq=False)
class PathEnsemble:
    n_paths: int
    x0: tuple
    dt: float
    seed: int
    a: float
    checkpoint_times: np.ndarray
    positions: np.ndarray     # (n_checkpoints, n_paths, 2), frozen at death
    kill_time: np.ndarray     # inf when censored at t_max
    t_max: float

    def checkpoint_index(self, t: float) -> int:
        hits = np.flatnonzero(np.isclose(self.checkpoint_times, t, rtol=0, atol=1e-9))
        if hits.size == 0:
            raise CheckpointMissing(f"time {t} was not recorded")
        return int(hits[0])

    def alive_at(self, t: float) -> np.ndarray:
        return self.kill_time > t + 1e-12


# a bridge exponent at or below -_NO_KILL kills no path (see simulate_killed)
_NO_KILL = 38.0


def _bridge_dead(p2, q2, u, a, dt):
    """Mask of the paths killed by a step from p2 to q2, with uniforms u.

    A path dies when u < pkill: 1 for a step that leaves the strip, else the
    chance that the bridge crosses either wall. pkill is evaluated only where
    p2 or q2 lies within sqrt(_NO_KILL dt) of a wall, or where u is 0;
    everywhere else it is below 2**-53 and kills nobody.
    """
    near = np.maximum(np.abs(p2), np.abs(q2)) > a - math.sqrt(_NO_KILL * dt)
    near |= u == 0.0
    idx = np.flatnonzero(near)
    dead = np.zeros(u.size, dtype=bool)
    if idx.size:
        p2, q2 = p2[idx], q2[idx]
        crossed = np.abs(q2) >= a
        pu = np.exp(-2.0 * (a - p2) * (a - q2) / (2.0 * dt))
        pl = np.exp(-2.0 * (a + p2) * (a + q2) / (2.0 * dt))
        dead[idx] = u[idx] < np.where(crossed, 1.0, pu + pl - pu * pl)
    return dead


def simulate_killed(
    sde: SdeSpec,
    x0,
    t_max: float,
    dt: float,
    n_paths: int,
    seed: int,
    checkpoints=None,
    box_limit: float = None,
) -> PathEnsemble:
    """Euler-Maruyama ensemble with Brownian-bridge wall-kill correction.

    Per substep and wall, a crossing of the straight bridge between the old
    and new transverse positions is sampled with probability
    exp(-2 d_old d_new / (2 dt)) for the doubled-clock diffusion. Chunked,
    with one counter-based stream per fixed-size chunk, so results are
    bit-reproducible from (seed, dt, n_paths) under any schedule.

    Only live paths are advanced: each chunk keeps the indices and positions
    of its living paths, writes a path's frozen position and kill time back
    when it dies, and stops once none is left. Each step draws normals, then
    uniforms, for the live paths only, in ascending path order, so a chunk's
    stream depends on its deaths but stays a function of (seed, dt, n_paths).

    The kill probability is computed only where a path can die, and that is
    exact, not an approximation. A path dies when u < pkill, and u, from
    ``Generator.random()``, is a multiple of 2^-53, so u is 0 or at least
    2^-53. When p2 and q2 both lie at least sqrt(c dt) from each wall
    (c = 38), both bridge exponents -d_old d_new / dt are at most -c, and
    pkill <= 2 e^-c < 2^-53, because 54 ln 2 = 37.43. So only paths with
    max(|p2|, |q2|) > a - sqrt(c dt), or with u = 0, take the formula; on
    criterion 8's negative strip that is about one live path-step in ten.
    Every other path survives, as it does under the formula.

    ``box_limit`` warns when more than 0.1 % of the paths alive at ``t_max``
    stand beyond |x1| = box_limit there.

    The inputs are checked before any step: ``BadStart`` for an ``x0`` that
    is not a finite point of the open strip, ``ValueError`` for a ``dt`` not
    positive and finite, an ``n_paths`` below 1 or a negative ``seed``,
    ``StepTooLarge`` for dt > a^2/100, ``BadCheckpoint`` for an empty
    ``checkpoints`` or for a checkpoint
    (by default ``t_max``) that is not a nonnegative finite time, then
    ``ValueError`` for a ``t_max`` that is not one, ``CheckpointMissing`` for
    a ``t_max`` that is not a multiple of ``dt`` to 1e-9 max(1, t_max), and
    ``BadCheckpoint`` for a checkpoint after ``t_max`` by more than that
    slack.
    """
    a = sde.a
    x10, x20 = float(x0[0]), float(x0[1])
    if not (math.isfinite(x10) and abs(x20) < a):
        raise BadStart(f"x0 = ({x10}, {x20}) is not inside the open strip |x2| < {a}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, not {n_paths}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    if dt > a**2 / 100.0:
        raise StepTooLarge(f"dt = {dt} exceeds a^2/100 = {a ** 2 / 100.0:.3g}")
    if checkpoints is None:
        checkpoints = [t_max]
    if len(checkpoints) == 0:
        raise BadCheckpoint(f"checkpoints = {checkpoints!r} lists no time")
    for t in checkpoints:
        if not 0 <= t < math.inf:
            raise BadCheckpoint(f"checkpoint t = {t} is not a nonnegative finite time")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be nonnegative and finite, not {t_max}")
    slack = 1e-9 * max(1.0, t_max)
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > slack:
        raise CheckpointMissing(f"t_max = {t_max} is not a multiple of dt = {dt}")
    check_steps = []
    for t in checkpoints:
        if t > t_max + slack:
            raise BadCheckpoint(f"checkpoint t = {t} is after t_max = {t_max}")
        k = int(round(t / dt))
        if abs(k * dt - t) > slack:
            raise CheckpointMissing(f"checkpoint {t} is not a multiple of dt")
        check_steps.append(min(k, n_steps))
    check_steps = np.asarray(check_steps)
    times = check_steps * dt

    positions = np.empty((len(check_steps), n_paths, 2), dtype=np.float32)
    kill_time = np.full(n_paths, np.inf)
    check_at = {}
    for ci, k in enumerate(check_steps):
        check_at.setdefault(int(k), []).append(ci)
    n_final = n_beyond = 0     # survivors at t_max, and those beyond box_limit

    sqdt = math.sqrt(dt)
    # a bridge exponent overflows for a path far past a wall, where the
    # direct exit decides the kill
    with np.errstate(over="ignore"):
        for c0 in range(0, n_paths, _CHUNK):
            c1 = min(c0 + _CHUNK, n_paths)
            m = c1 - c0
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(c0 // _CHUNK,)))
            )
            # last[k]: where path k died, or where it was at the latest checkpoint
            last = np.tile((x10, x20), (m, 1))
            ktime = np.full(m, np.inf)
            live = np.arange(m)
            p1 = np.full(m, x10)
            p2 = np.full(m, x20)
            for ci in check_at.get(0, ()):
                positions[ci, c0:c1] = last
            step = 0
            while step < n_steps and live.size:
                step += 1
                z = rng.standard_normal((live.size, 2))
                u = rng.random(live.size)
                b1, b2, s1 = sde.fields(p1, p2)
                q1 = p1 + b1 * dt + s1 * sqdt * z[:, 0]
                q2 = p2 + b2 * dt + _SQRT2 * sqdt * z[:, 1]
                dead = _bridge_dead(p2, q2, u, a, dt)
                if dead.any():
                    gone = live[dead]
                    ktime[gone] = step * dt
                    last[gone, 0] = p1[dead]
                    last[gone, 1] = p2[dead]
                    keep = ~dead
                    live, q1, q2 = live[keep], q1[keep], q2[keep]
                p1, p2 = q1, q2
                for ci in check_at.get(step, ()):
                    last[live, 0] = p1
                    last[live, 1] = p2
                    positions[ci, c0:c1] = last
            # checkpoints after the last death see every path frozen
            for ci in np.flatnonzero(check_steps > step):
                positions[ci, c0:c1] = last
            kill_time[c0:c1] = ktime
            if step == n_steps and box_limit is not None:
                n_final += live.size
                n_beyond += int(np.count_nonzero(np.abs(p1) > box_limit))

    if n_final and n_beyond / n_final > 1e-3:
        warnings.warn(
            f"{n_beyond / n_final:.2%} of surviving paths left the bookkeeping box",
            stacklevel=2,
        )
    return PathEnsemble(
        n_paths=n_paths,
        x0=(x10, x20),
        dt=dt,
        seed=seed,
        a=a,
        checkpoint_times=times,
        positions=positions,
        kill_time=kill_time,
        t_max=t_max,
    )


@dataclass(frozen=True)
class SurvivalEstimate:
    probability: float
    half_width: float        # 99% binomial (Wilson) half-width
    t: float
    n_paths: int


_Z99 = 2.5758293035489004


def survival_estimate(ensemble: PathEnsemble, B, t: float) -> SurvivalEstimate:
    """Fraction of paths alive at t and inside B, with 99% binomial interval.

    ``B`` is None for the whole strip or ((bx0, bx1), (by0, by1)); a box with
    a low edge above its high edge raises ``ValueError``.
    """
    if B is not None:
        (bx0, bx1), (by0, by1) = B
        if not (bx0 <= bx1 and by0 <= by1):
            raise ValueError(f"box {B} has a low edge above its high edge")
    ci = ensemble.checkpoint_index(t)
    alive = ensemble.alive_at(t)
    if B is None:
        hit = alive
    else:
        p = ensemble.positions[ci]
        hit = (
            alive
            & (p[:, 0] >= bx0) & (p[:, 0] <= bx1)
            & (p[:, 1] >= by0) & (p[:, 1] <= by1)
        )
    n = ensemble.n_paths
    k = int(hit.sum())
    phat = k / n
    z2 = _Z99**2
    half = (_Z99 / (1.0 + z2 / n)) * math.sqrt(
        phat * (1.0 - phat) / n + z2 / (4.0 * n**2)
    )
    return SurvivalEstimate(probability=phat, half_width=half, t=float(t), n_paths=n)


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float


def pointwise_rate(estimates, E1: float) -> RateFit:
    """Weighted fit of log(estimate) + E1 t against log t: the slope and its
    standard error.

    Estimates whose confidence interval touches zero, and those of
    probability 1, whose log has no variance to weigh by, are discarded;
    fewer than six usable points raise InsufficientSignal.
    """
    usable = [e for e in estimates if e.probability - e.half_width > 0.0 and e.probability < 1.0]
    if len(usable) < 6:
        raise InsufficientSignal(
            f"only {len(usable)} estimates are bounded away from the confidence floor and below 1"
        )
    t = np.array([e.t for e in usable])
    p = np.array([e.probability for e in usable])
    n = np.array([e.n_paths for e in usable])
    y = np.log(p) + E1 * t
    # delta method: var(log p) ~ (1-p)/(n p)
    w = n * p / (1.0 - p)
    X = np.column_stack([np.ones_like(t), np.log(t)])
    WX = X * w[:, None]
    cov = np.linalg.inv(X.T @ WX)
    coef = cov @ (WX.T @ y)
    return RateFit(slope=float(coef[1]), stderr=float(math.sqrt(cov[1, 1])))


def conditional_distribution(ensemble: PathEnsemble, t: float, bins) -> tuple:
    """Normalized 2D histogram of surviving positions at time t.

    ``bins`` is (edges_x1, edges_x2). Returns (H, edges_x1, edges_x2) with
    the mass over all bins summing to one (positions outside the bin range
    are clipped into the edge bins so no survivor is dropped).
    """
    ci = ensemble.checkpoint_index(t)
    alive = ensemble.alive_at(t)
    k = int(alive.sum())
    if k < 100:
        raise TooFewSurvivors(f"only {k} survivors at t = {t}")
    e1, e2 = np.asarray(bins[0], float), np.asarray(bins[1], float)
    p = ensemble.positions[ci][alive]
    x = np.clip(p[:, 0], e1[0], e1[-1] - 1e-9)
    y = np.clip(p[:, 1], e2[0], e2[-1] - 1e-9)
    H, _, _ = np.histogram2d(x, y, bins=(e1, e2))
    return H / k, e1, e2
