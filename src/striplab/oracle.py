"""Closed-form flat-strip and killed half-line quantities.

These serve as ground truth for the assembled spectra, the evolved semigroup
and the Monte Carlo estimators. Every truncated series returns an explicit
tail bound next to its value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailTooLarge

__all__ = [
    "TransverseMode",
    "transverse_modes",
    "transverse_energy",
    "mode_function",
    "gauss_kernel",
    "flat_kernel",
    "killed_halfline_kernel",
    "flat_survival",
]


def transverse_energy(n, a: float):
    """n-th transverse Dirichlet energy (n pi / 2a)^2, elementwise in n."""
    return (n * math.pi / (2.0 * a)) ** 2


def mode_function(n: int, a: float, x2):
    """n-th transverse Dirichlet mode, unit L2 norm on (-a, a)."""
    x2 = np.asarray(x2, dtype=float)
    return math.sqrt(1.0 / a) * np.sin(n * math.pi * (x2 + a) / (2.0 * a))


@dataclass(frozen=True)
class TransverseMode:
    index: int
    energy: float


def transverse_modes(a: float, n_max: int) -> list[TransverseMode]:
    if not 0 < a < math.inf:
        raise ValueError(f"the half-width a must be positive and finite, not {a}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [TransverseMode(n, transverse_energy(n, a)) for n in range(1, n_max + 1)]


def gauss_kernel(x1, x1p, t):
    """Free longitudinal heat kernel exp(-(x-x')^2/4t)/sqrt(4 pi t)."""
    x1 = np.asarray(x1, dtype=float)
    x1p = np.asarray(x1p, dtype=float)
    return np.exp(-((x1 - x1p) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def _tail_sum(t: float, a: float, n_terms: int) -> float:
    """Upper bound on sum_{n > n_terms} exp(-E_n t)."""
    e1 = transverse_energy(1, a)
    lead = math.exp(-e1 * (n_terms + 1) ** 2 * t)
    ratio = math.exp(-e1 * (2 * n_terms + 3) * t)
    return lead / (1.0 - ratio)


def _check_time_floor(t: float) -> None:
    """Raise TailTooLarge for a t below 0.01, where the series converge too
    slowly to truncate; called before any Gaussian or erf factor is formed."""
    if t < 0.01:
        raise TailTooLarge(f"t = {t} below the oracle floor 0.01; series truncation unreliable")


# every truncated series stops at the first order whose tail bound is at most this
_TAIL_TOL = 1e-8


def _resolve_terms(t: float, a: float, factor: float) -> int:
    """The smallest truncation order whose tail bound, ``factor`` times
    ``_tail_sum``, is at most ``_TAIL_TOL``."""
    n = 1
    while factor * _tail_sum(t, a, n) > _TAIL_TOL:
        n += 1
        if n > 100000:
            raise TailTooLarge("cannot meet the tail tolerance 1e-8")
    return n


def flat_kernel(x, xp, t, a):
    """Dirichlet heat kernel of the flat strip at (x, x', t).

    Returns (value, tail_bound), the series truncated at the first order whose
    tail bound is at most 1e-8; raises TailTooLarge for a t below 0.01 or a
    truncation that cannot meet that bound. ``ValueError`` is raised for ``a`` not
    positive and finite, a longitudinal coordinate or ``t`` not finite and a
    point outside the closed strip |x2| <= a; the kernel vanishes on the walls.
    """
    x1, x2 = float(x[0]), float(x[1])
    x1p, x2p = float(xp[0]), float(xp[1])
    if not all(map(math.isfinite, (x1, x1p, t))):
        raise ValueError(f"x1 = {x1}, x1' = {x1p} and t = {t} must all be finite")
    if not 0 < a < math.inf:
        raise ValueError(f"the half-width a must be positive and finite, not {a}")
    if not (abs(x2) <= a and abs(x2p) <= a):
        raise ValueError(f"the points {x} and {xp} are not both in the closed strip |x2| <= {a}")
    _check_time_floor(t)
    p = float(gauss_kernel(x1, x1p, t))
    factor = p / a
    n_terms = _resolve_terms(t, a, factor)
    n = np.arange(1, n_terms + 1)
    val = float(
        np.sum(
            np.exp(-transverse_energy(n, a) * t)
            * mode_function(n, a, x2)
            * mode_function(n, a, x2p)
        )
        * p
    )
    return val, factor * _tail_sum(t, a, n_terms)


def killed_halfline_kernel(t, x, y):
    """Transition density of the half-line motion absorbed at the origin;
    ``ValueError`` is raised for ``t`` not positive or ``x``, ``y`` negative, NaN included."""
    if not t > 0:
        raise ValueError(f"t must be positive, not {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(x >= 0) and np.all(y >= 0)):
        raise ValueError(f"x and y must be nonnegative, not {x} and {y}")
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    return pref * (np.exp(-((x - y) ** 2) / (4.0 * t)) - np.exp(-((x + y) ** 2) / (4.0 * t)))


def _mode_integral(n: np.ndarray, a: float, y0: float, y1: float) -> np.ndarray:
    """Closed-form integral of the n-th mode over (y0, y1)."""
    c = n * math.pi / (2.0 * a)
    return math.sqrt(1.0 / a) * (np.cos(c * (y0 + a)) - np.cos(c * (y1 + a))) / c


def flat_survival(x0, B, t, a):
    """Probability of being alive at time t and inside ``B``, flat strip.

    ``B`` is None for the whole strip, else ((bx0, bx1), (by0, by1)), its
    transverse range clipped to [-a, a], where every live path is.
    Longitudinal integrals are Gaussian error functions (exact); transverse
    integrals of the modes are elementary. Returns (value, tail_bound),
    truncated and refused with TailTooLarge as by ``flat_kernel``.
    ``ValueError`` is raised for ``a`` not positive and finite, a start x1 or
    ``t`` not finite, a start outside the open strip and a reversed box.
    """
    x1, x2 = float(x0[0]), float(x0[1])
    if not (math.isfinite(x1) and math.isfinite(t)):
        raise ValueError(f"the start x1 = {x1} and t = {t} must both be finite")
    if not 0 < a < math.inf:
        raise ValueError(f"the half-width a must be positive and finite, not {a}")
    if not abs(x2) < a:
        raise ValueError(f"the start x2 = {x2} lies outside the open strip |x2| < {a}")
    _check_time_floor(t)
    if B is None:
        ix = 1.0
        by0, by1 = -a, a
    else:
        (bx0, bx1), (by0, by1) = B
        if not (bx0 <= bx1 and by0 <= by1):
            raise ValueError(f"box {B} has a low edge above its high edge")
        by0, by1 = min(max(by0, -a), a), min(max(by1, -a), a)
        s = math.sqrt(4.0 * t)
        ix = 0.5 * (math.erf((bx1 - x1) / s) - math.erf((bx0 - x1) / s))
    factor = abs(ix) * (1.0 / math.sqrt(a)) * min(2.0 * math.sqrt(a), (by1 - by0) / math.sqrt(a))
    factor = max(factor, 1e-300)
    n_terms = _resolve_terms(t, a, factor)
    n = np.arange(1, n_terms + 1)
    val = float(
        np.sum(
            np.exp(-transverse_energy(n, a) * t)
            * mode_function(n, a, x2)
            * _mode_integral(n, a, by0, by1)
        )
        * ix
    )
    return val, factor * _tail_sum(t, a, n_terms)
