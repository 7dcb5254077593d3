"""Assembly of the concrete operator pairs studied by the laboratory.

The transverse reference energy entering the self-similar family and all
threshold comparisons is the *discrete* flat transverse ground energy on the
same cross-section grid. Using the analytic value instead would leave an
O(h^2) mismatch that the e^s factor of the self-similar frame amplifies by
three orders of magnitude at the largest frames computed here. It is the
closed-form eigenvalue of the flat Toeplitz pencil (``core._sine_eigenpairs``),
exact to round-off, because the frame operator multiplies its error by e^s:
a dense eigensolve, off by up to 2e-13 relative, would bias nu(s) by e^s times that.

Every metric the laboratory builds is even in x2 (f depends on x2 through
x2^2 only), so every ground state asked of the frame family, the transverse
gap and the Hardy slices is even too. Those three problems are solved on the
half cross-section x2 in [0, a] (``_half_nodes``): the axis node is kept, so
it carries the natural condition, and the wall x2 = a stays Dirichlet. On
the symmetric grid this is exactly the even subspace of the full-section
problem, with the same eigenvalue up to round-off, on half the unknowns.
The transverse grid therefore needs an even number of cells, which puts a
node on the axis.

Every metric the shipped configs and criteria build is also even in x1, and
so is then the frame ground state in y1: on an even number of cells, the
frame grid (``make_y_grid``) is the mirror half y1 in [0, W] of the box, by
the same rule (``_odd_part``), with the natural condition at y1 = 0.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import GeometryInvalid, GridMisaligned, TruncationWarning
from ..geometry import MetricField
from ..oracle import mode_function
from .core import (
    _GP,
    OperatorPair,
    WeightedGrid,
    _interior_stencils,
    _sine_eigenpairs,
    assemble_1d,
    assemble_2d,
    gauss_points_1d,
    make_grid,
)
from .solve import lowest_eigenpairs

__all__ = [
    "assemble_hk",
    "assemble_potential",
    "flat_transverse_ground",
    "assemble_Ls",
    "harmonic_oscillator",
    "make_y_grid",
    "frame_sweep",
]


def _coeff_grid(metric: MetricField, x1: np.ndarray, x2: np.ndarray, scale=1.0):
    """Metric factor at the tensor Gauss points of the given grid, the
    longitudinal ones multiplied by ``scale``.

    Returns the unscaled points xg1, xg2 and F shaped (n1_cells, n2_cells, 3, 3).
    """
    g1 = gauss_points_1d(x1)
    g2 = gauss_points_1d(x2)
    n1, n2 = g1.shape[0], g2.shape[0]
    f, _ = metric.sample(scale * g1.ravel(), g2.ravel())
    # contiguous, so that no term's coefficient array is copied again
    # when assembly flattens it
    F = np.ascontiguousarray(f.reshape(n1, 3, n2, 3).transpose(0, 2, 1, 3))
    return g1, g2, F


def assemble_hk(metric: MetricField, grid: WeightedGrid | None = None) -> OperatorPair:
    """Stiffness/mass pair of the weighted Dirichlet form on the strip.

    S[u] = int( f^-1 |d1 u|^2 + f |d2 u|^2 ),  M[u] = int( f |u|^2 ),
    assembled element-wise onto the nodes off the Dirichlet mask, on every
    metric alike (a flat one samples f = 1 exactly), and checked.
    """
    if grid is None:
        grid = make_grid(metric.x1, metric.x2)
    _, _, F = _coeff_grid(metric, grid.x1, grid.x2)
    return _checked_pair(grid, [("d1d1", 1.0 / F), ("d2d2", F)], F)


def _checked_pair(grid: WeightedGrid, terms_S, F) -> OperatorPair:
    """The checked pair of stiffness ``terms_S`` and mass weight ``F`` on the
    grid's kept nodes."""
    S = assemble_2d(grid.x1, grid.x2, terms_S, grid.keep)
    M = assemble_2d(grid.x1, grid.x2, [("mass", F)], grid.keep)
    pair = OperatorPair(S, M, grid=grid)
    pair.check()
    return pair


def _nodal_field(grid, values, name: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` naming what it got unless it
    is finite and of the nodal shape of ``grid`` (a metric or a grid): a NaN
    would pass any later sign check, since comparisons with it are false."""
    values = np.asarray(values, float)
    shape = (grid.x1.size, grid.x2.size)
    bad = np.count_nonzero(~np.isfinite(values))
    if values.shape != shape or bad:
        raise ValueError(
            f"{name} must be a finite nodal array of shape {shape}, not one of shape "
            f"{values.shape} with {bad} of its {values.size} entries non-finite"
        )
    return values


def assemble_potential(metric: MetricField, grid: WeightedGrid, v_nodal: np.ndarray):
    """Mass-weighted potential matrix int( V u v f dx ) for nodal V, which
    ``_nodal_field`` checks against the grid (else ``ValueError``).

    V is interpolated bilinearly onto the Gauss points. Each Gauss point lies
    in its own cell at the fixed reference offsets, so the interpolation is
    V[e1, e2, a, b] = sum_ik w[a, i] w[b, k] v[e1 + i, e2 + k] with
    w = [1 - gp, gp].
    """
    v_nodal = _nodal_field(grid, v_nodal, "the potential")
    _, _, F = _coeff_grid(metric, grid.x1, grid.x2)
    w = np.stack([1.0 - _GP, _GP], axis=1)
    corners = np.lib.stride_tricks.sliding_window_view(v_nodal, (2, 2))
    V = np.einsum("ai,bk,xyik->xyab", w, w, corners)
    return assemble_2d(grid.x1, grid.x2, [("mass", V * F)], grid.keep)


def flat_transverse_ground(x2: np.ndarray) -> float:
    """Discrete ground energy of the flat transverse Dirichlet problem on the
    nodes ``x2``, in closed form: the lowest sine eigenvalue of its interior
    Toeplitz pencil, as the separable propagator computes it."""
    x2 = np.asarray(x2, float)
    return float(_sine_eigenpairs(*_interior_stencils(x2), x2.size - 2)[0][0])


# largest odd part |f(x) - f(-x)| of a metric factor along one axis, relative
# to its largest value, that a mirror-half problem accepts
_EVEN_RTOL = 1e-12


def _odd_part(f: np.ndarray, axis: int) -> float | None:
    """The largest odd part |f(x) - f(-x)| of the nodal metric factor ``f``
    along ``axis`` (0 for x1, 1 for x2), read by mirroring its symmetric node
    set; ``None`` when it is at most ``_EVEN_RTOL`` of the largest |f|, so that
    f counts as even along that axis. A NaN odd part is returned, not ``None``."""
    odd = float(np.abs(f - np.flip(f, axis)).max())
    return None if odd <= _EVEN_RTOL * np.abs(f).max() else odd


def _half_nodes(metric: MetricField) -> np.ndarray:
    """The nodes x2 >= 0 of the metric's cross-section grid, the axis first:
    the grid of the half-section problems. ``GeometryInvalid`` is raised for
    an odd number of transverse cells, which leaves no node on the axis, and
    for a metric factor that is not even in x2 (``_odd_part``)."""
    x2 = metric.x2
    n2 = x2.size - 1
    if n2 % 2:
        raise GeometryInvalid(
            f"the half cross-section needs an even number of transverse cells, not n2 = {n2}"
        )
    odd = _odd_part(metric.f, axis=1)
    if odd is not None:
        raise GeometryInvalid(
            f"the metric factor is not even in x2: |f(x1, x2) - f(x1, -x2)| reaches {odd:.3e}"
        )
    return x2[n2 // 2:]


def make_y_grid(metric: MetricField, half_width: float, n_cells: int) -> WeightedGrid:
    """Frame grid for the self-similar family: the longitudinal box
    [-half_width, half_width] in ``n_cells`` cells, times the half
    cross-section x2 in [0, a] (``_half_nodes``). When ``n_cells`` is even and
    the metric factor is even in x1 (``_odd_part``), it is only the mirror
    half y1 in [0, half_width] of the box, its nodes the box's own from the
    middle one on. Its kept nodes are those off y1 = +-half_width and off the
    wall x2 = a, so the node y1 = 0 of a mirror half is kept, with the natural
    condition, as the axis node is. ``GeometryInvalid`` is raised for fewer
    than 2 cells, which leave no interior column, for a half-width not
    positive and finite, and by ``_half_nodes``."""
    if n_cells < 2:
        raise GeometryInvalid(f"the frame grid needs at least 2 cells, not n_cells = {n_cells}")
    if not 0 < half_width < math.inf:
        raise GeometryInvalid(f"the frame half-width must be positive and finite, not {half_width}")
    y1 = np.linspace(-half_width, half_width, n_cells + 1)
    x2 = _half_nodes(metric)
    keep = np.zeros((y1.size, x2.size), dtype=bool)
    keep[1:-1, :-1] = True
    if n_cells % 2 == 0 and _odd_part(metric.f, axis=0) is None:
        y1, keep = y1[n_cells // 2:], keep[n_cells // 2:]
    return WeightedGrid(x1=y1, x2=x2, keep=keep.ravel())


def frame_sweep(metric: MetricField, s_values, half_width: float, n_cells: int) -> list:
    """One ``EigenResult``, the lowest eigenpair of ``assemble_Ls``, per frame
    time of ``s_values`` on ``make_y_grid(metric, half_width, n_cells)``. The
    first solve starts from the flat frame ground state, exp(-y1^2/8) times
    the first transverse mode, and each later one from the previous frame's
    eigenvector."""
    grid_y = make_y_grid(metric, half_width, n_cells)
    x2 = grid_y.x2
    start = grid_y.restrict(np.outer(np.exp(-grid_y.x1**2 / 8.0), mode_function(1, x2[-1], x2)))
    results = []
    for s in s_values:
        res = lowest_eigenpairs(assemble_Ls(metric, s, grid_y), k=1, start=start)
        start = res.eigenvectors[:, 0]
        results.append(res)
    return results


def assemble_Ls(metric: MetricField, s: float, grid_y: WeightedGrid) -> OperatorPair:
    """Self-similar frame operator pair at frame time ``s`` on ``grid_y``,
    the half-section grid of ``make_y_grid``.

    Quadratic form, with fs(y) = f(e^{s/2} y1, y2) and the discrete
    transverse reference energy E1h of the metric's full cross-section:

        |fs^-1 d1 v|^2_fs + e^s |d2 v|^2_fs - e^s E1h |v|^2_fs
        - 1/4 |v|^2_fs - 1/2 (y1 v, d1 v)_fs
        + 1/16 (y1 v, [2 - fs^-2] y1 v)_fs

    The cross term enters through the symmetric part of its bilinear
    extension, which on real vectors reproduces the quadratic form exactly.
    """
    if s < 0:
        raise ValueError("frame time s must be nonnegative")
    y1, x2 = grid_y.x1, grid_y.x2
    half_width = float(y1[-1])
    if half_width**2 / 16.0 < 10.0:
        warnings.warn(
            "confining term at the box edge is below 10x the unit "
            "eigenvalue range; enlarge the frame box",
            TruncationWarning,
        )
    g1, _, FS = _coeff_grid(metric, y1, x2, scale=np.exp(0.5 * s))
    Y = g1.reshape(-1, 1, 3, 1)
    es = math.exp(s)
    e1h = flat_transverse_ground(metric.x2)

    def terms_S():  # one coefficient array alive at a time
        yield "d1d1", 1.0 / FS
        yield "d2d2", es * FS
        yield "mass", (-es * e1h - 0.25) * FS
        yield "d1sym", -0.5 * Y * FS
        # (1/16) Y^2 (2 - FS^-2) FS, formed in one array
        confining = FS**-2
        np.subtract(2.0, confining, out=confining)
        np.multiply((1.0 / 16.0) * Y**2, confining, out=confining)
        yield "mass", np.multiply(confining, FS, out=confining)

    return _checked_pair(grid_y, terms_S(), FS)


def harmonic_oscillator(dirichlet_at_zero: bool, grid_y1: np.ndarray) -> OperatorPair:
    """1D pair for -d^2/dy^2 + y^2/16 on the given grid, Dirichlet box ends.

    With the flag set, the node at the origin joins the Dirichlet mask,
    which selects the odd spectral branch. The pair's grid is n x 1, the
    layout ``assemble_1d`` writes it on, with one transverse node at 0.
    """
    y = np.asarray(grid_y1, float)
    g = gauss_points_1d(y)
    keep = np.ones(y.size, dtype=bool)
    keep[[0, -1]] = False
    if dirichlet_at_zero:
        h = y[1] - y[0]
        at_zero = np.flatnonzero(np.abs(y) < 1e-9 * h)
        if at_zero.size == 0:
            raise GridMisaligned("no grid node at the origin for the pinned problem")
        keep[at_zero[0]] = False
    return OperatorPair(
        S=assemble_1d(y, [("dd", np.ones_like(g)), ("mass", g**2 / 16.0)], keep),
        M=assemble_1d(y, [("mass", np.ones_like(g))], keep),
        grid=WeightedGrid(x1=y, x2=np.zeros(1), keep=keep),
    )
