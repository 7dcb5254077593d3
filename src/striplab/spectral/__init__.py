"""Weighted quadratic forms as symmetric matrix pairs and their spectra."""

from .core import (
    EigenResult,
    OperatorPair,
    WeightedGrid,
    assemble_1d,
    assemble_2d,
    gauss_points_1d,
    make_grid,
)
from .hardy import (
    HardyConstants,
    hardy_constant,
    hardy_verify,
    hardy_weight,
    perturbed_threshold,
    pick_hardy_interval,
    thin_strip_bound,
    thin_strip_constant,
    transverse_mu_profile,
)
from .operators import (
    assemble_hk,
    assemble_Ls,
    assemble_potential,
    flat_transverse_ground,
    frame_sweep,
    harmonic_oscillator,
    make_y_grid,
)
from .solve import lowest_eigenpairs

__all__ = [
    "EigenResult",
    "OperatorPair",
    "WeightedGrid",
    "assemble_1d",
    "assemble_2d",
    "gauss_points_1d",
    "make_grid",
    "assemble_hk",
    "assemble_Ls",
    "assemble_potential",
    "flat_transverse_ground",
    "frame_sweep",
    "harmonic_oscillator",
    "make_y_grid",
    "lowest_eigenpairs",
    "HardyConstants",
    "hardy_constant",
    "hardy_verify",
    "hardy_weight",
    "perturbed_threshold",
    "pick_hardy_interval",
    "thin_strip_bound",
    "thin_strip_constant",
    "transverse_mu_profile",
]
