"""The benchmark's workloads: frozen inputs, why each exists, and its checks.

Each workload is one `strip-lab run` of one or more configs from `inputs/`,
made in a fresh interpreter. Configs with a Monte Carlo or trial seed run
with `base + --seed`, so a benchmark seed picks a stream and nothing else;
with `--seed 0` they run with the seed shipped in the config.

A check reads the files the run wrote and returns (passed, detail,
result_err). `result_err` is the distance of the result from what it should
be, so that a speed-up bought with accuracy shows: |gamma_hat - 1/4| on
decay-flat and |nu(8) - 3/4| on spectra-negative. On the Monte Carlo
workloads it is the largest 99% binomial half-width of the table, which
grows when fewer paths are simulated but hardly moves with a bias; there
the pass/fail check alone guards accuracy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUTS = Path(__file__).resolve().parent / "inputs"
# Half-widths of the stream-independent reference comparison: with z = 5 a
# correct program fails one comparison with probability below 1e-6, so the
# hundreds of comparisons a benchmark session makes stay clean.
Z_REF = 5.0


def wilson_half_width(k: int, n: int, z: float) -> float:
    """Half-width of the Wilson interval for k successes in n, as striplab uses."""
    p = k / n
    z2 = z * z
    return (z / (1.0 + z2 / n)) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(tok) for tok in ln.split(",")] for ln in lines[1:] if ln.strip()]


def _out(cfg, name: str) -> Path:
    return cfg.out_dir / cfg.kind / name


def check_decay_flat(cfgs):
    """Acceptance criterion 4's gates on the decay fit."""
    (cfg,) = cfgs
    fit = json.loads(_out(cfg, "decay_fit.json").read_text())
    rows = read_csv(_out(cfg, "trajectory.csv"))
    e1_exact = (math.pi / (2.0 * cfg.a)) ** 2
    g_err = abs(fit["gamma_hat"] - 0.25)
    l_err = abs(fit["lambda_hat"] - e1_exact)
    expected_rows = int(round(float(cfg.controls["t_end"]) / float(cfg.controls["checkpoint_step"]))) + 1
    ok = g_err <= 0.05 and l_err <= 0.01 and len(rows) == expected_rows
    detail = (
        f"gamma_hat {fit['gamma_hat']:.5f} (|err| {g_err:.2e} <= 0.05), "
        f"lambda_hat {fit['lambda_hat']:.6f} (|err| {l_err:.2e} <= 0.01), {len(rows)} checkpoints"
    )
    return ok, detail, g_err


def check_spectra_negative(cfgs):
    """Criterion 3's frame rules and criterion 10's Hardy certificate."""
    nu_cfg, hardy_cfg = cfgs
    rows = read_csv(_out(nu_cfg, "nu_sweep.csv"))
    s = [r[0] for r in rows]
    nu = [r[2] for r in rows]
    mono = all(b - a >= -1e-9 for a, b in zip(nu, nu[1:]))
    dev = abs(nu[s.index(8.0)] - 0.75)
    (hardy,) = read_csv(_out(hardy_cfg, "hardy.csv"))
    c_k, margin = hardy[3], hardy[4]
    ok = mono and dev <= 0.05 and c_k > 0 and margin >= -1e-6
    detail = (
        f"nu {[round(v, 4) for v in nu]} monotone {mono}, |nu(8) - 3/4| {dev:.4f} <= 0.05; "
        f"c_K {c_k:.3e} > 0, margin {margin:.3e} >= -1e-6"
    )
    return ok, detail, dev


def _mc_table(cfg):
    rows = read_csv(_out(cfg, "mc.csv"))
    n = int(cfg.controls["n_paths"])
    return [(r[0], int(r[1]), r[2], 0.5 * (r[4] - r[3])) for r in rows], n


def check_mc_flat(cfgs):
    """Criterion 7's rule: every estimate within 3 half-widths of the series."""
    from striplab import oracle

    (cfg,) = cfgs
    table, _ = _mc_table(cfg)
    x0 = tuple(float(v) for v in cfg.controls["x0"])
    worst = 0.0
    for t, _alive, p, hw in table:
        exact, _tail = oracle.flat_survival(x0, None, t, cfg.a)
        worst = max(worst, abs(p - exact) / hw)
    ok = len(table) == len(cfg.controls["t_lattice"]) and worst <= 3.0
    return ok, f"worst deviation {worst:.2f} half-widths (<= 3) over {len(table)} times", max(r[3] for r in table)


def check_mc_curved(cfgs):
    """Non-increasing survival, and agreement with the recorded reference
    table within the summed z = 5 Wilson half-widths of both tables. The
    check does not need the reference's random stream."""
    (cfg,) = cfgs
    table, n = _mc_table(cfg)
    ref = json.loads((INPUTS / "curved_mc_reference.json").read_text())
    est = [r[2] for r in table]
    mono = all(b <= a for a, b in zip(est, est[1:]))
    worst = 0.0
    for (_t, alive, p, _hw), k_ref in zip(table, ref["alive"]):
        tol = wilson_half_width(alive, n, Z_REF) + wilson_half_width(k_ref, ref["n_paths"], Z_REF)
        worst = max(worst, abs(p - k_ref / ref["n_paths"]) / tol)
    same_times = [r[0] for r in table] == ref["t"]
    detail = f"non-increasing {mono}, worst reference gap {worst:.2f} of the allowed (<= 1)"
    return mono and same_times and worst <= 1.0, detail, max(r[3] for r in table)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                 # the one-line reason it exists (BENCHMARK.json)
    exercises: str           # the layers and ROADMAP items it should move
    idle: str                # the layers it should leave alone
    dominant: str            # predicted layer with the largest self time
    configs: tuple           # (file in inputs/, base seed or None)
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decay-flat",
            why="flat-strip weighted decay fit: implicit trapezoidal steps on 28 153 unknowns dominate",
            exercises="evolution (factorization, one step per dt: ROADMAP item 2); a little spectral assembly",
            idle="stochastic; spectral eigensolves and Hardy work",
            dominant="evolution",
            configs=(("decay_flat.ini", None),),
            check=check_decay_flat,
        ),
        Workload(
            name="spectra-negative",
            why="frame eigenvalue sweep plus Hardy certificate on the negative strip: assembly and eigensolves",
            exercises="spectral assembly, shift-invert eigensolves, mu-profile and Hardy (ROADMAP item 4)",
            idle="evolution and stochastic",
            dominant="spectral",
            configs=(("negative_nu_sweep.ini", None), ("negative_hardy.ini", 4242)),
            check=check_spectra_negative,
        ),
        # Not in BENCHMARK.json: the time limit for all gated runs leaves room
        # for three workloads of 40 s. Run it by hand as ROADMAP item 3's control.
        Workload(
            name="mc-flat",
            why="killed diffusion on the flat strip, which bypasses field interpolation: the Monte Carlo control",
            exercises="stochastic path stepping without interpolation (ROADMAP item 3 must not slow it)",
            idle="evolution and spectral; SdeSpec field interpolation",
            dominant="stochastic",
            configs=(("flat_mc.ini", 20260809),),
            check=check_mc_flat,
        ),
        Workload(
            name="mc-curved",
            why="killed diffusion on criterion 8's curved strip: interpolated fields, most path-steps dead",
            exercises="stochastic interpolation and dead-path stepping (ROADMAP item 3: compaction, one lookup)",
            idle="evolution and spectral",
            dominant="stochastic",
            configs=(("curved_mc.ini", 78),),
            check=check_mc_curved,
        ),
    )
}
