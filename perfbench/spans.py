"""Spans around the public calls of each striplab layer, recorded from outside.

`traced(tracer)` replaces every wrapped function, in every loaded striplab
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent) and re-raises whatever the call raised. On exit
it puts every original back. Nothing inside `src/` is edited.

`layer_metrics` turns the spans of one run into the per-layer figures the
benchmark reports: self time per span name and per layer, call counts, and
the exact work counts (unknowns, eigensolver solves, evolution steps,
path-steps) read from the arguments and results of the calls.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("geometry", "spectral", "evolution", "stochastic", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span in Tracer.spans
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.evolve_calls: list[dict] = []   # arguments kept for the factor-only rerun
        self._stack: list[int] = []
        self._clock = clock

    def call(self, name, fn, args, kwargs, probe=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._clock(), math.nan, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self._clock()
            self._stack.pop()
        if probe is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.info = probe(self, result, bound.arguments)
        return result


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


# ------------------------------------------------------------------ probes --

def _pair_size(tracer, pair, args):
    if not hasattr(pair, "S"):          # assemble_potential returns one matrix
        return {}
    return {"unknowns": pair.n, "nnz": pair.S.nnz + pair.M.nnz}


def _eig(tracer, res, args):
    return {"solves": res.iterations, "residual": float(max(res.residuals))}


def _mu(tracer, mu, args):
    return {"columns": int(len(mu))}


def _evolve(tracer, traj, args):
    tracer.evolve_calls.append(
        {"pair": args["pair"], "u0": args["u0"], "dt": args["dt"], "shift": args["shift"]}
    )
    # the last checkpoint is a whole number of steps after the start
    return {"steps": int(round((traj.final.t - args["u0"].t) / args["dt"]))}


def live_path_steps(ensemble) -> tuple[int, int]:
    """(path-steps taken by live paths, path-steps taken) of one ensemble.

    A path killed at step k was live for steps 1..k; a censored path
    (kill_time inf) was live for every step. All paths are stepped to t_max.
    """
    import numpy as np

    n_steps = int(round(ensemble.t_max / ensemble.dt)) if ensemble.t_max > 0 else 0
    live = np.minimum(np.round(ensemble.kill_time / ensemble.dt), n_steps)
    return int(live.sum()), ensemble.n_paths * n_steps


def _simulate(tracer, ens, args):
    live, total = live_path_steps(ens)
    return {"live_steps": live, "path_steps": total}


def _run(tracer, manifest, args):
    out = args["cfg"].out_dir
    size = sum((out / name).stat().st_size for name in manifest.outputs if name.endswith(".csv"))
    return {"csv_bytes": size}


# (module, attribute, span name, probe); "Class.method" patches the class.
TARGETS = (
    ("striplab.geometry", "solve_jacobi", "geometry.metric", None),
    ("striplab.geometry", "ruled_strip", "geometry.metric", None),
    ("striplab.geometry", "MetricField.sample", "geometry.sample", None),
    ("striplab.spectral", "assemble_hk", "spectral.assemble", _pair_size),
    ("striplab.spectral", "assemble_Ls", "spectral.assemble", _pair_size),
    ("striplab.spectral", "assemble_potential", "spectral.assemble", _pair_size),
    ("striplab.spectral", "make_y_grid", "spectral.assemble", None),
    ("striplab.spectral", "lowest_eigenpairs", "spectral.eig", _eig),
    ("striplab.spectral", "transverse_mu_profile", "spectral.mu", _mu),
    ("striplab.spectral", "pick_hardy_interval", "spectral.hardy", None),
    ("striplab.spectral", "hardy_verify", "spectral.hardy", None),
    ("striplab.evolution", "weighted_initial", "evolution.initial", None),
    ("striplab.evolution", "evolve", "evolution.evolve", _evolve),
    ("striplab.evolution", "fit_decay", "evolution.fit", None),
    ("striplab.stochastic", "sde_from_metric", "stochastic.sde", None),
    ("striplab.stochastic", "simulate_killed", "stochastic.simulate", _simulate),
    ("striplab.stochastic", "survival_estimate", "stochastic.estimate", None),
    ("striplab.cli", "run", "cli.run", _run),
)


def _wrapper(tracer, name, fn, probe):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, probe)

    return wrapped


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them."""
    import importlib

    patches = []   # (owner, attribute, original), in the order applied
    try:
        for module_name, attr, name, probe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, _wrapper(tracer, name, original, probe))
                continue
            original = getattr(module, attr)
            wrapped = _wrapper(tracer, name, original, probe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "striplab" or mod_name.startswith("striplab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


# ----------------------------------------------------------------- metrics --

def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced run whose cli.run calls took wall_s."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    errors = {layer: 0 for layer in LAYERS}
    residual = 0.0
    for s, t in zip(spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        errors[s.name.split(".")[0]] += int(s.error)
        for key, value in s.info.items():
            if key == "residual":
                residual = max(residual, value)
            else:
                info[key] = info.get(key, 0) + value

    def secs(name):
        return by_name.get(name, 0.0)

    m = {
        "geometry.metric_s": secs("geometry.metric"),
        "geometry.sample_s": secs("geometry.sample"),
        "geometry.sample_calls": calls.get("geometry.sample", 0),
        "spectral.assemble_s": secs("spectral.assemble"),
        "spectral.assemble_calls": calls.get("spectral.assemble", 0),
        "spectral.unknowns": info.get("unknowns", 0),
        "spectral.nnz": info.get("nnz", 0),
        "spectral.eig_s": secs("spectral.eig"),
        "spectral.eig_calls": calls.get("spectral.eig", 0),
        "spectral.eig_solves": info.get("solves", 0),
        "spectral.eig_residual_max": residual,
        "spectral.mu_s": secs("spectral.mu"),
        "spectral.mu_columns": info.get("columns", 0),
        "spectral.hardy_s": secs("spectral.hardy"),
        "evolution.evolve_s": secs("evolution.evolve"),
        "evolution.steps": info.get("steps", 0),
        "evolution.fit_s": secs("evolution.fit"),
        "stochastic.sde_s": secs("stochastic.sde"),
        "stochastic.simulate_s": secs("stochastic.simulate"),
        "stochastic.path_steps": info.get("path_steps", 0),
        "stochastic.ns_per_path_step": (
            1e9 * secs("stochastic.simulate") / info["path_steps"] if info.get("path_steps") else 0.0
        ),
        "stochastic.alive_step_ratio": (
            info["live_steps"] / info["path_steps"] if info.get("path_steps") else 0.0
        ),
        "stochastic.estimate_s": secs("stochastic.estimate"),
        "cli.run_s": sum((s.seconds for s in spans if s.name == "cli.run"), 0.0),
        "cli.csv_bytes": info.get("csv_bytes", 0),
    }
    for layer in LAYERS:
        self_s = sum((t for name, t in by_name.items() if name.split(".")[0] == layer), 0.0)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.wall_share"] = self_s / wall_s if wall_s > 0 else 0.0
        m[f"{layer}.errors"] = errors[layer]
    return m


def factor_seconds(tracer: Tracer) -> float:
    """Rerun each traced evolve with only its start checkpoint: the set-up
    cost of a call (operator build and factorization) without its steps."""
    from striplab import evolution

    total = 0.0
    for call in tracer.evolve_calls:
        t0 = time.perf_counter()
        evolution.evolve(call["pair"], call["u0"], [call["u0"].t], dt=call["dt"], shift=call["shift"])
        total += time.perf_counter() - t0
    return total
