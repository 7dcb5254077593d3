"""Reproducible experiment runner.

Config files are plain text with named blocks of key = value pairs
(geometry, curvature, experiment, output). Runs write fixed-schema CSV
files plus a manifest; reruns of an identical config reproduce identical
CSV bytes. Exit codes: 0 success, 2 invalid config, 3 numerical failure,
4 acceptance failure (report mode).
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry as geo
from . import oracle
from .errors import (
    AcceptanceFailure,
    ConfigInvalid,
    NumericalFailure,
    StripLabError,
)

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "run", "main"]

_GEOMETRY = {"a": float, "l": float, "n1": int, "n2": int}
# [curvature] kind -> profile constructor; the block's other keys are its keywords
_PROFILES = {
    "zero": geo.zero_profile,
    "gaussian-bump": geo.gaussian_bump,
    "constant-on-box": geo.constant_on_box,
    "ruled": geo.ruled_profile,
}


@dataclass(eq=False)
class ExperimentConfig:
    a: float
    L: float
    n1: int
    n2: int
    profile_kind: str
    profile_params: dict
    kind: str
    controls: dict
    out_dir: Path
    source_path: Path = None
    source_bytes: bytes = b""

    def build_metric(self) -> geo.MetricField:
        """The configured strip's metric, which carries its curvature profile."""
        prof = _PROFILES[self.profile_kind](**self.profile_params)
        geom = geo.StripGeometry(a=self.a, L=self.L, n1=self.n1, n2=self.n2)
        if self.profile_kind == "ruled":
            return geo.ruled_strip(prof, geom)
        return geo.solve_jacobi(prof, geom)


@dataclass(eq=False)
class RunManifest:
    config_hash: str
    version: str
    wall_seconds: float
    outputs: list = field(default_factory=list)

    def write(self, path: Path) -> None:
        lines = [
            f"config_hash = {self.config_hash}",
            f"tool_version = {self.version}",
            f"wall_seconds = {self.wall_seconds:.3f}",
        ]
        lines += [f"output = {name}" for name in self.outputs]
        path.write_text("\n".join(lines) + "\n")


def _typed(section: str, key: str, text: str, kind):
    """The text of ``[section] key`` as a ``kind``: a float takes a number, an
    int a whole number, a list one number or several, a tuple two numbers, a
    bool true/yes/on or false/no/off and ``_box`` a box. Each comma-split,
    non-blank item is read by ``float()``, so ``nan`` and ``inf`` are numbers,
    which the layer using them checks. ConfigInvalid names the key."""
    name = f"[{section}] {key}"
    if kind is _box:
        return _box(text, name)
    if kind is bool:
        word = text.strip().lower()
        if word in ("true", "yes", "on", "false", "no", "off"):
            return word in ("true", "yes", "on")
        raise ConfigInvalid(f"{name} must be true or false, got {text!r}")
    items = [tok for tok in text.split(",") if tok.strip()]
    try:
        numbers = [float(tok) for tok in items]
    except ValueError:
        numbers = []
    size = {list: max(len(items), 1), tuple: 2}.get(kind, 1)
    if len(numbers) != len(items) or size != len(items) or (kind is int and not numbers[0].is_integer()):
        what = {float: "a number", int: "a number with no fractional part",
                list: "one number or several", tuple: "two numbers"}[kind]
        raise ConfigInvalid(f"{name} must be {what}, got {text!r}")
    if kind is int:  # int() first keeps a whole number above 2**53 exact
        return int(items[0]) if items[0].strip().lstrip("+-").isdigit() else int(numbers[0])
    return numbers if kind is list else tuple(numbers) if kind is tuple else numbers[0]


def load_config(path, out_override=None, seed_override=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"config file {path} does not exist")
    raw = path.read_bytes()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(raw.decode())
    except configparser.Error as exc:
        raise ConfigInvalid(f"cannot parse {path}: {exc}")
    for section in ("geometry", "curvature", "experiment"):
        if section not in cp:
            raise ConfigInvalid(f"missing [{section}] block")
    g, c, e = (dict(cp[section]) for section in ("geometry", "curvature", "experiment"))
    out = cp["output"].get("dir", "out") if "output" in cp else "out"
    out = os.environ.get("OUTPUT_DIR", out)
    if out_override:
        out = out_override
    try:
        profile_kind, kind = c.pop("kind"), e.pop("kind")
        geometry = {key: _typed("geometry", key, g[key], cast) for key, cast in _GEOMETRY.items()}
    except KeyError as exc:
        raise ConfigInvalid(f"missing required key {exc}")
    if kind not in _KINDS:
        raise ConfigInvalid(f"unknown experiment kind {kind!r}")
    _, modules, keys = _KINDS[kind]
    for section, known in {"geometry": _GEOMETRY, "output": ("dir",), "experiment": ("kind", *keys)}.items():
        unknown = sorted(set(cp[section]) - set(known)) if section in cp else []
        if unknown:
            raise ConfigInvalid(f"unknown keys in [{section}]: {', '.join(unknown)}")
    if seed_override is not None and "seed" in keys:
        e["seed"] = str(seed_override)
    controls = {key: _typed("experiment", key, e[key], cast) if key in e else default
                for key, (cast, default) in keys.items()}
    if profile_kind not in _PROFILES:
        raise ConfigInvalid(f"unknown profile kind {profile_kind!r}")
    params = {key: _typed("curvature", key, v, float) for key, v in c.items()}
    try:
        prof = _PROFILES[profile_kind](**params)
    except (TypeError, ValueError) as exc:  # a missing or unknown key, or a value out of range
        raise ConfigInvalid(f"[curvature] for kind {profile_kind!r}: {exc}")
    cfg = ExperimentConfig(
        a=geometry["a"], L=geometry["l"], n1=geometry["n1"], n2=geometry["n2"],
        profile_kind=profile_kind, profile_params=params,
        kind=kind, controls=controls, out_dir=Path(out), source_path=path, source_bytes=raw,
    )
    try:
        geom = geo.StripGeometry(a=cfg.a, L=cfg.L, n1=cfg.n1, n2=cfg.n2)
        geo.check_compatible(prof, geom)
    except StripLabError as exc:
        raise ConfigInvalid(str(exc))
    for name in modules(prof) if callable(modules) else modules:
        importlib.import_module(name)
    return cfg


def _box(text: str, name: str):
    """The text 'all' (None, no box) or 'x1_lo, x1_hi, x2_lo, x2_hi', blank
    items dropped, as two ranges. ConfigInvalid names the value ``name``: it is
    raised for any other text, a boolean word as an edge included, for a low
    edge above its high edge and for a NaN edge."""
    if text.strip() == "all":
        return None
    try:
        lo1, hi1, lo2, hi2 = (float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigInvalid(f"{name} must be 'all' or four numbers, got {text!r}")
    if not (lo1 <= hi1 and lo2 <= hi2):  # NaN included
        raise ConfigInvalid(f"{name} needs each low edge at most its high edge, none NaN, got {text!r}")
    return (lo1, hi1), (lo2, hi2)


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)  # nan, inf and -inf included


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _exp_jacobi(cfg, outdir):
    table = geo.metric_table(cfg.build_metric())
    p = outdir / "metric.csv"
    _write_csv(
        p,
        ["x1[len]", "x2[len]", "f[1]", "d2f[1/len]", "K[1/len^2]", "V[1/len^2]"],
        table,
    )
    return [p.name]


def _exp_spectrum(cfg, outdir):
    from . import spectral as sp

    metric = cfg.build_metric()
    pair = sp.assemble_hk(metric)
    k = cfg.controls["k"]
    res = sp.lowest_eigenpairs(pair, k=k)
    p = outdir / "spectrum.csv"
    rows = [
        (cfg.L, i, res.eigenvalues[i], res.residuals[i]) for i in range(k)
    ]
    _write_csv(p, ["parameter[len]", "index[1]", "eigenvalue[1/time]", "residual[1]"], rows)
    return [p.name]


def _exp_mu(cfg, outdir):
    from . import spectral as sp

    metric = cfg.build_metric()
    mu = sp.transverse_mu_profile(metric, metric.x1)
    bound = sp.thin_strip_bound(metric.profile, cfg.a, metric.x1)
    p = outdir / "mu.csv"
    _write_csv(
        p,
        ["x1[len]", "mu[1/time]", "thin_bound[1/time]"],
        zip(metric.x1, mu, bound),
    )
    return [p.name]


def _exp_nu_sweep(cfg, outdir):
    from . import spectral as sp

    metric = cfg.build_metric()
    ctr = cfg.controls
    sweep = sp.frame_sweep(metric, ctr["s_lattice"], ctr["frame_half_width"], ctr["frame_cells"])
    rows = [(s, 0, res.eigenvalues[0], res.residuals[0]) for s, res in zip(ctr["s_lattice"], sweep)]
    p = outdir / "nu_sweep.csv"
    _write_csv(p, ["s[1]", "index[1]", "nu[1]", "residual[1]"], rows)
    return [p.name]


def _exp_hardy(cfg, outdir):
    from . import spectral as sp

    metric = cfg.build_metric()
    cert = sp.pick_hardy_interval(metric)
    trials, seed = cfg.controls["trials"], cfg.controls["seed"]
    margin = sp.hardy_verify(metric, sp.hardy_weight(metric, cert), trials=trials, seed=seed)
    p = outdir / "hardy.csv"
    _write_csv(
        p,
        ["c[1]", "C[1]", "lambda_J[1/time]", "c_K[1/time]", "margin[1/time]",
         "J_lo[len]", "J_hi[len]", "trials[1]", "seed[1]"],
        [(cert.c, cert.C, cert.lambda_J, cert.c_K, margin, cert.J[0], cert.J[1], trials, seed)],
    )
    return [p.name]


def _exp_evolve(cfg, outdir):
    from . import evolution as ev

    ctr = cfg.controls
    metric = cfg.build_metric()
    tr, fit, e1h = ev.decay_run(metric, ctr["alpha"], ctr["t_end"], ctr["checkpoint_step"],
                                ctr["fit_window"], ctr["dt"])
    p = outdir / "trajectory.csv"
    _write_csv(
        p,
        ["t[time]", "norm_f[1]", "mode1_fraction[1]"],
        zip(tr.times, tr.norm_f, tr.mode1_fraction),
    )
    q = outdir / "decay_fit.json"
    record = {
        "lambda_hat": fit.lambda_hat,
        "gamma_hat": fit.gamma_hat,
        "stderr_lambda": fit.stderr_lambda,
        "stderr_gamma": fit.stderr_gamma,
        "window_lo": fit.window[0],
        "window_hi": fit.window[1],
        "residual_norm": fit.residual_norm,
        "reference_rate": e1h,
    }
    q.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    return [p.name, q.name]


def _exp_mc(cfg, outdir):
    from . import stochastic as st

    metric = cfg.build_metric()
    sde = st.sde_from_metric(metric)
    ctr = cfg.controls
    lattice = ctr["t_lattice"]
    ens = st.simulate_killed(
        sde, ctr["x0"], t_max=max(lattice), dt=ctr["dt"],
        n_paths=ctr["n_paths"], seed=ctr["seed"], checkpoints=lattice, box_limit=cfg.L,
    )
    rows = []
    for t in lattice:
        e = st.survival_estimate(ens, ctr["box"], t)
        rows.append(
            (t, int(ens.alive_at(t).sum()), e.probability,
             e.probability - e.half_width, e.probability + e.half_width)
        )
    p = outdir / "mc.csv"
    _write_csv(p, ["t[time]", "alive[1]", "estimate[1]", "ci_low[1]", "ci_high[1]"], rows)
    names = [p.name]
    if ctr["dump_paths"]:
        q = outdir / "paths.csv"
        q.write_text(_paths_csv(ens))
        names.append(q.name)
    return names


def _paths_csv(ens) -> str:
    """Text of paths.csv: one row per checkpoint and path, formatted as _fmt would."""
    pid = np.arange(ens.n_paths).astype(str).tolist()
    lines = ["path_id[1],t[time],x1[len],x2[len]"]
    for ci, t in enumerate(ens.checkpoint_times):
        # a float32 array cast to str gives each element's str(), its shortest repr
        x = ens.positions[ci].astype(str)
        lines += map(",".join, zip(pid, repeat(_fmt(t)), x[:, 0].tolist(), x[:, 1].tolist()))
    return "\n".join(lines) + "\n"


def _report(include_slow: bool, path) -> None:
    """Run the acceptance suite and print one line per criterion, also to
    ``path`` unless it is None; raise AcceptanceFailure if any criterion failed."""
    from .acceptance import run_all

    results = run_all(include_slow=include_slow)
    text = "".join(f"{r}\n" for r in results)
    print(text, end="")
    if path is not None:
        path.write_text(text)
    if not all(r.passed for r in results):
        raise AcceptanceFailure("one or more acceptance criteria failed")


def _exp_report(cfg, outdir):
    p = outdir / "report.txt"
    # a config loaded as another kind and switched to report may lack the key
    _report(cfg.controls.get("include_slow", True), p)
    return [p.name]


# scipy's modules that the banded factors and solves, and the assembly's
# sparse matrices, import where they call them; the spectral kinds and the
# report also preload numpy's lazily loaded random module, which cold
# eigensolves, Hardy trials and the report's Monte Carlo draw from
_SCIPY = ("scipy.linalg", "scipy.sparse")
_SPECTRAL = ("striplab.spectral", "numpy.random", *_SCIPY)


def _evolve_modules(profile) -> tuple:
    """A flat strip's decay run works in the sine basis with numpy alone
    (``MetricField.flat``: ``sup_norm == 0``); a curved one assembles its
    pair and factors it."""
    return ("striplab.evolution", *(() if profile.sup_norm == 0.0 else _SCIPY))


# experiment kind -> (runner, every module it imports besides striplab.cli's
# own, scipy's included, by absolute name, or a function of the curvature
# profile giving them, which load_config imports so that run imports nothing,
# and its [experiment] keys besides kind as {key: (type for _typed, default)})
_KINDS = {
    "jacobi": (_exp_jacobi, (), {}),
    "spectrum": (_exp_spectrum, _SPECTRAL, {"k": (int, 4)}),
    "mu": (_exp_mu, _SPECTRAL, {}),
    "nu-sweep": (_exp_nu_sweep, _SPECTRAL, {
        "s_lattice": (list, [0.0, 1.0, 2.0, 4.0, 8.0]), "frame_half_width": (float, 16.0),
        "frame_cells": (int, 640)}),
    "hardy": (_exp_hardy, _SPECTRAL, {"trials": (int, 100), "seed": (int, 0)}),
    # None: the default depends on other keys, and decay_run works it out
    "evolve": (_exp_evolve, _evolve_modules, {
        "alpha": (float, 1.0), "t_end": (float, 100.0), "checkpoint_step": (float, 0.5),
        "fit_window": (tuple, None), "dt": (float, None)}),
    "mc": (_exp_mc, ("striplab.stochastic",), {
        "x0": (tuple, (0.0, 0.0)), "t_lattice": (list, [1.0]), "dt": (float, 1e-3),
        "n_paths": (int, 10000), "seed": (int, 0), "box": (_box, None),
        "dump_paths": (bool, False)}),
    "report": (_exp_report, ("striplab.acceptance", "numpy.random", *_SCIPY),
               {"include_slow": (bool, True)}),
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Dispatch the configured experiment and write outputs plus a manifest."""
    t0 = time.perf_counter()
    outdir = cfg.out_dir / cfg.kind
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        runner, _, _ = _KINDS[cfg.kind]
        outputs = runner(cfg, outdir)
    except (StripLabError, KeyboardInterrupt):
        raise
    except Exception as exc:
        raise NumericalFailure(f"{cfg.kind} experiment failed: {exc}") from exc
    manifest = RunManifest(
        config_hash=hashlib.sha256(cfg.source_bytes).hexdigest(),
        version=__version__,
        wall_seconds=time.perf_counter() - t0,
        outputs=[f"{cfg.kind}/{name}" for name in outputs],
    )
    manifest.write(outdir / "manifest.txt")
    return manifest


# -------------------------------------------------------------------- main --

def _check_distinct_outputs(cfgs) -> None:
    """Raise ConfigInvalid when two configs would write the same <out>/<kind>/."""
    seen = {}
    for cfg in cfgs:
        target = (cfg.out_dir / cfg.kind).resolve()
        if target in seen:
            raise ConfigInvalid(
                f"{seen[target]} and {cfg.source_path} both write to {target}"
            )
        seen[target] = cfg.source_path


# oracle query -> the arguments it reads
_ORACLE_ARGS = {
    "survival": ("x1", "x2", "box", "t", "a"),
    "kernel": ("x1", "x2", "y1", "y2", "t", "a"),
    "p0": ("t", "x", "y"),
    "modes": ("a", "n"),
}


def _oracle_query(tokens):
    """Tiny evaluator: 'survival|kernel|p0|modes key=value ...'; ``n`` is typed
    as a whole number, ``box`` as a box and every other argument as a number.
    An argument the query does not read is refused."""
    if not tokens:
        raise ConfigInvalid("oracle query is empty")
    what, kv = tokens[0], {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigInvalid(f"malformed oracle argument {tok!r}")
        key, val = tok.split("=", 1)
        kv[key] = _typed("oracle", key, val, {"n": int, "box": _box}.get(key, float))
    if what not in _ORACLE_ARGS:
        raise ConfigInvalid(f"unknown oracle query {what!r}")
    unread = sorted(set(kv) - set(_ORACLE_ARGS[what]))
    if unread:
        raise ConfigInvalid(f"oracle {what} reads only {', '.join(_ORACLE_ARGS[what])}, "
                            f"not {', '.join(unread)}")
    try:
        if what == "survival":
            v, tail = oracle.flat_survival(
                (kv.get("x1", 0.0), kv.get("x2", 0.0)), kv.get("box"), kv["t"], kv["a"]
            )
            print(f"survival = {v:.10g} (tail bound {tail:.3g})")
        elif what == "kernel":
            v, tail = oracle.flat_kernel(
                (kv["x1"], kv["x2"]), (kv["y1"], kv["y2"]), kv["t"], kv["a"]
            )
            print(f"kernel = {v:.10g} (tail bound {tail:.3g})")
        elif what == "p0":
            print(f"p0 = {oracle.killed_halfline_kernel(kv['t'], kv['x'], kv['y']):.10g}")
        elif what == "modes":
            for m in oracle.transverse_modes(kv["a"], kv.get("n", 3)):
                print(f"n = {m.index}  energy = {m.energy:.10g}")
    except KeyError as exc:
        raise ConfigInvalid(f"oracle {what} needs the argument {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"oracle {what}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="strip-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from config files")
    p_run.add_argument("configs", nargs="+")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)

    p_rep = sub.add_parser("report", help="run the acceptance suite")
    p_rep.add_argument("config", nargs="?", default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--skip-slow", action="store_true")

    p_or = sub.add_parser("oracle", help="evaluate closed-form quantities")
    p_or.add_argument("query", nargs="+")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.jobs < 1:
                raise ConfigInvalid(f"--jobs must be at least 1, not {args.jobs}")
            cfgs = [
                load_config(p, out_override=args.out, seed_override=args.seed)
                for p in args.configs
            ]
            _check_distinct_outputs(cfgs)
            jobs = min(args.jobs, len(cfgs))
            if jobs == 1:
                for cfg in cfgs:
                    run(cfg)
            else:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    list(pool.map(run, cfgs))
        elif args.command == "report":
            if args.config:
                cfg = load_config(args.config, out_override=args.out)
                cfg.controls["include_slow"] = not args.skip_slow
                cfg.kind = "report"
                run(cfg)
            elif args.out is not None:
                raise ConfigInvalid("report --out needs a config: without one the report is only printed")
            else:
                _report(not args.skip_slow, None)
        elif args.command == "oracle":
            _oracle_query(args.query)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AcceptanceFailure as exc:
        print(f"acceptance: {exc}", file=sys.stderr)
        return 4
    except StripLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
