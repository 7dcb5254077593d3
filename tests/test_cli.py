import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from striplab import cli
from striplab import stochastic as st
from striplab.errors import ConfigInvalid


FLAT_SPECTRUM = """
[geometry]
a = 1.5707963267948966
L = 20.0
n1 = 120
n2 = 24

[curvature]
kind = zero

[experiment]
kind = spectrum
k = 3

[output]
dir = {out}
"""

RULED_NU = """
[geometry]
a = 0.5
L = 10.0
n1 = 80
n2 = 24

[curvature]
kind = ruled
theta_dot_max = 0.35
support_radius = 6.0

[experiment]
kind = nu-sweep
s_lattice = 0.0, 2.0
frame_half_width = 13.0
frame_cells = 260

[output]
dir = {out}
"""

FLAT_EVOLVE = """
[geometry]
a = 1.5707963267948966
L = 20.0
n1 = 100
n2 = 16

[curvature]
kind = zero

[experiment]
kind = evolve
alpha = 1.0
t_end = 12.0
checkpoint_step = 0.5
dt = 0.02
fit_window = 2.0, 12.0

[output]
dir = {out}
"""

FLAT_MC = """
[geometry]
a = 1.5707963267948966
L = 20.0
n1 = 40
n2 = 12

[curvature]
kind = zero

[experiment]
kind = mc
x0 = 0.0, 0.0
t_lattice = 0.5, 1.0
dt = 0.002
n_paths = 5000
seed = 7

[output]
dir = {out}
"""


BUMP_JACOBI = """
[geometry]
a = 1.0
L = 12.0
n1 = 24
n2 = 8

[curvature]
kind = gaussian-bump
amplitude = 0.45
width = 2.0
support_radius = 8.0

[experiment]
kind = jacobi

[output]
dir = {out}
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "out"))
    return p


def test_load_config_and_validation(tmp_path):
    p = _write(tmp_path, FLAT_SPECTRUM)
    cfg = cli.load_config(p)
    assert cfg.kind == "spectrum"
    assert cfg.a == pytest.approx(math.pi / 2)
    with pytest.raises(ConfigInvalid):
        cli.load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[geometry]\na = 1\n")
    with pytest.raises(ConfigInvalid):
        cli.load_config(bad)


def test_config_rejects_wide_strip(tmp_path):
    text = FLAT_SPECTRUM.replace("kind = zero", "kind = gaussian-bump\namplitude = 0.9\nwidth = 1.0\nsupport_radius = 3.0")
    p = _write(tmp_path, text)
    with pytest.raises(ConfigInvalid):
        cli.load_config(p)


def test_spectrum_run_outputs_and_reproducibility(tmp_path):
    p = _write(tmp_path, FLAT_SPECTRUM)
    cfg = cli.load_config(p)
    manifest = cli.run(cfg)
    out = tmp_path / "out" / "spectrum"
    csv = out / "spectrum.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header.split(",")[0].startswith("parameter")
    first = csv.read_bytes()
    man1 = (out / "manifest.txt").read_text()
    assert "config_hash" in man1 and "tool_version" in man1
    # byte-identical rerun
    cli.run(cli.load_config(p))
    assert csv.read_bytes() == first
    rows = csv.read_text().splitlines()[1:]
    lam0 = float(rows[0].split(",")[2])
    assert lam0 == pytest.approx(1.0, abs=2e-2)
    assert manifest.outputs == ["spectrum/spectrum.csv"]


def test_nu_sweep_run_and_plot(tmp_path):
    p = _write(tmp_path, RULED_NU)
    cli.run(cli.load_config(p))
    csv = tmp_path / "out" / "nu-sweep" / "nu_sweep.csv"
    rows = csv.read_text().splitlines()
    assert rows[0].split(",")[0].startswith("s")
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert vals[1] > vals[0] > 0.25


def test_nu_sweep_column_is_the_frame_sweep(tmp_path):
    from striplab import spectral as sp

    cfg = cli.load_config(_write(tmp_path, RULED_NU))
    cli.run(cfg)
    rows = (tmp_path / "out" / "nu-sweep" / "nu_sweep.csv").read_text().splitlines()[1:]
    sweep = sp.frame_sweep(cfg.build_metric(), [0.0, 2.0], 13.0, 260)
    assert [r.split(",")[2] for r in rows] == [cli._fmt(res.eigenvalues[0]) for res in sweep]


def test_evolve_run_fit_record_and_plot(tmp_path):
    p = _write(tmp_path, FLAT_EVOLVE)
    cli.run(cli.load_config(p))
    out = tmp_path / "out" / "evolve"
    traj = out / "trajectory.csv"
    fitjson = out / "decay_fit.json"
    assert traj.exists() and fitjson.exists()
    record = json.loads(fitjson.read_text())
    assert set(record) >= {"lambda_hat", "gamma_hat", "stderr_gamma", "window_lo"}
    assert record["gamma_hat"] == pytest.approx(0.25, abs=0.08)
    # headers carry units
    assert "[time]" in traj.read_text().splitlines()[0]


def test_mc_run(tmp_path):
    p = _write(tmp_path, FLAT_MC)
    cli.run(cli.load_config(p))
    csv = tmp_path / "out" / "mc" / "mc.csv"
    rows = csv.read_text().splitlines()
    assert rows[0] == "t[time],alive[1],estimate[1],ci_low[1],ci_high[1]"
    est = [float(r.split(",")[2]) for r in rows[1:]]
    assert est[0] >= est[1] > 0


def test_mc_paths_dump_matches_row_loop(tmp_path):
    text = FLAT_MC.replace("n_paths = 5000", "n_paths = 700").replace(
        "seed = 7", "seed = 7\ndump_paths = true"
    )
    cfg = cli.load_config(_write(tmp_path, text))
    cli.run(cfg)
    dumped = (tmp_path / "out" / "mc" / "paths.csv").read_bytes()

    metric = cfg.build_metric()
    ens = st.simulate_killed(
        st.sde_from_metric(metric), (0.0, 0.0), t_max=1.0, dt=0.002, n_paths=700,
        seed=7, checkpoints=[0.5, 1.0], box_limit=cfg.L,
    )
    rows = []
    for ci, t in enumerate(ens.checkpoint_times):
        for pid in range(ens.n_paths):
            rows.append((pid, t, ens.positions[ci, pid, 0], ens.positions[ci, pid, 1]))
    ref = tmp_path / "reference.csv"
    cli._write_csv(ref, ["path_id[1]", "t[time]", "x1[len]", "x2[len]"], rows)
    assert dumped == ref.read_bytes()


def test_config_rejects_unknown_experiment_keys(tmp_path):
    misspelt = FLAT_MC.replace("n_paths = 5000", "n_path = 5000")
    with pytest.raises(ConfigInvalid, match="n_path"):
        cli.load_config(_write(tmp_path, misspelt))
    # a key that only another kind reads is unknown here too
    foreign = FLAT_SPECTRUM.replace("k = 3", "k = 3\nn_paths = 10")
    with pytest.raises(ConfigInvalid, match="n_paths"):
        cli.load_config(_write(tmp_path, foreign))
    assert cli.main(["run", str(_write(tmp_path, misspelt))]) == 2


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("amplitude = 0.45\n", "", "amplitude"),
        ("width = 2.0", "width = 2.0\ncentre = 3.0", "centre"),
        ("width = 2.0", "width = -2.0", "width"),
        ("kind = gaussian-bump", "kind = gauss-bump", "gauss-bump"),
        ("n2 = 8", "n2 = 8\nnn1 = 7", "nn1"),
        ("dir = {out}", "dir = {out}\ndri = elsewhere", "dri"),
    ],
    ids=["curvature-missing", "curvature-misspelt", "curvature-bad-value",
         "curvature-unknown-kind", "geometry-unknown", "output-unknown"],
)
def test_config_block_errors_name_the_key(tmp_path, capsys, old, new, named):
    assert cli.main(["run", str(_write(tmp_path, BUMP_JACOBI))]) == 0
    bad = _write(tmp_path, BUMP_JACOBI.replace(old, new), "bad.ini")
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "bad")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    sorted((_ROOT / "configs").glob("*.ini")) + sorted((_ROOT / "perfbench" / "inputs").glob("*.ini")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_shipped_configs_load(path):
    assert cli.load_config(path).kind in cli._KINDS


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("not an ini at all [[[")
    assert cli.main(["run", str(bad)]) == 2
    good = _write(tmp_path, FLAT_SPECTRUM)
    assert cli.main(["run", str(good)]) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_rejects_configs_sharing_an_output_dir(tmp_path, capsys, jobs):
    first = _write(tmp_path, FLAT_SPECTRUM, "first.ini")
    second = _write(tmp_path, FLAT_SPECTRUM.replace("k = 3", "k = 2"), "second.ini")
    assert cli.main(["run", str(first), str(second), "--jobs", jobs]) == 2
    assert "both write to" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # checked before anything ran
    # a separate output directory resolves the collision
    second.write_text(FLAT_SPECTRUM.replace("k = 3", "k = 2").format(out=tmp_path / "other"))
    assert cli.main(["run", str(first), str(second), "--jobs", jobs]) == 0
    assert (tmp_path / "out" / "spectrum" / "spectrum.csv").exists()
    assert (tmp_path / "other" / "spectrum" / "spectrum.csv").exists()


def test_jobs_pool_is_capped_at_the_number_of_configs(tmp_path, capsys, monkeypatch):
    """A fake pool records the workers asked for; no process is started."""
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    first = _write(tmp_path, FLAT_SPECTRUM, "first.ini")
    second = _write(tmp_path, FLAT_SPECTRUM, "second.ini")
    second.write_text(FLAT_SPECTRUM.format(out=tmp_path / "other"))
    assert cli.main(["run", str(first), str(second), "--jobs", "1000"]) == 0
    assert asked == [2]
    for jobs in ("0", "-3"):
        assert cli.main(["run", str(first), str(second), "--jobs", jobs]) == 2
        assert f"--jobs must be at least 1, not {jobs}" in capsys.readouterr().err
    assert asked == [2]


def test_import_loads_neither_special_functions_nor_process_pools():
    """``scipy.special`` and the process pool load only where they run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, striplab.cli; "
        "print(sorted({'scipy.special', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _fresh_python(code: str) -> str:
    """Last stdout line of ``code`` run in a new interpreter that finds striplab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1]


def test_monte_carlo_jacobi_and_oracle_commands_never_load_scipy(tmp_path):
    """Only the kinds that assemble or solve with scipy pay for importing it:
    a flat decay run works in the sine basis with numpy alone."""
    mc, jacobi = _write(tmp_path, FLAT_MC, "mc.ini"), _write(tmp_path, BUMP_JACOBI, "jacobi.ini")
    evolve = _write(tmp_path, FLAT_EVOLVE, "evolve.ini")
    code = (
        "import sys; from striplab import cli; "
        f"cli.run(cli.load_config({str(mc)!r})); cli.run(cli.load_config({str(jacobi)!r})); "
        f"cli.run(cli.load_config({str(evolve)!r})); "
        "cli.main(['oracle', 'p0', 't=1.0', 'x=1.0', 'y=1.0']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code) == "[]"
    assert (tmp_path / "out" / "evolve" / "trajectory.csv").exists()


def test_a_flat_decay_run_never_loads_numpy_random(tmp_path):
    """Only Monte Carlo runs load ``stochastic``, and with it numpy's random
    module: a flat decay run, which draws nothing, loads neither."""
    evolve = _write(tmp_path, FLAT_EVOLVE)
    code = (
        "import sys; from striplab import cli; "
        f"cli.run(cli.load_config({str(evolve)!r})); "
        "print(sorted({'numpy.random', 'striplab.stochastic'} & set(sys.modules)))"
    )
    assert _fresh_python(code) == "[]"
    assert (tmp_path / "out" / "evolve" / "trajectory.csv").exists()


def test_load_config_of_a_report_loads_the_scipy_solvers(tmp_path):
    """The acceptance suite's eigensolves import scipy where they run, so
    load_config loads it for them, as it does for every kind that calls it."""
    report = _write(tmp_path, BUMP_JACOBI.replace("kind = jacobi", "kind = report"))
    code = (
        "import sys; from striplab import cli; "
        f"cli.load_config({str(report)!r}); "
        "print(sorted({'scipy.linalg', 'scipy.sparse.linalg'} & set(sys.modules)))"
    )
    assert _fresh_python(code) == "['scipy.linalg', 'scipy.sparse.linalg']"


# a small config of each kind that `strip-lab run` runs on its own
_SMALL = {
    "jacobi": BUMP_JACOBI,
    "spectrum": FLAT_SPECTRUM,
    "mu": BUMP_JACOBI.replace("kind = jacobi", "kind = mu"),
    "nu-sweep": RULED_NU,
    "hardy": RULED_NU.replace(
        "kind = nu-sweep\ns_lattice = 0.0, 2.0\nframe_half_width = 13.0\nframe_cells = 260",
        "kind = hardy\ntrials = 5",
    ),
    "evolve": FLAT_EVOLVE,
    "mc": FLAT_MC,
}
# a curved decay run takes the banded path, which calls scipy
CURVED_EVOLVE = BUMP_JACOBI.replace(
    "kind = jacobi", "kind = evolve\nt_end = 6.0\ndt = 0.05\nfit_window = 1.0, 6.0"
)


@pytest.mark.parametrize("kind", sorted(set(cli._KINDS) - {"report"}) + ["evolve-curved"])
def test_run_imports_no_module_that_load_config_did_not(tmp_path, kind):
    """load_config loads every module its kind runs on, scipy's included, so
    no import lands in a run's wall time."""
    p = _write(tmp_path, CURVED_EVOLVE if kind == "evolve-curved" else _SMALL[kind])
    code = (
        "import sys; from striplab import cli; "
        f"cfg = cli.load_config({str(p)!r}); before = set(sys.modules); cli.run(cfg); "
        "print(sorted(set(sys.modules) - before))"
    )
    assert _fresh_python(code) == "[]"
    assert (tmp_path / "out" / kind.removesuffix("-curved") / "manifest.txt").exists()


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("a = 1.0", "a = abc", "[geometry] a must be a number"),
        ("n1 = 24", "n1 = 2, 4", "[geometry] n1 must be a number"),
        ("n1 = 24", "n1 = 240.7", "[geometry] n1"),
        ("a = 1.0", "a = nan", "finite"),
        ("width = 2.0", "width = abc", "[curvature] width"),
        ("support_radius = 8.0", "support_radius = 8.0\nplateau_fraction = 1.5", "plateau_fraction"),
        ("width = 2.0", "width = 2.0\ncenter = nan",
         "[curvature] for kind 'gaussian-bump': center must be finite, got nan"),
        ("kind = gaussian-bump\namplitude = 0.45\nwidth = 2.0\nsupport_radius = 8.0",
         "kind = constant-on-box\nvalue = nan\nhalf_length = 4.0",
         "[curvature] for kind 'constant-on-box': value must be finite, got nan"),
        ("kind = gaussian-bump\namplitude = 0.45\nwidth = 2.0\nsupport_radius = 8.0",
         "kind = constant-on-box\nvalue = 0.1\nhalf_length = -1",
         "[curvature] for kind 'constant-on-box': half_length must be nonnegative, got -1.0"),
    ],
    ids=["geometry-word", "geometry-list", "geometry-fraction", "geometry-nan", "curvature-word",
         "plateau-fraction", "curvature-nan-center", "curvature-nan-value",
         "curvature-negative-half-length"],
)
def test_config_values_of_the_wrong_type_or_range_exit_2(tmp_path, capsys, old, new, named):
    bad = _write(tmp_path, BUMP_JACOBI.replace(old, new))
    assert cli.main(["run", str(bad)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("mc", "dt = 0.002", "dt = abc"),
        ("mc", "n_paths = 5000", "n_paths = 1000.5"),
        ("mc", "x0 = 0.0, 0.0", "x0 = 0.0"),
        ("mc", "seed = 7", "seed = 7\nbox = 1, 2, 3"),
        ("mc", "seed = 7", "seed = 7\ndump_paths = 3"),
        ("evolve", "fit_window = 2.0, 12.0", "fit_window = 5.0"),
        ("evolve", "alpha = 1.0", "alpha = mode"),
        ("nu-sweep", "frame_cells = 260", "frame_cells = 11.5"),
        ("hardy", "trials = 5", "trials = abc"),
        ("mc", "seed = 7", "seed = 7\nbox = 1, -1, 0, 1"),
        ("mc", "seed = 7", "seed = 7\nbox = 0, 1, off, on"),
    ],
    ids=["mc-dt-word", "mc-n_paths-fraction", "mc-x0-one-number", "mc-box-three-numbers",
         "mc-dump_paths-number", "evolve-fit_window-one-number", "evolve-alpha-word",
         "nu-sweep-frame_cells-fraction", "hardy-trials-word", "mc-box-low-above-high",
         "mc-box-boolean-edges"],
)
def test_experiment_values_of_the_wrong_type_exit_2_at_load(tmp_path, capsys, kind, old, new):
    assert old in _SMALL[kind]
    bad = _write(tmp_path, _SMALL[kind].replace(old, new))
    assert cli.main(["run", str(bad)]) == 2
    key = new.splitlines()[-1].split(" =")[0]
    assert f"[experiment] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, old, new, named",
    [
        ("mc", "t_lattice = 0.5, 1.0", "t_lattice = -1", "checkpoint t = -1.0"),
        ("mc", "dt = 0.002", "dt = nan", "dt must be positive and finite, not nan"),
        ("mc", "dt = 0.002", "dt = -0.001", "dt must be positive and finite, not -0.001"),
        ("mc", "n_paths = 5000", "n_paths = 0", "n_paths must be at least 1, not 0"),
        ("mc", "x0 = 0.0, 0.0", "x0 = nan, 0.0", "x0 = (nan, 0.0)"),
        ("mc", "seed = 7", "seed = -3", "seed must be nonnegative, not -3"),
        ("hardy", "trials = 5", "trials = 0", "trials = 0"),
        ("hardy", "trials = 5", "trials = 5\nseed = -3", "seed must be nonnegative, not -3"),
        ("nu-sweep", "frame_cells = 260", "frame_cells = 0", "n_cells = 0"),
        ("nu-sweep", "frame_half_width = 13.0", "frame_half_width = -14", "half-width"),
        ("nu-sweep", "frame_half_width = 13.0", "frame_half_width = nan", "half-width"),
        ("nu-sweep", "n2 = 24", "n2 = 25", "n2 = 25"),
        ("hardy", "n2 = 24", "n2 = 25", "n2 = 25"),
        ("evolve", "checkpoint_step = 0.5", "checkpoint_step = 0", "checkpoint_step"),
        ("evolve", "checkpoint_step = 0.5", "checkpoint_step = -0.5", "checkpoint_step"),
        ("evolve", "alpha = 1.0", "alpha = nan", "alpha = nan"),
        ("evolve", "fit_window = 2.0, 12.0", "fit_window = 12.0, 2.0", "fit window (12.0, 2.0)"),
        ("evolve", "t_end = 12.0\ncheckpoint_step = 0.5\ndt = 0.02\nfit_window = 2.0, 12.0",
         "t_end = 3.0\ncheckpoint_step = 0.5\ndt = 0.02", "fit window (5.0, 3.0)"),
        ("evolve", "t_end = 12.0", "t_end = inf", "t_end must be positive and finite, not inf"),
        ("evolve", "checkpoint_step = 0.5", "checkpoint_step = inf", "checkpoint_step"),
        ("nu-sweep", "theta_dot_max = 0.35\nsupport_radius = 6.0\n\n[experiment]\nkind = nu-sweep\n"
         "s_lattice = 0.0, 2.0\nframe_half_width = 13.0\nframe_cells = 260",
         "theta_dot_max = 2.67\nsupport_radius = 6.0\n\n[experiment]\nkind = mu",
         "needs xi^2 < 1/2, got xi = 1.78"),
    ],
    ids=["mc-negative-t_lattice", "mc-nan-dt", "mc-negative-dt", "mc-no-paths", "mc-nan-x0",
         "mc-negative-seed", "hardy-no-trials", "hardy-negative-seed",
         "nu-sweep-no-frame_cells", "nu-sweep-negative-half-width",
         "nu-sweep-nan-half-width", "nu-sweep-odd-n2", "hardy-odd-n2",
         "evolve-zero-checkpoint_step",
         "evolve-negative-checkpoint_step", "evolve-nan-alpha", "evolve-reversed-fit_window",
         "evolve-t_end-below-default-window", "evolve-infinite-t_end",
         "evolve-infinite-checkpoint_step", "mu-ruled-strip-too-wide-for-the-thin-strip-bound"],
)
def test_experiment_values_out_of_range_exit_3_naming_the_value(tmp_path, capsys, kind, old, new, named):
    """Ranges are checked by the layer that uses each value, not by load_config,
    and no CSV is written."""
    assert old in _SMALL[kind]
    bad = _write(tmp_path, _SMALL[kind].replace(old, new))
    assert cli.main(["run", str(bad)]) == 3
    assert named in capsys.readouterr().err
    assert not list((tmp_path / "out").rglob("*.csv"))


def test_seed_option_sets_the_seed_of_the_kinds_that_have_one(tmp_path):
    mu = _write(tmp_path, _SMALL["mu"], "mu.ini")
    mc = _write(tmp_path, FLAT_MC, "mc.ini")
    assert cli.main(["run", str(mu), str(mc), "--seed", "5"]) == 0
    seeded = _write(tmp_path, FLAT_MC.replace("seed = 7", "seed = 5"), "seeded.ini")
    assert cli.main(["run", str(seeded), "--out", str(tmp_path / "seeded")]) == 0
    assert (tmp_path / "out" / "mu" / "mu.csv").exists()
    assert (tmp_path / "out" / "mc" / "mc.csv").read_bytes() == (
        tmp_path / "seeded" / "mc" / "mc.csv").read_bytes()


def test_readme_lists_every_kinds_experiment_keys():
    """README's table of [experiment] keys names each kind's keys, types and
    literal defaults as cli._KINDS declares them."""
    types = {"number": float, "whole number": int, "one or more numbers": list,
             "two numbers": tuple, "true or false": bool, "`all` or four numbers": cli._box}
    lines = (_ROOT / "README.md").read_text().splitlines()
    rows = [[cell.strip() for cell in ln.strip("|").split("|")] for ln in lines if ln.startswith("| `")]
    listed = {kind.strip("`"): {} for kind, *_ in rows}
    for kind, key, type_name, default in rows:
        if key != "none":
            listed[kind.strip("`")][key.strip("`")] = (types[type_name], default)
    assert listed.keys() == cli._KINDS.keys()
    for kind, (_, _, keys) in cli._KINDS.items():
        assert {key: cast for key, (cast, _) in listed[kind].items()} == {
            key: cast for key, (cast, _) in keys.items()}, kind
        for key, (cast, default) in keys.items():
            text = listed[kind][key][1]
            if text.startswith("`") and text.count("`") == 2:  # a literal default
                value = cli._typed("experiment", key, text.strip("`"), cast)
                assert value == default, (kind, key)
            else:  # one worked out from other keys
                assert default is None and cast is not cli._box, (kind, key)


def _two_stage_guess(raw: str):
    """The former first stage of config parsing, which guessed a type from the text."""
    raw = raw.strip()
    if "," in raw:
        return [_two_stage_guess(tok) for tok in raw.split(",") if tok.strip()]
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("inf", "+inf"):
        return math.inf
    try:
        if any(ch in raw for ch in ".eE") and not raw.lstrip("+-").isdigit():
            return float(raw)
        return int(raw)
    except ValueError:
        return raw


def _two_stage_box(value, name):
    """The former box parser, which took the guessed value."""
    if value in (None, "all"):
        return None
    try:
        lo1, hi1, lo2, hi2 = map(float, value)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{name} must be 'all' or four numbers, got {value!r}")
    if not (lo1 <= hi1 and lo2 <= hi2):
        raise ConfigInvalid(f"{name} needs each low edge at most its high edge, none NaN, got {value!r}")
    return (lo1, hi1), (lo2, hi2)


def _two_stage_typed(section, key, raw, kind):
    """The former second stage, which checked the guess against ``kind``; the
    reference for ``cli._typed``."""
    value, name = _two_stage_guess(raw), f"[{section}] {key}"
    if kind is cli._box:
        return _two_stage_box(value, name)
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigInvalid(f"{name} must be true or false, got {value!r}")
    items = value if isinstance(value, list) else [value]
    try:
        numbers = [float(v) for v in items if not isinstance(v, bool)]
    except ValueError:
        numbers = []
    size = {list: max(len(items), 1), tuple: 2}.get(kind, 1)
    if len(numbers) != len(items) or size != len(items) or (kind is int and not numbers[0].is_integer()):
        raise ConfigInvalid(f"{name} does not match")
    if kind is int:
        return int(items[0])
    return numbers if kind is list else tuple(numbers) if kind is tuple else numbers[0]


def _same(x, y):
    """Equal values of equal types, NaN equal to NaN, compared item by item."""
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and (x == y or (x != x and y != y))


_BOOL_WORDS = ("true", "yes", "on", "false", "no", "off")
_TOKENS = ("0", "1", "-2", "+3", "2.5", ".5", "1e3", "-1E-2", "12345678901234567891", "1e400",
           "inf", "+inf", "-inf", "Infinity", "nan", "NaN", "-nan", "1_0", "0x1", "1__0", "e",
           "true", "off", "Yes", "NO", " on ", "all", " all", "abc", "", " ", " 4 ", "\t7")


@settings(max_examples=600, deadline=None)
@given(
    text=hst.lists(hst.sampled_from(_TOKENS), max_size=5).map(",".join),
    kind=hst.sampled_from([float, int, list, tuple, bool, cli._box]),
)
@example(text=" all", kind=cli._box)
@example(text="0,1,off,on", kind=cli._box)
@example(text="12345678901234567891", kind=int)
def test_typed_reads_text_as_the_two_stage_parser_did(text, kind):
    """``_typed`` gives the value or the ConfigInvalid that the former guess-
    then-check parser gave, except that a box edge written as a boolean word is
    now refused."""
    def outcome(parse):
        try:
            return parse("experiment", "key", text, kind)
        except ConfigInvalid:
            return ConfigInvalid

    new, old = outcome(cli._typed), outcome(_two_stage_typed)
    words = kind is cli._box and any(tok.strip().lower() in _BOOL_WORDS for tok in text.split(","))
    if words and old is not ConfigInvalid:
        assert new is ConfigInvalid, text
    else:
        assert _same(new, old), (text, kind, new, old)


def test_oracle_subcommand(capsys):
    assert cli.main(["oracle", "p0", "t=1.0", "x=1.0", "y=1.0"]) == 0
    out = capsys.readouterr().out
    assert "p0 = 0.1783179174" in out
    assert cli.main(["oracle", "survival", "t=1.0", "a=1.5707963267948966"]) == 0
    assert cli.main(["oracle", "nonsense"]) == 2


@pytest.mark.parametrize(
    "query, named",
    [
        (["survival", "a=1"], "'t'"),
        (["p0", "t=-1", "x=1", "y=1"], "t must be positive, not -1.0"),
        (["modes", "a=1", "n=0"], "n_max must be at least 1"),
        (["survival", "t=1", "a=1", "box=1,2"], "box must be 'all' or four numbers, got '1,2'"),
        (["survival", "t=1", "a=1", "box=1,-1,0,0.5"], "box needs each low edge"),
        (["modes", "a=1", "n=2.5"], "n must be a number with no fractional part, got '2.5'"),
        (["kernel", "x1=0", "x2=1.5", "y1=0", "y2=0", "t=1", "a=1"], "not both in the closed strip"),
        (["kernel", "x1=0", "x2=0", "y1=0", "y2=0", "t=1", "a=0"], "positive and finite, not 0.0"),
        (["survival", "t=nan", "a=1"], "t = nan must both be finite"),
        (["survival", "x1=nan", "t=1", "a=1", "box=0,1,0,0.5"], "x1 = nan and t = 1.0 must both be finite"),
        (["survival", "t=inf", "a=1"], "t = inf must both be finite"),
        (["kernel", "x1=nan", "x2=0", "y1=0", "y2=0", "t=1", "a=1"], "x1 = nan, x1' = 0.0"),
        (["kernel", "x1=0", "x2=0", "y1=0", "y2=0", "t=nan", "a=1"], "t = nan must all be finite"),
        (["p0", "t=1", "x=nan", "y=1"], "x and y must be nonnegative, not nan and 1.0"),
        (["p0", "t=nan", "x=1", "y=1"], "t must be positive, not nan"),
        (["modes", "a=0"], "a must be positive and finite, not 0.0"),
        (["modes", "a=-1", "n=1"], "a must be positive and finite, not -1.0"),
        (["modes", "a=nan"], "a must be positive and finite, not nan"),
        (["survival", "t=1", "a=1", "box=0,1,off,on"], "box must be 'all' or four numbers, got '0,1,off,on'"),
        (["survival", "t=1", "a=1", "z=abc"], "z must be a number, got 'abc'"),
        (["survival", "t=1", "a=1", "x=5"], "oracle survival reads only x1, x2, box, t, a, not x"),
        (["modes", "a=1", "t=1", "n=2", "box=all"], "oracle modes reads only a, n, not box, t"),
    ],
    ids=["missing-key", "negative-time", "no-modes", "short-box", "reversed-box",
         "fractional-modes", "kernel-point-outside", "kernel-zero-a", "survival-nan-t",
         "survival-nan-x1", "survival-infinite-t", "kernel-nan-x1", "kernel-nan-t", "p0-nan-x",
         "p0-nan-t", "modes-zero-a", "modes-negative-a", "modes-nan-a", "boolean-box-edges",
         "unknown-argument-not-a-number", "survival-unread-argument", "modes-unread-arguments"],
)
def test_oracle_input_errors_exit_2(capsys, query, named):
    assert cli.main(["oracle", *query]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_report_mode_exit_codes(tmp_path, monkeypatch):
    import striplab.acceptance as acc
    from striplab.acceptance import CriterionResult

    def fake_all(include_slow=True):
        return [
            CriterionResult(1, "stub-pass", True, "ok", 0.0),
            CriterionResult(2, "stub-fail", include_slow, "detail", 0.0),
        ]

    monkeypatch.setattr(acc, "run_all", fake_all)
    good = _write(tmp_path, FLAT_SPECTRUM)
    # include_slow=True -> both pass -> exit 0; report.txt written via config path
    cfg = cli.load_config(good)
    cfg.kind = "report"
    cli.run(cfg)
    report = tmp_path / "out" / "report" / "report.txt"
    assert report.exists()
    assert "stub-pass" in report.read_text()
    # --skip-slow flips the stub to failure -> exit code 4
    assert cli.main(["report", "--skip-slow"]) == 4
    assert cli.main(["report"]) == 0


def test_report_prints_the_same_lines_with_and_without_a_config(tmp_path, monkeypatch, capsys):
    import striplab.acceptance as acc
    from striplab.acceptance import CriterionResult

    results = [
        CriterionResult(1, "stub-pass", True, "ok", 0.3),
        CriterionResult(10, "stub-also", True, "detail: 1e-3", 12.0),
    ]
    monkeypatch.setattr(acc, "run_all", lambda include_slow=True: results)
    assert cli.main(["report"]) == 0
    plain = capsys.readouterr().out
    assert plain.splitlines() == [
        "criterion  1 [PASS] stub-pass: ok (0.3s)",
        "criterion 10 [PASS] stub-also: detail: 1e-3 (12.0s)",
    ]
    good = _write(tmp_path, FLAT_SPECTRUM)
    assert cli.main(["report", str(good)]) == 0
    assert capsys.readouterr().out == plain
    assert (tmp_path / "out" / "report" / "report.txt").read_text() == plain


def test_report_out_without_a_config_is_refused(tmp_path, monkeypatch, capsys):
    """Without a config the report writes no file, so ``--out`` would be
    ignored: it is refused before any criterion runs."""
    import striplab.acceptance as acc

    monkeypatch.setattr(acc, "run_all", lambda include_slow=True: pytest.fail("report ran"))
    assert cli.main(["report", "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--out" in err
    assert not (tmp_path / "rep").exists()
