"""Digest of striplab's reproducible outputs, for checking that a change
leaves them byte-identical.

Runs every shipped `configs/*.ini` and every benchmark input
`perfbench/inputs/*.ini` (read only) into a temporary directory, then the
acceptance criteria 1-7, 9 and 10 (criterion 8 is the long Monte Carlo
one). Prints one `sha256  relative/path` line per CSV or JSON output and one
`number passed detail` line per criterion, without its seconds. Criterion 10
prints `perturbed_threshold` only to five digits, so the `repr` of one value
of it on each of the flat and the ruled certified strips of
`tests/test_spectral.py` follows the configs. The CSVs keep 12 digits, so
for the pencils of the Hardy certificate and the transverse gap two lines
give every bit: the `repr` of `lambda_J` and `c_K` that
`pick_hardy_interval` finds on criterion 10's strip, and one `sha256` of
`transverse_mu_profile(m, m.x1).tobytes()` for the metric of
`configs/negative_box_mu.ini`. Last come the lines that `strip-lab oracle`
prints for a fixed set of `survival` (with and without a box), `kernel`,
`p0` and `modes` queries, run through `cli.main`, and one `sha256` of
`kill_time.tobytes() + positions.tobytes()` for each of criterion 8's two
Monte Carlo ensembles (its negative and its flat strip, with its `dt`,
lattice and seed) at 65 636 paths, so that two chunks and their streams are
covered; criterion 8's aggregates alone would not show a moved path. The
two Monte Carlo lines add about 1 s to the run (0.8 s for the negative
strip, 0.15 s for the flat one, on one core of an AMD EPYC virtual
machine). So

    python tools/output_digest.py > after.txt

run on two checkouts gives no `diff` when their outputs agree. The
striplab imported is the one under this checkout's `src/`. The nu-sweep's
CSV depends on the number of BLAS threads, so the digest runs on one
(`OPENBLAS_NUM_THREADS=1`, set before numpy loads) unless the environment
already sets it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from striplab import cli  # noqa: E402
from striplab import geometry as geo  # noqa: E402
from striplab import spectral as sp  # noqa: E402
from striplab import stochastic as st  # noqa: E402
from striplab.acceptance import _negative_reference_metric, run_criterion  # noqa: E402

CRITERIA = (1, 2, 3, 4, 5, 6, 7, 9, 10)
ORACLE_QUERIES = (
    "survival t=1.0 a=1.5707963267948966",
    "survival x1=0.25 x2=-0.3 t=0.5 a=1.0",
    "survival x1=0.25 x2=-0.3 t=2.0 a=1.0 box=-1.0,1.5,-0.5,0.75",
    "survival t=1.0 a=1.0 box=-1,1,-2,2",
    "kernel x1=0 x2=0.2 y1=0.5 y2=-0.4 t=0.75 a=1.0",
    "kernel x1=-1 x2=1 y1=1 y2=0 t=3 a=2",
    "p0 t=1.0 x=1.0 y=1.0",
    "p0 t=0.25 x=0.5 y=2",
    "modes a=1.0",
    "modes a=0.5 n=5",
)

MC_PATHS = 65_636  # one full chunk of 65 536 paths and 100 paths of a second


def _threshold_lines():
    """One perturbed-threshold line per strip; each strip comes with the
    depth of the Gaussian well added to it."""
    flat = geo.solve_jacobi(
        geo.zero_profile(), geo.StripGeometry(a=math.pi / 2, L=16.0, n1=128, n2=40)
    )
    ruled = geo.ruled_strip(
        geo.ruled_profile(0.35, 6.0), geo.StripGeometry(a=0.5, L=12.0, n1=192, n2=40)
    )
    for name, m, depth in (("flat", flat, 0.1), ("ruled-certified", ruled, 0.002)):
        V = -depth * np.exp(-m.x1[:, None] ** 2 / 2.0) * np.ones(m.x2.size)[None, :]
        yield f"perturbed-threshold/{name} {sp.perturbed_threshold(m, V)!r}"


def _pencil_lines():
    """Criterion 10's Hardy certificate and the transverse gap of the
    shipped mu config, to the last bit."""
    cert = sp.pick_hardy_interval(_negative_reference_metric(L=12.0, n1=192, n2=40))
    yield f"hardy/criterion-10 lambda_J={cert.lambda_J!r} c_K={cert.c_K!r}"
    m = cli.load_config(ROOT / "configs/negative_box_mu.ini").build_metric()
    digest = hashlib.sha256(sp.transverse_mu_profile(m, m.x1).tobytes()).hexdigest()
    yield f"{digest}  mu/negative_box_mu"


def _oracle_lines():
    """Each oracle query with the lines it prints."""
    for query in ORACLE_QUERIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["oracle", *query.split()])
        for line in buf.getvalue().splitlines():
            yield f"oracle {query} -> {code} {line}"


def _mc_lines():
    """One digest line per ensemble of criterion 8, at MC_PATHS paths."""
    a = math.pi / 2
    flat = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=40.0, n1=80, n2=16))
    negative = geo.ruled_strip(
        geo.ruled_profile(0.85, 8.0, plateau_fraction=0.75),
        geo.StripGeometry(a=a, L=40.0, n1=400, n2=32),
    )
    for name, m, lattice, dt, seed in (
        ("negative", negative, [5.0, 5.5, 6.0, 6.5, 7.0, 7.5], 0.005, 78),
        ("flat", flat, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 0.02, 77),
    ):
        ens = st.simulate_killed(
            st.sde_from_metric(m), (0.0, 0.0), t_max=lattice[-1], dt=dt, n_paths=MC_PATHS,
            seed=seed, checkpoints=lattice,
        )
        digest = hashlib.sha256(ens.kill_time.tobytes() + ens.positions.tobytes()).hexdigest()
        yield f"{digest}  mc/criterion-8-{name}"


def main() -> int:
    configs = sorted(ROOT.glob("configs/*.ini")) + sorted(ROOT.glob("perfbench/inputs/*.ini"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for path in configs:
            rel = path.relative_to(ROOT).with_suffix("")
            cli.run(cli.load_config(path, out_override=str(out / rel)))
        for path in sorted(out.rglob("*")):
            if path.suffix in (".csv", ".json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out)}", flush=True)
    for line in _threshold_lines():
        print(line, flush=True)
    for line in _pencil_lines():
        print(line, flush=True)
    for number in CRITERIA:
        r = run_criterion(number)
        print(f"{r.number} {r.passed} {r.detail}", flush=True)
    for line in _oracle_lines():
        print(line, flush=True)
    for line in _mc_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
