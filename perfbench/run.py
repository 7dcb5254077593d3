"""striplab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 1]

A closed loop from this one process: each workload run is a fresh
interpreter (`child.py`) that sets up, runs its configs through
`striplab.cli.run`, checks the outputs and exits; the next run starts only
after it has ended, while at least half of it is expected to fit within
`--seconds`. Before the first timed run, one untimed interpreter imports
striplab, so that byte-compiling the sources and a cold file cache do not
land in the first sample. Every run writes to its own directory, removed afterwards,
and gives one sample of set-up time: interpreter start, striplab imports and
config loading.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` runs alternate untraced and traced, and the last line reports the
per-layer metrics of the traced ones plus the tracing overhead. `all` runs
every workload and prints a table. Other lines start with `#`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

# One BLAS thread: on a 2-core machine shared with other work, two threads
# made spectra-negative at best 15% faster but its run-to-run spread three
# times wider, wide enough to hide the changes this benchmark must show.
BLAS_THREADS = 1
# Every workload measurement ends within this many seconds, hung child or not.
BUDGET_S = 170.0
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_err": "1",
}
LAYER_UNITS = {"_s": "s", "_us": "us", "ns_per_path_step": "ns", "_bytes": "bytes",
               "_share": "1", "_ratio": "1", "_residual_max": "1"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def machine(versions: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    return {
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "l2": cache_size(2),
        "l3": cache_size(3),
        **versions,
    }


def cache_size(level: int) -> str | None:
    """Size of the level-2 or level-3 cache as the kernel reports it."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OUTPUT_DIR", None)   # striplab's only override would redirect output
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Loop:
    """Closed loop of child runs for one workload."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.work = ROOT / ".perfbench_work"
        self.count = 0
        self.deadline = time.monotonic() + BUDGET_S

    def spawn(self, cpu: int, trace=False) -> dict:
        out = self.work / f"{self.workload}-s{self.seed}-p{os.getpid()}-{self.count}"
        self.count += 1
        spec = {"workload": self.workload, "seed": self.seed, "out": str(out),
                "trace": trace, "cpu": cpu}
        t_spawn = time.monotonic()
        timeout = self.deadline - t_spawn
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired("child.py", 0)
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "detail": f"not finished within {BUDGET_S:.0f} s of the start"}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"ok": False, "detail": f"exit {proc.returncode}: {tail[0]}"}
        rec = json.loads(lines[-1])
        rec["setup_s"] = rec["ready"] - t_spawn
        rec.setdefault("ok", True)
        return rec


def warm_up(env: dict) -> None:
    """Import striplab once, untimed: compiles its sources, fills the file cache."""
    subprocess.run([sys.executable, "-c", "import striplab.cli"], cwd=ROOT, env=env,
                   capture_output=True, timeout=60)


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list:
    loop = Loop(workload, seed, env)
    cpus = sorted(os.sched_getaffinity(0))
    # Runs take turns on the usable CPUs. Left alone, every child lands on
    # the same CPU, and on a shared host each virtual CPU slows and recovers
    # independently of the other over tens of seconds, so a measurement would
    # follow one CPU's drift. With tracing, an untraced run and the traced run
    # after it share a CPU, so that the tracing overhead compares like with like.
    per_cpu = 2 if trace else 1
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        cpu = cpus[len(runs) // per_cpu % len(cpus)]
        runs.append(loop.spawn(cpu, trace=trace and len(runs) % 2 == 1))
        last = time.monotonic() - t0
        enough = len(runs) >= (2 if trace else 1)
        # start another run if at least half of it fits: on average the
        # loop then measures for `seconds`
        if enough and time.monotonic() - start + last / 2 > seconds:
            break
    try:
        loop.work.rmdir()
    except OSError:   # absent, or another benchmark process still uses it
        pass
    return runs


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summarize(workload: str, runs: list, trace: bool) -> dict:
    good = [r for r in runs if r["ok"]]
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    plain = [r for r in good if "layers" not in r]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "result_err": [r["result_err"] for r in plain],
    }
    out = {
        "workload": workload,
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "samples": samples,
        "details": sorted({r["detail"] for r in runs}),
        "versions": next((r["versions"] for r in runs if "versions" in r), {}),
    }
    if trace:
        traced = [r for r in good if "layers" in r]
        layers = {}
        if traced:
            for name in traced[0]["layers"]:
                layers[name] = median([r["layers"][name] for r in traced])
            traced_wall = median([r["wall_s"] for r in traced])
            plain_wall = median(samples["wall_s"])
            layers["trace.wall_s"] = traced_wall
            layers["trace.untraced_wall_s"] = plain_wall
            if plain_wall:
                layers["trace.overhead_s"] = traced_wall - plain_wall
                layers["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
        out["layers"] = layers
    return out


def metrics_of(summary: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in summary["layers"].items()}
    return {k: {"value": median(v), "unit": END_TO_END[k]} for k, v in summary["samples"].items()}


def describe(summary: dict, trace: bool) -> list[str]:
    w = workloads.WORKLOADS[summary["workload"]]
    lines = [f"# workload {w.name}: {w.why}",
             f"#   exercises: {w.exercises}; idle: {w.idle}",
             f"#   runs {summary['attempted']}, failed {summary['failed']}, "
             f"fail_ratio {summary['failed'] / max(summary['attempted'], 1):.3f}"]
    for name, values in summary["samples"].items():
        if not values:
            continue
        tail = tail_percentile(values)
        tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                    else "no percentile with 10 samples beyond it")
        lines.append(f"#   {name} [{END_TO_END[name]}] median {median(values):.6g}, "
                     f"{tail_txt}, n = {len(values)}: {' '.join(f'{v:.4g}' for v in values)}")
    for d in summary["details"]:
        lines.append(f"#   check: {d}")
    if trace and summary.get("layers"):
        layers = summary["layers"]
        shares = ", ".join(f"{layer} {layers[f'{layer}.wall_share']:.3f}" for layer in LAYERS)
        found = max(LAYERS, key=lambda layer: layers[f"{layer}.self_s"])
        verdict = "holds" if found == w.dominant else "DOES NOT HOLD"
        lines.append(f"#   self-time share of traced wall_s: {shares}")
        lines.append(f"#   dominant layer {found}, predicted {w.dominant}: {verdict}")
        lines.append(f"#   tracing overhead {layers.get('trace.overhead_s', float('nan')):.4f} s "
                     f"({layers.get('trace.overhead_share', float('nan')):.2%} of untraced wall_s)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "striplab" / "cli.py").is_file():
        print(f"error: no striplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = child_env()
    warm_up(env)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    summaries = []
    for name in names:
        summary = summarize(name, measure(name, args.seed, args.seconds, trace, env), trace)
        summaries.append(summary)
        for line in describe(summary, trace):
            print(line, flush=True)
    print("# machine " + json.dumps(machine(summaries[0]["versions"])))

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "/"
        for key, value in metrics_of(s, trace).items():
            metrics[prefix + key] = value
    if any(m["value"] is None for m in metrics.values()) or not metrics:
        print("error: no successful run to report", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) > 1:
        print(f"# all workloads: runs {attempted}, failed {failed}, fail_ratio {failed / attempted:.3f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
