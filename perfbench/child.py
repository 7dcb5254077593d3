"""One workload run in a fresh interpreter, as a user's `strip-lab run` makes it.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, the benchmark seed, the output directory,
whether to trace and the CPU to run on. The child imports striplab, loads
the workload's configs (this is the set-up the parent times, from spawn to
the `ready` stamp), runs them through `striplab.cli.run`, checks the outputs
and prints one JSON line, with the library versions the run used.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    from striplab import cli

    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    cfgs = [
        cli.load_config(
            workloads.INPUTS / name,
            out_override=spec["out"],
            seed_override=None if base is None else base + spec["seed"],
        )
        for name, base in wl.configs
    ]
    record = {"ready": time.monotonic()}
    tracer = None
    try:
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            with spans.traced(tracer):
                wall = _run(cli, cfgs)
        else:
            wall = _run(cli, cfgs)
        ok, detail, err = wl.check(cfgs)
    except Exception as exc:  # the run failed: report it, the parent counts it
        wall, ok, detail, err = None, False, f"{type(exc).__name__}: {exc}", None
    record.update(
        wall_s=wall,
        ok=ok,
        detail=detail,
        result_err=err,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=_versions(),
    )
    if tracer is not None:
        layers = spans.layer_metrics(tracer, wall or 0.0)
        factor = spans.factor_seconds(tracer)
        steps = layers["evolution.steps"]
        layers["evolution.factor_s"] = factor
        layers["evolution.step_us"] = (
            1e6 * (layers["evolution.evolve_s"] - factor) / steps if steps else 0.0
        )
        record["layers"] = layers
    print(json.dumps(record))
    return 0


def _run(cli, cfgs) -> float:
    wall = 0.0
    for cfg in cfgs:
        t0 = time.perf_counter()
        cli.run(cfg)
        wall += time.perf_counter() - t0
    return wall


if __name__ == "__main__":
    sys.exit(main(sys.argv))
