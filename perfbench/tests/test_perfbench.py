"""Tests of the benchmark's own machinery: spans, wrappers and counters."""
from __future__ import annotations

import configparser
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, **info):
    return spans.Span(name, start, end, parent, info=info)


def test_self_time_of_nested_span_tree():
    tree = [
        _span("cli.run", 0.0, 10.0),                   # 0
        _span("spectral.assemble", 1.0, 4.0, 0),       # 1
        _span("geometry.sample", 2.0, 3.0, 1),         # 2
        _span("spectral.eig", 5.0, 9.0, 0),            # 3
        _span("geometry.sample", 6.0, 6.5, 3),         # 4
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])

    tracer = spans.Tracer()
    tracer.spans = tree
    m = spans.layer_metrics(tracer, wall_s=10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["spectral.self_s"] == pytest.approx(5.5)
    assert m["geometry.self_s"] == pytest.approx(1.5)
    assert m["geometry.sample_calls"] == 2
    assert m["cli.run_s"] == pytest.approx(10.0)
    shares = sum(m[f"{layer}.wall_share"] for layer in spans.LAYERS)
    assert shares == pytest.approx(1.0)


def test_tracer_links_parents_and_counts_errors():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    def outer():
        try:
            tracer.call("spectral.eig", inner, (), {})
        except ValueError:
            pass
        return 1

    assert tracer.call("cli.run", outer, (), {}) == 1
    run_span, eig_span = tracer.spans
    assert eig_span.parent == 0 and run_span.parent is None
    assert eig_span.error and not run_span.error
    m = spans.layer_metrics(tracer, wall_s=run_span.seconds)
    assert m["spectral.errors"] == 1 and m["cli.errors"] == 0


def _patched_attributes():
    import striplab  # noqa: F401
    from striplab import geometry

    seen = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "striplab" or mod_name.startswith("striplab."):
            for key, value in vars(mod).items():
                if callable(value):
                    seen[(mod_name, key)] = value
    seen[("MetricField", "sample")] = geometry.MetricField.__dict__["sample"]
    return seen


def _tiny_config(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        "[geometry]\na = 1.0\nL = 4.0\nn1 = 16\nn2 = 6\n"
        "[curvature]\nkind = zero\n"
        "[experiment]\nkind = spectrum\nk = 2\n"
    )
    return ini


def test_wrappers_restore_module_attributes(tmp_path):
    from striplab import cli

    before = _patched_attributes()
    cfg = cli.load_config(_tiny_config(tmp_path), out_override=str(tmp_path / "out"))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert cli.run is not before[("striplab.cli", "run")]
        cli.run(cfg)
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "geometry.metric", "spectral.assemble", "spectral.eig"} <= names
    assert _patched_attributes() == before

    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("leave the block early")
    assert _patched_attributes() == before


def test_alive_step_ratio_on_hand_built_ensemble():
    from striplab.stochastic import PathEnsemble

    ens = PathEnsemble(
        n_paths=4, x0=(0.0, 0.0), dt=0.5, seed=0, a=1.0,
        checkpoint_times=np.array([2.0]), positions=np.zeros((1, 4, 2)),
        kill_time=np.array([0.5, 1.5, math.inf, 2.0]), t_max=2.0,
    )
    # four steps per path; live for 1, 3, 4 and 4 of them
    assert spans.live_path_steps(ens) == (12, 16)
    tracer = spans.Tracer()
    tracer.spans = [_span("stochastic.simulate", 0.0, 1.0, **spans._simulate(tracer, ens, {}))]
    m = spans.layer_metrics(tracer, wall_s=1.0)
    assert m["stochastic.alive_step_ratio"] == pytest.approx(0.75)
    assert m["stochastic.path_steps"] == 16
    assert m["stochastic.ns_per_path_step"] == pytest.approx(1e9 / 16)


def test_benchmark_file_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # every gated workload is defined with the same reason; mc-flat is runnable
    # by hand but left out of BENCHMARK.json to fit the run-time limit
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert set(workloads.WORKLOADS) - {w["name"] for w in doc["workloads"]} == {"mc-flat"}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_run.END_TO_END
    layer_names = set(spans.layer_metrics(spans.Tracer(), 1.0))
    layer_names |= {"evolution.factor_s", "evolution.step_us", "trace.wall_s",
                    "trace.untraced_wall_s", "trace.overhead_s", "trace.overhead_share"}
    assert {m["name"] for m in doc["per_layer"]} == layer_names
    for m in doc["per_layer"]:
        assert m["unit"] == bench_run.layer_unit(m["name"])


def test_workload_seeds_match_their_configs():
    for w in workloads.WORKLOADS.values():
        for name, base in w.configs:
            cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
            cp.read(workloads.INPUTS / name)
            shipped = cp["experiment"].get("seed")
            assert (None if shipped is None else int(shipped)) == base
