"""Record the mc-curved reference survival table.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs inputs/curved_mc.ini at its shipped seed with 65 536 paths (one full
chunk, four times the workload's paths) and writes the alive count at each
checkpoint to inputs/curved_mc_reference.json. The mc-curved check compares
every run against this table within binomial half-widths, so the table only
has to be recorded again if the strip or the checkpoints change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from striplab import cli  # noqa: E402

N_PATHS = 1 << 16


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as out:
        cfg = cli.load_config(workloads.INPUTS / "curved_mc.ini", out_override=out)
        cfg.controls["n_paths"] = N_PATHS
        cli.run(cfg)
        rows = workloads.read_csv(Path(out) / "mc" / "mc.csv")
    record = {
        "config": "curved_mc.ini",
        "seed": int(cfg.controls["seed"]),
        "n_paths": N_PATHS,
        "t": [r[0] for r in rows],
        "alive": [int(r[1]) for r in rows],
    }
    path = workloads.INPUTS / "curved_mc_reference.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}: {record['alive']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
