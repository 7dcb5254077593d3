"""Digest of striplab's reproducible outputs, for checking that a change
leaves them byte-identical.

Runs every shipped `configs/*.ini` and every benchmark input
`perfbench/inputs/*.ini` (read only) into a temporary directory, then the
acceptance criteria 1-7, 9 and 10 (criterion 8 is the long Monte Carlo
one). Prints one `sha256  relative/path` line per CSV or JSON output and one
`number passed detail` line per criterion, without its seconds, so that

    python tools/output_digest.py > after.txt

run on two checkouts gives no `diff` when their outputs agree. The
striplab imported is the one under this checkout's `src/`.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from striplab import cli  # noqa: E402
from striplab.acceptance import run_criterion  # noqa: E402

CRITERIA = (1, 2, 3, 4, 5, 6, 7, 9, 10)


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
    for number in CRITERIA:
        r = run_criterion(number)
        print(f"{r.number} {r.passed} {r.detail}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
