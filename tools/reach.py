"""Statements of striplab that no production entry point reaches.

Traces with the standard library's `sys.settrace`, started before striplab
is imported so that module-level statements count, every line of
`src/striplab` that runs while `cli.main`

- runs each shipped `configs/*.ini` and each benchmark input
  `perfbench/inputs/*.ini` (`run`), each into its own temporary directory;
- runs the acceptance report with all ten criteria (`report`, no config, so
  it writes nothing);
- answers each query of `tools/output_digest.py`'s `ORACLE_QUERIES`
  (`oracle`).

Then it prints, as `path:line  source`, the first line of every statement
under `src/striplab` that never ran, leaving out `raise` statements, which
are the refusals of bad input and failed solves. A statement counts as run
when any line of its own (its header, for a compound statement; its
decorators, for a decorated definition) ran, and one without bytecode of its
own, such as a docstring or `nonlocal`, is not listed. What the entry points
print goes to stderr, with each one's exit code. Like the digest, it runs on
one BLAS thread unless the environment sets the number, and it writes no
bytecode. It takes about as long as the report itself:

    python tools/reach.py
"""
from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = str(SRC / "striplab")
sys.path.insert(0, str(SRC))

_hit = defaultdict(set)  # file name -> lines that ran


def _trace_lines(frame, event, arg):
    _hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Trace the frames of striplab's code only, from their first line."""
    if frame.f_code.co_filename.startswith(PACKAGE):
        return _trace_lines(frame, event, arg)
    return None


def _code_lines(source: str, path: Path) -> set:
    """Every line that some instruction of the module's code is on."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _statements(path: Path):
    """(first line, own executable lines) of each statement of the module
    but its raise statements: the lines from its first decorator or keyword
    to its end, less those of the statements inside it, that carry
    instructions."""
    source = path.read_text()
    code_lines = _code_lines(source, path)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        own &= code_lines
        if own:
            yield node.lineno, own


def _entry_points(oracle_queries):
    """The ``cli.main`` argument list of every production run traced."""
    for path in sorted(ROOT.glob("configs/*.ini")) + sorted(ROOT.glob("perfbench/inputs/*.ini")):
        yield ["run", str(path)]
    yield ["report"]
    for query in oracle_queries:
        yield ["oracle", *query.split()]


def main() -> int:
    sys.settrace(_trace_calls)
    try:
        from output_digest import ORACLE_QUERIES  # its imports load striplab, traced
        from striplab import cli

        for argv in _entry_points(ORACLE_QUERIES):
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
                code = cli.main([*argv, "--out", tmp] if argv[0] == "run" else argv)
            print(f"{' '.join(argv[:2])} -> exit {code}", file=sys.stderr, flush=True)
    finally:
        sys.settrace(None)
    for path in sorted(Path(PACKAGE).rglob("*.py")):
        text = path.read_text().splitlines()
        hit = _hit[str(path)]
        for line, own in sorted(_statements(path), key=lambda statement: statement[0]):
            if not own & hit:
                print(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
