"""Line coverage of `src/operadic` under the test suite, stdlib only.

Runs pytest in this process under `sys.settrace`, tracing only frames whose
code lies in `src/operadic`, and compares the lines reached with the
executable lines of every module (the line table, `co_lines`, of each code
object).  A line inside a `raise` statement is counted apart: those are the
error paths that a contract sweep reaches.  Prints every unreached line that
is not part of a `raise`, then the count of unreached `raise` lines per
module, and exits 1 when any non-raise line is unreached (with pytest's own
status when the tests fail).

Usage, from the repository root:

    python tools/linecov.py [extra pytest arguments]

It runs about four times slower than the plain suite; it is not part of it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "operadic"


def executable_lines(code) -> set:
    """Lines that carry instructions in code and in its nested code objects."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= executable_lines(const)
    return out


def raise_lines(tree) -> set:
    """Lines spanned by a `raise` statement."""
    return {n for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for n in range(node.lineno, node.end_lineno + 1)}


def trace(run):
    """Call run() while recording (file, line) for every line executed in
    the package; returns run's result and the set of hits."""
    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv) -> int:
    import pytest

    status, hits = trace(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *argv]))
    unreached, raises = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        reached = {n for f, n in hits if f == str(path)}
        in_raise = raise_lines(ast.parse(source))
        text = source.splitlines()
        for n in sorted(lines - reached):
            if n in in_raise:
                raises[path.stem] = raises.get(path.stem, 0) + 1
            else:
                unreached.append("src/operadic/%s:%d: %s" % (path.name, n, text[n - 1].strip()))
    print("\n".join(unreached))
    print("unreached lines: %d outside raise statements, %d inside (%s)"
          % (len(unreached), sum(raises.values()),
             ", ".join("%s %d" % kv for kv in sorted(raises.items()))))
    if status != 0:
        return int(status)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
