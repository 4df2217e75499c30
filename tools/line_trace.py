"""List the executable lines of `src/procnet` that a pytest run never runs.

The run is `pytest.main` in this process under `sys.settrace` (the main
thread only; procnet starts no threads).  The global trace function hands a
line tracer only to frames whose code lies in one of the traced files, so
the rest of the run (pytest, hypothesis, the tests) is not traced line by
line.  A file's executable lines are the line numbers of its code objects
(`co_lines`, nested functions, classes and comprehensions included), read
from the file compiled afresh; docstring lines are not executable lines,
and comments and blank lines have no code.  Only the standard library and
`pytest` are used; docstrings are found as `code_lines.py` finds them.

Run from the root of the repository; the arguments go to pytest:

    python3 tools/line_trace.py                # the tier-1 suite, -q tests
    python3 tools/line_trace.py tests/test_dynamics.py -x

It prints, per module, the executable lines that never ran, as ranges, and
exits with pytest's exit code.  Tracing slows the suite about twofold.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path
from typing import Callable, Iterable

from code_lines import docstring_lines

SOURCE = Path(__file__).resolve().parent.parent / "src" / "procnet"


def executable_lines(text: str, filename: str = "<source>") -> set[int]:
    """The line numbers of the code objects of the source text, docstrings
    excluded."""
    lines: set[int] = set()
    todo = [compile(text, filename, "exec")]
    while todo:
        code = todo.pop()
        # line 0 and None mark instructions outside any source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstring_lines(ast.parse(text))


def missed_lines(
    files: Iterable[Path], run: Callable[[], object]
) -> tuple[object, dict[Path, list[int]]]:
    """run()'s result, and per file the executable lines that did not run
    while `run()` ran with line tracing on for the frames of `files`."""
    wanted = {os.path.realpath(f): Path(f) for f in files}
    hits: dict[Path, set[int]] = {path: set() for path in wanted.values()}
    owner: dict[str, Path | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[owner[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = wanted.get(os.path.realpath(name))
        return None if owner[name] is None else local

    # a tracer already on (this tool tracing its own test) is put back after
    outer = sys.gettrace()
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    return result, {
        path: sorted(executable_lines(path.read_text(encoding="utf-8"), str(path)) - ran)
        for path, ran in hits.items()
    }


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ranges: [3, 4, 5, 9] -> "3-5, 9"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SOURCE.parent))
    files = sorted(SOURCE.glob("*.py"))
    code, missed = missed_lines(files, lambda: pytest.main(argv or ["-q", "tests"]))
    print(f"{'module':<20} {'missed':>6}  lines")
    for path in files:
        print(f"{path.name:<20} {len(missed[path]):>6}  {ranges(missed[path])}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
