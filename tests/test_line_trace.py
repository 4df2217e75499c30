import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""
import os  # runs on import


def f(x):
    """Function docstring."""
    if x > 0:
        y = (x
             + 1)
    else:
        y = 0
    squares = [k * k for k in range(x)]
    return y, squares


def never():
    return 1


class C:
    """Class docstring."""

    value = 1

    def method(self):
        return 2
'''


def test_missed_lines_of_an_inline_sample(tmp_path, monkeypatch):
    # the tool imports code_lines from its own directory, as when run
    monkeypatch.syspath_prepend(str(TOOL.parent))
    tool = load("line_trace", TOOL)
    path = tmp_path / "traced_sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    result, missed = tool.missed_lines([path], lambda: load("traced_sample", path).f(2))
    assert result == (3, [0, 1])
    # the else branch, the body of never and the body of method; docstrings,
    # comments and blank lines are never executable lines
    assert missed == {path: [12, 18, 27]}
    assert tool.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
