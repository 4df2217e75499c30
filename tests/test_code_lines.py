import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its code line

# a comment-only line


def f(x):
    """Function docstring."""
    total = (x
             + 1)
    text = """not a docstring:
a string value over two lines"""
    return total, text


class C:
    """Class docstring."""

    value = 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # code lines: import, def, both lines of total, both lines of text,
    # return, class, value
    assert load_tool().code_lines(SAMPLE) == 9
