"""The line classifier of tools/src_lines.py on a hand-counted source."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring.

Second paragraph."""

# a comment
import os  # trailing comment


def f(x):
    """One-line docstring."""

    text = """not a
docstring"""
    return x, text
'''


def test_hand_counted_sample():
    # code: import, def, the two lines of text, return
    # doc: the module docstring's two lines with text, the comment line
    # and f's docstring
    # blank: the empty line inside the module docstring and four more
    assert src_lines.classify(SAMPLE) == (5, 4, 5)


def test_empty_source():
    assert src_lines.classify("") == (0, 0, 0)
