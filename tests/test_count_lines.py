"""scripts/count_lines.py counts the lines that hold code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        "a string statement that is not the first"
        return len(
            os.sep
        )

    TEXT = """a string value
    over two lines"""
'''


def test_code_lines_leave_out_comments_blank_lines_and_docstrings():
    spec = importlib.util.spec_from_file_location("count_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # import, class, def, the second string, return's three lines, TEXT's two.
    assert module.code_lines(SOURCE) == 9
    assert len(SOURCE.splitlines()) == 19
