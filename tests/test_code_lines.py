"""tools/code_lines.py on a small synthetic module: docstrings, comments and blank lines do not count."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment counts as code


class Box:
    """One line."""

    size = 2


def area(r):
    """Two
    lines."""
    text = """a string that is
    not a docstring"""
    return math.pi * (
        r * r
    )
'''


def test_code_lines_of_a_synthetic_module(tmp_path) -> None:
    # import, class, size, def, text (2 lines), return (3 lines)
    assert code_lines.code_lines(MODULE) == 9
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.counts(str(tmp_path)) == {"mod.py": (9, MODULE.count("\n"))}
