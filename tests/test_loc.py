"""``tools/loc.py`` counts code lines as documented, on a synthetic source."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts

# a comment line does not


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """a string that is
    not a docstring"""
    return math.sqrt(y), s


class C:
    """Class
    docstring."""

    def g(self):
        return "text"
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tool):
    # import, def f, two lines of y, two lines of s, return, class C, def g, return
    assert tool.code_lines(SOURCE) == 10


def test_main_prints_per_file_and_total(tool, tmp_path, capsys):
    one, two = tmp_path / "a.py", tmp_path / "b.py"
    one.write_text(SOURCE)
    two.write_text("x = 1\n\n# note\ny = 2\n")
    assert tool.main([str(two), str(one)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["10", str(one)], ["2", str(two)],
                                                ["12", "total"]]
