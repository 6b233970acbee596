import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """One-line class docstring."""

    def f(self, x):
        """A function docstring
        that runs on."""
        text = """a string that is
no docstring"""
        return (x +
                1)


async def g():
    "A docstring in plain quotes."
    return "not a docstring"
'''

# import, class, def, text = (2 lines), return (2 lines), async def, return
CODE_LINES = 9


def test_code_lines_of_a_known_snippet(tmp_path, capsys):
    tool = _tool()
    assert tool.code_lines(SNIPPET) == CODE_LINES
    assert tool.code_lines("") == 0
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    (tmp_path / "empty.py").write_text("# only a comment\n\n")
    assert tool.main([str(tmp_path)]) == CODE_LINES
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [str(CODE_LINES), "total"]
    assert [line.split()[0] for line in out] == ["0", "9", "9"]
