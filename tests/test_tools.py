"""The repository's own tools: ``tools/code_lines.py`` counts total and
code lines by the rule the size figures in CHANGES.md and ROADMAP.md use."""

import importlib.util
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = textwrap.dedent('''\
    """A module docstring
    of two lines."""

    import os  # a comment after code


    # a comment line
    def f(x):
        """A function docstring."""
        text = """a string that
    spans two lines"""
        return x


    class C:
        """A class docstring
        of two lines."""

        "a bare string later in the body is code"
        y = (1,
             2)
    ''')


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    code_lines = _code_lines()
    # import, def, the two lines of the string, return, class, the later
    # string and the two lines of the tuple
    assert code_lines.count(FIXTURE) == (21, 9)
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [["21", "9"], ["3", "1"], ["24", "10"]]
    assert out[-1].endswith(" total")
