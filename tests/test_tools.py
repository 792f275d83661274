"""The repository's own tools: ``tools/code_lines.py`` counts total and
code lines by the rule the size figures in CHANGES.md and ROADMAP.md use,
and ``tools/artifact_digests.py`` hashes what ``python -m picardkit``
writes on a fixed set of cases, which must give the digests committed in
``artifact_digests.txt``."""

import hashlib
import importlib.util
import textwrap
from pathlib import Path

import numpy as np

import picardkit
from picardkit.cli import parse_config, run

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
    code_lines = _tool("code_lines")
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



def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_artifact_digests_hash_each_artifact_stream_and_status(tmp_path, monkeypatch):
    tool = _tool("artifact_digests")
    # the children import the picardkit on PYTHONPATH, where a relative
    # entry is taken from the current directory
    src = Path(picardkit.__file__).resolve().parents[1]
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", src.name)
    names = ["iterate-converges", "iterate-diverges", "usage-bad-flag", "validation-odd-grid"]
    lines = tool.digest_lines({name: tool.CASES[name] for name in names})
    digests = {what: digest for digest, what in (line.split("  ") for line in lines)}
    assert len(digests) == len(lines)
    assert [digests[f"{name}/status"] for name in names] == [_sha(b"0"), _sha(b"2"),
                                                             _sha(b"3"), _sha(b"4")]
    assert {digests[f"{name}/stdout"] for name in names} == {_sha(b"")}
    assert digests["validation-odd-grid/stderr"] == _sha(
        b"validation error: grid size must be even, got 3\n")
    # an orbit's artifacts are those of its config run in-process
    config, args = tool.CASES["iterate-converges"]
    assert args == [] and run(parse_config(config), out_dir=tmp_path) == 0
    artifacts = {f"iterate-converges/{path.name}": _sha(path.read_bytes())
                 for path in sorted(tmp_path.iterdir())}
    assert sorted(artifacts) == ["iterate-converges/report.csv", "iterate-converges/report.txt",
                                 "iterate-converges/trace.csv"]
    assert lines[:3] == [f"{digest}  {what}" for what, digest in artifacts.items()]
    assert [line.split("/")[-1] for line in lines[3:6]] == ["stdout", "stderr", "status"]


# the tool's output on the committed tree, under a first line "# numpy VERSION":
#   (echo "# numpy $(python -c 'import numpy; print(numpy.__version__)')";
#    PYTHONPATH=src python tools/artifact_digests.py) > tests/artifact_digests.txt
REFERENCE_DIGESTS = Path(__file__).with_name("artifact_digests.txt")


def test_every_case_gives_the_reference_digests(monkeypatch):
    # every artifact, stream and exit status of the tool's cases, byte for
    # byte; the digests follow numpy's float formatting and generator
    # stream, so they stand for the numpy version the file names
    header, *reference = REFERENCE_DIGESTS.read_text().splitlines()
    version = header.removeprefix("# numpy ")
    assert np.__version__ == version, (
        f"{REFERENCE_DIGESTS.name} holds the digests of numpy {version}, "
        f"this is numpy {np.__version__}")
    tool = _tool("artifact_digests")
    src = Path(picardkit.__file__).resolve().parents[1]
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", src.name)
    lines = tool.digest_lines(tool.CASES)
    got, want = ({what: digest for digest, what in (line.split("  ") for line in table)}
                 for table in (lines, reference))
    differ = [what for what in sorted(got.keys() | want.keys()) if got.get(what) != want.get(what)]
    assert not differ, f"digests that differ from {REFERENCE_DIGESTS.name}: {differ}"
    assert lines == reference
