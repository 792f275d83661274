"""The repository's own tools: ``tools/code_lines.py`` counts total and
code lines by the rule the size figures in CHANGES.md and ROADMAP.md use,
``tools/artifact_digests.py`` hashes what ``python -m picardkit`` writes
on a fixed set of cases, which must give the digests committed in
``artifact_digests.txt``, and ``tools/unreached.py`` lists the functions
that none of those cases, nor a demo, enters. The last test scans the
source for the options of the library that no caller sets."""

import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
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


# the functions that no run of tools/unreached.py enters, each with the
# reason it stays in the library; any other function a run does not reach
# belongs in the tests or nowhere
UNREACHED = {
    "__init__.__dir__": "dir(picardkit) calls it, and no run does",
    "__main__.entry": "the tool calls cli.main in-process, past the process entry",
    "cli._size_fields": "it names the size fields of a run that runs out of memory",
    "picard.PicardConfig._make": "_replace builds through it, and no run derives a config",
    "report.FailingRows.__eq__": "a store compares as the list of its witnesses (Sequence)",
    "report.FailingRows.__repr__": "a store shows as the list of its witnesses (Sequence)",
    "report.FailingRows._read": "it reads back the witnesses past a store's worst 8, "
                                "which no run lists",
}


def test_every_function_a_run_does_not_enter_is_allowed(tmp_path):
    # a fresh process, so the functions that run at import are seen too
    src = Path(picardkit.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(TOOLS / "unreached.py")], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert sorted(line.split()[1] for line in done.stdout.splitlines()) == sorted(UNREACHED)


# the defaulted parameters that no call in src/, demos/ or tools/ passes,
# each with the reason it stays; any other belongs to a caller, or is a
# constant of the library
UNSET = {
    "framework.Family(name)": "its subclasses pass it through super().__init__, "
                              "which the scan does not resolve",
    "framework.check(strict)": "_clauses' inner check takes its arguments unpacked, "
                               "check(*clause), which the scan does not count",
    "framework.SimulationFunction(sequence_axiom)": "it selects the family's variant "
                                                    "(Roldan's), a definition, not a tolerance",
    "framework.verify_contraction(tol)": "its tolerance follows the carrier; the tests pass "
                                         "GRID_EPS for grid functions",
    "picard.picard_iterate(carrier)": "a membership check of the orbit, which stays",
}


def _defaulted(package):
    """(module, callee, parameter) -> the parameter's position among the
    arguments of a call, or None for a keyword-only one, of every defaulted
    parameter of the functions and methods of ``package``; an ``__init__``
    is called by its class's name."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for parent in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                named = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]
                passed = positional[isinstance(parent, ast.ClassDef):]  # self is not passed
                callee = parent.name if node.name == "__init__" else node.name
                for name in named:
                    found[path.stem, callee, name] = (passed.index(name) if name in passed
                                                      else None)
    return found


def test_every_option_no_caller_sets_is_allowed():
    # calls are matched by the callee's name alone; an unpacked argument
    # (*args, **kwargs) counts as none, and so do the positions after it
    repo = TOOLS.parent
    calls = {}
    for path in sorted(p for d in ("src", "demos", "tools") for p in (repo / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append((
                    next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args)),
                    {k.arg for k in node.keywords}))
    unset = [f"{module}.{callee}({name})"
             for (module, callee, name), position in _defaulted(repo / "src" / "picardkit").items()
             if not any(name in keywords or position is not None and position < count
                        for count, keywords in calls.get(callee, []))]
    assert sorted(unset) == sorted(UNSET)
