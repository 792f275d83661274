"""List the functions of picardkit that no run enters.

    PYTHONPATH=src python tools/unreached.py

runs, in this one process, ``picardkit.cli.main`` on every case of
``tools/artifact_digests.py`` but ``interval-scale`` (its 4·10⁶ pairs reach
nothing the small interval cases do not), a solve-bvp run for each of
the ``zero`` and ``const:2`` right-hand sides, and the four scripts in
``demos/``. A ``sys.settrace`` hook notes the code object of every call, by
file and first line, from before picardkit is imported, so a function that
runs only at import counts as reached. Then it prints ``lines name`` for
each function, method or nested function of the package (its ``def`` and
decorators, by ``co_firstlineno``) that no call entered: ``name`` is the
module and the qualified name, as ``bvp.BVPProblem.gate_values``, and
``lines`` its source lines. Each case and demo runs in a new temporary
directory, and what they print is dropped.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# the extra solve-bvp runs, one per rhs builtin that no digest case selects
SOLVES = {f"solve-{rhs}": (f"mode = solve-bvp\n[bvp]\nrhs = {rhs}\nn = 10\n", [])
          for rhs in ("zero", "const:2")}


def functions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (name, source lines) of every function in the
    ``*.py`` files of ``package``; the first line of a decorated function is
    its first decorator's, as in its code object."""
    found = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(path, first)] = (f"{module}.{name}", child.end_lineno - first + 1)
                visit(child, module, f"{name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", str(path))
    return found


def _run_in(work: Path, call) -> None:
    """``call()`` with ``work`` as the current directory and its output
    dropped; a ``SystemExit`` (argparse's ``--help`` and usage errors) ends it."""
    here = os.getcwd()
    os.chdir(work)
    try:
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()),
              contextlib.suppress(SystemExit)):
            call()
    finally:
        os.chdir(here)


def runs() -> None:
    """The CLI cases, the extra solves and the demos, each in a directory of its own."""
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  REPO / "tools" / "artifact_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    from picardkit.cli import main

    cases = {name: case for name, case in digests.CASES.items() if name != "interval-scale"}
    for config, args in {**cases, **SOLVES}.values():
        with tempfile.TemporaryDirectory() as work:
            if config is not None:
                Path(work, "case.cfg").write_text(config)
                args = ["--config", "case.cfg", "--out", "out", *args]
            _run_in(Path(work), lambda: main(args))
    for demo in sorted((REPO / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as work:
            script = shutil.copy(demo, work)  # a demo writes next to itself
            _run_in(Path(work), lambda: runpy.run_path(script, run_name="__main__"))


def unreached() -> list[tuple[str, int]]:
    """(name, source lines) of every picardkit function that :func:`runs`
    does not enter, in file and line order."""
    package = Path(importlib.util.find_spec("picardkit").submodule_search_locations[0])
    seen = set()

    def note(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.settrace(note)
    try:
        runs()
    finally:
        sys.settrace(None)
    entered = {(str(Path(path).resolve()), line) for path, line in seen}
    return [found for key, found in functions(package.resolve()).items() if key not in entered]


def main() -> int:
    for name, lines in unreached():
        print(f"{lines:5d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
