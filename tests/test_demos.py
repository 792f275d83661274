"""The narrative scripts in ``demos/`` run to completion against this
picardkit. Each runs from a copy in a temporary directory, so what a demo
writes stays out of the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import picardkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ)
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
