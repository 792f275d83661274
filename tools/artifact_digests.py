"""Print one SHA-256 line for each artifact, the stdout, the stderr and the
exit status of ``python -m picardkit`` on a fixed set of cases, so that two
trees can be compared byte for byte:

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt

and the same with the other tree's ``src``, then ``diff`` the two files. The
tree under test is whichever ``picardkit`` the child interpreters import
from ``PYTHONPATH`` (a relative entry is taken from the current
directory). Each line is ``digest  case/name``.

The cases: the benchmark's three workload configs (read from
``perfbench/workloads.py``) at seeds 3, 7 and 11, a grid verify whose
contraction checks fail (with and without the pointwise order), a grid
verify whose rhs reads t alone, two small
interval verifies and one of 4·10⁶ pairs, a Geraghty gain near 1, a
converging and a diverging orbit, ``--list-builtins``, ``--help``, a run
for each error status, interval carriers whose bounds are zeros of both
signs, and the order-reduction verify and the solve whose artifacts
``tests/test_cli.py`` checks against these digests, and the seed-3
interval workload run with ``--seed 11``.
Every case runs in a new directory of its own, under the relative names
``case.cfg`` and ``out``, so the paths in a message are the same on every
tree. The children format ``--help`` for 80 columns and write no bytecode,
so the tool leaves no ``__pycache__`` in the tree under test to skew a
later timing of it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_INTERVAL = ("mode = verify\nseed = 3\n[carrier]\nkind = interval\n[bundle]\nname = example31\n"
             "[verify]\npair_grid = 20\nrandom_pairs = 37\n")
_FAILING_GRID = ("mode = verify\nseed = 11\n[carrier]\nkind = grid\n[bundle]\nname = bvp\n"
                 "[verify]\nrandom_pairs = 37\n[bvp]\nrhs = expr:10*x\nn = 10\n")


def _workload_cases() -> dict[str, tuple[str | None, list[str]]]:
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"{name}-seed{seed}": (workloads.config_text(workload, seed), [])
            for name, workload in workloads.WORKLOADS.items() for seed in (3, 7, 11)}


_WORKLOADS = _workload_cases()

# case name: (the config file's text, or None for no --config; further arguments)
CASES = {
    **_WORKLOADS,
    "failing-grid": (_FAILING_GRID, []),
    "failing-grid-pointwise": (_FAILING_GRID + "[order]\nname = pointwise\n", []),
    # an rhs of t alone, which the problem spreads over a stack of grid functions
    "grid-rhs-of-t": (_FAILING_GRID.replace("expr:10*x", "expr:pi**2*sin(pi*t)"), []),
    "interval": (_INTERVAL, []),
    # simulation/limit, geraghty/range and 437 contraction witnesses
    "interval-wide": (_INTERVAL.replace("interval\n", "interval\nlow = -2.0\nhigh = 2.0\n")
                      .replace("example31\n", "example31\nk = 1\nr = 2\nlambda = 0.999\n"), []),
    # 4 000 037 pairs on [0, 3], about 1.6e6 of them failing the contraction
    "interval-scale": (_INTERVAL.replace("interval\n", "interval\nlow = 0.0\nhigh = 3.0\n")
                       .replace("pair_grid = 20\n", "pair_grid = 2000\n")
                       + "[order]\nname = natural\n", []),
    "beta-near-one": (_INTERVAL.replace("example31\n", "example31\nbeta = 0.9999999999\n"), []),
    "iterate-converges": ("mode = iterate\n[iterate]\nmap = affine:0.5:0.25\nstart = 1.0\n", []),
    "iterate-diverges": ("mode = iterate\n[iterate]\nmap = affine:3:0\n"
                         "[picard]\ndivergence_bound = 1e6\n", []),
    "list-builtins": (None, ["--list-builtins"]),
    "help": (None, ["--help"]),
    "usage-unknown-field": ("mode = iterate\n[iterate]\nmap = example31\nspeed = 2\n", []),
    "usage-no-config": (None, []),
    "usage-bad-flag": (None, ["--bogus"]),
    "validation-odd-grid": ("mode = solve-bvp\n[bvp]\nrhs = pi2sin\nn = 3\n", []),
    # numpy reads high - low = -0.0 as a negative width: refused, as low > high is
    "validation-carrier-zero-above-minus-zero": (
        _INTERVAL.replace("interval\n", "interval\nlow = 0.0\nhigh = -0.0\n"), []),
    "carrier-minus-zero-below-zero": (
        _INTERVAL.replace("interval\n", "interval\nlow = -0.0\nhigh = 0.0\n"), []),
    # 1450 contraction witnesses under the natural order
    "order-reduction": (_INTERVAL.replace("seed = 3\n", "seed = 7\n")
                        .replace("interval\n", "interval\nlow = 0.0\nhigh = 3.0\n")
                        .replace("pair_grid = 20\nrandom_pairs = 37\n",
                                 "pair_grid = 60\nrandom_pairs = 50\n")
                        + "[order]\nname = natural\n", []),
    # an orbit whose trace carries defined ratios
    "solve-sin-plus-one": ("mode = solve-bvp\n[bvp]\nrhs = sin_plus_one\nn = 100\n"
                           "[picard]\ntolerance = 1e-10\n", []),
    # --seed overrides the config's seed: the same artifacts as verify-interval-seed11
    "verify-interval-seed3-flag11": (_WORKLOADS["verify-interval-seed3"][0], ["--seed", "11"]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, config: str | None, args: list[str]) -> list[str]:
    """The digest lines of one case: each file the run left in ``out``, in
    name order, then stdout, stderr and the exit status."""
    # the children run in another directory
    paths = [str(Path(path).resolve())
             for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        if config is not None:
            Path(work, "case.cfg").write_text(config)
            args = ["--config", "case.cfg", "--out", "out", *args]
        done = subprocess.run([sys.executable, "-m", "picardkit", *args], cwd=work, env=env,
                              capture_output=True, timeout=600)
        out = Path(work, "out")
        files = sorted(out.iterdir()) if out.is_dir() else []
        digests = [(path.name, _sha(path.read_bytes())) for path in files]
    digests += [("stdout", _sha(done.stdout)), ("stderr", _sha(done.stderr)),
                ("status", _sha(str(done.returncode).encode()))]
    return [f"{digest}  {name}/{what}" for what, digest in digests]


def digest_lines(cases: dict) -> list[str]:
    """The digest lines of ``cases``, case by case in their order."""
    return [line for name, (config, args) in cases.items()
            for line in run_case(name, config, args)]


def main() -> int:
    for line in digest_lines(CASES):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
