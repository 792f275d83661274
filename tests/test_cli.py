"""Batch front-end: config parsing with line-numbered errors, the three run
modes end to end, exit-status classes, and byte-deterministic artifacts."""

import csv
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import picardkit
from picardkit import load_grid_csv
from picardkit.cli import (EXIT_CHECK_FAILED, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_USAGE, EXIT_VALIDATION, ConfigError, main,
                           parse_config, run)

VERIFY_CFG = """\
mode = verify
seed = 42

[carrier]
kind = interval
low = 0.0
high = 3.0

[bundle]
name = example31

[verify]
pair_grid = 41
random_pairs = 60
"""

SOLVE_CFG = """\
mode = solve-bvp
seed = 42

[bvp]
rhs = pi2sin
n = 100

[picard]
tolerance = 1e-8
max_iterations = 50
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_minimal(self):
        config = parse_config("mode = iterate\n[iterate]\nstart = 0.5\n")
        assert config.mode == "iterate" and config.seed == 42
        assert config.start == 0.5

    def test_mode_required_sections(self):
        with pytest.raises(ConfigError, match=r"\[iterate\]"):
            parse_config("mode = iterate\n")
        with pytest.raises(ConfigError, match=r"\[bvp\]"):
            parse_config("mode = solve-bvp\n")
        with pytest.raises(ConfigError, match=r"\[bundle\]"):
            parse_config("mode = verify\n[carrier]\nkind = interval\n")
        # grid-carrier verification also needs the problem definition
        with pytest.raises(ConfigError, match=r"\[bvp\]"):
            parse_config("mode = verify\n[carrier]\nkind = grid\n"
                         "[bundle]\nname = bvp\n")

    def test_sections_and_comments(self):
        config = parse_config(VERIFY_CFG)
        assert config.carrier_high == 3.0
        assert config.pair_grid == 41

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("seed = 1\n")

    def test_unknown_field_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode = verify\nwibble = 3\n")

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode = verify\n[mystery]\n")

    def test_bad_value_type_reports_field(self):
        with pytest.raises(ConfigError, match="pair_grid"):
            parse_config("mode = verify\n[verify]\npair_grid = many\n")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode = dance\n")

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("mode = verify\nseed = -3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode = verify\njust words\n")

    @pytest.mark.parametrize("body", [
        "sin(x",                 # syntax error
        "foo(x)",                # unknown function
        "x.__class__",           # attribute access
        "(lambda: __import__)()",  # a name hidden in nested code
        "",
        "x(t)",                  # well formed, but fails on arrays
        "sin",                   # a function, not a value
        "t*0+[1,2]",             # does not broadcast to the grid
    ])
    def test_malformed_rhs_expression_is_a_usage_error(self, tmp_path, capsys, body):
        path = write_cfg(tmp_path, f"mode = solve-bvp\n\n[bvp]\nrhs = expr:{body}\n")
        with pytest.raises(ConfigError, match=r"line 4: field 'rhs'"):
            parse_config(path.read_text())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 4" in err and "'rhs'" in err and "Traceback" not in err

    def test_benchmark_rhs_expression_parses(self):
        body = "pi**2*sin(pi*t) + sin(x) - sin(sin(pi*t))"
        config = parse_config(f"mode = solve-bvp\n[bvp]\nrhs = expr:{body}\n")
        assert config.rhs == f"expr:{body}"

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_rhs_expression_is_left_to_the_solver(self, tmp_path):
        path = write_cfg(tmp_path, "mode = solve-bvp\n[bvp]\nrhs = expr:1/x\nn = 10\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION


class TestVerifyMode:
    def test_reference_bundle_passes_with_caveat(self, tmp_path):
        out = tmp_path / "out"
        status = run(parse_config(VERIFY_CFG), out_dir=out)
        assert status == EXIT_OK
        text = (out / "report.txt").read_text()
        assert "[  PASS] contraction" in text
        assert "[CAVEAT] geraghty" in text
        assert "beta(0) = 1" in text
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["status"] != "fail" for row in rows)
        assert any(row["status"] == "caveat" for row in rows)

    def test_broken_gain_fails(self, tmp_path):
        cfg_text = VERIFY_CFG + "\n[bundle]\nbeta = 0.2\nlambda = 0.5\n"
        # lambda * beta = 0.1 cannot cover the map's 1/3 Lipschitz ratio on
        # pairs where the displacement gauge is just d(x, y)
        out = tmp_path / "out"
        status = run(parse_config(cfg_text), out_dir=out)
        assert status == EXIT_CHECK_FAILED
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(row["status"] == "fail" for row in rows)

    def test_bundle_carrier_mismatch(self, tmp_path):
        cfg_text = VERIFY_CFG.replace("name = example31", "name = bvp")
        status = run(parse_config(cfg_text), out_dir=tmp_path / "out")
        assert status == EXIT_VALIDATION

    def test_grid_carrier_with_bvp_bundle(self, tmp_path):
        cfg_text = """\
mode = verify
seed = 7

[carrier]
kind = grid
low = 0.0
high = 1.0

[bundle]
name = bvp

[verify]
random_pairs = 12

[bvp]
rhs = sin_plus_one
n = 40
"""
        out = tmp_path / "out"
        status = run(parse_config(cfg_text), out_dir=out)
        assert status == EXIT_OK
        text = (out / "report.txt").read_text()
        assert "operator-contraction" in text


class TestIterateMode:
    def test_divergent_map(self, tmp_path):
        cfg = parse_config("""\
mode = iterate
seed = 42

[iterate]
map = affine:3:0
start = 1.0

[picard]
divergence_bound = 1e6
""")
        out = tmp_path / "out"
        status = run(cfg, out_dir=out)
        assert status == EXIT_NOT_CONVERGED
        assert "termination: diverged" in (out / "report.txt").read_text()
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iteration_index"] == "0"
        assert float(rows[-1]["gap"]) > 1e6

    def test_infinite_divergence_bound_names_the_field(self, tmp_path, capsys):
        # an unbounded orbit would otherwise overflow to inf and be reported
        # as a non-finite iterate instead of as a config problem
        cfg = parse_config("""\
mode = iterate
seed = 42

[iterate]
map = affine:2:1
start = 1.0

[picard]
divergence_bound = inf
""")
        assert run(cfg, out_dir=tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "divergence_bound" in err and "non-finite" not in err

    def test_contractive_map(self, tmp_path):
        cfg = parse_config("""\
mode = iterate
seed = 42

[iterate]
map = example31
start = 1.0

[picard]
tolerance = 1e-10
""")
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_OK
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
        assert all(abs(r - 1.0 / 3.0) < 1e-12 for r in ratios)


class TestSolveMode:
    def test_sine_source(self, tmp_path):
        out = tmp_path / "out"
        status = run(parse_config(SOLVE_CFG), out_dir=out)
        assert status == EXIT_OK
        ts, values = load_grid_csv(out / "solution.csv")
        assert float(np.max(np.abs(values - np.sin(np.pi * ts)))) <= 5e-4

    def test_exhausted_iterations(self, tmp_path):
        cfg_text = SOLVE_CFG.replace("rhs = pi2sin", "rhs = sin_plus_one")
        cfg_text = cfg_text.replace("max_iterations = 50", "max_iterations = 2")
        cfg_text = cfg_text.replace("tolerance = 1e-8", "tolerance = 1e-14")
        status = run(parse_config(cfg_text), out_dir=tmp_path / "out")
        assert status == EXIT_NOT_CONVERGED


# An order-reduction run with about 1450 contraction witnesses, and the
# SHA-256 of its artifacts as the per-sample verifiers wrote them. A change
# in witness order, or a numpy scalar repr reaching a witness, changes them.
GOLDEN_CFG = """\
mode = verify
seed = 7

[carrier]
kind = interval
low = 0.0
high = 3.0

[bundle]
name = example31

[verify]
pair_grid = 60
random_pairs = 50

[order]
name = natural
"""
GOLDEN_SHA256 = {
    "report.csv": "7db5f36e7383690800ca1ccda0d39a18f477f57f835b99f7b22395c6b274e3ae",
    "report.txt": "668e2db82fad87d547c6377769fd50f22321c49f0e6e2e5cd4c6de377acaf5d1",
}


class TestDeterminism:
    def test_order_reduction_artifacts_match_golden_digests(self, tmp_path):
        out = tmp_path / "golden"
        assert run(parse_config(GOLDEN_CFG), out_dir=out) == EXIT_CHECK_FAILED
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in GOLDEN_SHA256}
        assert digests == GOLDEN_SHA256

    def _artifacts(self, directory):
        return sorted(p.name for p in directory.iterdir())

    def test_same_seed_byte_identical(self, tmp_path):
        for cfg_text in (VERIFY_CFG, SOLVE_CFG):
            cfg1 = parse_config(cfg_text)
            cfg2 = parse_config(cfg_text)
            out1 = tmp_path / f"a{hash(cfg_text) % 100}"
            out2 = tmp_path / f"b{hash(cfg_text) % 100}"
            run(cfg1, out_dir=out1)
            run(cfg2, out_dir=out2)
            assert self._artifacts(out1) == self._artifacts(out2)
            for name in self._artifacts(out1):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_report(self, tmp_path):
        cfg1 = parse_config(VERIFY_CFG)
        cfg2 = parse_config(VERIFY_CFG)
        cfg2.seed = 43
        out1, out2 = tmp_path / "s42", tmp_path / "s43"
        run(cfg1, out_dir=out1)
        run(cfg2, out_dir=out2)
        assert (out1 / "report.txt").read_text() != (out2 / "report.txt").read_text()


GRID_VERIFY_CFG = """\
mode = verify
seed = 7

[carrier]
kind = grid

[bundle]
name = bvp

[verify]
random_pairs = 10

[bvp]
rhs = sin_plus_one
n = 20
"""

ITERATE_CFG = "mode = iterate\n[iterate]\nmap = example31\nstart = 1.0\n"


def _run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports this picardkit; fail
    the test with its stderr if it exits nonzero."""
    env = dict(os.environ)
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestColdStart:
    """scipy is loaded only by the finite-difference oracle, so importing the
    package and every CLI mode run on numpy and the standard library alone."""

    @pytest.mark.parametrize("cfg", [None, "--list-builtins", VERIFY_CFG,
                                     GRID_VERIFY_CFG, SOLVE_CFG, ITERATE_CFG],
                             ids=["import", "list-builtins", "verify-interval",
                                  "verify-grid", "solve-bvp", "iterate"])
    def test_no_scipy_module_is_loaded(self, tmp_path, cfg):
        call = "import picardkit"
        if cfg is not None:
            argv = ([cfg] if cfg == "--list-builtins" else
                    ["--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "out")])
            call = f"from picardkit.cli import main; assert main({argv!r}) == 0"
        _run_fresh_python(f"""
            import sys
            {call}
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            """)

    def test_finite_difference_solve_loads_scipy_on_first_call(self):
        _run_fresh_python("""
            import sys
            import numpy as np
            from picardkit import BVPProblem, finite_difference_solve
            from picardkit.builtins import rhs_pi2sin
            assert "scipy.linalg" not in sys.modules
            x = finite_difference_solve(BVPProblem(rhs=rhs_pi2sin, n=40))
            assert np.max(np.abs(x - np.sin(np.pi * np.linspace(0.0, 1.0, 41)))) <= 1e-3
            assert "scipy.linalg" in sys.modules
            """)


class TestMainEntry:
    def test_list_builtins(self, capsys):
        assert main(["--list-builtins"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "zeta1(lambda)" in out and "example31_bundle" in out

    def test_config_required(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unreadable_config(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == EXIT_USAGE

    def test_config_error_is_usage_error(self, tmp_path):
        path = write_cfg(tmp_path, "mode = verify\nwat = 1\n")
        assert main(["--config", str(path)]) == EXIT_USAGE

    def test_full_run_with_overrides(self, tmp_path):
        path = write_cfg(tmp_path, SOLVE_CFG)
        out = tmp_path / "cli-out"
        status = main(["--config", str(path), "--out", str(out), "--seed", "7"])
        assert status == EXIT_OK
        assert (out / "solution.csv").exists()
        assert "seed: 7" in (out / "report.txt").read_text()
