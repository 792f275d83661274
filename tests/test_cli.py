"""Batch front-end: config parsing with line-numbered errors, the three run
modes end to end, exit-status classes, and byte-deterministic artifacts."""

import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picardkit
from picardkit import bvp as bvp_module
from picardkit import cli as cli_module
from picardkit import framework as framework_module
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
        "x[::-1]",               # subscripts: -1 is a float
        "x - x[x >= 0.0]*0.5",   # subscripts, though a mask works on arrays
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

    def test_non_finite_rhs_expression_is_left_to_the_solver(self, tmp_path):
        path = write_cfg(tmp_path, "mode = solve-bvp\n[bvp]\nrhs = expr:1/x\nn = 10\n")
        done = _run_python(["-m", "picardkit", "--config", str(path),
                            "--out", str(tmp_path / "out")])
        assert done.returncode == EXIT_VALIDATION
        # numpy's divide-by-zero warning stays inside the rhs
        assert done.stderr == "validation error: rhs produced non-finite values on the grid\n"

    @pytest.mark.parametrize("cfg, message", [
        ("mode = verify\n[carrier]\nkind = grid\nlow = 0.0\nhigh = 1.0\n"
         "[bundle]\nname = bvp\n[bvp]\nrhs = expr:1e308*x*x\nn = 10\n",
         "grid function contains non-finite values"),
        ("mode = solve-bvp\n[bvp]\nrhs = expr:1e308*x*x+1e308\n",
         "mapping produced a non-finite value at iterate 1"),
    ], ids=["verify-grid", "solve-bvp"])
    def test_overflowing_quadrature_is_left_to_the_finite_checks(self, tmp_path, cfg, message):
        # the rhs values are finite, their kernel quadrature is not
        path = write_cfg(tmp_path, cfg)
        done = _run_python(["-m", "picardkit", "--config", str(path),
                            "--out", str(tmp_path / "out")])
        assert done.returncode == EXIT_VALIDATION
        # numpy's overflow warnings stay inside the quadrature
        assert done.stderr == f"validation error: {message}\n"

    def test_huge_integer_power_fails_fast(self, tmp_path):
        # integer literals are floats, so 9**9**9 overflows instead of
        # computing a 370-million-digit integer
        path = write_cfg(tmp_path, "mode = solve-bvp\n[bvp]\nrhs = expr:9**9**9 + x\n")
        done = _run_python(["-m", "picardkit", "--config", str(path),
                            "--out", str(tmp_path / "out")], timeout=30)
        assert done.returncode == EXIT_USAGE
        assert "line 3: field 'rhs'" in done.stderr and "OverflowError" in done.stderr

    @pytest.mark.parametrize("section, line, status, message", [
        # a selector no table entry matches, or whose argument is rejected:
        # a config error naming the line and the field
        ("[bundle]", "name = nope", EXIT_USAGE, "unknown bundle 'nope'"),
        ("[iterate]", "map = spiral", EXIT_USAGE, "unknown map 'spiral'"),
        ("[order]", "name = lexicographic", EXIT_USAGE, "unknown order 'lexicographic'"),
        ("[bvp]", "rhs = const:x", EXIT_USAGE, "rhs 'const:x'"),
        ("[bvp]", "rhs = mystery", EXIT_USAGE, "unknown rhs 'mystery'"),
        ("[bundle]", "beta = 1.5", EXIT_USAGE,
         "beta '1.5': constant beta needs a value in [0, 1), got 1.5"),
        ("[carrier]", "kind = cube", EXIT_USAGE, "unknown carrier 'cube'"),
        # sample counts numpy cannot draw
        ("[verify]", "pair_grid = -1", EXIT_USAGE, "needs a nonnegative int, got '-1'"),
        ("[verify]", "random_pairs = -5", EXIT_USAGE, "needs a nonnegative int, got '-5'"),
        # valid choices that do not fit together: a validation error
        ("[bundle]", "name = bvp", EXIT_VALIDATION, "the bvp bundle needs the grid carrier"),
        ("[order]", "name = pointwise", EXIT_VALIDATION,
         "the pointwise order needs the grid carrier"),
        ("[bundle]", "k = 2.0", EXIT_VALIDATION, "C-class overrides need both k and r"),
        # carrier bounds numpy cannot sample between: a validation error
        # naming the field, on either carrier (the check precedes the split)
        ("[carrier]", "low = nan", EXIT_VALIDATION, "[carrier] low must be finite, got nan"),
        ("[carrier]", "high = inf", EXIT_VALIDATION, "[carrier] high must be finite, got inf"),
        ("[carrier]", "low = 3.5", EXIT_VALIDATION,
         "[carrier] low = 3.5 exceeds high = 3.0"),
        # finite bounds whose width high - low overflows
        ("[carrier]", "low = -1e308\nhigh = 1e308", EXIT_VALIDATION,
         "[carrier] low = -1e+308 and high = 1e+308 are too far apart"),
        ("[carrier]", "low = -1.7976931348623157e308\nhigh = 1e300", EXIT_VALIDATION,
         "[carrier] low = -1.7976931348623157e+308 and high = 1e+300 are too far apart"),
    ])
    def test_selector_fields(self, tmp_path, capsys, section, line, status, message):
        path = write_cfg(tmp_path, f"{VERIFY_CFG}{section}\n{line}\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == status
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if status == EXIT_USAGE:
            lineno, key = VERIFY_CFG.count("\n") + 2, line.split(" = ")[0]
            assert f"line {lineno}: field '{key}'" in err

    def test_negative_count_on_the_grid_carrier(self):
        # checked when the config is read, not raised to 10 by the grid sampler
        with pytest.raises(ConfigError, match="line 5: field 'random_pairs'"):
            parse_config("mode = verify\n[carrier]\nkind = grid\n"
                         "[verify]\nrandom_pairs = -5\n")

    def test_carrier_width_overflow_on_the_grid_carrier(self, tmp_path, capsys):
        cfg = GRID_VERIFY_CFG.replace("kind = grid\n", "kind = grid\nlow = -1e308\nhigh = 1e308\n")
        assert main(["--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == ("validation error: [carrier] low = -1e+308 and high = 1e+308 are too "
                       "far apart: high - low overflows\n")

    def test_output_directory_that_cannot_be_created(self, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        path = write_cfg(tmp_path, SOLVE_CFG)
        assert main(["--config", str(path), "--out", str(blocker / "sub")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {blocker / 'sub'}")
        assert "Traceback" not in err


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

    def test_cclass_override_replaces_g_and_its_benchmark(self, tmp_path):
        # cclass_c(2, 3) has c_g = 3 / (1 + 2) = 1, the bound of the
        # contraction witnesses; the default cclass_a(0) has c_g = 0
        out = tmp_path / "out"
        status = run(parse_config(VERIFY_CFG + "\n[bundle]\nk = 2.0\nr = 3.0\n"), out_dir=out)
        assert status == EXIT_CHECK_FAILED
        with open(out / "report.csv", newline="") as fh:
            rows = {row[0]: row for row in csv.reader(fh)}
        assert rows["cclass"] == ["cclass", "pass", "346", "exact", "", "", "", "", ""]
        assert rows["contraction"] == ["contraction", "fail", "1741", "exact",
                                       "contraction (0.0, 0.0)", "0.0", "1.0", "-1.0",
                                       "bundle=example31_bundle"]

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


    def test_verify_grid_applies_the_operator_once_per_function(self, tmp_path, monkeypatch):
        # the verify-grid workload: 200 pairs of grid functions at n = 1000
        drawn, calls = [], []
        draw, original = cli_module.random_grid_pairs, bvp_module.integral_operator

        def recorded(*args):
            drawn.extend(draw(*args))
            return drawn

        def counted(problem, x):
            calls.append(np.array(x, ndmin=2))  # the functions of one call, one per row
            return original(problem, x)

        monkeypatch.setattr(cli_module, "random_grid_pairs", recorded)
        monkeypatch.setattr(bvp_module, "integral_operator", counted)
        cfg = GRID_VERIFY_CFG.replace("random_pairs = 10", "random_pairs = 200")
        cfg = cfg.replace("n = 20", "n = 1000")
        assert run(parse_config(cfg), out_dir=tmp_path / "out") == EXIT_OK
        # alpha-admissible, contraction and operator-contraction share the
        # images: each of the 400 sampled functions is mapped once, none
        # twice, in stacks of 16 (about 16384 node values): 13 chunks of x
        # and y rows
        mapped = [row.tobytes() for rows in calls for row in rows]
        sampled = {f.tobytes() for pair in drawn for f in pair}
        assert len(mapped) == 400 and set(mapped) == sampled and len(sampled) == 400
        assert len(calls) <= 2 * math.ceil(200 / 16)
        rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[-4:]] == [
            ["alpha-admissible", "pass", "200"], ["alpha-triangular", "pass", "133"],
            ["contraction", "pass", "200"], ["operator-contraction", "pass", "200"]]


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

    def test_scalar_expression_writes_what_the_constant_writes(self, tmp_path):
        # expr:2 gives one scalar, which the rhs spreads over the grid
        written = {}
        for rhs in ("expr:2", "const:2"):
            out = tmp_path / rhs.replace(":", "-")
            cfg_text = SOLVE_CFG.replace("rhs = pi2sin", f"rhs = {rhs}")
            assert run(parse_config(cfg_text), out_dir=out) == EXIT_OK
            written[rhs] = [(out / name).read_bytes() for name in ("solution.csv", "trace.csv")]
        assert written["expr:2"] == written["const:2"]

    def test_a_bare_value_error_is_not_a_validation_error(self, tmp_path, monkeypatch):
        # only DomainError and DimensionError are validation errors (exit 4)
        def broken(problem, cfg):
            raise ValueError("a programming error")

        monkeypatch.setattr(cli_module, "solve_bvp", broken)
        with pytest.raises(ValueError, match="a programming error"):
            run(parse_config(SOLVE_CFG), out_dir=tmp_path / "out")

    @pytest.mark.parametrize("line, message", [
        ("n = 3", "grid size must be even, got 3"),
        ("tolerance = 0.0", "tolerance must be positive, got 0.0"),
        ("max_iterations = 0", "max_iterations must be at least 1, got 0"),
    ])
    def test_rejected_problem_and_picard_values_are_validation_errors(
            self, tmp_path, capsys, line, message):
        section = "[bvp]" if line.startswith("n ") else "[picard]"
        path = write_cfg(tmp_path, SOLVE_CFG + f"\n{section}\n{line}\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"

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

# A grid-carrier run whose contraction and operator-contraction checks fail,
# and the SHA-256 of its artifacts as the one-function-per-call verifiers
# wrote them. Stacking the grid functions must not change a byte.
FAILING_GRID_CFG = """\
mode = verify
seed = 11

[carrier]
kind = grid

[bundle]
name = bvp

[verify]
random_pairs = 37

[bvp]
rhs = expr:10*x
n = 10
"""
FAILING_GRID_SHA256 = {
    "report.csv": "a17ca97946f8c0cc239dc0075e628b44bb67e2176f7c563b3974797b0a4e5441",
    "report.txt": "273ab4fedcdf6bbb9fe12183085a7e95f196ed5808bbcabbfd513d0249cad340",
}


class TestDeterminism:
    def test_order_reduction_artifacts_match_golden_digests(self, tmp_path):
        out = tmp_path / "golden"
        assert run(parse_config(GOLDEN_CFG), out_dir=out) == EXIT_CHECK_FAILED
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in GOLDEN_SHA256}
        assert digests == GOLDEN_SHA256

    def test_failing_grid_artifacts_match_golden_digests(self, tmp_path):
        out = tmp_path / "golden-grid"
        assert run(parse_config(FAILING_GRID_CFG), out_dir=out) == EXIT_CHECK_FAILED
        rows = (out / "report.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[-2:]] == [
            ["contraction", "fail"], ["operator-contraction", "fail"]]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in FAILING_GRID_SHA256}
        assert digests == FAILING_GRID_SHA256

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


def _run_python(args, timeout=120):
    """Run a new interpreter with ``args`` that imports this picardkit;
    returns the completed process."""
    env = dict(os.environ)
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def _run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports this picardkit; fail
    the test with its stderr if it exits nonzero."""
    done = _run_python(["-c", textwrap.dedent(code)])
    assert done.returncode == 0, done.stderr


class TestColdStart:
    """picardkit needs numpy and the standard library alone: importing the
    package, every CLI mode and the finite-difference oracle load no scipy
    module."""

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

    def test_finite_difference_solve_runs_without_scipy(self):
        _run_fresh_python("""
            import sys
            sys.modules["scipy"] = None  # any scipy import now fails
            import numpy as np
            from picardkit import BVPProblem, finite_difference_solve
            from picardkit.builtins import rhs_pi2sin
            x = finite_difference_solve(BVPProblem(rhs=rhs_pi2sin, n=40))
            assert np.max(np.abs(x - np.sin(np.pi * np.linspace(0.0, 1.0, 41)))) <= 1e-3
            """)


README = Path(__file__).resolve().parents[1] / "README.md"
# fields the README's config block shows with a value that is not the
# default: the required mode, and the optional bundle and order overrides
_SHOWN_NOT_DEFAULT = {("", "mode"), ("bundle", "lambda"), ("bundle", "k"), ("bundle", "r"),
                      ("bundle", "beta"), ("order", "name")}


def test_readme_config_block_shows_the_config_table():
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    shown, section = [], ""
    for raw_line in block.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            shown.append((section, line.split("=", 1)[0].strip()))
    fields = {(section, key): (attr, default)
              for section, key, attr, _, default in cli_module._FIELDS}
    assert sorted(shown) == sorted(fields)
    config = parse_config(block)
    for field, (attr, default) in fields.items():
        if field not in _SHOWN_NOT_DEFAULT:
            assert getattr(config, attr) == default, field


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


# ---------------------------------------------------------------------------
# Robustness: the shipped bundles stay on the vector path, and edge-value
# configs keep the exit-status contract.

# the benchmark's verify workloads at seed 7
VERIFY_INTERVAL_CFG = """\
mode = verify
seed = 7
[carrier]
kind = interval
low = 0.0
high = 3.0
[bundle]
name = example31
[verify]
pair_grid = 500
random_pairs = 1000
[order]
name = natural
"""
VERIFY_GRID_CFG = """\
mode = verify
seed = 7
[carrier]
kind = grid
low = 0.0
high = 1.0
[bundle]
name = bvp
[verify]
random_pairs = 200
[bvp]
rhs = sin_plus_one
n = 1000
"""


@pytest.mark.parametrize("cfg, status", [(VERIFY_INTERVAL_CFG, EXIT_CHECK_FAILED),
                                         (VERIFY_GRID_CFG, EXIT_OK)],
                         ids=["verify-interval", "verify-grid"])
def test_shipped_bundles_never_fall_back_to_one_sample_at_a_time(tmp_path, monkeypatch,
                                                                 cfg, status):
    # evaluate_block calls its per-sample callable only where the call on the
    # whole chunk fails; every check of a verify run goes through it
    calls, fallbacks = [], []
    original = framework_module.evaluate_block

    def spied(fn, scalar, *columns, **kwargs):
        def per_sample(*args):
            fallbacks.append(fn)
            return scalar(*args)

        calls.append(fn)
        return original(fn, per_sample, *columns, **kwargs)

    monkeypatch.setattr(framework_module, "evaluate_block", spied)
    monkeypatch.setattr(bvp_module, "evaluate_block", spied)
    assert run(parse_config(cfg), out_dir=tmp_path / "out") == status
    assert len(calls) > 20 and fallbacks == []


_BASE_CFGS = {
    "verify-interval": "[carrier]\nkind = interval\n[bundle]\nname = example31\n"
                       "[verify]\npair_grid = 6\nrandom_pairs = 5\n",
    "verify-grid": "[carrier]\nkind = grid\n[bundle]\nname = bvp\n"
                   "[verify]\nrandom_pairs = 4\n[bvp]\nrhs = sin_plus_one\nn = 6\n",
    "iterate": "[iterate]\nmap = affine:0.5:1\nstart = 0.0\n",
    "solve-bvp": "[bvp]\nrhs = sin_plus_one\nn = 10\n",
}
# edge values by (section, key); an expr: body may be a comprehension, a
# lambda, a conditional, a complex, a tuple, an f-string, a subscript or an
# overflow
_EDGE_VALUES = {
    ("carrier", "low"): ["1.0", "-1e308", "nan"],
    ("carrier", "high"): ["1.0", "1e308", "inf"],
    ("bundle", "lambda"): ["nan", "0.5"],
    ("bundle", "k"): ["nan", "2.0"],
    ("bundle", "r"): ["3.0", "inf"],
    ("bundle", "beta"): ["nan", "0.5", "reciprocal"],
    ("verify", "pair_grid"): ["0", "-1"],
    ("verify", "random_pairs"): ["0"],
    ("picard", "tolerance"): ["nan", "inf", "0.0"],
    ("picard", "max_iterations"): ["0", "-1", "3"],
    ("picard", "divergence_bound"): ["nan", "10.0"],
    ("iterate", "map"): ["affine:nan:0", "example31", "affine:2:1"],
    ("iterate", "start"): ["nan", "1e308", "-inf"],
    ("bvp", "rhs"): ["const:nan", "expr:[x for x in t]", "expr:(lambda y: y)(x)",
                     "expr:x if t else 0", "expr:1j*x", "expr:(x, t)", "expr:f'{x}'",
                     "expr:x[::-1]", "expr:exp(1e3*x)", "expr:1e308*x*x+1e308"],
    ("bvp", "n"): ["3", "0", "-2", "4"],
    ("bvp", "tolerance"): ["nan", "inf"],
}
edge_lines = st.sampled_from(sorted(_EDGE_VALUES)).flatmap(
    lambda field: st.sampled_from(_EDGE_VALUES[field]).map(lambda value: (*field, value)))


@given(mode=st.sampled_from(sorted(_BASE_CFGS)),
       seed=st.sampled_from(["7", "7", "7", "7", "-1", "1.5"]),
       edges=st.lists(edge_lines, max_size=3))
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_edge_value_configs_keep_the_exit_contract(mode, seed, edges):
    kind = mode.split("-")[0] if mode.startswith("verify") else mode
    text = f"mode = {kind}\nseed = {seed}\n{_BASE_CFGS[mode]}" + "".join(
        f"[{section}]\n{key} = {value}\n" for section, key, value in edges)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.cfg"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            status = main(["--config", str(path), "--out", str(Path(directory) / "out")])
    assert status in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_NOT_CONVERGED, EXIT_USAGE,
                      EXIT_VALIDATION), text
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert [str(w.message) for w in caught] == [], text
