"""Batch front-end: config parsing with line-numbered errors, the three run
modes end to end, exit-status classes, and byte-deterministic artifacts."""

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tomllib
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import picardkit
from picardkit import bvp as bvp_module
from picardkit import cli as cli_module
from picardkit import framework as framework_module
from picardkit import report as report_module
from picardkit import sampling as sampling_module
from picardkit.cli import (EXIT_CHECK_FAILED, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_USAGE, EXIT_VALIDATION, ConfigError, main,
                           parse_config, run)

from helpers import load_grid_csv

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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "abc"])
    def test_a_bad_config_seed_names_its_line_and_field(self, tmp_path, capsys, seed):
        path = write_cfg(tmp_path, VERIFY_CFG.replace("seed = 42", f"seed = {seed}"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"config error: {path}: line 2: field 'seed' needs "
                                           f"an unsigned 64-bit int, got '{seed}'\n")
        assert not (tmp_path / "out").exists()

    def test_the_largest_config_seed_is_accepted(self):
        config = parse_config(f"mode = iterate\nseed = {2 ** 64 - 1}\n[iterate]\n")
        assert config.seed == 2 ** 64 - 1

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
        "x@x",                   # @ reads across nodes, as an index does
        "x*(t@x)",
        "sin(x, x)+1",           # writes x: the rhs gets read-only views
        "sin(x, out=x)+1",
        "exp(t, t)*0 + sin(x) + 1",  # writes t, the problem's nodes
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
        # a value of another type, named with the type's article
        ("[bvp]", "n = 1.5", EXIT_USAGE, "field 'n' needs an int, got '1.5'"),
        # valid choices that do not fit together: a validation error
        ("[bundle]", "name = bvp", EXIT_VALIDATION, "the bvp bundle needs the grid carrier"),
        ("[order]", "name = pointwise", EXIT_VALIDATION,
         "the pointwise order needs the grid carrier"),
        ("[bundle]", "k = 2.0", EXIT_VALIDATION, "C-class overrides need both k and r"),
        # a C-class override that is not finite, named by the field it breaks
        ("[bundle]", "k = nan\nr = 2.0", EXIT_VALIDATION,
         "cclass_c needs a finite k >= 1, got nan"),
        ("[bundle]", "k = inf\nr = 2.0", EXIT_VALIDATION,
         "cclass_c needs a finite k >= 1, got inf"),
        ("[bundle]", "k = 1.0\nr = nan", EXIT_VALIDATION,
         "cclass_c needs a finite r >= 2, got nan"),
        ("[bundle]", "k = 1.0\nr = inf", EXIT_VALIDATION,
         "cclass_c needs a finite r >= 2, got inf"),
        # carrier bounds numpy cannot sample between: a validation error
        # naming the field, on either carrier (the check precedes the split)
        ("[carrier]", "low = nan", EXIT_VALIDATION, "[carrier] low must be finite, got nan"),
        ("[carrier]", "high = inf", EXIT_VALIDATION, "[carrier] high must be finite, got inf"),
        ("[carrier]", "low = 3.5", EXIT_VALIDATION,
         "[carrier] low = 3.5 exceeds high = 3.0"),
        # numpy reads the width -0.0 - 0.0 by its sign
        ("[carrier]", "low = 0.0\nhigh = -0.0", EXIT_VALIDATION,
         "[carrier] low = 0.0 exceeds high = -0.0"),
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

    def test_an_unknown_mode_is_a_validation_error(self, tmp_path, capsys):
        # parse_config refuses it first; a config built in code reaches run
        config = parse_config(SOLVE_CFG)
        config.mode = "bogus"
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: unknown mode 'bogus'\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    def test_a_seed_past_64_bits_on_the_command_line_is_a_usage_error(self, tmp_path, capsys,
                                                                       seed):
        # the flag's value is converted as the config field's is
        path = write_cfg(tmp_path, SOLVE_CFG)
        argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--seed", str(seed)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: --seed: field 'seed' needs an unsigned 64-bit int, got '{seed}'\n")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("beta, status, code", [
        (None, "caveat", EXIT_OK), ("reciprocal", "caveat", EXIT_OK),
        ("0.9999999999", "fail", EXIT_CHECK_FAILED)])
    def test_a_caveat_covers_only_the_clause_it_declares(self, tmp_path, beta, status, code):
        # a gain near 1 fails the limit clause, which the bundle does not
        # declare: only its range clause at beta(0) = 1 is a caveat
        extra = "" if beta is None else f"beta = {beta}\n"
        cfg_text = VERIFY_CFG.replace("name = example31\n", f"name = example31\n{extra}")
        cfg = parse_config(cfg_text.replace("pair_grid = 41\nrandom_pairs = 60",
                                            "pair_grid = 20\nrandom_pairs = 10"))
        cfg.seed = 3
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == code
        with open(out / "report.csv", newline="") as fh:
            row = next(row for row in csv.DictReader(fh) if row["check"] == "geraghty")
        assert row["status"] == status
        witnesses = re.findall(r"witness (geraghty/\w+)", (out / "report.txt").read_text())
        assert set(witnesses) == ({"geraghty/limit"} if beta and beta[0] == "0"
                                  else {"geraghty/range"})
        note = ("declared caveat: beta(0) = 1 touches the top of the Geraghty range; the "
                "contraction verdict is unaffected because the inequality reads "
                "zeta(0, 0) = 0 >= 0 there. Both facts are reported.")
        assert (note in row["notes"]) == (status == "caveat")

    def test_caveats_read_the_witnesses_of_the_checks_they_name_only(self):
        class Unread(list):  # stands for a failing check's many rows
            def __iter__(self):
                raise AssertionError("the witnesses were read")

        from picardkit.builtins import example31_bundle
        from picardkit.report import VerificationReport

        report = VerificationReport("contraction", "fail", Unread([None]), 1)
        adjusted, failures = cli_module._rows_with_caveats([report], example31_bundle())
        assert adjusted == [report] and failures == 1

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
        drawn, calls = _verify_grid_calls(tmp_path, monkeypatch)
        # alpha-admissible, contraction and operator-contraction share the
        # images: each of the 400 sampled functions is mapped once, none
        # twice, in stacks of CHUNK // 2002 = 7 (pairs of at most CHUNK node
        # values): 29 chunks of x and y rows
        mapped = [row.tobytes() for rows in calls for row in rows]
        sampled = {f.tobytes() for pair in drawn for f in pair}
        assert len(mapped) == 400 and set(mapped) == sampled and len(sampled) == 400
        assert len(calls) <= 2 * math.ceil(200 / (framework_module.CHUNK // 2002))
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

        monkeypatch.setattr(bvp_module, "solve_bvp", broken)
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


def reference_digests(case):
    """The SHA-256 of each artifact of the case ``case`` of
    ``tools/artifact_digests.py``, by file name, as ``artifact_digests.txt``
    records them (the case's stdout, stderr and exit status left out)."""
    lines = Path(__file__).with_name("artifact_digests.txt").read_text().splitlines()[1:]
    streams = ("/stdout", "/stderr", "/status")
    digests = {what.removeprefix(f"{case}/"): digest
               for digest, what in (line.split("  ") for line in lines)
               if what.startswith(f"{case}/") and not what.endswith(streams)}
    assert digests, f"no artifact digests of {case!r}"
    return digests


def artifact_digests(out):
    """The SHA-256 of each file in the directory ``out``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


# An order-reduction run with 1450 contraction witnesses, the first of them
# (the most negative margin) and the SHA-256 of its artifacts, those of the
# digest tool's case "order-reduction". The reports show the most negative
# margins first; a change in witness order, or a numpy scalar repr reaching
# a witness, changes the digests.
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
GOLDEN_FIRST = ("contraction (0.0, 3.0)", "-8.238095238095237")
GOLDEN_SHA256 = reference_digests("order-reduction")

# A grid-carrier run whose contraction and operator-contraction checks fail,
# its first contraction witness and the SHA-256 of its artifacts as the
# one-function-per-call verifiers wrote them (the digest tool's case
# "failing-grid"). Stacking the grid functions must not change a byte.
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
FAILING_GRID_FIRST = (
    "contraction (grid(nodes=11, min=0.25382745948187835, max=2.866341706423385), "
    "grid(nodes=11, min=0.942674503909421, max=2.919230121233852))", "-1.3860112442395367")
FAILING_GRID_SHA256 = reference_digests("failing-grid")

# A solve and an orbit whose trace carries defined ratios, and the SHA-256
# of their artifacts (the digest tool's cases "solve-sin-plus-one" and
# "iterate-converges"): the trace's ratio column and the solve's contraction
# estimate are read from the gaps, and must not move.
SOLVE_GOLDEN_CFG = """\
mode = solve-bvp

[bvp]
rhs = sin_plus_one
n = 100

[picard]
tolerance = 1e-10
"""
SOLVE_SHA256 = reference_digests("solve-sin-plus-one")
ITERATE_GOLDEN_CFG = """\
mode = iterate

[iterate]
map = affine:0.5:0.25
start = 1.0
"""
ITERATE_SHA256 = reference_digests("iterate-converges")


def contraction_row(out):
    """The ``contraction`` row of a run's report.csv, by column name."""
    with open(out / "report.csv", newline="") as fh:
        return next(row for row in csv.DictReader(fh) if row["check"] == "contraction")


def example31_margin(x, y):
    """The margin of the master inequality for the example31 bundle under the
    natural order, in closed form: zeta(alpha*d(Tx, Ty), beta(M)*M) - c_G
    with T = x/3 on [0, 1] else 3x, alpha = [x <= y], beta(t) = 1/(1 + t),
    zeta(t, s) = (8/9) s - t and c_G = 0."""
    def T(v):
        return v / 3.0 if 0.0 <= v <= 1.0 else 3.0 * v

    tx, ty = T(x), T(y)
    m = max(abs(x - y), abs(x - tx), abs(y - ty))
    alpha = 1.0 if x <= y else 0.0
    s = (1.0 / (1.0 + m)) * m
    return (8.0 / 9.0) * s - alpha * abs(tx - ty)


class TestDeterminism:
    def test_order_reduction_artifacts_match_golden_digests(self, tmp_path):
        out = tmp_path / "golden"
        assert run(parse_config(GOLDEN_CFG), out_dir=out) == EXIT_CHECK_FAILED
        row = contraction_row(out)
        assert (row["witness"], row["margin"]) == GOLDEN_FIRST
        assert artifact_digests(out) == GOLDEN_SHA256

    def test_failing_grid_artifacts_match_golden_digests(self, tmp_path):
        out = tmp_path / "golden-grid"
        assert run(parse_config(FAILING_GRID_CFG), out_dir=out) == EXIT_CHECK_FAILED
        rows = (out / "report.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[-2:]] == [
            ["contraction", "fail"], ["operator-contraction", "fail"]]
        row = contraction_row(out)
        assert (row["witness"], row["margin"]) == FAILING_GRID_FIRST
        assert artifact_digests(out) == FAILING_GRID_SHA256

    @pytest.mark.parametrize("cfg_text, digests, iterations", [
        (SOLVE_GOLDEN_CFG, SOLVE_SHA256, 11), (ITERATE_GOLDEN_CFG, ITERATE_SHA256, 33)],
        ids=["solve", "iterate"])
    def test_orbit_artifacts_match_golden_digests(self, tmp_path, cfg_text, digests, iterations):
        out = tmp_path / "golden-orbit"
        assert run(parse_config(cfg_text), out_dir=out) == EXIT_OK
        assert self._artifacts(out) == sorted(digests)
        assert f"iterations: {iterations}\n" in (out / "report.txt").read_text()
        with open(out / "trace.csv", newline="") as fh:
            assert sum(bool(row["ratio"]) for row in csv.DictReader(fh)) == iterations - 1
        assert artifact_digests(out) == digests

    def test_first_contraction_witness_replays_and_is_the_worst(self, tmp_path):
        out = tmp_path / "golden"
        assert run(parse_config(GOLDEN_CFG), out_dir=out) == EXIT_CHECK_FAILED
        row = contraction_row(out)
        x, y = map(float, re.fullmatch(r"contraction \(([^,]+), ([^)]+)\)",
                                       row["witness"]).groups())
        margin = float(row["margin"])
        assert abs(example31_margin(x, y) - margin) <= 1e-12
        listed = re.findall(r"\[margin=([^\]]+)\]", (out / "report.txt").read_text())
        assert len(listed) > 8 and margin <= min(map(float, listed))

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


@pytest.mark.parametrize("cfg_text", [SOLVE_CFG, GRID_VERIFY_CFG], ids=["solve", "verify"])
def test_bvp_tolerance_is_validated_but_read_by_no_run(tmp_path, capsys, cfg_text):
    # a solve stops at [picard] tolerance, and verify never solves
    written = []
    for tolerance in ("1e-2", "1e-12"):
        out = tmp_path / tolerance
        text = cfg_text + f"\n[bvp]\ntolerance = {tolerance}\n"
        assert run(parse_config(text), out_dir=out) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1] and len(written[0]) >= 2
    path = write_cfg(tmp_path, cfg_text + "\n[bvp]\ntolerance = -1\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: tolerance must be positive, got -1.0\n"


def _recorded_draws(monkeypatch):
    """The draws a run makes, each with the row counts of the slices made
    of it, recorded as the run makes them."""
    draws = []

    class Recorded(sampling_module.Draw):
        def __init__(self, *args):
            super().__init__(*args)
            self.sliced = []
            draws.append(self)

        def __getitem__(self, rows):
            block = super().__getitem__(rows)
            self.sliced.append(len(block))
            return block

    monkeypatch.setattr(sampling_module, "Draw", Recorded)
    return draws


def _verify_grid_calls(tmp_path, monkeypatch):
    """The verify-grid workload (200 pairs of grid functions at n = 1000) run
    with its draws and operator calls recorded: the drawn pairs, made whole
    from their draw after the run, and per call the functions it mapped, one
    per row."""
    draws, calls = _recorded_draws(monkeypatch), []
    original = bvp_module.integral_operator

    def counted(problem, x):
        calls.append(np.array(x, ndmin=2))
        return original(problem, x)

    monkeypatch.setattr(bvp_module, "integral_operator", counted)
    cfg = GRID_VERIFY_CFG.replace("random_pairs = 10", "random_pairs = 200")
    cfg = cfg.replace("n = 20", "n = 1000")
    assert run(parse_config(cfg), out_dir=tmp_path / "out") == EXIT_OK
    pairs, = [draw for draw in draws if draw.shape == (2, 1001)]
    return pairs[:], calls


def test_verify_grid_pairs_and_triples_are_draws_the_kernel_slices(tmp_path, monkeypatch):
    # the drawn (200, 2, 1001) block is never made whole: the kernel makes
    # the pairs a chunk at a time, and the triples' rows from the pairs'
    # chunks; the triples' draw is the table their witnesses replay from
    seen = []
    draws = _recorded_draws(monkeypatch)
    check_pairs = framework_module.check_pairs

    def spied(*args, **kwargs):
        seen.append(args)
        return check_pairs(*args, **kwargs)

    monkeypatch.setattr(framework_module, "check_pairs", spied)
    cfg = GRID_VERIFY_CFG.replace("random_pairs = 10", "random_pairs = 200")
    cfg = cfg.replace("n = 20", "n = 1000")
    assert run(parse_config(cfg), out_dir=tmp_path / "out") == EXIT_OK
    sliced = {id(draw): draw.sliced[:] for draw in draws}
    (_, _, pairs, _, _, triples), = seen
    assert len(draws) == 5 and draws[3:] == [triples, pairs]
    # drawn first, and made whole: the samples of zeta, of G, then of beta
    assert [(len(draw), draw.shape, draw.sliced) for draw in draws[:3]] == [
        (100, (2,), [100]), (100, (2,), [100]), (50, (), [50])]
    assert (len(pairs), pairs.shape) == (200, (2, 1001))
    # the drawn functions in order, three at a time
    assert (len(triples), triples.shape) == (133, (3, 1001))
    assert np.array_equal(triples[:].reshape(-1, 1001), pairs[:].reshape(-1, 1001)[:399])
    # the run made the pairs one chunk of at most 7 rows at a time, never
    # whole, and no row of the triples
    assert max(sliced[id(pairs)]) == framework_module.CHUNK // 2002
    assert sum(sliced[id(pairs)]) == len(pairs)
    assert not any(sliced[id(triples)])
    # the gate takes both as they are
    assert framework_module._table(pairs, 2, grids=True) is pairs
    assert framework_module._table(triples, 3, grids=True) is triples


def test_a_passing_grid_verify_makes_each_stream_value_once(tmp_path, monkeypatch):
    # every value the run reserves of the stream is made once: the spans
    # the draws make tile the reserved span, none made twice
    spans, rows = [], sampling_module.Draw._rows

    def counted(self, start, stop):
        size = math.prod(self.shape)
        spans.append((self._first + start * size, self._first + stop * size))
        return rows(self, start, stop)

    monkeypatch.setattr(sampling_module.Draw, "_rows", counted)
    cfg = GRID_VERIFY_CFG.replace("random_pairs = 10", "random_pairs = 200")
    cfg = cfg.replace("n = 20", "n = 1000")
    assert run(parse_config(cfg), out_dir=tmp_path / "out") == EXIT_OK
    made = sorted(span for span in spans if span[0] < span[1])
    assert [low for low, _ in made] == [0, *(high for _, high in made[:-1])]
    # the samples of zeta, G and beta, then the pairs' 400 400 values
    assert made[-1][1] == 2 * 100 + 2 * 100 + 50 + 200 * 2 * 1001


ITERATE_CFG = "mode = iterate\n[iterate]\nmap = example31\nstart = 1.0\n"


def _listing(out):
    return {p.name: p.read_bytes() if p.is_file() else "directory" for p in out.iterdir()}


def test_a_failed_run_leaves_the_last_run_that_succeeded_whole(tmp_path):
    # every artifact is written under a temporary name and renamed into
    # place after the last write: a trace.csv that cannot be replaced
    # leaves the first run's report, and no temporary
    out = tmp_path / "out"
    assert main(["--config", str(write_cfg(tmp_path, ITERATE_CFG)), "--out", str(out)]) == EXIT_OK
    (out / "trace.csv").unlink()
    (out / "trace.csv").mkdir()
    before = _listing(out)
    second = write_cfg(tmp_path, ITERATE_CFG.replace("start = 1.0", "start = 2.0"), "second.cfg")
    assert main(["--config", str(second), "--out", str(out)]) == EXIT_USAGE
    assert _listing(out) == before
    assert sorted(before) == ["report.csv", "report.txt", "trace.csv"]
    assert b"start: 1.0" in before["report.txt"]


def test_a_staging_directory_left_by_a_killed_run_does_not_block_the_next(tmp_path):
    # a run killed before its cleanup leaves its staging directory; a later
    # run with the same process id stages into a directory of its own
    out = tmp_path / "out"
    leftover = out / f".partial-{os.getpid()}"
    leftover.mkdir(parents=True)
    assert run(parse_config(ITERATE_CFG), out_dir=out) == EXIT_OK
    assert sorted(_listing(out)) == [leftover.name, "report.csv", "report.txt", "trace.csv"]
    assert b"start: 1.0" in (out / "report.txt").read_bytes()


@pytest.mark.parametrize("mode, lines, fields", [
    ("solve-bvp", "[bvp]\nn = 1000000000000\n", "[bvp] n = 1000000000000"),
    ("verify-grid", "[bvp]\nn = 100000000000\n",
     "[verify] random_pairs = 4, [bvp] n = 100000000000"),
    ("verify-interval", "[verify]\nrandom_pairs = 1000000000000\n",
     "[verify] pair_grid = 6, [verify] random_pairs = 1000000000000"),
    ("verify-grid", "[verify]\nrandom_pairs = 1000000000000\n[bvp]\nn = 1000\n",
     "[verify] random_pairs = 1000000000000, [bvp] n = 1000"),
])
def test_a_size_too_large_to_allocate_is_a_validation_error(tmp_path, capsys, mode, lines, fields):
    # numpy refuses the allocation before it makes it, so these runs are cheap
    kind = mode.split("-")[0] if mode.startswith("verify") else mode
    path = write_cfg(tmp_path, f"mode = {kind}\n{_BASE_CFGS[mode]}{lines}")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: too large to allocate at {fields}: ")
    assert "Unable to allocate" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


def _python_env():
    """The environment of a new interpreter that imports this picardkit.
    Its stdout into a pipe is block-buffered: a PYTHONUNBUFFERED in the
    environment would hide a flush that the process entry failed to make."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_python(args, timeout=120):
    """Run a new interpreter with ``args`` that imports this picardkit;
    returns the completed process."""
    return subprocess.run([sys.executable, *args], env=_python_env(), capture_output=True,
                          text=True, timeout=timeout)


def _run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports this picardkit; fail
    the test with its stderr if it exits nonzero."""
    done = _run_python(["-c", textwrap.dedent(code)])
    assert done.returncode == 0, done.stderr


def _run_entry(argv, status, then=""):
    """Run what ``python -m picardkit`` runs on ``argv`` in a new
    interpreter, then the lines ``then``. The child's ``os._exit`` records
    the status and raises SystemExit in its place, so the lines after the
    entry still run; the entry must have ended there, with ``status``."""
    _run_fresh_python("\n".join([
        "import os, runpy, sys",
        "exits = []",
        "def _exit(status):",
        "    exits.append(status)",
        "    raise SystemExit(status)",
        "os._exit = _exit",
        f"sys.argv = {['picardkit', *argv]!r}",
        "try:",
        "    runpy.run_module('picardkit', run_name='__main__')",
        "except SystemExit:",
        "    pass",
        f"assert exits == [{status!r}], exits",
        then]))


class TestColdStart:
    """picardkit needs numpy and the standard library alone: importing the
    package and every CLI mode load no scipy module, and neither does the
    tests' finite-difference oracle. No mode imports numpy.random, whose
    seeding loads secrets and OpenSSL's _hashlib, nor copy. The package
    namespace is lazy, and each mode loads only the modules it runs."""

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

    @pytest.mark.parametrize("cfg", [SOLVE_CFG, ITERATE_CFG, VERIFY_CFG, GRID_VERIFY_CFG],
                             ids=["solve-bvp", "iterate", "verify-interval", "verify-grid"])
    def test_no_mode_loads_numpy_random_or_copy(self, tmp_path, cfg):
        # the verify runs draw from the sampler's own stream
        _run_entry(_mode_argv(tmp_path, cfg), EXIT_OK,
                   "loaded = [m for m in ('numpy.random', 'secrets', '_hashlib', 'copy')\n"
                   "          if m in sys.modules]\n"
                   "assert not loaded, loaded")

    @pytest.mark.parametrize("cfg, status, loaded", [
        (None, None, set()),
        ("--list-builtins", EXIT_OK, {"builtins", "errors", "metrics"}),
        (VERIFY_CFG, EXIT_OK, {"builtins", "errors", "framework", "metrics", "report", "sampling"}),
        (VERIFY_CFG + "\n[order]\nname = natural\n", EXIT_CHECK_FAILED,
         {"builtins", "errors", "framework", "metrics", "posets", "report", "sampling"}),
        (GRID_VERIFY_CFG, EXIT_OK,
         {"builtins", "bvp", "errors", "framework", "metrics", "report", "sampling"}),
        (SOLVE_CFG, EXIT_OK, {"builtins", "bvp", "errors", "metrics", "picard"}),
        (ITERATE_CFG, EXIT_OK, {"builtins", "errors", "metrics", "picard"}),
    ], ids=["import", "list-builtins", "verify-interval", "verify-interval-order",
            "verify-grid", "solve-bvp", "iterate"])
    def test_each_mode_loads_only_the_modules_it_runs(self, tmp_path, cfg, status, loaded):
        # the front-end itself (cli, __main__) is left out of the module set;
        # no module generates code for its records when it loads, and none
        # calls np.unique, whose first call imports numpy.ma (about 1.3 MB)
        check = "\n".join([
            "loaded = {m.split('.')[1] for m in sys.modules if m.startswith('picardkit.')}",
            f"assert loaded - {{'cli', '__main__'}} == {loaded!r}, sorted(loaded)",
            f"assert ('numpy' in sys.modules) is {cfg is not None!r}",
            "assert 'dataclasses' not in sys.modules and 'numpy.ma' not in sys.modules"])
        if cfg is None:
            _run_fresh_python("import sys\nimport picardkit\n" + check)
        else:
            _run_entry([cfg] if cfg == "--list-builtins" else _mode_argv(tmp_path, cfg),
                       status, check)

    def test_the_lazy_namespace_resolves_every_public_name(self):
        for module, names in picardkit._MODULES.items():
            for name in names:
                owner = importlib.import_module(f"picardkit.{module}")
                expected = owner if name == module else getattr(owner, name)
                assert getattr(picardkit, name) is expected, name
        listed = dir(picardkit)
        assert set(picardkit._MODULE_OF) <= set(listed) and listed == sorted(listed)
        # the names the package bound eagerly before it became lazy, spot-checked
        assert {"solve_bvp", "verify_contraction", "GRID_EPS", "SCALAR_EPS", "Witness",
                "builtins", "sampling", "__version__"} <= set(listed)

    def test_an_unknown_name_is_an_attribute_error(self):
        # so that a submodule outside the table still imports by name
        _run_fresh_python("""
            import sys
            import picardkit
            try:
                picardkit.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc), exc
            else:
                raise AssertionError("no AttributeError")
            assert not hasattr(picardkit, "cli")
            from picardkit import cli
            assert sys.modules["picardkit.cli"] is cli is picardkit.cli
            assert picardkit.solve_bvp is sys.modules["picardkit.bvp"].solve_bvp
            """)

    def test_the_star_import_binds_exactly_the_name_table(self):
        _run_fresh_python("""
            import picardkit
            namespace = {}
            exec("from picardkit import *", namespace)
            del namespace["__builtins__"]
            assert sorted(namespace) == sorted(picardkit._MODULE_OF), sorted(namespace)
            """)

    def test_finite_difference_solve_runs_without_scipy(self):
        _run_fresh_python(f"""
            import sys
            sys.modules["scipy"] = None  # any scipy import now fails
            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            import numpy as np
            from picardkit import BVPProblem
            from picardkit.builtins import rhs_pi2sin
            from helpers import finite_difference_solve
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


def test_readme_states_the_chunk_size_and_the_operator_calls(tmp_path, monkeypatch):
    text = " ".join(README.read_text().split())
    chunk = framework_module.CHUNK
    assert re.search(r"in chunks of (\d+) float values", text)[1] == str(chunk)
    assert re.search(r"so (\d+) pairs at n = 1000", text)[1] == str(chunk // 2002)
    _, calls = _verify_grid_calls(tmp_path, monkeypatch)
    assert re.search(r"n = 1000 make (\d+) operator calls", text)[1] == str(len(calls))


class TestMainEntry:
    def test_list_builtins(self, capsys):
        assert main(["--list-builtins"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == cli_module.catalog.catalog_text() + "\n"
        assert out.startswith("builtin catalog\n\nconfig selectors, by field:")

    def test_list_builtins_to_a_closed_pipe_ends_without_a_traceback(self):
        # the reader of stdout is gone before the first write, as when
        # ``| head`` has read its fill: the listing exits 0, silently
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "picardkit", "--list-builtins"],
                                  env=_python_env(), stdout=write, stderr=subprocess.PIPE,
                                  timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")

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


# right-hand sides that ignore x give a scalar or t's shape, which the
# problem spreads over a stack: mapped one function at a time, the 200 pairs
# would take 400 operator calls
T_ONLY_RHS = ["zero", "const:2", "pi2sin", "expr:2", "expr:pi**2*sin(pi*t)"]


@pytest.mark.parametrize("cfg, status", [
    (VERIFY_INTERVAL_CFG, EXIT_CHECK_FAILED), (VERIFY_GRID_CFG, EXIT_OK),
    *[(VERIFY_GRID_CFG.replace("rhs = sin_plus_one", f"rhs = {rhs}"), EXIT_OK)
      for rhs in T_ONLY_RHS]],
    ids=["verify-interval", "verify-grid", *[f"verify-grid-rhs={rhs}" for rhs in T_ONLY_RHS]])
def test_shipped_bundles_never_fall_back_to_one_sample_at_a_time(tmp_path, monkeypatch,
                                                                 cfg, status):
    # evaluate_block calls its per-sample callable only where the callable
    # is not tagged for the chunk's columns, or its result on them is not
    # taken; every check of a verify run goes through it. On the grid
    # carrier a per-sample call maps one grid function
    calls, fallbacks, untagged = [], [], []
    original = framework_module.evaluate_block

    def spied(fn, scalar, *columns, **kwargs):
        def per_sample(*args):
            fallbacks.append(fn)
            return scalar(*args)

        calls.append(fn)
        if not getattr(fn, "rowwise" if columns[0].ndim > 1 else "elementwise", False):
            untagged.append(fn)
        return original(fn, per_sample, *columns, **kwargs)

    monkeypatch.setattr(framework_module, "evaluate_block", spied)
    assert run(parse_config(cfg), out_dir=tmp_path / "out") == status
    assert len(calls) > 20 and fallbacks == [] and untagged == []


def test_a_verify_interval_run_reads_no_contraction_row_back(tmp_path, monkeypatch):
    # the contraction's ~99 000 failing rows render, in report.txt and
    # report.csv, from the eight worst rows the pass kept whole: none is read
    # back from the pairs. Only the small multi-clause reports may list all
    # their rows, each clause's store read back once
    reads = []
    read = report_module.FailingRows._read

    def counted(self):
        reads.append(self.check)
        return read(self)

    monkeypatch.setattr(report_module.FailingRows, "_read", counted)
    out = tmp_path / "out"
    assert run(parse_config(VERIFY_INTERVAL_CFG), out_dir=out) == EXIT_CHECK_FAILED
    assert "[  FAIL] contraction  (samples=251000" in (out / "report.txt").read_text()
    assert (out / "report.csv").read_text().splitlines()[-1].startswith("contraction,fail,")
    assert "contraction" not in reads and len(reads) == len(set(reads))
    assert {check.split("/")[0] for check in reads} <= {"simulation", "cclass", "geraghty"}
    # a full listing is what the counter sees
    store = report_module.FailingRows("contraction", repr, np.zeros((9, 1)),
                                      lambda rows: (None, rows[:, 0], 0.0, rows[:, 0]))
    store.add(np.zeros((9, 1)), np.arange(9), np.zeros(9))
    assert len(list(store)) == 9 and reads[-1] == "contraction"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_verify_memory_does_not_grow_with_a_copy_of_the_pairs(tmp_path):
    # 4 * 10**6 pairs, about 1.6 * 10**6 of them failing: the pass makes the
    # mesh a chunk at a time and writes each failing row's number once.
    # Building the joined pair table and copying the failing rows peaked at
    # 207 MB; a store of each failing row's inputs and margin, at 87 MB.
    cfg = write_cfg(tmp_path, VERIFY_INTERVAL_CFG.replace("pair_grid = 500", "pair_grid = 2000"))
    # a process's ru_maxrss starts at the peak of the one it was spawned
    # from, so the run is spawned from a new interpreter, not from pytest
    spawn = ("import os, subprocess, sys\n"
             "child = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(child.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    done = _run_python(["-c", spawn, sys.executable, "-m", "picardkit", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
    status, peak_kib = map(int, done.stdout.split())
    assert status == EXIT_CHECK_FAILED, done.stderr
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert rows[-1].startswith("contraction,fail,4001000,")
    assert peak_kib < 70 * 1024


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
    ("carrier", "low"): ["1.0", "-1e308", "nan", "-0.0"],
    ("carrier", "high"): ["1.0", "1e308", "inf", "-0.0"],
    ("bundle", "lambda"): ["nan", "0.5"],
    ("bundle", "k"): ["nan", "2.0"],
    ("bundle", "r"): ["3.0", "inf"],
    ("bundle", "beta"): ["nan", "0.5", "reciprocal"],
    ("verify", "pair_grid"): ["0", "-1"],
    ("verify", "random_pairs"): ["0", "1000000000000"],
    ("picard", "tolerance"): ["nan", "inf", "0.0"],
    ("picard", "max_iterations"): ["0", "-1", "3"],
    ("picard", "divergence_bound"): ["nan", "10.0"],
    ("iterate", "map"): ["affine:nan:0", "example31", "affine:2:1"],
    ("iterate", "start"): ["nan", "1e308", "-inf"],
    ("bvp", "rhs"): ["const:nan", "expr:[x for x in t]", "expr:(lambda y: y)(x)",
                     "expr:x if t else 0", "expr:1j*x", "expr:(x, t)", "expr:f'{x}'",
                     "expr:x[::-1]", "expr:exp(1e3*x)", "expr:1e308*x*x+1e308"],
    # the last two ask for node arrays of 7.3 TiB and 745 GiB, which cannot be allocated
    ("bvp", "n"): ["3", "0", "-2", "4", "1000000000000", "100000000000"],
    ("bvp", "tolerance"): ["nan", "inf"],
}
edge_lines = st.sampled_from(sorted(_EDGE_VALUES)).flatmap(
    lambda field: st.sampled_from(_EDGE_VALUES[field]).map(lambda value: (*field, value)))


@given(mode=st.sampled_from(sorted(_BASE_CFGS)),
       seed=st.sampled_from(["7", "7", "7", "7", "-1", "1.5"]),
       edges=st.lists(edge_lines, max_size=3))
# numpy reads high - low = -0.0 as a negative width, on either carrier
@example(mode="verify-interval", seed="7", edges=[("carrier", "high", "-0.0")])
@example(mode="verify-grid", seed="7", edges=[("carrier", "high", "-0.0")])
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


# ---------------------------------------------------------------------------
# The process entry: python -m picardkit and the console script run with the
# collector off and end in os._exit once the atexit callbacks have run and
# the output is flushed; cli.main in-process leaves the collector alone.
# Skipping interpreter teardown is safe because every artifact is closed
# when the run returns.

_MODE_CFGS = {"verify-interval": VERIFY_CFG, "verify-grid": GRID_VERIFY_CFG,
              "iterate": ITERATE_CFG, "solve-bvp": SOLVE_CFG}
_DIVERGENT_CFG = "mode = iterate\n[iterate]\nmap = affine:3:0\n[picard]\ndivergence_bound = 1e6\n"
_REFUSED_CFG = SOLVE_CFG.replace("n = 100", "n = 3")  # exits 4: the grid size must be even


def _mode_argv(tmp_path, cfg):
    return ["--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "out")]


def test_console_script_is_the_entry_of_python_m(tmp_path):
    # the wrapper an installer writes around the script's entry point;
    # importing the entry's module imports no cli, and so no numpy
    pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text())
    module, name = pyproject["project"]["scripts"]["picardkit"].split(":")
    assert (module, name) == ("picardkit.__main__", "entry")
    script = (f"import sys\nfrom {module} import {name}\n"
              "assert 'picardkit.cli' not in sys.modules\n"
              f"sys.argv[0] = 'picardkit'\nsys.exit({name}())\n")
    for argv, status in ((["--help"], EXIT_OK), (["--bogus"], EXIT_USAGE),
                         (_mode_argv(tmp_path, _DIVERGENT_CFG), EXIT_NOT_CONVERGED)):
        by_script = _run_python(["-c", script, *argv])
        outputs = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*")}
        by_module = _run_python(["-m", "picardkit", *argv])
        assert by_script.returncode == status, by_script.stderr
        assert ((by_script.returncode, by_script.stdout, by_script.stderr)
                == (by_module.returncode, by_module.stdout, by_module.stderr))
        assert outputs == {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*")}


@pytest.mark.parametrize("cfg, argv, status", [
    (SOLVE_CFG, [], EXIT_OK),
    (VERIFY_INTERVAL_CFG, [], EXIT_CHECK_FAILED),
    (_DIVERGENT_CFG, [], EXIT_NOT_CONVERGED),
    (SOLVE_CFG, ["--bogus"], EXIT_USAGE),
    (_REFUSED_CFG, [], EXIT_VALIDATION),
], ids=["ok", "check-failed", "not-converged", "usage", "validation"])
def test_process_entry_keeps_the_status_with_the_collector_off(tmp_path, cfg, argv, status):
    _run_entry([*_mode_argv(tmp_path, cfg), *argv], status,
               "import gc\nassert not gc.isenabled() and gc.get_freeze_count() == 0")


_ORBIT = ["report.csv", "report.txt", "trace.csv"]


@pytest.mark.parametrize("cfg, argv, status, artifacts", [
    (VERIFY_CFG, [], EXIT_OK, ["report.csv", "report.txt"]),
    (GRID_VERIFY_CFG, [], EXIT_OK, ["report.csv", "report.txt"]),
    (ITERATE_CFG, [], EXIT_OK, _ORBIT),
    (SOLVE_CFG, [], EXIT_OK, ["report.csv", "report.txt", "solution.csv", "trace.csv"]),
    (VERIFY_CFG + "\n[order]\nname = natural\n", [], EXIT_CHECK_FAILED,
     ["report.csv", "report.txt"]),
    (_DIVERGENT_CFG, [], EXIT_NOT_CONVERGED, _ORBIT),
    (SOLVE_CFG, ["--bogus"], EXIT_USAGE, None),  # refused before the output directory is made
    (_REFUSED_CFG, [], EXIT_VALIDATION, []),
], ids=["verify-interval", "verify-grid", "iterate", "solve-bvp", "check-failed",
        "not-converged", "usage", "validation"])
def test_the_process_collects_nothing_and_exits_with_the_status(tmp_path, cfg, argv, status,
                                                                artifacts):
    # the real os._exit: an atexit hook registered before the entry prints
    # the collections a gc hook saw once the entry began importing cli
    argv = ["picardkit", *_mode_argv(tmp_path, cfg), *argv]
    done = _run_python(["-c", textwrap.dedent(f"""
        import atexit, gc, runpy, sys
        collections = []
        gc.callbacks.append(lambda phase, info: phase == "start" and "picardkit.cli" in
                            sys.modules and collections.append(info["generation"]))
        atexit.register(lambda: print("collections:", collections))
        sys.argv = {argv!r}
        runpy.run_module("picardkit", run_name="__main__")
        print("the entry returned")
        """)])
    assert (done.returncode, done.stdout) == (status, "collections: []\n"), done.stderr
    out = tmp_path / "out"
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == artifacts


@pytest.mark.parametrize("argv", [["--help"], ["--list-builtins"]])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_a_stdout_write_error_keeps_the_exit_contract(argv, target):
    # the entry's flush fails: into a pipe whose reader is gone, what was
    # read stands and the process exits 0, as ``| head`` does; any other
    # write error is one line on stderr and the usage status
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    read, write = os.pipe() if target == "closed pipe" else (None, os.open(target, os.O_WRONLY))
    if read is not None:
        os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "picardkit", *argv], env=_python_env(),
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    if target == "closed pipe":
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
    else:
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "config error: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("args, status", [
    (["--config", "missing.cfg"], EXIT_USAGE), (["--bogus"], EXIT_USAGE),
    (["--config", "refused.cfg"], EXIT_VALIDATION)], ids=["no-config-file", "bad-flag", "refused"])
@pytest.mark.parametrize("target", ["/dev/full", "closed"])
def test_a_stderr_that_cannot_be_written_keeps_the_exit_status(tmp_path, args, status, target):
    # the error line is lost, but not the status, and nothing of it goes to
    # stdout: with fd 2 closed before the interpreter starts there is no
    # sys.stderr, and print(file=None) would write to stdout
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    (tmp_path / "refused.cfg").write_text(_REFUSED_CFG)
    err = os.open(target, os.O_WRONLY) if target == "/dev/full" else None
    try:
        done = subprocess.run([sys.executable, "-m", "picardkit", *args, "--out", "out"],
                              cwd=tmp_path, env=_python_env(), stdout=subprocess.PIPE,
                              stderr=err, timeout=120,
                              preexec_fn=None if err is not None else lambda: os.close(2))
    finally:
        if err is not None:
            os.close(err)
    assert (done.returncode, done.stdout) == (status, b"")


@pytest.mark.parametrize("cfg, status", [(ITERATE_CFG, EXIT_OK), (_DIVERGENT_CFG, EXIT_NOT_CONVERGED)],
                         ids=["converged", "not-converged"])
def test_a_process_started_without_stdout_keeps_its_status(tmp_path, cfg, status):
    # stdout closed before the interpreter starts (``>&-``): there is no
    # sys.stdout, and the entry's flush of it must not end the run
    done = subprocess.run([sys.executable, "-m", "picardkit", *_mode_argv(tmp_path, cfg)],
                          env=_python_env(), stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (status, "")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == _ORBIT


def test_the_entry_flushes_what_a_run_writes_to_a_pipe(tmp_path, monkeypatch, capsys):
    # stdout into a pipe is block-buffered, and os._exit drops what is
    # still in the buffer; argparse prints --help without a flush
    monkeypatch.setenv("COLUMNS", "80")  # one help layout in both processes
    listing = _run_python(["-m", "picardkit", "--list-builtins"])
    assert ((listing.returncode, listing.stdout, listing.stderr)
            == (EXIT_OK, cli_module.catalog.catalog_text() + "\n", ""))
    with pytest.raises(SystemExit):
        main(["--help"])
    shown = _run_python(["-m", "picardkit", "--help"])
    assert (shown.returncode, shown.stdout, shown.stderr) == (EXIT_OK, capsys.readouterr().out, "")
    argv = _mode_argv(tmp_path, _REFUSED_CFG)
    refused = _run_python(["-m", "picardkit", *argv])
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert (refused.returncode, refused.stdout, refused.stderr) == (EXIT_VALIDATION, "", err)


@pytest.mark.parametrize("mode", sorted(_MODE_CFGS))
def test_an_in_process_run_closes_its_files_and_leaves_the_collector(tmp_path, monkeypatch,
                                                                     mode):
    # a file left for the collector to close warns when it is collected; the
    # warning, raised as an error in a finalizer, reaches the unraisable hook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    frozen = gc.get_freeze_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(_mode_argv(tmp_path, _MODE_CFGS[mode])) == EXIT_OK
        gc.collect()
    assert [repr(u.exc_value) for u in unraisable] == []
    assert len(list((tmp_path / "out").iterdir())) >= 2
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--seed", "x", "--config", "a"], "argument --seed: invalid int value: 'x'"),
], ids=["unknown-option", "bad-value"])
def test_a_bad_command_line_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: picardkit") and err.endswith(f"picardkit: error: {message}\n")


def test_help_exits_zero_with_its_text(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: picardkit") and "--list-builtins" in out


@pytest.mark.parametrize("mode, artifact", [
    ("verify-interval", "report.txt"), ("verify-grid", "report.csv"), ("iterate", "trace.csv"),
    ("iterate", "report.txt"), ("solve-bvp", "solution.csv"), ("solve-bvp", "report.csv"),
])
def test_an_artifact_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, mode, artifact):
    blocker = tmp_path / "out" / artifact
    blocker.mkdir(parents=True)
    assert main(_mode_argv(tmp_path, _MODE_CFGS[mode])) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {blocker}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
