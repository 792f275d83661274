"""Tests of the benchmark itself: span arithmetic, metric names, seeded
configs and the correctness gate.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import csv
import dataclasses
import hashlib
import json
import re
import time
import types
from pathlib import Path

import pytest

from gate import check_outputs, example31_margin
from run import END_TO_END, REFERENCE_LOOP_S, child_env, import_times, scale, timed_run
from tracing import COUNTED_METRICS, PER_LAYER_METRICS, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, config_text

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMALL = {name: dataclasses.replace(WORKLOADS[name], sizes=sizes) for name, sizes in {
    "verify-interval": {"pair_grid": 30, "random_pairs": 40},
    "verify-grid": {"random_pairs": 12, "n": 40},
    "solve-bvp": {"n": 400, "tolerance": 1e-10},
}.items()}

# sha256 of the full-size config at seed 7
CONFIG_SHA256 = {
    "solve-bvp": "511b77fd4a5ea810e173044c82404b37e358f06dd21db9af62951d640818646a",
    "verify-grid": "ab6b0b2be06bb2e591b1eff98767f8b7660f89b998b74bcb9bdb9bc973e39323",
    "verify-interval": "2b7bb2f024ccc3773b39b5759c513b44473fb0d112098bce14899fe48a0d8242",
}


def test_self_time_of_synthetic_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.leaf", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 6.5),
        # overlaps b: only the uncovered 6.5..7 counts against the root
        Span(4, 0, "c", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 3.0 - 2.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0})


def test_layer_metrics_use_self_time_and_counters():
    tracer = Tracer()
    tracer.spans = [Span(0, None, "cli.run", 0.0, 5.0),
                    Span(1, 0, "framework.verify_contraction", 1.0, 3.0),
                    Span(2, 0, "sampling.mesh_pairs", 3.0, 3.5)]
    tracer.counters = {"framework.samples": 4, "framework.witnesses": 1}
    metrics = layer_metrics(tracer)
    assert metrics["cli.self_s"] == pytest.approx(2.5)
    assert metrics["framework.verify_contraction_s"] == pytest.approx(2.0)
    assert metrics["sampling.self_s"] == pytest.approx(0.5)
    assert metrics["framework.us_per_sample"] == pytest.approx(0.5e6)
    assert metrics["bvp.kernel_build_s"] == 0.0
    assert set(metrics) | {"import.numpy_s", "import.scipy_s", "import.picardkit_s",
                           "artifacts.bytes", "trace.overhead_s"} == set(PER_LAYER_METRICS)


def test_metric_names_and_benchmark_json_agree():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == END_TO_END
    assert per_layer == PER_LAYER_METRICS
    for name in [*end_to_end, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_config(name):
    workload = WORKLOADS[name]
    assert hashlib.sha256(config_text(workload, 7).encode()).hexdigest() == CONFIG_SHA256[name]
    assert config_text(workload, 7) != config_text(workload, 8)


def test_tracer_reports_missing_names_without_crashing():
    module = types.ModuleType("fake")
    module.present = lambda x: x + 1
    tracer = Tracer()
    tracer.patch(module, "present", lambda f: tracer.span("fake.present", f))
    tracer.patch(module, "gone", lambda f: tracer.span("fake.gone", f))
    tracer.patch(module, "Gone.method", lambda f: tracer.span("fake.Gone.method", f))
    assert module.present(1) == 2
    assert tracer.missing == ["fake.gone", "fake.Gone.method"]
    assert [s.name for s in tracer.spans] == ["fake.present"]
    tracer.uninstall()
    assert not hasattr(module.present, "__wrapped__")


def test_import_times_parse_outermost_modules():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1000 |      80000 |     numpy\n"
            "import time:       500 |      13000 |       scipy\n"
            "import time:       800 |     270000 |       scipy.linalg\n"
            "import time:       100 |        200 |         scipy.linalg._misc\n"
            "import time:      1200 |     400000 | picardkit\n")
    assert import_times(text) == pytest.approx(
        {"import.numpy_s": 0.08, "import.scipy_s": 0.283, "import.picardkit_s": 0.4})


def test_witness_formula_matches_a_hand_value():
    # T(0) = 0, T(1.5) = 4.5, M = 3, beta(M) * M = 3/4, alpha = 1
    assert example31_margin(0.0, 1.5) == pytest.approx((8 / 9) * 0.75 - 4.5)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small real CLI run per workload: (exit code, output dir)."""
    from picardkit.cli import main

    results = {}
    for name, workload in SMALL.items():
        base = tmp_path_factory.mktemp(name)
        config = base / "run.cfg"
        config.write_text(config_text(workload, 3))
        code = main(["--config", str(config), "--out", str(base / "out")])
        results[name] = (code, base / "out")
    return results


def _edit_report(out: Path, check: str, column: str, edit) -> None:
    path = out / "report.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["check"] == check:
            row[column] = edit(row[column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_accepts_real_outputs(outputs, name):
    code, out = outputs[name]
    assert check_outputs(SMALL[name], code, out) == []


@pytest.mark.parametrize("check, column, edit", [
    ("alpha-admissible", "status", lambda v: "fail"),
    ("contraction", "samples", lambda v: str(int(v) + 1)),
    ("contraction", "margin", lambda v: repr(float(v) + 1e-9)),
])
def test_gate_rejects_tampered_report(outputs, tmp_path, check, column, edit):
    code, out = outputs["verify-interval"]
    copy = tmp_path / "out"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    _edit_report(copy, check, column, edit)
    assert check_outputs(SMALL["verify-interval"], code, copy)


def test_gate_rejects_wrong_exit_and_wrong_solution(outputs, tmp_path):
    code, out = outputs["verify-grid"]
    assert check_outputs(SMALL["verify-grid"], 1, out)
    code, out = outputs["solve-bvp"]
    lines = (out / "solution.csv").read_text().splitlines()
    t, v = lines[200].split(",")
    lines[200] = f"{t},{float(v) + 1e-8!r}"
    copy = tmp_path / "out"
    copy.mkdir()
    (copy / "report.csv").write_bytes((out / "report.csv").read_bytes())
    (copy / "solution.csv").write_text("\n".join(lines) + "\n")
    assert check_outputs(SMALL["solve-bvp"], code, copy)


@pytest.mark.parametrize("name", ["verify-interval", "verify-grid", "solve-bvp"])
def test_traced_run_wraps_every_layer(tmp_path, name):
    import trace_worker

    workload = SMALL[name]
    sizes = workload.sizes
    config = tmp_path / "run.cfg"
    config.write_text(config_text(workload, 5))
    result = tmp_path / "trace.json"
    assert trace_worker.main([str(config), str(tmp_path), "0", str(result)]) == 0
    runs = json.loads(result.read_text())
    assert [r["role"] for r in runs] == ["warmup", "untraced", "traced", "counted"]
    for run in runs:
        assert check_outputs(workload, run["exit"], Path(run["out"])) == []
    spans_only, counted = runs[2], runs[3]
    # the span-only run carries no per-call counters; both have the same spans
    assert all(spans_only["metrics"][m] == 0 for m in COUNTED_METRICS)
    assert spans_only["metrics"]["trace.spans"] == counted["metrics"]["trace.spans"]
    metrics = counted["metrics"]
    assert counted["missing"] == []
    assert metrics["trace.spans"] == len(counted["spans"])
    table_samples = sum(int(s) for _, _, s in workload.table(sizes) if s)
    if name == "verify-interval":
        assert metrics["framework.samples"] == table_samples
        assert metrics["report.sort_key_calls"] == 4 * metrics["framework.witnesses"] > 0
        assert metrics["posets.order_calls"] == metrics["builtins.alpha_calls"] > 0
        assert metrics["bvp.operator_applies"] == 0
    elif name == "verify-grid":
        pairs = sizes["random_pairs"]
        assert metrics["framework.samples"] == table_samples - pairs
        # T(x), T(y) per pair in the admissibility, contraction and operator checks
        assert metrics["bvp.operator_applies"] == 6 * pairs
        assert metrics["bvp.kernel_bytes"] == (sizes["n"] + 1) ** 2 * 8
        assert metrics["framework.witnesses"] == metrics["report.sort_key_calls"] == 0
    else:
        assert metrics["framework.samples"] == 0
        assert metrics["picard.iterations"] > 0
        assert metrics["bvp.operator_applies"] >= metrics["picard.iterations"]
        assert metrics["metrics.save_grid_csv_s"] > 0


def test_scale_divides_by_the_mean_probe_loop_inside_each_child():
    ref = REFERENCE_LOOP_S
    # (start, seconds) of probe loops: the core ran at reference speed
    # until t = 10, then twice as slow
    loops = [(t / 10, ref) for t in range(100)] + [(10 + t / 10, 2 * ref) for t in range(100)]
    fast = types.SimpleNamespace(began=1.0, ended=3.0, wall_s=2.0)
    slow = types.SimpleNamespace(began=12.0, ended=16.0, wall_s=4.0)
    straddling = types.SimpleNamespace(began=9.05, ended=11.05, wall_s=2.0)
    # shorter than one probe interval: the nearest loop stands in
    short = types.SimpleNamespace(began=12.01, ended=12.02, wall_s=0.01)
    scaled, slowdowns = scale([fast, slow, straddling, short], loops, "wall_s")
    assert slowdowns[:2] == [1.0, 2.0] and slowdowns[3] == 2.0
    assert scaled[:2] == pytest.approx([2.0, 2.0])
    assert 1.4 < slowdowns[2] < 1.6
    assert scaled[3] == pytest.approx(0.005)


def test_invocation_killed_at_deadline_counts_as_failed(tmp_path):
    """A CLI invocation still running at the deadline is killed and reported
    as attempted and failed; no further child is started after it."""
    workload = WORKLOADS["verify-interval"]
    config = tmp_path / "run.cfg"
    config.write_text(config_text(workload, 1))
    # long enough for the import before the invocation, far too short for
    # the ~5 s full-size invocation
    deadline = time.monotonic() + 3.0
    log = {}
    metrics, attempted, failed = timed_run(workload, config, tmp_path, child_env(),
                                           60.0, deadline, log)
    assert (attempted, failed) == (1, 1)
    assert len(log["samples"]["setup_s"]) == len(log["raw_samples"]["setup_s"]) == 1
    assert len(log["slowdowns"]) == 1
    assert "exit status -9" in log["failures"][0][0]
