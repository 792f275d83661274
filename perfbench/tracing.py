"""Spans and counters recorded from outside picardkit, and the per-layer
metrics computed from them.

Wrappers replace the names that ``picardkit.cli``, ``picardkit.bvp`` and
``picardkit.builtins`` look up when they are called, plus
``Witness.sort_key``. A wrapped call opens a span (name, start, end, parent,
run id); hot per-pair callables (the bundle's mapping and alpha, the order
comparator, ``sort_key``) only bump counters, because a span per call would
cost more than the call. Spans stay in memory until the run ends.

The counters still cost about as much as the calls they count, so they are
installed only in a separate counted run: span times come from runs with
spans alone, and COUNTED_METRICS from the counted run.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# name -> unit of every per-layer metric, in the order they are printed
PER_LAYER_METRICS = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.picardkit_s": "s",
    "cli.parse_config_s": "s",
    "cli.self_s": "s",
    "sampling.self_s": "s",
    "sampling.points": "count",
    "framework.verify_contraction_s": "s",
    "framework.check_alpha_admissible_s": "s",
    "framework.check_triangular_alpha_s": "s",
    "framework.axiom_checks_s": "s",
    "framework.samples": "count",
    "framework.witnesses": "count",
    "framework.us_per_sample": "us",
    "builtins.mapping_calls": "count",
    "builtins.alpha_calls": "count",
    "builtins.alpha_s": "s",
    "posets.order_calls": "count",
    "bvp.kernel_build_s": "s",
    "bvp.kernel_bytes": "bytes",
    "bvp.operator_applies": "count",
    "bvp.operator_apply_s": "s",
    "bvp.operator_bytes": "bytes",
    "bvp.operator_contraction_s": "s",
    "bvp.residual_s": "s",
    "picard.self_s": "s",
    "picard.iterations": "count",
    "report.sort_key_calls": "count",
    "report.render_s": "s",
    "report.csv_s": "s",
    "metrics.save_grid_csv_s": "s",
    "artifacts.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# metrics that only the per-call counters feed; builtins.alpha_s includes
# the counter's own clock reads
COUNTED_METRICS = ("builtins.mapping_calls", "builtins.alpha_calls",
                   "builtins.alpha_s", "posets.order_calls",
                   "report.sort_key_calls")

AXIOM_CHECKS = ("check_simulation_pointwise", "check_simulation_sequences",
                "check_cclass", "check_geraghty")
FRAMEWORK_CHECKS = AXIOM_CHECKS + ("check_alpha_admissible",
                                   "check_triangular_alpha",
                                   "verify_contraction")
SAMPLERS = ("seeded_rng", "mesh_pairs", "random_pairs", "positive_mesh_pairs",
            "random_positive_pairs", "random_triples", "random_grid_pairs")


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    run_id: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


@dataclass
class Tracer:
    """Records spans and counters for one traced run at a time."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, on_result: Callable | None = None,
             on_call: Callable | None = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``;
        ``on_call(args)`` and ``on_result(result)`` feed counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = Span(len(self.spans), parent, name, 0.0, run_id=self.run_id)
            self.spans.append(record)
            self._stack.append(record.span_id)
            if on_call is not None:
                on_call(*args, **kwargs)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable, timer: str | None = None) -> Callable:
        """``fn`` wrapped to count its calls, and to sum their time under
        ``timer`` when given, without recording spans."""
        if timer is None:
            def wrapper(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return wrapper

        def timed(*args, **kwargs):
            self.count(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(timer, time.perf_counter() - start)
        return timed

    def patch(self, owner: Any, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.<path>`` (a dotted name) by ``make(original)``; a
        name the program no longer has is recorded as missing."""
        *parents, attr = path.split(".")
        label = f"{owner.__name__}.{path}"
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(label)
            return
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self, cli, bvp, builtins, report, counters: bool) -> None:
        """Wrap the call-time names of picardkit's layers in spans, and the
        hot per-pair callables in counters if ``counters``."""
        def report_counts(rep) -> None:
            self.count("framework.samples", rep.samples)
            self.count("framework.witnesses", len(rep.witnesses))

        def points(result) -> None:
            if isinstance(result, list):
                self.count("sampling.points", len(result))

        # bytes a dense (n+1) x (n+1) float64 matrix occupies, computed
        def kernel_bytes(n, *args, **kwargs) -> None:
            self.count("bvp.kernel_bytes", (int(n) + 1) ** 2 * 8)

        def operator_bytes(problem, *args, **kwargs) -> None:
            self.count("bvp.operator_bytes", (int(problem.n) + 1) ** 2 * 8)

        def iterations(trace) -> None:
            self.count("picard.iterations", trace.iterations)

        def counted_bundle(bundle):
            return dataclasses.replace(
                bundle,
                mapping=self.counted("builtins.mapping_calls", bundle.mapping),
                alpha=counted_alpha(bundle.alpha))

        def counted_alpha(alpha):
            return dataclasses.replace(alpha, fn=self.counted(
                "builtins.alpha_calls", alpha.fn, timer="builtins.alpha_s"))

        def counted_order(order):
            return dataclasses.replace(order, leq=self.counted("posets.order_calls", order.leq))

        self.patch(cli, "parse_config", lambda f: self.span("cli.parse_config", f))
        self.patch(cli, "run", lambda f: self.span("cli.run", f))
        for name in FRAMEWORK_CHECKS:
            self.patch(cli, name, lambda f, n=name: self.span(
                f"framework.{n}", f, on_result=report_counts))
        for name in SAMPLERS:
            self.patch(cli, name, lambda f, n=name: self.span(
                f"sampling.{n}", f, on_result=points))
        self.patch(cli, "check_operator_contraction",
                   lambda f: self.span("bvp.check_operator_contraction", f))
        self.patch(cli, "solve_bvp", lambda f: self.span("bvp.solve_bvp", f))
        self.patch(cli, "render_text", lambda f: self.span("report.render_text", f))
        self.patch(cli, "write_report_csv", lambda f: self.span("report.write_report_csv", f))
        self.patch(cli, "save_grid_csv", lambda f: self.span("metrics.save_grid_csv", f))
        self.patch(bvp, "kernel_quadrature_matrix", lambda f: self.span(
            "bvp.kernel_quadrature_matrix", f, on_call=kernel_bytes))
        self.patch(bvp, "integral_operator", lambda f: self.span(
            "bvp.integral_operator", f, on_call=operator_bytes))
        self.patch(bvp, "picard_iterate",
                   lambda f: self.span("picard.picard_iterate", f, on_result=iterations))
        self.patch(bvp, "second_difference_residual",
                   lambda f: self.span("bvp.second_difference_residual", f))
        if not counters:
            return
        self.patch(cli, "order_by_name",
                   lambda f: lambda *a, **k: counted_order(f(*a, **k)))
        self.patch(cli, "alpha_from_order",
                   lambda f: lambda *a, **k: counted_alpha(f(*a, **k)))
        self.patch(builtins, "bundle_by_name",
                   lambda f: lambda *a, **k: counted_bundle(f(*a, **k)))
        self.patch(report, "Witness.sort_key",
                   lambda f: self.counted("report.sort_key_calls", f))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run. Layers that did not run report
    0; import times, artifact bytes and trace overhead are measured by the
    caller."""
    own = self_times(tracer.spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own[s.span_id]
        calls[s.name] = calls.get(s.name, 0) + 1

    def t(name: str) -> float:
        return total.get(name, 0.0)

    c = tracer.counters
    framework_s = sum(t(f"framework.{name}") for name in FRAMEWORK_CHECKS)
    samples = int(c.get("framework.samples", 0))
    return {
        "cli.parse_config_s": t("cli.parse_config"),
        "cli.self_s": self_total.get("cli.run", 0.0),
        "sampling.self_s": sum(self_total.get(f"sampling.{name}", 0.0) for name in SAMPLERS),
        "sampling.points": int(c.get("sampling.points", 0)),
        "framework.verify_contraction_s": t("framework.verify_contraction"),
        "framework.check_alpha_admissible_s": t("framework.check_alpha_admissible"),
        "framework.check_triangular_alpha_s": t("framework.check_triangular_alpha"),
        "framework.axiom_checks_s": sum(t(f"framework.{name}") for name in AXIOM_CHECKS),
        "framework.samples": samples,
        "framework.witnesses": int(c.get("framework.witnesses", 0)),
        "framework.us_per_sample": framework_s / samples * 1e6 if samples else 0.0,
        "builtins.mapping_calls": int(c.get("builtins.mapping_calls", 0)),
        "builtins.alpha_calls": int(c.get("builtins.alpha_calls", 0)),
        "builtins.alpha_s": float(c.get("builtins.alpha_s", 0.0)),
        "posets.order_calls": int(c.get("posets.order_calls", 0)),
        "bvp.kernel_build_s": t("bvp.kernel_quadrature_matrix"),
        "bvp.kernel_bytes": int(c.get("bvp.kernel_bytes", 0)),
        "bvp.operator_applies": calls.get("bvp.integral_operator", 0),
        "bvp.operator_apply_s": t("bvp.integral_operator"),
        "bvp.operator_bytes": int(c.get("bvp.operator_bytes", 0)),
        "bvp.operator_contraction_s": t("bvp.check_operator_contraction"),
        "bvp.residual_s": t("bvp.second_difference_residual"),
        "picard.self_s": self_total.get("picard.picard_iterate", 0.0),
        "picard.iterations": int(c.get("picard.iterations", 0)),
        "report.sort_key_calls": int(c.get("report.sort_key_calls", 0)),
        "report.render_s": t("report.render_text"),
        "report.csv_s": t("report.write_report_csv"),
        "metrics.save_grid_csv_s": t("metrics.save_grid_csv"),
        "trace.spans": len(tracer.spans),
    }
