"""Batch front-end: parse a run-configuration file, run a verify suite, a
Picard orbit or a BVP solve, and write reports plus CSV artifacts. The
config keys, defaults, artifacts and exit statuses are in the README's
"Command-line interface" section.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import make_dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import builtins as catalog
from .bvp import BVPProblem, BVPSolution, operator_contraction_check, solve_bvp
from .errors import DimensionError, DomainError
from .framework import (ContractionBundle, alpha_admissible_check, check_cclass,
                        check_geraghty, check_pairs, check_simulation_pointwise,
                        check_simulation_sequences, check_triangular_alpha,
                        contraction_check)
from .metrics import save_grid_csv, scalar_metric
from .picard import CONVERGED, IterationTrace, PicardConfig, picard_iterate
from .posets import alpha_from_order
from .report import (CAVEAT, FAIL, VerificationReport, render_text,
                     write_report_csv)
from .sampling import mesh_array, random_grid_pairs, seeded_rng, uniform_array

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    """Configuration problem, carrying the source line when known."""


def _convert(raw: str, kind, where: str, key: str):
    """``raw`` as a value of ``kind``: a type, ``"count"`` (a nonnegative
    int), or the kind of a selector in the builtin table, resolved here so a
    bad choice names its line."""
    try:
        if kind == "count":
            value = int(raw)
            if value < 0:
                raise ValueError(raw)
            return value
        if isinstance(kind, type):
            return kind(raw)
        if kind == "bundle":  # only looked up: its factory needs the problem
            catalog.lookup(kind, raw)
        else:
            catalog.resolve(kind, raw)
        return raw
    except DomainError as exc:
        raise ConfigError(f"{where}: field {key!r}: {exc}") from exc
    except ValueError as exc:
        wanted = "nonnegative int" if kind == "count" else kind.__name__
        raise ConfigError(f"{where}: field {key!r} needs a {wanted}, "
                          f"got {raw!r}") from exc


# section, key, RunConfig attribute, type or selector kind, default
_FIELDS = (
    ("", "mode", "mode", str, None),  # required
    ("", "seed", "seed", int, 42),
    ("", "out", "out", str, "reports"),
    ("carrier", "kind", "carrier_kind", "carrier", "interval"),
    ("carrier", "low", "carrier_low", float, 0.0),
    ("carrier", "high", "carrier_high", float, 3.0),
    ("bundle", "name", "bundle_name", "bundle", "example31"),
    ("bundle", "lambda", "bundle_lambda", float, None),
    ("bundle", "k", "bundle_k", float, None),
    ("bundle", "r", "bundle_r", float, None),
    ("bundle", "beta", "bundle_beta", "beta", None),
    ("verify", "pair_grid", "pair_grid", "count", 101),
    ("verify", "random_pairs", "random_pairs", "count", 100),
    ("picard", "tolerance", "tolerance", float, 1e-10),
    ("picard", "max_iterations", "max_iterations", int, 500),
    ("picard", "divergence_bound", "divergence_bound", float, 1e9),
    ("iterate", "map", "map_spec", "map", "example31"),
    ("iterate", "start", "start", float, 1.0),
    ("bvp", "rhs", "rhs", "rhs", "pi2sin"),
    ("bvp", "n", "bvp_n", int, 100),
    ("bvp", "tolerance", "bvp_tolerance", float, 1e-8),
    ("order", "name", "order_name", "order", None),
)

RunConfig = make_dataclass("RunConfig", [
    (attr, kind if isinstance(kind, type) else int if kind == "count" else str, default)
    for _, _, attr, kind, default in _FIELDS], namespace={"__module__": __name__})
_KINDS = {(section, key): (attr, kind) for section, key, attr, kind, _ in _FIELDS}

# sections that must be spelled out per mode; everything else has defaults
_REQUIRED_SECTIONS = {
    "verify": ("carrier", "bundle"),
    "iterate": ("iterate",),
    "solve-bvp": ("bvp",),
}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    section = ""
    seen_sections: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in {s for s, _ in _KINDS if s}:
                raise ConfigError(f"{source}: line {lineno}: unknown section [{section}]")
            seen_sections.add(section)
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        field = _KINDS.get((section, key))
        if field is None:
            where = f"[{section}] " if section else ""
            raise ConfigError(f"{source}: line {lineno}: unknown field {where}{key!r}")
        attr, kind = field
        setattr(config, attr, _convert(raw_value, kind, f"{source}: line {lineno}", key))
    if config.mode is None:
        raise ConfigError(f"{source}: missing required field 'mode'")
    if config.mode not in _REQUIRED_SECTIONS:
        raise ConfigError(f"{source}: mode must be one of {', '.join(_REQUIRED_SECTIONS)}, "
                          f"got {config.mode!r}")
    if not 0 <= config.seed < 2 ** 64:
        raise ConfigError(f"{source}: seed must be an unsigned 64-bit integer")
    required = list(_REQUIRED_SECTIONS[config.mode])
    if config.mode == "verify" and config.carrier_kind == "grid":
        required.append("bvp")
    missing = [name for name in required if name not in seen_sections]
    if missing:
        raise ConfigError(f"{source}: mode {config.mode!r} needs the "
                          f"section(s) {', '.join('[' + m + ']' for m in missing)}")
    return config


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


# --------------------------------------------------------------------------
# mode runners

def _build_problem(config: RunConfig) -> BVPProblem:
    return BVPProblem(rhs=catalog.resolve("rhs", config.rhs), n=config.bvp_n,
                      tolerance=config.bvp_tolerance, name=config.rhs)


def _build_bundle(config: RunConfig, problem: BVPProblem | None) -> ContractionBundle:
    carrier = config.carrier_kind
    bundle = catalog.resolve("bundle", config.bundle_name, carrier, problem)
    if config.bundle_lambda is not None:
        bundle = replace(bundle, zeta=catalog.zeta1(config.bundle_lambda))
    if (config.bundle_k is None) != (config.bundle_r is None):
        raise DomainError("C-class overrides need both k and r")
    if config.bundle_k is not None:
        bundle = replace(bundle, g=catalog.cclass_c(config.bundle_k, config.bundle_r))
    if config.bundle_beta is not None:
        bundle = replace(bundle, beta=catalog.resolve("beta", config.bundle_beta))
    if config.order_name is not None:
        order = catalog.resolve("order", config.order_name, carrier)
        bundle = replace(bundle, alpha=alpha_from_order(order))
    return bundle


def _header_lines(config: RunConfig, extra: Sequence[str] = ()) -> list[str]:
    lines = [
        "picardkit run report",
        f"mode: {config.mode}",
        f"seed: {config.seed}",
    ]
    lines.extend(extra)
    return lines


def _rows_with_caveats(reports: Sequence[VerificationReport],
                       bundle: ContractionBundle) -> tuple[list[VerificationReport], int]:
    """Apply declared bundle caveats: a failing check the bundle vouches for
    is reported with status 'caveat' (witnesses preserved) and does not
    count toward the exit status."""
    caveats = dict(bundle.caveats)
    adjusted = []
    failures = 0
    for rep in reports:
        note = caveats.get(rep.name)
        if rep.status == FAIL and note is not None:
            adjusted.append(replace(rep, status=CAVEAT,
                                    notes=rep.notes + (f"declared caveat: {note}",)))
        else:
            if rep.status == FAIL:
                failures += 1
            adjusted.append(rep)
    return adjusted, failures


def _run_verify(config: RunConfig, out: Path, rng: np.random.Generator) -> int:
    low, high = config.carrier_low, config.carrier_high
    for key, value in (("low", low), ("high", high)):
        if not math.isfinite(value):
            raise DomainError(f"[carrier] {key} must be finite, got {value!r}")
    if low > high:
        raise DomainError(f"[carrier] low = {low!r} exceeds high = {high!r}")
    if not math.isfinite(high - low):
        raise DomainError(f"[carrier] low = {low!r} and high = {high!r} are too far "
                          f"apart: high - low overflows")
    problem = _build_problem(config) if config.carrier_kind == "grid" else None
    bundle = _build_bundle(config, problem)

    # the origin, then positive pairs well above the strictness epsilon
    zeta_samples = np.concatenate([np.zeros((1, 2)), mesh_array(1e-2, 10.0, 40),
                                   uniform_array(rng, 100, 1e-3, 10.0, 2)])
    axis = np.linspace(0.0, 10.0, 41)
    coarse = axis[::8]  # (s, t) for s in axis for t in coarse
    cclass_samples = np.concatenate([
        np.column_stack([np.repeat(axis, coarse.size), np.tile(coarse, axis.size)]),
        uniform_array(rng, 100, 1e-3, 10.0, 2)])
    beta_samples = np.concatenate([axis, rng.uniform(0.0, 10.0, 50)])
    probes_mode = bundle.zeta.sequence_axiom

    metric, tol = catalog.resolve("carrier", config.carrier_kind)
    if config.carrier_kind == "interval":
        pairs = np.concatenate([mesh_array(low, high, config.pair_grid),
                                uniform_array(rng, config.random_pairs, low, high, 2)])
        triples = uniform_array(rng, 200, low, high, 3)
    else:
        pairs = random_grid_pairs(rng, max(config.random_pairs, 10), config.bvp_n,
                                  low, high)
        functions = [p[0] for p in pairs] + [p[1] for p in pairs]
        triples = [(functions[3 * i], functions[3 * i + 1], functions[3 * i + 2])
                   for i in range(len(functions) // 3)]

    reports = [
        check_simulation_pointwise(bundle.zeta, zeta_samples),
        check_simulation_sequences(bundle.zeta,
                                   catalog.default_sequence_probes(probes_mode)),
        check_cclass(bundle.g, cclass_samples),
        check_geraghty(bundle.beta, beta_samples, catalog.default_beta_probes()),
    ]
    pair_checks = [alpha_admissible_check(), contraction_check(bundle, tol)]
    if problem is not None:  # on the grid carrier the bundle maps by the problem's operator
        pair_checks.append(operator_contraction_check())
    admissible, *contracting = check_pairs(bundle.mapping, bundle.alpha, pairs,
                                           pair_checks, metric)
    reports += [admissible, check_triangular_alpha(bundle.alpha, triples), *contracting]

    adjusted, failures = _rows_with_caveats(reports, bundle)
    header = _header_lines(config, [f"bundle: {bundle.name}",
                                    f"carrier: {config.carrier_kind}"])
    (out / "report.txt").write_text(render_text(adjusted, header))
    write_report_csv(out / "report.csv", adjusted)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def write_trace_csv(path: str | Path, trace: IterationTrace) -> None:
    """Trace export: iteration_index, gap, ratio, residual (residual on the
    final row only; omitted ratios stay blank)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration_index", "gap", "ratio", "residual"])
        writer.writerow([0, "", "", ""])
        for i in range(1, len(trace.gaps) + 1):
            gap = repr(float(trace.gaps[i - 1]))
            ratio = ""
            if i >= 2 and trace.ratios[i - 2] is not None:
                ratio = repr(float(trace.ratios[i - 2]))
            residual = repr(float(trace.residual)) if i == len(trace.gaps) else ""
            writer.writerow([i, gap, ratio, residual])


def _picard_config(config: RunConfig) -> PicardConfig:
    return PicardConfig(tolerance=config.tolerance,
                        max_iterations=config.max_iterations,
                        divergence_bound=config.divergence_bound)


def _write_orbit(config: RunConfig, out: Path, trace: IterationTrace,
                 before: Sequence[str], after: Sequence[str],
                 rows: Sequence[tuple[str, str]] = ()) -> int:
    """Write an orbit's trace.csv, its report.txt (the header lines
    ``before``, the termination and the iteration count, then ``after``) and
    its report.csv (the ``picard`` row, then ``rows`` of (name, value)),
    every row with the orbit's status; returns the exit status."""
    write_trace_csv(out / "trace.csv", trace)
    converged = trace.termination == CONVERGED
    status = "pass" if converged else "fail"
    header = _header_lines(config, [*before, f"termination: {trace.termination}",
                                    f"iterations: {trace.iterations}", *after])
    (out / "report.txt").write_text("\n".join(header) + "\n")
    rows = [("picard", repr(float(trace.residual))), *rows]
    write_report_csv(out / "report.csv", (), extra_rows=[
        [name, status, "", "", "", "", "", value, ""] for name, value in rows])
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _run_iterate(config: RunConfig, out: Path) -> int:
    mapping = catalog.resolve("map", config.map_spec)
    trace = picard_iterate(mapping, config.start, _picard_config(config), scalar_metric)
    final_gap = trace.gaps[-1] if trace.gaps else 0.0
    return _write_orbit(config, out, trace,
                        [f"map: {config.map_spec}", f"start: {config.start!r}"],
                        [f"final gap: {final_gap!r}", f"residual: {trace.residual!r}"])


def _run_solve(config: RunConfig, out: Path) -> int:
    problem = _build_problem(config)
    solution: BVPSolution = solve_bvp(problem, _picard_config(config))
    save_grid_csv(out / "solution.csv", solution.values)
    estimate = solution.contraction_estimate
    return _write_orbit(config, out, solution.trace, [f"rhs: {problem.name}", f"n: {problem.n}"], [
        f"second-difference residual: {solution.residual!r}",
        f"observed contraction estimate: {'' if estimate is None else repr(float(estimate))}",
    ], [("second-difference-residual", repr(float(solution.residual)))])


def run(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Execute one configured run; returns the process exit status."""
    out = Path(out_dir if out_dir is not None else config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = seeded_rng(config.seed)
    try:
        if config.mode == "verify":
            return _run_verify(config, out, rng)
        if config.mode == "iterate":
            return _run_iterate(config, out)
        if config.mode == "solve-bvp":
            return _run_solve(config, out)
        raise DomainError(f"unknown mode {config.mode!r}")
    except (DomainError, DimensionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="picardkit",
        description="Verify contraction hypotheses, run Picard orbits, and "
                    "solve two-point boundary-value problems.")
    parser.add_argument("--config", type=Path, help="run configuration file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="random seed (overrides the config)")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print the builtin catalog and exit")
    args = parser.parse_args(argv)

    if args.list_builtins:
        print(catalog.catalog_text())
        return EXIT_OK
    if args.config is None:
        parser.print_usage(sys.stderr)
        print("picardkit: a --config file is required unless --list-builtins is given",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("--seed must be an unsigned 64-bit integer")
            config.seed = args.seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
