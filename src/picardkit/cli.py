"""Batch front-end: parse a run-configuration file, run a verify suite, a
Picard orbit or a BVP solve, and write reports plus CSV artifacts. The
config keys, defaults, artifacts and exit statuses are in the README's
"Command-line interface" section. The layers a runner runs load at their
first use, through the handles at the top of the module; metrics, which
builtins loads in every mode, is imported here.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Sequence

import numpy as np

from . import _Later
from . import builtins as catalog
from .errors import DimensionError, DomainError
from .metrics import save_grid_csv, save_report_csv, scalar_metric

bvp, framework, picard, posets, report, sampling = map(
    _Later, ("bvp", "framework", "picard", "posets", "report", "sampling"))

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    """Configuration problem, carrying the source line when known."""


# what a field of each kind whose value a conversion can refuse needs
_NEEDS = {int: "an int", float: "a float", "count": "a nonnegative int",
          "seed": "an unsigned 64-bit int"}


def _convert(raw: str, kind, where: str, key: str):
    """``raw`` as a value of ``kind``: a type, ``"count"`` (a nonnegative
    int), ``"seed"`` (an unsigned 64-bit int), or the kind of a selector in
    the builtin table, looked up here so a bad choice names its line. A
    choice with arguments is also built here, so a rejected argument names
    it too; one without (a bundle's factory needs the problem) imports
    nothing yet."""
    try:
        if kind in ("count", "seed"):
            value = int(raw)
            if value < 0 or kind == "seed" and value >= 2 ** 64:
                raise ValueError(raw)
            return value
        if isinstance(kind, type):
            return kind(raw)
        if catalog.lookup(kind, raw)[1]:
            catalog.resolve(kind, raw)
        return raw
    except DomainError as exc:
        raise ConfigError(f"{where}: field {key!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: field {key!r} needs {_NEEDS[kind]}, got {raw!r}") from exc


# section, key, RunConfig attribute, type or selector kind, default
_FIELDS = (
    ("", "mode", "mode", str, None),  # required
    ("", "seed", "seed", "seed", 42),
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


class RunConfig(SimpleNamespace):
    """A run's settings: one attribute per field above, each at its default
    until the parse sets it."""

    def __init__(self):
        super().__init__(**{attr: default for _, _, attr, _, default in _FIELDS})


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

def _build_problem(config: RunConfig) -> bvp.BVPProblem:
    return bvp.BVPProblem(rhs=catalog.resolve("rhs", config.rhs), n=config.bvp_n,
                          tolerance=config.bvp_tolerance, name=config.rhs)


def _build_bundle(config: RunConfig,
                  problem: bvp.BVPProblem | None) -> framework.ContractionBundle:
    carrier = config.carrier_kind
    bundle = catalog.resolve("bundle", config.bundle_name, carrier, problem)
    if config.bundle_lambda is not None:
        bundle = bundle._replace(zeta=catalog.zeta1(config.bundle_lambda))
    if (config.bundle_k is None) != (config.bundle_r is None):
        raise DomainError("C-class overrides need both k and r")
    if config.bundle_k is not None:
        bundle = bundle._replace(g=catalog.cclass_c(config.bundle_k, config.bundle_r))
    if config.bundle_beta is not None:
        bundle = bundle._replace(beta=catalog.resolve("beta", config.bundle_beta))
    if config.order_name is not None:
        order = catalog.resolve("order", config.order_name, carrier)
        bundle = bundle._replace(alpha=posets.alpha_from_order(order))
    return bundle


def _header_lines(config: RunConfig, extra: Sequence[str] = ()) -> list[str]:
    return ["picardkit run report", f"mode: {config.mode}", f"seed: {config.seed}", *extra]


def _rows_with_caveats(reports: Sequence[report.VerificationReport],
                       bundle: framework.ContractionBundle
                       ) -> tuple[list[report.VerificationReport], int]:
    """Apply declared bundle caveats: a failing check the bundle names, all
    of whose witnesses are of the clause it vouches for, is reported with
    status 'caveat' (witnesses preserved) and does not count toward the
    exit status. No other check's witnesses are read."""
    caveats = {name: (clause, note) for name, clause, note in bundle.caveats}
    adjusted = [rep._replace(status=report.CAVEAT,
                             notes=(*rep.notes, f"declared caveat: {caveats[rep.name][1]}"))
                if rep.status == report.FAIL and rep.name in caveats
                and all(w.check == caveats[rep.name][0] for w in rep.witnesses) else rep
                for rep in reports]
    return adjusted, sum(rep.status == report.FAIL for rep in adjusted)


def _run_verify(config: RunConfig, out: Path) -> int:
    framework.check_pairs  # loaded first: loaded by the bundle, a verify peaks 0.1-0.2 MB higher
    rng = sampling.seeded_rng(config.seed)  # the only mode that draws samples
    low, high = config.carrier_low, config.carrier_high
    for key, value in (("low", low), ("high", high)):
        if not math.isfinite(value):
            raise DomainError(f"[carrier] {key} must be finite, got {value!r}")
    if math.copysign(1.0, high - low) < 0.0:  # low > high, or 0.0 and -0.0 as numpy reads them
        raise DomainError(f"[carrier] low = {low!r} exceeds high = {high!r}")
    if not math.isfinite(high - low):
        raise DomainError(f"[carrier] low = {low!r} and high = {high!r} are too far "
                          f"apart: high - low overflows")
    problem = _build_problem(config) if config.carrier_kind == "grid" else None
    bundle = _build_bundle(config, problem)

    # the origin, then positive pairs well above the strictness epsilon
    zeta_samples = np.concatenate([np.zeros((1, 2)), sampling.Mesh(1e-2, 10.0, 40)[:],
                                   sampling.Draw(rng, 100, (2,), 1e-3, 10.0)[:]])
    axis = np.linspace(0.0, 10.0, 41)
    coarse = axis[::8]  # (s, t) for s in axis for t in coarse
    cclass_samples = np.concatenate([
        np.column_stack([np.repeat(axis, coarse.size), np.tile(coarse, axis.size)]),
        sampling.Draw(rng, 100, (2,), 1e-3, 10.0)[:]])
    beta_samples = np.concatenate([axis, sampling.Draw(rng, 50, (), 0.0, 10.0)[:]])

    metric, tol = catalog.resolve("carrier", config.carrier_kind)
    # made a chunk at a time: the pass never holds a pair or triple table whole
    if config.carrier_kind == "interval":
        pairs = sampling.SampleStream(sampling.Mesh(low, high, config.pair_grid),
                                      sampling.Draw(rng, config.random_pairs, (2,), low, high))
        triples = sampling.Draw(rng, 200, (3,), low, high)
    else:
        count, nodes = max(config.random_pairs, 10), config.bvp_n + 1
        # the pairs' functions in order, x_0, y_0, x_1, ..., three at a time:
        # the pair pass makes the triangular check's rows from its own
        # chunks, and a witness replays its row from this draw
        triples = sampling.Draw(sampling.SplitMix64(rng.seed, rng.drawn), 2 * count // 3,
                                (3, nodes), low, high)
        pairs = sampling.Draw(rng, count, (2, nodes), low, high)

    reports = [
        framework.check_simulation_pointwise(bundle.zeta, zeta_samples),
        framework.check_simulation_sequences(
            bundle.zeta, catalog.default_sequence_probes(bundle.zeta.sequence_axiom)),
        framework.check_cclass(bundle.g, cclass_samples),
        framework.check_geraghty(bundle.beta, beta_samples, catalog.default_beta_probes()),
    ]
    pair_checks = [framework.alpha_admissible_check(), framework.contraction_check(bundle, tol)]
    if problem is not None:  # on the grid carrier the bundle maps by the problem's operator
        pair_checks.append(bvp.operator_contraction_check())
    folded = triples if problem is not None else None
    admissible, *contracting = framework.check_pairs(bundle.mapping, bundle.alpha, pairs,
                                                     pair_checks, metric, folded)
    triangular = (contracting.pop() if folded is not None
                  else framework.check_triangular_alpha(bundle.alpha, triples))
    reports += [admissible, triangular, *contracting]

    adjusted, failures = _rows_with_caveats(reports, bundle)
    header = _header_lines(config, [f"bundle: {bundle.name}",
                                    f"carrier: {config.carrier_kind}"])
    (out / "report.txt").write_text(report.render_text(adjusted, header))
    report.write_report_csv(out / "report.csv", adjusted)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def write_trace_csv(path: str | Path, trace: picard.IterationTrace) -> None:
    """Trace export: iteration_index, gap, ratio, residual (residual on the
    final row only; omitted ratios stay blank)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([["iteration_index", "gap", "ratio", "residual"], [0, "", "", ""]])
        for i, (gap, ratio) in enumerate(zip(trace.gaps, [None, *trace.ratios]), start=1):
            writer.writerow([i, repr(float(gap)), "" if ratio is None else repr(float(ratio)),
                             repr(float(trace.residual)) if i == len(trace.gaps) else ""])


def _picard_config(config: RunConfig) -> picard.PicardConfig:
    return picard.PicardConfig(config.tolerance, config.max_iterations, config.divergence_bound)


def _write_orbit(config: RunConfig, out: Path, trace: picard.IterationTrace,
                 before: Sequence[str], after: Sequence[str],
                 rows: Sequence[tuple[str, str]] = ()) -> int:
    """Write an orbit's trace.csv, its report.txt (the header lines
    ``before``, the termination and the iteration count, then ``after``) and
    its report.csv (the ``picard`` row, then ``rows`` of (name, value)),
    every row with the orbit's status; returns the exit status."""
    write_trace_csv(out / "trace.csv", trace)
    converged = trace.termination == picard.CONVERGED
    status = "pass" if converged else "fail"
    header = _header_lines(config, [*before, f"termination: {trace.termination}",
                                    f"iterations: {trace.iterations}", *after])
    (out / "report.txt").write_text("\n".join(header) + "\n")
    rows = [("picard", repr(float(trace.residual))), *rows]
    save_report_csv(out / "report.csv", [[name, status, "", "", "", "", "", value, ""]
                                         for name, value in rows])
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _run_iterate(config: RunConfig, out: Path) -> int:
    mapping = catalog.resolve("map", config.map_spec)
    trace = picard.picard_iterate(mapping, config.start, _picard_config(config), scalar_metric)
    final_gap = trace.gaps[-1] if trace.gaps else 0.0
    return _write_orbit(config, out, trace,
                        [f"map: {config.map_spec}", f"start: {config.start!r}"],
                        [f"final gap: {final_gap!r}", f"residual: {trace.residual!r}"])


def _run_solve(config: RunConfig, out: Path) -> int:
    problem = _build_problem(config)
    solution = bvp.solve_bvp(problem, _picard_config(config))
    save_grid_csv(out / "solution.csv", solution.values)
    estimate = solution.contraction_estimate
    return _write_orbit(config, out, solution.trace, [f"rhs: {problem.name}", f"n: {problem.n}"], [
        f"second-difference residual: {solution.residual!r}",
        f"observed contraction estimate: {'' if estimate is None else repr(float(estimate))}",
    ], [("second-difference-residual", repr(float(solution.residual)))])


_RUNNERS = {"verify": _run_verify, "iterate": _run_iterate, "solve-bvp": _run_solve}


def _size_fields(config: RunConfig) -> str:
    """The size fields the run reads, as ``[section] key = value``."""
    read = {"verify": ("random_pairs", "bvp_n" if config.carrier_kind == "grid" else "pair_grid"),
            "solve-bvp": ("bvp_n",)}.get(config.mode, ())
    return ", ".join(f"[{section}] {key} = {getattr(config, attr)}"
                     for section, key, attr, *_ in _FIELDS if attr in read)


def run(config: RunConfig, out_dir: str | Path | None = None) -> int:
    """Execute one configured run; returns the process exit status. The run
    writes its artifacts into a new directory inside the output directory,
    and they are renamed into place once the last write has succeeded, so a
    run that fails leaves the output directory as the last run that
    succeeded left it."""
    out = Path(out_dir if out_dir is not None else config.out)
    try:  # a directory of its own, whatever a killed run left behind
        out.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    except OSError as exc:
        write_stderr(f"config error: cannot create output directory {out}: {exc}")
        return EXIT_USAGE
    try:
        if config.mode not in _RUNNERS:
            raise DomainError(f"unknown mode {config.mode!r}")
        status = _RUNNERS[config.mode](config, staging)
        written = sorted(path.name for path in staging.iterdir())
        for name in written:  # the one target a rename cannot replace, refused before any rename
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name in written:
            (staging / name).replace(out / name)
        return status
    except (DomainError, DimensionError) as exc:
        write_stderr(f"validation error: {exc}")
        return EXIT_VALIDATION
    except MemoryError as exc:
        write_stderr(f"validation error: too large to allocate at {_size_fields(config)}: {exc}")
        return EXIT_VALIDATION
    except OSError as exc:  # the runners' only I/O is writing their artifacts
        where = out if exc.filename is None else exc.filename
        write_stderr(f"config error: cannot write {where}: {exc}")
        return EXIT_USAGE
    finally:
        shutil.rmtree(staging)


def _write(stream, text: str) -> OSError | None:
    """Write ``text`` to ``stream``, if the process has it, and flush it; after
    an error the stream goes to /dev/null, so that no later flush can fail."""
    try:
        if stream is not None:  # print(file=None) would write to stdout
            print(text, end="", file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc


def write_stdout(text: str = "") -> int:
    """Write ``text`` to stdout and flush it; returns the exit status of the
    write: EXIT_OK, also when the reader has left early (``| head``: what it
    read stands), else EXIT_USAGE after one line on stderr."""
    error = _write(sys.stdout, text)
    if error is None or isinstance(error, BrokenPipeError):
        return EXIT_OK
    write_stderr(f"config error: cannot write stdout: {error}")
    return EXIT_USAGE


def write_stderr(*lines: str) -> None:
    """Write ``lines``, each ended by a newline, to stderr, if it can be written."""
    _write(sys.stderr, "".join(line + "\n" for line in lines))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, except that a bad command line exits with the usage status:
    argparse's own 2 is the status of a solve that did not converge."""

    def error(self, message: str) -> NoReturn:
        write_stderr(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(EXIT_USAGE)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(prog="picardkit", description="Verify contraction hypotheses, "
                             "run Picard orbits, and solve two-point boundary-value problems.")
    parser.add_argument("--config", type=Path, help="run configuration file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="random seed (overrides the config)")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print the builtin catalog and exit")
    args = parser.parse_args(argv)

    if args.list_builtins:
        return write_stdout(catalog.catalog_text() + "\n")
    if args.config is None:
        write_stderr(f"{parser.format_usage()}picardkit: a --config file is required "
                     f"unless --list-builtins is given")
        return EXIT_USAGE
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = _convert(str(args.seed), "seed", "--seed", "seed")
    except ConfigError as exc:
        write_stderr(f"config error: {exc}")
        return EXIT_USAGE
    return run(config, out_dir=args.out)

