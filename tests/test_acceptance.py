"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every criterion is expected to pass. Criterion 7 checks the halving
map under a bundle it meets, and also asserts that the quarter-gain bundle
rejects it: see its docstring for the arithmetic on both sides.
"""

import time
from pathlib import Path

import numpy as np

from picardkit import (BVPProblem, CClassFunction, ContractionBundle,
                       PicardConfig, SimulationFunction,
                       check_alpha_admissible, check_cclass, check_geraghty,
                       check_simulation_pointwise,
                       green_row_integral, nodes, picard_iterate,
                       report_rows, row_integral_quadrature, scalar_metric, solve_bvp,
                       uniqueness_probe, verify_contraction,
                       write_report_csv)
from picardkit.builtins import (alpha_box, beta_constant, beta_reciprocal,
                                cclass_a, example31_bundle, rhs_pi2sin,
                                rhs_sin_plus_one, zeta1)
from picardkit.cli import parse_config, run
from picardkit.metrics import save_report_csv
from picardkit.posets import alpha_from_order, natural_order
from picardkit.sampling import Mesh, seeded_rng

from helpers import finite_difference_solve, zeta2, zeta3

SEED = 42


def _announce(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number}: {verdict} - {detail}")


def test_criterion_1_reference_contraction_grid():
    """The reference scalar bundle satisfies the contraction inequality on a
    101 x 101 pair mesh over [0, 1]^2 plus 100 seeded random pairs from
    [0, 3]^2, with zero counterexamples, in under 5 seconds."""
    bundle = example31_bundle()
    pairs = np.concatenate([Mesh(0.0, 1.0, 101)[:],
                            seeded_rng(SEED).uniform(0.0, 3.0, (100, 2))])
    started = time.perf_counter()
    report = verify_contraction(bundle, pairs, scalar_metric)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.samples == 101 * 101 + 100 and elapsed < 5.0
    _announce(1, ok, f"{report.samples} pairs, {len(report.witnesses)} witnesses, "
                     f"{elapsed:.2f}s")
    assert report.passed, report.witnesses[:3]
    assert report.samples == 101 * 101 + 100
    assert elapsed < 5.0


def test_criterion_2_picard_rate():
    """From 1.0 at tolerance 1e-10 the orbit of the reference map reaches 0
    with every gap ratio equal to 1/3 within 1e-12 and an iteration count
    in [20, 24] (forced by the geometric orbit 3^-k)."""
    bundle = example31_bundle()
    trace = picard_iterate(bundle.mapping, 1.0, PicardConfig(tolerance=1e-10),
                           scalar_metric)
    ratios = trace.defined_ratios()
    worst = max(abs(r - 1.0 / 3.0) for r in ratios)
    ok = (trace.termination == "converged" and abs(trace.final) <= 1e-9
          and worst <= 1e-12 and 20 <= trace.iterations <= 24)
    _announce(2, ok, f"{trace.iterations} iterations, limit {trace.final!r}, "
                     f"max |ratio - 1/3| = {worst:.2e}")
    assert trace.termination == "converged"
    assert abs(trace.final) <= 1e-9
    assert worst <= 1e-12
    assert 20 <= trace.iterations <= 24


def test_criterion_3_kernel_row_integral():
    """Split composite Simpson of each kernel row matches -t^2/2 + t/2
    within 1e-10 at all 101 nodes for n = 100; the closed form peaks at
    exactly 0.125 at t = 0.5."""
    computed = row_integral_quadrature(100)
    closed = green_row_integral(nodes(100))
    gap = float(np.max(np.abs(computed - closed)))
    peak = float(closed.max())
    peak_node = float(nodes(100)[int(np.argmax(closed))])
    ok = gap <= 1e-10 and peak == 0.125 and peak_node == 0.5
    _announce(3, ok, f"max quadrature gap {gap:.2e}, peak {peak!r} at t = {peak_node!r}")
    assert gap <= 1e-10
    assert peak == 0.125 and green_row_integral(0.5) == 0.125
    assert peak_node == 0.5


def test_criterion_4_bvp_exact_solution():
    """Source pi^2 sin(pi t) at n = 100: convergence in at most 2 Picard
    steps and sup error against sin(pi t) at most 5e-4, in under 2 seconds."""
    problem = BVPProblem(rhs=rhs_pi2sin, n=100)
    started = time.perf_counter()
    solution = solve_bvp(problem, PicardConfig(tolerance=1e-8, max_iterations=20))
    elapsed = time.perf_counter() - started
    error = float(np.max(np.abs(solution.values - np.sin(np.pi * problem.nodes))))
    ok = (solution.trace.termination == "converged" and solution.trace.iterations <= 2
          and error <= 5e-4 and elapsed < 2.0)
    _announce(4, ok, f"{solution.trace.iterations} steps, sup error {error:.2e}, "
                     f"{elapsed:.2f}s")
    assert solution.trace.termination == "converged"
    assert solution.trace.iterations <= 2
    assert error <= 5e-4
    assert elapsed < 2.0


def test_criterion_5_nonlinear_bvp_contraction():
    """Source sin(x) + 1 at n = 100 and tolerance 1e-10: converged, every
    observed gap ratio within the kernel bound 1/8 + 1e-6, and agreement
    with the finite-difference oracle within 1e-3 in sup norm."""
    problem = BVPProblem(rhs=rhs_sin_plus_one, n=100, tolerance=1e-10)
    solution = solve_bvp(problem, PicardConfig(tolerance=1e-10, max_iterations=100))
    ratios = solution.trace.defined_ratios()
    worst_ratio = max(ratios)
    oracle = finite_difference_solve(problem)
    disagreement = float(np.max(np.abs(solution.values - oracle)))
    ok = (solution.trace.termination == "converged" and worst_ratio <= 0.125 + 1e-6
          and disagreement <= 1e-3)
    _announce(5, ok, f"max ratio {worst_ratio:.6f}, oracle gap {disagreement:.2e}")
    assert solution.trace.termination == "converged"
    assert worst_ratio <= 0.125 + 1e-6
    assert disagreement <= 1e-3


def _reevaluate(witness, *, zeta=None, g=None, beta=None, mapping=None, alpha=None):
    """Replay a single witness through its own check and return the margin."""
    if witness.check.startswith("simulation/"):
        report = check_simulation_pointwise(zeta, [witness.inputs])
    elif witness.check.startswith("cclass/"):
        report = check_cclass(g, [witness.inputs])
    elif witness.check.startswith("geraghty/"):
        report = check_geraghty(beta, [witness.inputs[0]])
    elif witness.check.startswith("alpha/"):
        report = check_alpha_admissible(mapping, alpha, [witness.inputs])
    else:
        raise AssertionError(f"unexpected witness {witness.check}")
    matching = [w for w in report.witnesses
                if w.check == witness.check and w.inputs == witness.inputs]
    assert matching, f"witness {witness.check} did not reproduce"
    return matching[0].margin


def test_criterion_6_falsification_suite():
    """The three builtin simulation-function families pass the pointwise
    check on 10^4 seeded positive pairs; the deliberately broken functions
    each yield at least one witness; and every witness replays to its
    reported margin within 1e-12."""
    rng = seeded_rng(SEED)
    pairs = rng.uniform(1e-3, 10.0, (10_000, 2))
    families = [zeta1(), zeta2(), zeta3()]
    family_reports = [check_simulation_pointwise(z, pairs) for z in families]
    families_ok = all(r.passed for r in family_reports)

    broken_zeta = SimulationFunction(lambda t, s: s - t, name="subtraction")
    zeta_report = check_simulation_pointwise(broken_zeta, pairs[:100])

    broken_g = CClassFunction(lambda s, t: s + t, c_g=0.0, name="addition")
    g_report = check_cclass(broken_g, np.concatenate([[(1.0, 1.0)], pairs[:100]]))

    beta_report = check_geraghty(beta_reciprocal(), [0.0, 0.5, 10.0])

    tripling = lambda x: 3.0 * x
    box = alpha_box(0.0, 1.0)
    alpha_report = check_alpha_admissible(tripling, box, np.concatenate(
        [[(0.5, 0.5)], Mesh(0.0, 1.0, 11)[:]]))

    broken_reports = [zeta_report, g_report, beta_report, alpha_report]
    broken_ok = all(len(r.witnesses) >= 1 for r in broken_reports)

    replay_gaps = []
    for report, kwargs in [
        (zeta_report, {"zeta": broken_zeta}),
        (g_report, {"g": broken_g}),
        (beta_report, {"beta": beta_reciprocal()}),
        (alpha_report, {"mapping": tripling, "alpha": box}),
    ]:
        for witness in report.witnesses:
            replay_gaps.append(abs(_reevaluate(witness, **kwargs) - witness.margin))
    replay_ok = max(replay_gaps) <= 1e-12

    ok = families_ok and broken_ok and replay_ok
    _announce(6, ok, f"families pass on {len(pairs)} pairs; "
                     f"{sum(len(r.witnesses) for r in broken_reports)} witnesses "
                     f"replay within {max(replay_gaps):.1e}")
    assert families_ok, [r.witnesses[:2] for r in family_reports if not r.passed]
    assert broken_ok
    assert replay_ok


def _halve(x):
    return x / 2.0 + 0.25


def _order_bundle(lam: float, b: float, name: str) -> ContractionBundle:
    """The halving map under the order-induced weight, with
    zeta = lam*s - t, beta = b and G = s - t (benchmark 0)."""
    return ContractionBundle(
        mapping=_halve,
        alpha=alpha_from_order(natural_order),
        beta=beta_constant(b),
        zeta=zeta1(lam),
        g=cclass_a(0.0),
        name=name)


FITTING_BUNDLE = _order_bundle(0.75, 0.75, "order_pipeline")
QUARTER_GAIN_BUNDLE = _order_bundle(0.25, 0.5, "order_pipeline_quarter_gain")


def _order_pipeline(seed: int = SEED):
    """Monotone-map pipeline: the halving map x -> x/2 + 1/4 checked under
    the fitting and the quarter-gain bundle on the same seeded pairs, plus a
    five-start uniqueness probe."""
    rng = seeded_rng(seed)
    pairs = np.concatenate([Mesh(0.0, 1.0, 21)[:], rng.uniform(0.0, 1.0, (100, 2))])
    fitting = verify_contraction(FITTING_BUNDLE, pairs, scalar_metric)
    quarter_gain = verify_contraction(QUARTER_GAIN_BUNDLE, pairs, scalar_metric)
    starts = [float(v) for v in rng.uniform(0.0, 1.0, 5)]
    probe = uniqueness_probe(_halve, starts, PicardConfig(tolerance=1e-10),
                             scalar_metric)
    return pairs, fitting, quarter_gain, probe


def test_criterion_7_order_reduction_pipeline():
    """Order-reduction pipeline for T x = x/2 + 1/4 under the natural order
    (alpha(x, y) = 1 iff x <= y), G = s - t with benchmark 0, on a 21-point
    mesh of [0, 1]^2 plus 100 seeded pairs (541 in all). The uniqueness
    probe from 5 seeded starts must find the single limit 0.5.

    The fitting bundle zeta = lam*s - t, beta = b with lam*b > 1/2 (here
    lam = b = 3/4, lam*b = 9/16) passes on every pair, since
    M = max{d(x, y), d(x, Tx), d(y, Ty)} >= d(x, y):
      x < y:  lam*b*M >= lam*b*d(x, y) > d(x, y)/2 = d(Tx, Ty);
      x > y:  alpha = 0, so zeta(0, b*M) = lam*b*M >= 0;
      x = y:  t = 0, so the left side is again lam*b*M >= 0.

    The quarter-gain bundle (zeta = s/4 - t, beta = 1/2) must reject the
    map. It reads M/8 - alpha*d(x, y)/2 >= 0, so an incomparable pair
    (alpha = 0) cannot fail and a comparable pair x < y fails iff
    M < 4 d(x, y); (0, 0.05) passes, since M/8 = 0.03125 >= 0.025. At
    (0, 1): d(T0, T1) = 0.5 and M = max{1, 0.25, 0.25} = 1, so the margin
    is 1/8 - 1/2 = -0.375.
    """
    pairs, fitting, quarter_gain, probe = _order_pipeline()
    uniqueness_ok = (probe.consistent_with_uniqueness
                     and abs(probe.distinct_limits[0] - 0.5) <= 1e-9)

    def gap(x, y):
        """4 d(x, y) - M: positive where a comparable pair fails the
        quarter-gain bundle."""
        m = max(abs(x - y), abs(x - _halve(x)), abs(y - _halve(y)))
        return 4.0 * abs(x - y) - m

    witnessed = {w.inputs for w in quarter_gain.witnesses}
    comparable_only = all(x < y for x, y in witnessed)
    all_below_4d = all(gap(x, y) > 0.0 for x, y in witnessed)
    # away from the boundary M = 4 d, where rounding decides, every
    # comparable pair with M < 4 d is a witness
    none_missed = all((x, y) in witnessed for x, y in pairs
                      if x < y and gap(x, y) > 1e-9)
    corner = next((w for w in quarter_gain.witnesses if w.inputs == (0.0, 1.0)),
                  None)
    replay = verify_contraction(QUARTER_GAIN_BUNDLE, [(0.0, 1.0)], scalar_metric)
    replayed = [w.margin for w in replay.witnesses]
    corner_ok = (corner is not None and abs(corner.margin + 0.375) <= 1e-12
                 and len(replayed) == 1
                 and abs(replayed[0] - corner.margin) <= 1e-12)
    sampled_all = fitting.samples == quarter_gain.samples == len(pairs) == 541
    rejected = (not quarter_gain.passed and comparable_only and all_below_4d
                and none_missed and corner_ok)

    ok = fitting.passed and sampled_all and rejected and uniqueness_ok
    _announce(7, ok, f"fitting bundle {fitting.status} on {fitting.samples} pairs; "
                     f"quarter-gain bundle {quarter_gain.status} with "
                     f"{len(quarter_gain.witnesses)} witnesses, margin at (0, 1) "
                     f"{corner.margin if corner else 'none'!r}; "
                     f"uniqueness limit {probe.distinct_limits[0]!r}")
    assert uniqueness_ok
    assert fitting.passed, fitting.witnesses[:3]
    assert sampled_all
    assert not quarter_gain.passed
    assert comparable_only, [w for w in quarter_gain.witnesses if w.inputs[0] >= w.inputs[1]]
    assert all_below_4d
    assert none_missed
    assert corner_ok, (corner, replay.witnesses)


VERIFY_CFG = """\
mode = verify
seed = 42

[carrier]
kind = interval
low = 0.0
high = 3.0

[bundle]
name = example31
"""

ITERATE_CFG = """\
mode = iterate
seed = 42

[iterate]
map = example31
start = 1.0

[picard]
tolerance = 1e-10
"""

SOLVE_SINE_CFG = """\
mode = solve-bvp
seed = 42

[bvp]
rhs = pi2sin
n = 100

[picard]
tolerance = 1e-8
"""

SOLVE_NONLINEAR_CFG = """\
mode = solve-bvp
seed = 42

[bvp]
rhs = sin_plus_one
n = 100

[picard]
tolerance = 1e-10
"""


def _produce_artifacts(root: Path) -> list[Path]:
    """Re-run the artifact-producing portions of criteria 1-7 with the
    fixed seed, writing every report and CSV under ``root``."""
    for name, cfg in (("c1_verify", VERIFY_CFG), ("c2_iterate", ITERATE_CFG),
                      ("c4_sine", SOLVE_SINE_CFG),
                      ("c5_nonlinear", SOLVE_NONLINEAR_CFG)):
        run(parse_config(cfg), out_dir=root / name)

    rng = seeded_rng(SEED)
    pairs = rng.uniform(1e-3, 10.0, (2_000, 2))
    reports = [check_simulation_pointwise(z, pairs)
               for z in (zeta1(), zeta2(), zeta3())]
    reports.append(check_simulation_pointwise(
        SimulationFunction(lambda t, s: s - t, name="subtraction"), pairs[:50]))
    reports.append(check_geraghty(beta_reciprocal(), [0.0, 0.5, 10.0]))
    (root / "c6").mkdir()
    write_report_csv(root / "c6" / "report.csv", reports)

    _, fitting, quarter_gain, probe = _order_pipeline()
    (root / "c7").mkdir()
    rows = [["uniqueness", "pass" if probe.consistent_with_uniqueness else "fail",
             str(len(probe.starts)), "exact", "", "", "",
             repr(float(probe.distinct_limits[0])), ""]]
    save_report_csv(root / "c7" / "report.csv", [*report_rows([fitting, quarter_gain]), *rows])

    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_criterion_8_deterministic_artifacts(tmp_path):
    """Repeating the artifact-producing runs of criteria 1-7 with the same
    seed yields byte-identical report and CSV files."""
    first_root = tmp_path / "first"
    second_root = tmp_path / "second"
    first = _produce_artifacts(first_root)
    second = _produce_artifacts(second_root)
    ok = first == second
    mismatches = []
    for rel in first:
        if (first_root / rel).read_bytes() != (second_root / rel).read_bytes():
            mismatches.append(str(rel))
            ok = False
    _announce(8, ok, f"{len(first)} artifacts compared, "
                     f"{len(mismatches)} mismatches")
    assert first == second
    assert not mismatches
