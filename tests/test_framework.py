"""Contraction-framework verifiers: worked examples with independently
computed expectations, witness replay, and order-independence properties."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardkit import (AlphaFunction, CClassFunction, DomainError,
                       GeraghtyBeta, SimulationFunction, check_alpha_admissible,
                       check_cclass, check_geraghty, check_simulation_pointwise,
                       check_simulation_sequences, check_triangular_alpha,
                       max_displacement, merge_reports, scalar_metric,
                       verify_contraction)
from picardkit.builtins import (alpha_box, alpha_one, beta_constant,
                                beta_reciprocal, cclass_a, cclass_b, cclass_c,
                                example31_bundle, example31_map, zeta1)
from picardkit.report import (CAVEAT, FAIL, HYPOTHESIS_UNMET, PASS,
                              VerificationReport, Witness)
from picardkit.sampling import mesh_pairs, probe_pair, random_pairs, seeded_rng


class TestMaxDisplacement:
    def test_identity_map(self):
        # d(x, Tx) = d(y, Ty) = 0, so the gauge is just d(x, y)
        assert max_displacement(lambda x: x, 0.2, 0.9, scalar_metric) == pytest.approx(0.7)

    def test_shrink_map_endpoints(self):
        # T(x) = x/3 on [0, 1]: max{1, 2/3, 0} = 1
        assert max_displacement(lambda x: x / 3.0, 1.0, 0.0, scalar_metric) == 1.0

    def test_equal_points(self):
        # x = y = 0.9: max{0, 0.9 - 0.3, 0.9 - 0.3} = 0.6
        value = max_displacement(lambda x: x / 3.0, 0.9, 0.9, scalar_metric)
        assert value == pytest.approx(0.6, abs=1e-15)

    def test_mapping_leaving_domain_raises(self):
        with pytest.raises(DomainError):
            max_displacement(lambda x: float("inf"), 0.0, 1.0, scalar_metric)


class TestSimulationPointwise:
    def test_half_gain_passes(self):
        # zeta = 0.5 s - t: at (1, 2) value 0 < 1; at (0.1, 0.1) value -0.05 < 0
        zeta = zeta1(0.5)
        report = check_simulation_pointwise(zeta, [(1.0, 2.0), (0.1, 0.1)])
        assert report.passed and report.samples == 2

    def test_pure_subtraction_fails_everywhere(self):
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction")
        pairs = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]
        report = check_simulation_pointwise(zeta, pairs)
        assert not report.passed
        assert len(report.witnesses) == len(pairs)  # equality is never strict

    def test_example31_gain_on_mesh(self):
        # (8/9) s - t stays below s - t by s/9 > 0 on the open square
        zeta = zeta1(8.0 / 9.0)
        pairs = mesh_pairs(0.01, 1.0, 100)
        report = check_simulation_pointwise(zeta, pairs)
        assert report.passed and report.samples == 10_000

    def test_origin_clause(self):
        shifted = SimulationFunction(lambda t, s: 0.5 * s - t + 1.0, name="shifted")
        report = check_simulation_pointwise(shifted, [(0.0, 0.0)])
        assert not report.passed
        assert report.witnesses[0].check == "simulation/origin"

    def test_negative_sample_rejected(self):
        with pytest.raises(DomainError):
            check_simulation_pointwise(zeta1(0.5), [(-1.0, 1.0)])


class TestSimulationSequences:
    def test_half_gain_common_limit(self):
        # t_n = s_n = 1 + 1/n: zeta -> 0.5 * 1 - 1 = -0.5
        zeta = zeta1(0.5)
        report = check_simulation_sequences(zeta, [probe_pair(1.0, 200)])
        assert report.passed and report.mode == "falsification"

    def test_subtraction_fails_under_one_sided_probe(self):
        # zeta = s - t with t_n = 1 - 1/n < s_n = 1: tail values 1/n -> 0,
        # so the limsup estimate is not negative; the estimate is the max
        # over the final quarter (n = 152..201), attained at n = 152
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction",
                                  sequence_axiom="roldan")
        probes = [probe_pair(1.0, 200, t_offset=-1.0, s_offset=0.0, start=2)]
        report = check_simulation_sequences(zeta, probes)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.lhs == pytest.approx(1.0 / 152.0, rel=1e-12)

    def test_constant_probes(self):
        # t_n = s_n = 2 for zeta1(8/9): value -2/9 < 0 throughout the tail
        zeta = zeta1(8.0 / 9.0)
        report = check_simulation_sequences(
            zeta, [probe_pair(2.0, 120, t_offset=0.0, s_offset=0.0)])
        assert report.passed

    def test_nonpositive_terms_rejected(self):
        with pytest.raises(DomainError):
            check_simulation_sequences(zeta1(0.5), [([0.0, 1.0], [1.0, 1.0])])

    def test_roldan_ordering_enforced(self):
        zeta = SimulationFunction(lambda t, s: 0.5 * s - t, sequence_axiom="roldan")
        with pytest.raises(DomainError):
            check_simulation_sequences(zeta, [probe_pair(1.0, 50)])  # t_n == s_n


class TestCClass:
    def test_subtraction_passes(self):
        samples = mesh_pairs(0.0, 3.0, 20)
        assert check_cclass(cclass_a(0.0), samples).passed

    def test_addition_fails_upper_bound(self):
        bad = CClassFunction(lambda s, t: s + t, c_g=0.0, name="addition")
        report = check_cclass(bad, [(1.0, 1.0), (0.0, 0.0)])
        assert not report.passed
        upper = [w for w in report.witnesses if w.check == "cclass/upper"]
        assert upper and upper[0].inputs == (1.0, 1.0)
        assert upper[0].lhs == 2.0 and upper[0].margin == -1.0

    def test_damped_ratio_family_passes(self):
        # G(s, t) = s / (1 + 2 t) with benchmark 2 / 3
        g = cclass_c(k=2.0, r=2.0)
        assert g.c_g == pytest.approx(2.0 / 3.0)
        samples = mesh_pairs(0.01, 5.0, 40) + [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]
        assert check_cclass(g, samples).passed

    def test_rational_offset_family_passes(self):
        samples = mesh_pairs(0.0, 4.0, 25)
        assert check_cclass(cclass_b(), samples).passed

    def test_benchmark_clause_catches_violation(self):
        # G = s + 1 exceeds any benchmark while s <= t remains possible
        bad = CClassFunction(lambda s, t: s + 1.0, c_g=0.5, name="lifted")
        report = check_cclass(bad, [(0.5, 2.0)])
        checks = {w.check for w in report.witnesses}
        assert "cclass/benchmark" in checks


class TestGeraghty:
    def test_reciprocal_range_fails_at_zero(self):
        # beta(t) = 1/(1+t) evaluates to exactly 1 at t = 0
        report = check_geraghty(beta_reciprocal(), [0.0, 0.5, 10.0])
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.inputs == (0.0,) and witness.lhs == 1.0
        # the other samples are fine: 2/3 and 1/11
        assert len(report.witnesses) == 1

    def test_constant_half_passes_with_probes(self):
        from picardkit.builtins import default_beta_probes
        report = check_geraghty(beta_constant(0.5), np.linspace(0.0, 10.0, 50),
                                default_beta_probes())
        assert report.passed

    def test_exponential_gain_passes_range(self):
        # range of 1 - exp(-1/(t+1)) on [0, 100] is inside (0, 1 - 1/e]
        beta = GeraghtyBeta(lambda t: 1.0 - np.exp(-1.0 / (t + 1.0)), name="expgain")
        report = check_geraghty(beta, np.linspace(0.0, 100.0, 200))
        assert report.passed

    def test_limit_probe_falsifies(self):
        # beta(t) = 1 - exp(-t) tends to 1 along t_n = n, which stays away
        # from 0: not a Geraghty gain
        beta = GeraghtyBeta(lambda t: 1.0 - np.exp(-t), name="saturating")
        probes = [np.arange(1.0, 201.0)]
        report = check_geraghty(beta, [0.0, 1.0], probes)
        assert any(w.check == "geraghty/limit" for w in report.witnesses)


class TestAlphaChecks:
    def test_box_indicator_admissible_for_shrink_map(self):
        pairs = mesh_pairs(0.0, 3.0, 31)
        report = check_alpha_admissible(example31_map, alpha_box(0.0, 1.0), pairs)
        assert report.passed

    def test_constant_weight_always_admissible(self):
        pairs = mesh_pairs(-2.0, 2.0, 11)
        assert check_alpha_admissible(lambda x: 3.0 * x, alpha_one(), pairs).passed

    def test_tripling_map_breaks_box_indicator(self):
        report = check_alpha_admissible(lambda x: 3.0 * x, alpha_box(0.0, 1.0),
                                        [(0.5, 0.5)])
        assert not report.passed
        assert report.witnesses[0].inputs == (0.5, 0.5)

    def test_triangular_box_indicator(self):
        triples = [(x, z, y) for x in (0.0, 0.5, 1.5)
                   for z in (0.0, 1.0) for y in (0.25, 2.0)]
        assert check_triangular_alpha(alpha_box(0.0, 1.0), triples).passed

    def test_triangular_constant(self):
        assert check_triangular_alpha(alpha_one(), [(0.0, 1.0, 2.0)]).passed

    def test_proximity_indicator_not_triangular(self):
        near = AlphaFunction(lambda x, y: 1.0 if abs(x - y) <= 1.0 else 0.0,
                             name="near")
        report = check_triangular_alpha(near, [(0.0, 1.0, 2.0)])
        assert not report.passed
        assert report.witnesses[0].inputs == (0.0, 1.0, 2.0)


class TestVerifyContraction:
    def test_reference_bundle_on_unit_square(self):
        bundle = example31_bundle()
        pairs = mesh_pairs(0.0, 1.0, 51)
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed

    def test_reference_bundle_outside_box_vacuous(self):
        # alpha = 0 there, so the left side is zeta(0, beta(M) M) >= 0
        bundle = example31_bundle()
        pairs = mesh_pairs(1.5, 4.0, 21)
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed

    def test_weak_gain_fails_with_expected_margin(self):
        # T = x/2, alpha = 1, beta = 0.4, zeta = s - t, pair (1, 0):
        # M = max{1, 0.5, 0} = 1 and zeta(0.5, 0.4) = -0.1
        from picardkit import ContractionBundle
        bundle = ContractionBundle(
            mapping=lambda x: x / 2.0,
            alpha=alpha_one(),
            beta=beta_constant(0.4),
            zeta=SimulationFunction(lambda t, s: s - t, name="subtraction"),
            g=cclass_a(0.0),
            name="weak")
        report = verify_contraction(bundle, [(1.0, 0.0)], scalar_metric)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.lhs == pytest.approx(-0.1, abs=1e-15)
        assert witness.bound == 0.0
        assert witness.margin == pytest.approx(-0.1, abs=1e-15)

    def test_pass_implies_geraghty_inequality(self):
        # with G = s - t and benchmark 0 a passing check means
        # alpha * d(Tx, Ty) < beta(M) * M + tol on every sampled pair
        bundle = example31_bundle()
        rng = seeded_rng(7)
        pairs = mesh_pairs(0.0, 1.0, 21) + random_pairs(rng, 100, 0.0, 1.0)
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed
        for x, y in pairs:
            m = max_displacement(bundle.mapping, x, y, scalar_metric)
            lhs = bundle.alpha(x, y) * scalar_metric(bundle.mapping(x), bundle.mapping(y))
            assert lhs < bundle.beta(m) * m + 1e-9


class TestReportMechanics:
    def _failing_report(self, pairs):
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction")
        return check_simulation_pointwise(zeta, pairs)

    def test_verdict_is_order_independent(self):
        rng = seeded_rng(3)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.1, 5.0, (200, 2))]
        baseline = self._failing_report(pairs)
        shuffled = list(pairs)
        random.Random(11).shuffle(shuffled)
        replay = self._failing_report(shuffled)
        assert replay.status == baseline.status
        assert replay.canonical().witnesses == baseline.canonical().witnesses

    def test_merge_matches_whole(self):
        rng = seeded_rng(5)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.1, 5.0, (100, 2))]
        whole = self._failing_report(pairs)
        merged = merge_reports(self._failing_report(pairs[:37]),
                               self._failing_report(pairs[37:]))
        assert merged.status == whole.status
        assert merged.samples == whole.samples
        assert merged.witnesses == whole.canonical().witnesses

        # a declared caveat outranks pass; a falsification operand sets the mode
        passing = self._failing_report([])
        caveat = replace(self._failing_report(pairs[:37]), status=CAVEAT)
        for operands in ((caveat, passing), (passing, caveat)):
            assert merge_reports(*operands).status == CAVEAT
        falsification = replace(passing, mode="falsification")
        for operands in ((passing, falsification), (falsification, passing)):
            assert merge_reports(*operands).mode == "falsification"

    def test_failed_report_carries_witness(self):
        report = self._failing_report([(1.0, 1.0)])
        assert not report.passed and len(report.witnesses) >= 1

    def test_witness_replay_reproduces_margin(self):
        report = self._failing_report([(0.3, 2.0), (1.5, 1.5)])
        for witness in report.witnesses:
            single = self._failing_report([witness.inputs])
            assert len(single.witnesses) == 1
            assert single.witnesses[0].margin == witness.margin


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=100)
def test_strictness_restated(t, s):
    # zeta passing the pointwise check satisfies zeta(t, s) + t < s on any
    # positive pair: assert it directly for the shipped gain family
    zeta = zeta1(0.5)
    assert zeta(t, s) + t < s


_WITNESS_POOL = [Witness("probe", (float(k), 0.5), -0.1 * k, f"violation {k}")
                 for k in range(4)]

reports = st.builds(
    VerificationReport,
    name=st.just("probe"),
    status=st.sampled_from([PASS, FAIL, HYPOTHESIS_UNMET, CAVEAT]),
    witnesses=st.lists(st.sampled_from(_WITNESS_POOL), max_size=3),
    samples=st.integers(min_value=0, max_value=50),
    mode=st.sampled_from(["exact", "falsification"]),
    tolerance=st.sampled_from([0.0, 1e-12, 1e-9]),
    notes=st.lists(st.sampled_from(["a", "b", "declared caveat: c"]),
                   max_size=2).map(tuple))


@given(reports, reports, reports, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_merge_is_associative_and_order_independent(a, b, c, rnd):
    flat = merge_reports(a, b, c)
    assert merge_reports(merge_reports(a, b), c) == flat
    assert merge_reports(a, merge_reports(b, c)) == flat
    shuffled = [a, b, c]
    rnd.shuffle(shuffled)
    assert merge_reports(*shuffled) == flat
    precedence = [FAIL, HYPOTHESIS_UNMET, CAVEAT, PASS]
    assert flat.status == min((a.status, b.status, c.status), key=precedence.index)
    assert (flat.mode == "falsification") == ("falsification" in (a.mode, b.mode, c.mode))
