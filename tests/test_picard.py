"""Picard engine: convergence behavior on reference maps, trace contracts,
diagnostic checks, and the multi-start uniqueness probe."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardkit import (CONVERGED, DIVERGED, MAX_ITERATIONS, DomainError, HYPOTHESIS_UNMET,
                       IterationTrace, PicardConfig, check_alpha_orbit,
                       check_ratio_bound, gaps_monotone, picard_iterate,
                       scalar_metric, sup_metric, uniqueness_probe)
from picardkit.builtins import (alpha_box, beta_constant,
                                beta_reciprocal, example31_map)

from helpers import alpha_one


def shrink(x):
    return x / 3.0


class TestPicardIterate:
    def test_geometric_contraction(self):
        # orbit x_k = 3^-k: gaps 2 * 3^-k reach 1e-10 at k = 22
        trace = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        assert trace.termination == CONVERGED
        assert 21 <= trace.iterations <= 23
        assert abs(trace.final) < 1e-9
        assert trace.residual <= 1e-10

    def test_identity_converges_in_one_step(self):
        trace = picard_iterate(lambda x: x, 0.7, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        assert trace.termination == CONVERGED
        assert trace.iterations == 1
        assert trace.gaps == [0.0]
        assert trace.residual == 0.0
        assert trace.ratios == []  # omitted, not zero, at an exact fixed point

    def test_divergence_bound(self):
        trace = picard_iterate(lambda x: 3.0 * x, 1.0,
                               PicardConfig(divergence_bound=1e6), scalar_metric)
        assert trace.termination == DIVERGED
        assert trace.gaps[-1] > 1e6

    def test_non_finite_output_raises_with_index(self):
        def blows_up(x):
            return float("nan") if x > 10 else 3.0 * x + 1.0

        with pytest.raises(DomainError, match="iterate 3"):
            picard_iterate(blows_up, 1.0, PicardConfig(), scalar_metric)

    def test_carrier_violation_raises(self):
        with pytest.raises(DomainError, match="carrier"):
            picard_iterate(lambda x: x + 1.0, 0.0, PicardConfig(),
                           scalar_metric, carrier=lambda v: v <= 2.0)

    def test_trace_shape_invariants(self):
        trace = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-6),
                               scalar_metric)
        x = 1.0  # one gap per step from the start to the final iterate
        for _ in trace.gaps:
            x = shrink(x)
        assert trace.final == x
        assert len(trace.ratios) == max(len(trace.gaps) - 1, 0)

    def test_deterministic_bit_for_bit(self):
        first = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        second = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                                scalar_metric)
        assert first.final == second.final
        assert first.gaps == second.gaps
        assert first.ratios == second.ratios
        assert first.residual == second.residual

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50)
    def test_trace_length_never_exceeds_budget(self, budget, x0):
        cfg = PicardConfig(tolerance=1e-15, max_iterations=budget)
        trace = picard_iterate(lambda x: 0.9 * x + 0.01, x0, cfg, scalar_metric)
        assert len(trace.gaps) <= budget

    def test_memory_does_not_grow_with_the_iterations(self):
        # the orbit of x/2 from ones never meets the tolerance, so each run
        # takes all of its budget; a trace that kept its iterates would hold
        # one array more per step
        x0 = np.ones(10**5)

        def peak(budget):
            tracemalloc.start()
            try:
                trace = picard_iterate(lambda x: 0.5 * x, x0,
                                       PicardConfig(tolerance=1e-300, max_iterations=budget),
                                       sup_metric)
                assert trace.iterations == budget
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) <= peak(4) + 2 * x0.nbytes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PicardConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            PicardConfig(max_iterations=0)
        for bound in (float("inf"), float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="divergence_bound"):
                PicardConfig(divergence_bound=bound)


class TestGapDiagnostics:
    def test_geometric_orbit_is_monotone(self):
        trace = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        assert gaps_monotone(trace)

    def test_single_gap_vacuous(self):
        trace = picard_iterate(lambda x: x, 0.2, PicardConfig(), scalar_metric)
        assert gaps_monotone(trace)

    def test_ratios_follow_from_the_gaps(self):
        # a gap not above the ratio floor omits the ratio that divides by it
        trace = IterationTrace(final=0.0, gaps=[2.0, 1.0, 1e-14, 1.0, 0.25],
                               termination="max_iterations", residual=0.0)
        assert trace.ratios == [0.5, 1e-14, None, 0.25]
        assert trace.defined_ratios() == [0.5, 1e-14, 0.25]

    def test_a_residual_that_raises_is_infinite(self):
        # the budget runs out, and the map refuses the last iterate
        def halve_three_times(x):
            if x < 0.2:
                raise DomainError("outside the domain")
            return x / 2.0

        trace = picard_iterate(halve_three_times, 1.0, PicardConfig(max_iterations=3),
                               scalar_metric)
        assert (trace.termination, trace.final, trace.gaps) == (
            MAX_ITERATIONS, 0.125, [0.5, 0.25, 0.125])
        assert trace.residual == np.inf

    def test_synthetic_violation(self):
        trace = IterationTrace(final=0.4, gaps=[0.1, 0.3], termination="max_iterations",
                               residual=0.3)
        assert not gaps_monotone(trace)

    def test_verified_bundle_orbits_have_monotone_gaps(self):
        # a bundle passing the master check with the constant weight and
        # the plain subtraction benchmark predicts decreasing gaps along
        # every orbit: assert it on the observed traces
        from picardkit import ContractionBundle, verify_contraction
        from picardkit.builtins import cclass_a, zeta1
        from picardkit.sampling import Mesh

        bundle = ContractionBundle(
            mapping=lambda x: x / 2.0,
            alpha=alpha_one(),
            beta=beta_constant(0.7),
            zeta=zeta1(0.8),
            g=cclass_a(0.0),
            name="halving")
        pairs = Mesh(-1.0, 1.0, 41)[:]
        assert verify_contraction(bundle, pairs, scalar_metric).passed
        rng = np.random.default_rng(8)
        for start in rng.uniform(-1.0, 1.0, 10):
            trace = picard_iterate(bundle.mapping, float(start),
                                   PicardConfig(tolerance=1e-12), scalar_metric)
            assert gaps_monotone(trace)

    def test_ratio_bound_reciprocal_gain(self):
        # ratios are 1/3; the first gap is 2/3 so beta(2/3) = 0.6 bounds it
        trace = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        report = check_ratio_bound(trace, beta_reciprocal())
        assert report.passed
        assert trace.gaps[0] == pytest.approx(2.0 / 3.0)

    def test_ratio_bound_constant_gains(self):
        trace = picard_iterate(shrink, 1.0, PicardConfig(tolerance=1e-10),
                               scalar_metric)
        assert check_ratio_bound(trace, beta_constant(0.5)).passed
        tight = check_ratio_bound(trace, beta_constant(0.25))
        assert not tight.passed
        # step 0 offends, and the witness of the least margin comes first
        assert 0 in [w.inputs[0] for w in tight.witnesses]
        assert tight.witnesses[0].margin == min(w.margin for w in tight.witnesses)

    def test_a_ratio_past_the_float_range_reads_inf(self):
        # a gap of 1e-11, then one of 1e300: the ratio overflows to inf, as a
        # division of Python floats does, and no numpy warning is raised
        trace = picard_iterate(lambda x: 1e-11 if x == 0.0 else 1e300, 0.0, PicardConfig(),
                               scalar_metric)
        assert (trace.termination, trace.ratios) == (DIVERGED, [np.inf])
        report = check_ratio_bound(trace, beta_reciprocal())
        assert [w.detail for w in report.witnesses] == [
            "gap ratio inf exceeds beta(gap) = 0.99999999999 at step 0"]


class TestAlphaOrbit:
    def test_reference_orbit_passes(self):
        report = check_alpha_orbit(example31_map, alpha_box(0.0, 1.0), 1.0, 10)
        assert report.passed
        assert report.samples == 55  # all pairs n < m over 11 orbit points

    def test_constant_weight_passes(self):
        report = check_alpha_orbit(lambda x: 2.0 * x, alpha_one(), 1.0, 6)
        assert report.passed

    def test_orbit_escaping_box_fails(self):
        # from 0.2 the tripling orbit is 0.2, 0.6, 1.8, ...: the starting
        # hypothesis holds but alpha(x_1, x_2) = alpha(0.6, 1.8) = 0
        report = check_alpha_orbit(lambda x: 3.0 * x, alpha_box(0.0, 1.0), 0.2, 5)
        assert not report.passed
        assert (1, 2) in {w.inputs for w in report.witnesses}

    def test_empty_orbit_is_a_domain_error(self):
        with pytest.raises(DomainError, match="n_max must be at least 1, got 0"):
            check_alpha_orbit(example31_map, alpha_one(), 1.0, 0)

    def test_unmet_hypothesis_is_not_a_failure(self):
        # from 0.5 the first step already leaves the box, so the orbit
        # propagation lemma's hypothesis alpha(x0, T x0) >= 1 fails
        report = check_alpha_orbit(lambda x: 3.0 * x, alpha_box(0.0, 1.0), 0.5, 5)
        assert report.status == HYPOTHESIS_UNMET
        assert not report.witnesses


class TestUniquenessProbe:
    def test_single_limit(self):
        probe = uniqueness_probe(shrink, [0.0, 0.3, 1.0],
                                 PicardConfig(tolerance=1e-10), scalar_metric)
        assert probe.consistent_with_uniqueness
        assert len(probe.distinct_limits) == 1
        assert abs(probe.distinct_limits[0]) < 1e-9

    def test_identity_breaks_uniqueness(self):
        probe = uniqueness_probe(lambda x: x, [0.2, 0.8],
                                 PicardConfig(tolerance=1e-10), scalar_metric)
        assert len(probe.distinct_limits) == 2
        assert not probe.consistent_with_uniqueness

    def test_affine_fixed_point(self):
        # x = x/2 + 1/4 has the unique solution 1/2
        probe = uniqueness_probe(lambda x: x / 2.0 + 0.25, [0.0, 1.0],
                                 PicardConfig(tolerance=1e-10), scalar_metric)
        assert probe.consistent_with_uniqueness
        assert probe.distinct_limits[0] == pytest.approx(0.5, abs=1e-9)

    def test_a_start_that_raises_is_a_failed_start(self):
        probe = uniqueness_probe(shrink, [0.3, np.inf], PicardConfig(tolerance=1e-10),
                                 scalar_metric)
        assert probe.failed_starts == [
            (1, "domain-error: mapping produced a non-finite value at iterate 0")]
        failed = probe.traces[1]
        assert (failed.final, failed.gaps, failed.termination) == (np.inf, [], "domain-error")
        assert failed.residual == np.inf and failed.ratios == []
        # the limits are the last iterates of the starts that converged
        assert probe.limits == [probe.traces[0].final] == probe.distinct_limits

    def test_diverging_start_reported_individually(self):
        def mixed(x):
            return x / 2.0 if abs(x) <= 1.0 else 4.0 * x

        probe = uniqueness_probe(mixed, [0.5, 3.0],
                                 PicardConfig(tolerance=1e-10,
                                              divergence_bound=1e4),
                                 scalar_metric)
        assert probe.failed_starts == [(1, DIVERGED)]
        assert len(probe.distinct_limits) == 1  # the probe continued
