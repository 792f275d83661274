"""Order reduction: the induced indicator weight, monotonicity checks, and
the chain structure of monotone Picard orbits."""

import numpy as np
import pytest

from picardkit import (alpha_from_order, check_alpha_admissible,
                       check_increasing, check_initial_point,
                       check_order_axioms, check_triangular_alpha,
                       natural_order, nodes, pointwise_order,
                       scalar_metric, sup_metric)
from picardkit.builtins import resolve
from picardkit.errors import DimensionError, DomainError
from picardkit.sampling import mesh_array, seeded_rng


class TestInducedAlpha:
    def test_natural_order_values(self):
        alpha = alpha_from_order(natural_order)
        assert alpha(0.2, 0.7) == 1.0
        assert alpha(0.7, 0.2) == 0.0

    def test_pointwise_order_on_grid_functions(self):
        alpha = alpha_from_order(pointwise_order)
        zero = np.zeros(11)
        one = np.ones(11)
        assert alpha(zero, one) == 1.0
        assert alpha(one, zero) == 0.0
        crossing = np.linspace(-0.5, 0.5, 11)
        assert alpha(crossing, zero) == 0.0  # not comparable

    def test_only_the_pointwise_weight_is_rowwise(self):
        # on a stack, the natural order would compare node by node
        assert alpha_from_order(pointwise_order).fn.rowwise
        assert not hasattr(alpha_from_order(natural_order).fn, "rowwise")
        stack = np.array([np.zeros(11), np.ones(11), np.linspace(-0.5, 0.5, 11)])
        weights = alpha_from_order(pointwise_order).fn(stack, stack[[1, 0, 0]])
        assert weights.tolist() == [1.0, 0.0, 0.0]

    def test_pointwise_order_rejects_different_grids(self):
        triples = [(np.zeros(5), np.ones(5), np.full(5, 2.0)),
                   (np.zeros(9), np.ones(7), np.full(9, 2.0))]
        with pytest.raises(DimensionError, match="grid sizes differ: 9 vs 7 nodes"):
            check_triangular_alpha(alpha_from_order(pointwise_order), triples)

    def test_order_lookup(self):
        assert resolve("order", "natural") is natural_order
        assert resolve("order", "pointwise") is pointwise_order
        with pytest.raises(DomainError):
            resolve("order", "lexicographic")

    def test_induced_alpha_is_triangular(self):
        # transitivity of the order transfers to the indicator implication
        alpha = alpha_from_order(natural_order)
        rng = seeded_rng(2)
        triples = [tuple(map(float, row)) for row in rng.uniform(0, 1, (300, 3))]
        assert check_triangular_alpha(alpha, triples).passed

    def test_induced_alpha_admissible_for_increasing_map(self):
        alpha = alpha_from_order(natural_order)
        pairs = mesh_array(0.0, 1.0, 21)
        assert check_alpha_admissible(lambda x: x / 3.0, alpha, pairs).passed


class TestIncreasing:
    def test_shrink_map(self):
        pairs = mesh_array(0.0, 1.0, 15)
        assert check_increasing(lambda x: x / 3.0, natural_order, pairs).passed

    def test_constant_map(self):
        pairs = mesh_array(0.0, 1.0, 15)
        assert check_increasing(lambda x: 0.4, natural_order, pairs).passed

    def test_reflection_fails_at_endpoints(self):
        report = check_increasing(lambda x: 1.0 - x, natural_order, [(0.0, 1.0)])
        assert not report.passed
        assert report.witnesses[0].inputs == (0.0, 1.0)


class TestInitialPoint:
    def test_affine_from_zero(self):
        assert check_initial_point(lambda x: x / 2.0 + 0.25, natural_order, 0.0)

    def test_reflexive_at_fixed_point(self):
        assert check_initial_point(lambda x: x / 3.0, natural_order, 0.0)

    def test_decreasing_start(self):
        assert not check_initial_point(lambda x: x / 3.0, natural_order, 1.0)


class TestOrderAxioms:
    def test_natural_order_axioms(self):
        elements = [0.0, 0.25, 0.5, 1.0]
        assert check_order_axioms(natural_order, elements, scalar_metric).passed

    def test_pointwise_order_axioms(self):
        fns = [np.zeros(6), np.ones(6), np.linspace(0, 1, 6)]
        assert check_order_axioms(pointwise_order, fns, sup_metric).passed

    def test_pointwise_order_axioms_reject_different_grids(self):
        fns = [np.zeros(6), np.ones(4)]
        with pytest.raises(DimensionError, match="grid sizes differ: 6 vs 4 nodes"):
            check_order_axioms(pointwise_order, fns, sup_metric)

    def test_intransitive_comparator_caught(self):
        from picardkit import PartialOrder
        near = PartialOrder(lambda x, y: abs(x - y) <= 1.0, name="near")
        report = check_order_axioms(near, [0.0, 1.0, 2.0], scalar_metric)
        assert not report.passed
        checks = {w.check for w in report.witnesses}
        assert "order/transitive" in checks or "order/antisymmetric" in checks


class TestOrbitChain:
    def test_monotone_orbit_is_a_chain(self):
        # increasing T with x1 <= T x1: the orbit ascends link by link
        T = lambda x: x / 2.0 + 0.25
        x = 0.0
        assert check_initial_point(T, natural_order, x)
        for _ in range(20):
            nxt = T(x)
            assert natural_order(x, nxt)
            x = nxt

    def test_monotone_grid_orbit_is_a_chain(self):
        # pointwise: T x = (x + c) / 2 from 0 ascends toward c
        c = np.sin(np.pi * nodes(16)) + 0.5
        T = lambda x: 0.5 * (x + c)
        x = np.zeros(17)
        for _ in range(15):
            nxt = T(x)
            assert pointwise_order(x, nxt)
            x = nxt
