"""Metric carriers: worked values, error contracts, and the metric axioms
as properties over randomized samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardkit import (DimensionError, DomainError, as_grid_function,
                       nodes, save_grid_csv, scalar_metric,
                       sup_metric)
from picardkit.builtins import rhs_zero
from picardkit.bvp import BVPProblem
from picardkit.metrics import grid_pair
from picardkit.posets import pointwise_order
from picardkit.sampling import Draw, seeded_rng

from helpers import load_grid_csv, splitmix64, uniform_block

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestScalarMetric:
    def test_identity(self):
        assert scalar_metric(0.5, 0.5) == 0.0

    def test_arithmetic(self):
        assert scalar_metric(1.0, 1.0 / 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unit(self):
        assert scalar_metric(0.0, 1.0) == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            scalar_metric(math.nan, 0.0)
        with pytest.raises(DomainError):
            scalar_metric(0.0, math.inf)

    @given(finite_floats, finite_floats)
    def test_symmetry_and_nonnegativity(self, x, y):
        assert scalar_metric(x, y) == scalar_metric(y, x) >= 0.0

    @given(finite_floats, finite_floats, finite_floats)
    def test_triangle(self, x, y, z):
        assert scalar_metric(x, z) <= scalar_metric(x, y) + scalar_metric(y, z) + 1e-9


class TestSupMetric:
    def test_zero_functions(self):
        z = np.zeros(11)
        assert sup_metric(z, z) == 0.0

    def test_linear_vs_zero(self):
        # x(t) = t against 0: the sup sits at t = 1
        ts = nodes(10)
        assert sup_metric(ts, np.zeros(11)) == 1.0

    def test_sine_vs_zero(self):
        # evaluate sin(pi t) on the n = 100 grid and take the max: the peak
        # node t = 0.5 is on the grid, so the sup is 1 up to float error
        ts = nodes(100)
        assert sup_metric(np.sin(np.pi * ts), np.zeros(101)) == pytest.approx(1.0, abs=1e-3)

    def test_empty_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match="grid size must be at least 1, got 0"):
            nodes(0)

    def test_mismatched_grids(self):
        with pytest.raises(DimensionError):
            sup_metric(np.zeros(11), np.zeros(12))

    @pytest.mark.parametrize("pair", [
        lambda: grid_pair(np.zeros(7), 0.5),
        lambda: grid_pair(0.5, np.zeros(7)),
        lambda: pointwise_order.leq(0.5, np.zeros(7)),
        lambda: BVPProblem(rhs=rhs_zero, n=6, gate=np.minimum).gate_values(0.5, np.zeros(7)),
    ], ids=["grid-real", "real-grid", "pointwise-order", "gate-values"])
    def test_a_real_does_not_pair_with_a_grid_function(self, pair):
        with pytest.raises(DimensionError, match="a real does not pair with a grid function"):
            pair()

    def test_rejects_non_finite(self):
        bad = np.zeros(5)
        bad[2] = np.nan
        with pytest.raises(DomainError):
            sup_metric(bad, np.zeros(5))

    @given(st.integers(min_value=1, max_value=30), st.data())
    @settings(max_examples=50)
    def test_axioms_on_random_grid_functions(self, n, data):
        draw = st.lists(finite_floats, min_size=n + 1, max_size=n + 1)
        x = np.array(data.draw(draw))
        y = np.array(data.draw(draw))
        z = np.array(data.draw(draw))
        assert sup_metric(x, x) == 0.0
        assert sup_metric(x, y) == sup_metric(y, x) >= 0.0
        assert sup_metric(x, z) <= sup_metric(x, y) + sup_metric(y, z) + 1e-9

    def test_stacks_row_by_row(self):
        # two (k, n + 1) stacks give one gap per pair of rows, bit for bit
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(-1.0, 1.0, size=(2, 5, 9))
        gaps = sup_metric(xs, ys)
        assert sup_metric.rowwise and gaps.shape == (5,)
        assert gaps.tolist() == [sup_metric(x, y) for x, y in zip(xs, ys)]
        with pytest.raises(DimensionError):
            sup_metric(xs, ys[:, :-1])
        with pytest.raises(DimensionError):
            sup_metric(xs[None], ys[None])  # a stack of stacks
        xs[3, 2] = np.inf
        with pytest.raises(DomainError):
            sup_metric(xs, ys)

    def test_stacks_of_different_row_counts_do_not_pair(self):
        # the node counts agree: the message names the shapes, not 18 vs 27 nodes
        with pytest.raises(DimensionError) as raised:
            sup_metric(np.zeros((2, 9)), np.zeros((3, 9)))
        assert str(raised.value) == "stacks of shapes (2, 9) and (3, 9) do not pair"

    @given(st.integers(min_value=1, max_value=30),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_constant_offset(self, n, c):
        # d(x, x + c) = |c| on every grid
        x = nodes(n)
        assert sup_metric(x, x + c) == pytest.approx(abs(c), rel=1e-12, abs=1e-15)


class TestSpaces:
    """The carriers have no space objects: their elements come from the
    samplers in ``picardkit.sampling`` and are checked by the metrics."""

    @given(seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_interval_samples_stay_in_window(self, seed):
        samples = Draw(seeded_rng(seed), 5, (2,), 0.0, 2.0)[:]
        assert samples.shape == (5, 2) and samples.dtype == float
        assert samples.tobytes() == uniform_block(seed, 0.0, 2.0, (5, 2)).tobytes()
        assert np.all((0.0 <= samples) & (samples < 2.0))

    @given(seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_grid_samples_are_grid_functions(self, seed):
        pairs = Draw(seeded_rng(seed), 4, (2, 11), 0.0, 1.0)[:]
        assert pairs.tobytes() == uniform_block(seed, 0.0, 1.0, (4, 2, 11)).tobytes()
        fns = [f for pair in pairs for f in pair]
        assert len(fns) == 8
        for f in fns:
            assert as_grid_function(f).shape == (11,)
            assert 0.0 <= f.min() and f.max() < 1.0
        assert 0.0 < sup_metric(*pairs[0]) < 1.0

    @given(seed=st.integers(0, 2 ** 64 - 1), cut=st.tuples(*[st.integers(-4, 4)] * 2))
    @settings(max_examples=30, deadline=None)
    def test_grid_pairs_are_row_views_of_one_block(self, seed, cut):
        # the oracle's block, a slice at a time; a slice's pairs share one block
        drawn = Draw(seeded_rng(seed), 3, (2, 5), -1.0, 2.0)
        block = uniform_block(seed, -1.0, 2.0, (3, 2, 5))
        for rows in (slice(None), slice(*cut), slice(None, None, -1)):
            assert drawn[rows].tobytes() == block[rows].tobytes()
        pairs = drawn[:]
        shared = pairs[0][0].base
        assert shared is not None and shared.shape == (3, 2, 5)
        assert all(f.base is shared and np.shares_memory(f, shared)
                   for pair in pairs for f in pair)

    def test_the_oracle_is_the_published_splitmix64(self):
        # the reference outputs of splitmix64.c for the seed 1234567
        assert splitmix64(1234567, 5) == [6457827717110365317, 3203168211198807973,
                                          9817491932198370423, 4593380528125082431,
                                          16408922859458223821]

    def test_grid_function_validation(self):
        with pytest.raises(DimensionError):
            as_grid_function(3.0)


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path):
        values = np.sin(np.pi * nodes(20))
        path = tmp_path / "fn.csv"
        save_grid_csv(path, values)
        ts, loaded = load_grid_csv(path)
        assert np.array_equal(ts, nodes(20))
        assert np.array_equal(loaded, values)
        assert path.read_text().splitlines()[0] == "t,value"

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)
