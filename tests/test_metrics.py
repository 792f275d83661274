"""Metric carriers: worked values, error contracts, and the metric axioms
as properties over randomized samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardkit import (DimensionError, DomainError, as_grid_function,
                       load_grid_csv, nodes, save_grid_csv, scalar_metric,
                       sup_metric)
from picardkit.sampling import random_grid_pairs, random_pairs

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

    def test_mismatched_grids(self):
        with pytest.raises(DimensionError):
            sup_metric(np.zeros(11), np.zeros(12))

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

    @given(st.integers(min_value=1, max_value=30),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_constant_offset(self, n, c):
        # d(x, x + c) = |c| on every grid
        x = nodes(n)
        assert sup_metric(x, x + c) == pytest.approx(abs(c), rel=1e-12, abs=1e-15)


class TestSpaces:
    """The carriers have no space objects: their elements come from the
    samplers in ``picardkit.sampling`` and are checked by the metrics."""

    def test_interval_samples_stay_in_window(self):
        rng = np.random.default_rng(0)
        values = [v for pair in random_pairs(rng, 5, 0.0, 2.0) for v in pair]
        assert len(values) == 10 and all(0.0 <= v <= 2.0 for v in values)
        assert all(type(v) is float for v in values)

    def test_grid_samples_are_grid_functions(self):
        rng = np.random.default_rng(1)
        pairs = random_grid_pairs(rng, 4, 10, low=0.0, high=1.0)
        fns = [f for pair in pairs for f in pair]
        assert len(fns) == 8
        for f in fns:
            assert as_grid_function(f).shape == (11,)
            assert 0.0 <= f.min() and f.max() <= 1.0
        assert 0.0 < sup_metric(*pairs[0]) <= 1.0

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
