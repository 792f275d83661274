"""Boundary-value solver: the matrix-free operator against a dense reference
matrix, kernel facts, quadrature identities, operator behavior and
convergence orders against closed forms, the Picard solve against the
finite-difference oracle of ``helpers``, that oracle against a dense
tridiagonal solve, and the gate predicates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picardkit import (CONTRACTION_FACTOR, GRID_EPS, BVPProblem, DimensionError, DomainError,
                       as_grid_function,
                       PicardConfig, Witness, bvp_operator,
                       check_gate_limit, check_gate_propagation,
                       check_operator_contraction,
                       check_rhs_displacement_bound,
                       green_kernel, green_row_integral,
                       integral_operator, make_report, nodes,
                       row_integral_quadrature, solve_bvp, sup_metric,
                       verify_contraction)
from picardkit import bvp as bvp_module
from picardkit.bvp import _kernel_quadrature, alpha_from_gate, operator_contraction_check
from picardkit.framework import CHUNK, check_pairs, contraction_check
from picardkit.builtins import (bvp_bundle, resolve, rhs_pi2sin, rhs_sin_plus_one,
                                rhs_zero)
from picardkit.sampling import random_grid_pairs, seeded_rng

from helpers import OracleError, finite_difference_solve, gate_accepts_start, trapezoid_weights

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# Dense reference oracle: the (n + 1) x (n + 1) split-Simpson quadrature
# matrix, one row at a time. The library applies the same rule as two
# prefix sums; these tests hold the two equal.

def _panel_weights(m: int) -> np.ndarray:
    """Composite Simpson weights (unit spacing) for one smooth panel of
    ``m >= 2`` subintervals: plain 1/3 rule when m is even, 1/3 plus a
    trailing 3/8 block when odd. All weights are positive and the rule is
    exact on cubics."""
    w = np.zeros(m + 1)
    if m == 0:
        return w
    if m == 1:
        return np.array([0.5, 0.5])
    if m % 2 == 0:
        w[0] = w[m] = 1.0 / 3.0
        w[1:m:2] = 4.0 / 3.0
        w[2:m:2] = 2.0 / 3.0
        return w
    head = m - 3
    if head > 0:
        w[0] = 1.0 / 3.0
        w[1:head:2] = 4.0 / 3.0
        w[2:head:2] = 2.0 / 3.0
        w[head] = 1.0 / 3.0
    w[head:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


# 3-point Newton-Cotes weights for the leading subinterval [x0, x1] of three
# equispaced nodes (exact on quadratics); used on the smooth kernel branch
# where a panel has a single subinterval.
_EDGE_RULE = np.array([5.0, 8.0, -1.0]) / 12.0


def kernel_quadrature_matrix(n: int) -> np.ndarray:
    """Matrix ``K`` with ``(K @ f_values)[i]`` the split-Simpson quadrature
    of ``G(t_i, s) f(s)`` over s.

    Row i integrates the two smooth panels [0, t_i] and [t_i, 1]
    independently; odd panels place their 3/8 block on the kink side. The
    one-subinterval panels at i = 1 and i = n - 1 apply the edge rule to the
    smooth branch extension (for n >= 4; the degenerate n = 2 grid falls
    back to the trapezoid)."""
    ts = nodes(n)
    h = 1.0 / n
    # branch formulas, each smooth on the whole square
    lower = ts[None, :] * (1.0 - ts[:, None])   # s (1 - t), exact where s <= t
    upper = ts[:, None] * (1.0 - ts[None, :])   # t (1 - s), exact where t <= s
    w_lower = np.zeros((n + 1, n + 1))
    w_upper = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        if i == 1 and n >= 4:
            w_lower[i, :3] = _EDGE_RULE
        else:
            w_lower[i, :i + 1] = _panel_weights(i)
        m = n - i
        if m == 1 and n >= 4:
            w_upper[i, n - 2:] = _EDGE_RULE[::-1]
        else:
            w_upper[i, i:] = _panel_weights(m)[::-1]
    return h * (w_lower * lower + w_upper * upper)


def _split_simpson_columns(n: int):
    """The library operator applied to the unit vectors, a block of the
    identity stack at a time: entry (j, i) of a block is the weight of node j
    in row i."""
    ts = nodes(n)
    for start in range(0, n + 1, 256):
        count = min(256, n + 1 - start)
        units = np.zeros((count, n + 1))
        units[np.arange(count), start + np.arange(count)] = 1.0
        yield _kernel_quadrature(ts, 1.0 - ts, units)


class TestMatrixFreeOperator:
    # the n = 2 trapezoid, the edge rules and the first 3/8 blocks
    @example(half_n=1, seed=0, scale=1.0)
    @example(half_n=2, seed=0, scale=1.0)
    @example(half_n=3, seed=0, scale=1.0)
    @given(st.integers(min_value=1, max_value=500), st.integers(0, 2 ** 32 - 1),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, half_n, seed, scale):
        n = 2 * half_n
        values = seeded_rng(seed).uniform(-scale, scale, n + 1)
        problem = BVPProblem(rhs=lambda t, x, v=values: v, n=n)
        fast = integral_operator(problem, np.zeros(n + 1))
        dense = kernel_quadrature_matrix(n) @ values
        dense[0] = dense[-1] = 0.0
        assert float(np.max(np.abs(fast - dense))) <= 1e-15 * float(np.max(np.abs(values)))

    def test_problem_holds_no_matrix(self):
        problem = BVPProblem(rhs=rhs_zero, n=1000)
        for name, value in vars(problem).items():
            assert not (isinstance(value, np.ndarray) and value.ndim >= 2), name

    def test_row_integral_at_a_size_the_dense_route_cannot_build(self):
        n = 10 ** 5
        computed = row_integral_quadrature(n)
        exact = green_row_integral(nodes(n))
        assert float(np.max(np.abs(computed - exact))) <= 1e-10


class TestGreenKernel:
    def test_diagonal_value(self):
        assert green_kernel(0.5, 0.5) == 0.25

    def test_boundary_annihilation(self):
        for s in (0.0, 0.3, 1.0):
            assert green_kernel(0.0, s) == 0.0
            assert green_kernel(1.0, s) == 0.0

    def test_off_diagonal(self):
        # t <= s branch: t (1 - s) = 0.25 * 0.25
        assert green_kernel(0.25, 0.75) == 0.0625

    def test_domain_error(self):
        with pytest.raises(DomainError):
            green_kernel(-0.1, 0.5)
        with pytest.raises(DomainError):
            green_kernel(0.5, 1.5)

    @given(unit, unit)
    @settings(max_examples=200)
    def test_symmetry_nonnegativity_bound(self, t, s):
        value = green_kernel(t, s)
        assert value == green_kernel(s, t)
        assert 0.0 <= value <= 0.25

    def test_vectorized_matches_scalar(self):
        ts = nodes(20)
        matrix = green_kernel(ts[:, None], ts[None, :])
        assert matrix[3, 17] == green_kernel(ts[3], ts[17])


class TestRowIntegral:
    def test_closed_form_values(self):
        assert green_row_integral(0.5) == 0.125
        assert green_row_integral(0.0) == 0.0
        assert green_row_integral(0.25) == 0.09375

    def test_quadrature_matches_closed_form_everywhere(self):
        computed = row_integral_quadrature(100)
        exact = green_row_integral(nodes(100))
        assert float(np.max(np.abs(computed - exact))) <= 1e-10

    def test_maximum_at_midpoint(self):
        values = green_row_integral(nodes(100))
        assert float(values.max()) == 0.125
        assert int(np.argmax(values)) == 50

    def test_quadrature_of_smooth_product_is_fourth_order(self):
        # closed form: int_0^1 G(t, s) pi^2 sin(pi s) ds = sin(pi t); each
        # halving of h must cut the sup error by ~16
        errors = []
        for n in (50, 100, 200):
            problem = BVPProblem(rhs=rhs_pi2sin, n=n)
            applied = integral_operator(problem, np.zeros(n + 1))
            errors.append(float(np.max(np.abs(applied - np.sin(np.pi * problem.nodes)))))
        assert errors[0] / errors[1] >= 15.0 and errors[1] / errors[2] >= 15.0


class TestIntegralOperator:
    def test_zero_rhs(self):
        problem = BVPProblem(rhs=rhs_zero, n=20)
        out = integral_operator(problem, np.ones(21))
        assert np.array_equal(out, np.zeros(21))

    def test_constant_rhs_closed_form(self):
        # f = 2 pulls out of the integral: node values 2 * row integral = t - t^2
        problem = BVPProblem(rhs=lambda t, x: np.full_like(np.asarray(t, float), 2.0),
                             n=40)
        out = integral_operator(problem, np.zeros(41))
        expected = problem.nodes - problem.nodes ** 2
        assert float(np.max(np.abs(out - expected))) <= 1e-12

    def test_sine_rhs_reproduces_eigenfunction(self):
        problem = BVPProblem(rhs=rhs_pi2sin, n=100)
        out = integral_operator(problem, np.zeros(101))
        exact = np.sin(np.pi * problem.nodes)
        assert float(np.max(np.abs(out - exact))) <= 1e-6

    def test_boundary_exactness(self):
        rng = seeded_rng(4)
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=30)
        for x, _ in random_grid_pairs(rng, 5, 30):
            out = integral_operator(problem, x)
            assert out[0] == 0.0 and out[-1] == 0.0

    def test_maximum_principle(self):
        # nonnegative rhs gives a nonnegative image: all quadrature
        # coefficients of the discrete operator are nonnegative
        rng = seeded_rng(9)
        values = rng.uniform(0.0, 3.0, 101)
        problem = BVPProblem(rhs=lambda t, x, v=values: v, n=100)
        out = integral_operator(problem, np.zeros(101))
        assert float(out.min()) >= 0.0

    @pytest.mark.parametrize("columns", [_split_simpson_columns,
                                         lambda n: [trapezoid_weights(n).T]],
                             ids=["split-simpson", "trapezoid"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 20, 100, 1000, 2000])
    def test_weights_are_nonnegative_with_largest_row_sum_one_eighth(self, n, columns):
        # the solver's rule and the oracle's dense trapezoid matrix: the
        # sup-norm Lipschitz constant is the largest row sum
        row_sums = np.zeros(n + 1)
        for weights in columns(n):
            assert float(weights.min()) >= 0.0
            row_sums += weights.sum(axis=0)
        assert abs(float(row_sums.max()) - CONTRACTION_FACTOR) <= 3e-17

    def test_non_finite_rhs_rejected(self):
        problem = BVPProblem(rhs=lambda t, x: np.where(t > 0.5, np.inf, 1.0), n=10)
        with pytest.raises(DomainError):
            integral_operator(problem, np.zeros(11))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            BVPProblem(rhs=rhs_zero, n=7)  # odd grid
        with pytest.raises(ValueError):
            BVPProblem(rhs=rhs_zero, n=0)
        with pytest.raises(ValueError):
            BVPProblem(rhs=rhs_zero, n=10, tolerance=-1.0)


class TestSolve:
    def test_source_only_solution(self):
        # f independent of x makes the operator constant: the second iterate
        # equals the first, so the solve ends after two applications
        problem = BVPProblem(rhs=rhs_pi2sin, n=100)
        solution = solve_bvp(problem, PicardConfig(tolerance=1e-8, max_iterations=20))
        assert solution.converged
        assert solution.trace.iterations <= 2
        exact = np.sin(np.pi * problem.nodes)
        assert float(np.max(np.abs(solution.values - exact))) <= 5e-4

    def test_zero_rhs_immediate(self):
        problem = BVPProblem(rhs=rhs_zero, n=20)
        solution = solve_bvp(problem)
        assert solution.converged
        assert solution.trace.iterations == 1
        assert np.array_equal(solution.values, np.zeros(21))

    def test_nonlinear_contraction_ratios(self):
        # |sin' | <= 1, so observed gap ratios stay within the kernel bound 1/8
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=100, tolerance=1e-10)
        solution = solve_bvp(problem, PicardConfig(tolerance=1e-10, max_iterations=100))
        assert solution.converged
        assert solution.contraction_estimate is not None
        assert solution.contraction_estimate <= 0.125 + 1e-6

    def test_residual_bound_concrete(self):
        # second differences recover -x'' to O(h^2): for n = 100 and the
        # sine source the truncation constant is pi^4 h^2 / 12 ~ 8.2e-4
        problem = BVPProblem(rhs=rhs_pi2sin, n=100)
        solution = solve_bvp(problem, PicardConfig(tolerance=1e-10, max_iterations=20))
        assert solution.residual <= 2e-3

    def test_residual_scales_second_order(self):
        residuals = {}
        for n in (50, 200):
            problem = BVPProblem(rhs=rhs_pi2sin, n=n)
            solution = solve_bvp(problem, PicardConfig(tolerance=1e-12,
                                                       max_iterations=20))
            residuals[n] = solution.residual
        assert residuals[50] / residuals[200] > 8.0  # ~16 for clean O(h^2)

    def test_boundary_values_exact(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=50)
        solution = solve_bvp(problem)
        assert solution.values[0] == 0.0 and solution.values[-1] == 0.0


class TestFiniteDifferenceOracle:
    def test_known_solution(self):
        problem = BVPProblem(rhs=rhs_pi2sin, n=100)
        x = finite_difference_solve(problem)
        exact = np.sin(np.pi * problem.nodes)
        assert float(np.max(np.abs(x - exact))) <= 5e-4

    def test_zero_rhs(self):
        problem = BVPProblem(rhs=rhs_zero, n=20)
        assert float(np.max(np.abs(finite_difference_solve(problem)))) == 0.0

    def test_two_routes_agree(self):
        # independent discretizations of the same nonlinear problem
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=100, tolerance=1e-10)
        solution = solve_bvp(problem, PicardConfig(tolerance=1e-10, max_iterations=100))
        oracle = finite_difference_solve(problem)
        assert float(np.max(np.abs(solution.values - oracle))) <= 1e-3

    def test_damping_validation(self):
        problem = BVPProblem(rhs=rhs_zero, n=10)
        with pytest.raises(ValueError):
            finite_difference_solve(problem, damping=0.0)

    @pytest.mark.parametrize("rhs", ["pi2sin", "const:2.5"])
    def test_matches_dense_central_differences(self, rhs):
        # the definition of the route: for an x-independent rhs the answer
        # is the solve of (1/h^2) tridiag(-1, 2, -1) x = f on interior nodes
        for n in range(2, 61, 2):
            problem = BVPProblem(rhs=resolve("rhs", rhs), n=n)
            h = 1.0 / n
            matrix = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1)
                      - np.eye(n - 1, k=-1)) / (h * h)
            dense = np.zeros(n + 1)
            dense[1:-1] = np.linalg.solve(matrix, problem.rhs_values(dense)[1:-1])
            x = finite_difference_solve(problem)
            assert float(np.max(np.abs(x - dense))) <= 1e-11, n

    def test_second_order(self):
        # exact solution sin(pi t): each halving of h cuts the error by ~4
        errors = []
        for n in (50, 100, 200):
            problem = BVPProblem(rhs=rhs_pi2sin, n=n)
            x = finite_difference_solve(problem)
            errors.append(float(np.max(np.abs(x - np.sin(np.pi * problem.nodes)))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_too_few_sweeps_raise(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=100)
        with pytest.raises(OracleError, match="did not reach 1e-12 within 2 sweeps"):
            finite_difference_solve(problem, max_iterations=2)

    def test_shares_no_quadrature_with_the_solver(self, monkeypatch):
        # the oracle checks the solver's quadrature, so it must not run it
        def unavailable(*args):
            raise AssertionError("the oracle called the solver's quadrature")

        problem = BVPProblem(rhs=rhs_sin_plus_one, n=100, tolerance=1e-10)
        solution = solve_bvp(problem, PicardConfig(tolerance=1e-10, max_iterations=100))
        monkeypatch.setattr(bvp_module, "_kernel_quadrature", unavailable)
        monkeypatch.setattr(bvp_module, "_split_simpson_prefix", unavailable)
        oracle = finite_difference_solve(problem)
        assert float(np.max(np.abs(solution.values - oracle))) <= 1e-3


class TestRhsDisplacementBound:
    def test_half_slope_passes(self):
        problem = BVPProblem(rhs=lambda t, x: np.asarray(x, float) / 2.0, n=100)
        triples = [(t, a, b) for t in (0.25, 0.5, 0.75)
                   for a in (0.0, 0.5, 1.0) for b in (0.0, 1.0)]
        assert check_rhs_displacement_bound(problem, triples).passed

    def test_double_slope_fails_at_reference_triple(self):
        # f = 2x at (t, a, b) = (0.5, 1, 0): lhs = 2 while the displacement
        # terms are |a-b| = 1, |a - Ta| = |1 - 2/8| = 0.75, |b - Tb| = 0
        problem = BVPProblem(rhs=lambda t, x: 2.0 * np.asarray(x, float), n=100)
        report = check_rhs_displacement_bound(problem, [(0.5, 1.0, 0.0)])
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.inputs == (0.5, 1.0, 0.0)
        assert witness.lhs == pytest.approx(2.0, abs=1e-12)
        assert witness.bound == pytest.approx(1.0, abs=1e-9)

    def test_sine_slope_passes(self):
        problem = BVPProblem(rhs=lambda t, x: np.sin(np.asarray(x, float)), n=100)
        rng = seeded_rng(12)
        triples = [(float(round(t * 100) / 100), float(a), float(b))
                   for t, a, b in rng.uniform(0.0, 1.0, (50, 3))]
        assert check_rhs_displacement_bound(problem, triples).passed

    def test_gated_triples_skipped(self):
        problem = BVPProblem(rhs=lambda t, x: 2.0 * np.asarray(x, float), n=100,
                             gate=lambda a, b: -1.0)
        report = check_rhs_displacement_bound(problem, [(0.5, 1.0, 0.0)])
        assert report.passed and report.samples == 0


def oracle_operator_contraction(problem, pairs, tol=GRID_EPS, factor=CONTRACTION_FACTOR):
    """The per-pair loop the chunked pass replaced: T applied to both
    functions of every pair, one witness at a time."""
    T = bvp_operator(problem)
    witnesses = []
    checked = 0
    for x, y in pairs:
        checked += 1
        tx = T(x)
        ty = T(y)
        lhs = sup_metric(tx, ty)
        m = max(sup_metric(x, y), sup_metric(x, tx), sup_metric(y, ty))
        bound = factor * m
        margin = bound - lhs
        if margin < -tol:
            witnesses.append(Witness(
                "operator/contraction", (x, y), margin,
                f"||Tx - Ty|| = {lhs!r} exceeds {factor!r} * M = {bound!r}",
                lhs=lhs, bound=bound))
    return make_report("operator-contraction", witnesses, checked, tolerance=tol)


def assert_same_report(got, want):
    """Same report fields, and witnesses equal field by field, with the
    sampled grid functions' node values as inputs, bit for bit."""
    assert (got.name, got.status, got.samples, got.mode, got.tolerance, got.notes) == \
        (want.name, want.status, want.samples, want.mode, want.tolerance, want.notes)
    assert len(got.witnesses) == len(want.witnesses)
    for a, b in zip(got.witnesses, want.witnesses):
        assert (a.check, a.margin, a.lhs, a.bound, a.detail) == \
            (b.check, b.margin, b.lhs, b.bound, b.detail)
        assert type(a.margin) is type(a.lhs) is type(a.bound) is float
        assert len(a.inputs) == len(b.inputs) == 2
        assert all(type(u) is type(v) is np.ndarray and u.tobytes() == v.tobytes()
                   for u, v in zip(a.inputs, b.inputs))


def _shifted_pairs(rng, count, n, shift):
    """Pairs y = x + c + noise, c in ``shift``: a gate on |x - y| near c is
    open on most, and the 10x rhs spreads the images by about 1.25 c."""
    xs = rng.uniform(0.0, 1.0, size=(count, n + 1))
    ys = xs + rng.uniform(*shift, size=(count, 1)) + rng.uniform(-0.01, 0.01, (count, n + 1))
    return [(np.array(x), np.array(y)) for x, y in zip(xs, ys)]


# n and pair counts around a chunk of CHUNK // (n + 1) grid functions (15
# at n = 1000, 1454 at n = 10)
STACK_COUNTS = [(1000, 0), (1000, 1), *((1000, CHUNK // 1001 + i) for i in (-1, 0, 1)),
                (1000, 40), (10, CHUNK // 11 - 1), (10, CHUNK // 11 + 1)]


class TestOperatorContraction:
    @pytest.mark.parametrize("rhs, factor, fails", [
        ("expr:10*x", CONTRACTION_FACTOR, True),   # Lipschitz 10 overwhelms 1/8
        ("sin_plus_one", CONTRACTION_FACTOR, False),
        ("sin_plus_one", 0.01, True),              # a factor below the operator's
    ])
    def test_matches_the_per_pair_oracle(self, rhs, factor, fails):
        problem = BVPProblem(rhs=resolve("rhs", rhs), n=10)
        pairs = random_grid_pairs(seeded_rng(5), 60, 10)
        got = check_operator_contraction(problem, pairs, factor=factor)
        assert_same_report(got, oracle_operator_contraction(problem, pairs, factor=factor))
        assert got.passed is not fails
        if fails:
            assert 0 < len(got.witnesses) <= len(pairs)
        # an (N, 2, n + 1) array of pairs gives the same witnesses, with
        # copies of the sampled functions as inputs
        stacked = check_operator_contraction(problem, np.array(pairs), factor=factor)
        assert [(w.margin, w.lhs, w.bound, w.detail) for w in stacked.witnesses] == \
            [(w.margin, w.lhs, w.bound, w.detail) for w in got.witnesses]
        assert all(np.array_equal(u, v) for a, b in zip(stacked.witnesses, got.witnesses)
                   for u, v in zip(a.inputs, b.inputs))

    def test_gated_pairs_split_the_two_contraction_verdicts(self):
        # alpha is 0 on pairs the gate closes, which the master inequality
        # then passes; the operator contraction ignores alpha and fails them
        problem = BVPProblem(rhs=resolve("rhs", "expr:10*x"), n=10,
                             gate=lambda a, b: 1.0 if abs(a - b) < 1e-3 else -1.0)
        rng = seeded_rng(9)
        x = rng.uniform(0.0, 1.0, 11)
        pairs = np.concatenate([random_grid_pairs(rng, 20, 10), [(x, x.copy()), (x, x + 1e-4)]])
        bundle = resolve("bundle", "bvp", "grid", problem)
        assert [bundle.alpha(a, b) for a, b in pairs] == [0.0] * 20 + [1.0, 1.0]
        contraction, operator = check_pairs(
            bundle.mapping, bundle.alpha, pairs,
            [contraction_check(bundle, GRID_EPS), operator_contraction_check()], sup_metric)
        assert contraction.passed and not operator.passed
        assert operator.witnesses and all(bundle.alpha(*w.inputs) == 0.0
                                          for w in operator.witnesses)
        assert contraction == verify_contraction(bundle, pairs, sup_metric, tol=GRID_EPS)
        assert_same_report(operator, oracle_operator_contraction(problem, pairs))

    @pytest.mark.parametrize("n, count", STACK_COUNTS)
    def test_stacks_match_the_per_pair_oracle(self, n, count):
        problem = BVPProblem(rhs=resolve("rhs", "expr:10*x"), n=n)
        pairs = _shifted_pairs(seeded_rng(count), count, n, (-0.5, 0.5))
        got = check_operator_contraction(problem, pairs)
        assert_same_report(got, oracle_operator_contraction(problem, pairs))
        assert got.passed is not (count > 0)

    def test_equal_functions_trivial(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=50)
        x = np.linspace(0.0, 1.0, 51)
        assert check_operator_contraction(problem, [(x, x.copy())]).passed

    def test_linear_rhs_constant_pair(self):
        # f = x/2 on constants 1 and 0: ||Tx - Ty|| = 1/16 <= (1/8) M
        problem = BVPProblem(rhs=lambda t, x: np.asarray(x, float) / 2.0, n=100)
        ones = np.ones(101)
        zeros = np.zeros(101)
        T = lambda x: integral_operator(problem, x)
        assert sup_metric(T(ones), T(zeros)) == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert check_operator_contraction(problem, [(ones, zeros)]).passed

    def test_random_pairs_bounded(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=100)
        rng = seeded_rng(42)
        pairs = random_grid_pairs(rng, 50, 100, 0.0, 1.0)
        assert check_operator_contraction(problem, pairs).passed


def oracle_gate_propagation(problem, pairs):
    """The per-pair loop the chunked pass replaced: both functions of every
    gated pair mapped one at a time, one witness at a time."""
    witnesses = []
    checked = 0
    for x, y in pairs:
        checked += 1
        xa = as_grid_function(x)
        ya = as_grid_function(y)
        if np.all(problem.gate_values(xa, ya) > 0.0):
            values = problem.gate_values(integral_operator(problem, xa),
                                         integral_operator(problem, ya))
            node = int(np.argmin(values))
            worst = float(values[node])
            if not worst > 0.0:  # the strict rule: a nan fails
                witnesses.append(Witness(
                    "gate/propagation", (x, y), worst,
                    f"gate positive on (x, y) but xi(Tx, Ty) = {worst!r} at node {node}",
                    lhs=worst, bound=0.0))
    return make_report("gate-propagation", witnesses, checked)


class TestGatePropagation:
    GATES = {
        "broadcasting": lambda a, b: 0.3 - np.abs(a - b),
        "single nodes": lambda a, b: 1.0 if abs(a - b) < 0.3 else -1.0,
        "open": None,
    }

    @pytest.mark.parametrize("gate", list(GATES))
    @pytest.mark.parametrize("n, count", STACK_COUNTS)
    def test_matches_the_per_pair_oracle(self, gate, n, count):
        problem = BVPProblem(rhs=resolve("rhs", "expr:10*x"), n=n, gate=self.GATES[gate])
        pairs = _shifted_pairs(seeded_rng(count), count, n, (0.2, 0.31))
        got = check_gate_propagation(problem, pairs)
        assert_same_report(got, oracle_gate_propagation(problem, pairs))
        if gate != "open" and count >= 16:
            assert 0 < len(got.witnesses) < count
        # an (N, 2, n + 1) array of the pairs gives the same witnesses
        if count:
            stacked = check_gate_propagation(problem, np.array(pairs))
            assert [(w.margin, w.detail) for w in stacked.witnesses] == \
                [(w.margin, w.detail) for w in got.witnesses]

    def test_a_nan_gate_value_is_not_positive(self):
        # the strict rule fails a nan margin: a gate that reads nan on the
        # images is closed there, as gate_weights reads it on the pairs
        problem = BVPProblem(rhs=resolve("rhs", "const:8"), n=6,
                             gate=lambda a, b: 1.0 if max(abs(a), abs(b)) < 0.1 else np.nan)
        zero = np.zeros(7)
        propagation = check_gate_propagation(problem, [(zero, zero)])
        limit = check_gate_limit(problem, [zero, zero], integral_operator(problem, zero))
        want = oracle_gate_propagation(problem, [(zero, zero)])
        assert [w.detail for w in propagation.witnesses] == [w.detail for w in want.witnesses]
        for report in (propagation, limit):
            assert report.status == "fail" and np.isnan(report.witnesses[0].margin)

    def test_non_finite_function_raises_on_a_closed_gate(self):
        # every function is checked, as the per-pair loop checked them
        problem = BVPProblem(rhs=rhs_zero, n=10, gate=lambda a, b: -1.0)
        pairs = _shifted_pairs(seeded_rng(1), 20, 10, (0.0, 0.1))
        pairs[7][1][4] = np.nan
        with pytest.raises(DomainError, match="grid function contains non-finite values"):
            oracle_gate_propagation(problem, pairs)
        with pytest.raises(DomainError, match="grid function contains non-finite values"):
            check_gate_propagation(problem, pairs)

    def test_bundle_weight_validates_as_the_propagation_check_does(self):
        # one gate weight: the bvp bundle's alpha rejects a non-finite
        # function under the open gate too
        problem = BVPProblem(rhs=rhs_zero, n=10)
        x = np.zeros(11)
        y = x.copy()
        y[4] = np.nan
        assert bvp_bundle(problem).alpha.fn.rowwise
        for alpha in (bvp_bundle(problem).alpha, alpha_from_gate(problem)):
            assert alpha(x, x) == 1.0
            with pytest.raises(DomainError, match="grid function contains non-finite values"):
                alpha(x, y)


class TestGatePredicates:
    def test_gate_values_match_per_node_gate_value(self):
        rng = seeded_rng(8)
        x, y = rng.uniform(-1.0, 1.0, size=(2, 21))
        calls = []

        def broadcasting(a, b):
            calls.append(np.shape(a))
            return 0.5 - np.abs(a - b)

        gates = [broadcasting, lambda a, b: 1.0 if a <= b else -1.0, None]
        for gate in gates:
            problem = BVPProblem(rhs=rhs_zero, n=20, gate=gate)
            per_node = [problem.gate_value(a, b) for a, b in zip(x, y)]
            values = problem.gate_values(x, y)
            assert values.shape == (21,) and values.tolist() == per_node
        # the broadcasting gate took the node arrays in one call; the
        # per-node reference made the other 21
        assert calls[21:] == [(21,)] and len(calls) == 22

    @pytest.mark.parametrize("gate", [None, lambda a, b: 0.5 - np.abs(a - b)],
                             ids=["open", "broadcasting"])
    def test_gate_values_need_functions_that_pair(self, gate):
        # the two must pair node for node whatever the gate, the open one too
        problem = BVPProblem(rhs=rhs_zero, n=6, gate=gate)
        for x, y, message in [
                (np.zeros(7), np.zeros(9), "grid sizes differ: 7 vs 9 nodes"),
                (np.zeros((2, 7)), np.zeros((3, 7)),
                 "stacks of shapes (2, 7) and (3, 7) do not pair")]:
            with pytest.raises(DimensionError) as raised:
                problem.gate_values(x, y)
            assert str(raised.value) == message

    def test_default_gate_accepts_zero_start(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=40)
        assert gate_accepts_start(problem, np.zeros(41))

    def test_default_gate_propagates(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=40)
        rng = seeded_rng(3)
        pairs = random_grid_pairs(rng, 5, 40)
        assert check_gate_propagation(problem, pairs).passed

    def test_restrictive_gate_rejects_start(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=40,
                             gate=lambda a, b: -1.0)
        assert not gate_accepts_start(problem, np.zeros(41))

    def test_gate_limit_falsification(self):
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=20)
        members = [np.full(21, 1.0 / (k + 1.0)) for k in range(6)]
        limit = np.zeros(21)
        report = check_gate_limit(problem, members, limit)
        assert report.passed and report.mode == "falsification"

    def test_gate_limit_catches_violation(self):
        # gate positive between consecutive members but not against the limit
        problem = BVPProblem(rhs=rhs_sin_plus_one, n=20,
                             gate=lambda a, b: 1.0 if b > 0.0 else -1.0)
        members = [np.full(21, 1.0 / (k + 1.0)) for k in range(4)]
        limit = np.zeros(21)
        report = check_gate_limit(problem, members, limit)
        assert not report.passed

    def test_gate_limit_on_another_grid_raises(self):
        # members on 9 nodes and the limit on 7 do not pair: an error, not a verdict
        problem = BVPProblem(rhs=rhs_zero, n=6, gate=lambda a, b: 1.0 - np.abs(a - b))
        members = [np.full(9, 1.0 / (k + 1.0)) for k in range(2)]
        with pytest.raises(DimensionError) as raised:
            check_gate_limit(problem, members, np.zeros(7))
        assert str(raised.value) == "grid sizes differ: 9 vs 7 nodes"
