"""Builtin catalog: listing contents, parameter validation, and selector
parsing."""

import numpy as np
import pytest

from picardkit import BVPProblem, DomainError
from picardkit.builtins import (BUILTINS, beta_constant, catalog_text, cclass_c,
                                default_beta_probes, default_sequence_probes,
                                example31_map, resolve, rhs_zero, zeta1)


class TestCatalogListing:
    def test_contains_gain_family(self):
        assert "zeta1(lambda)" in catalog_text()

    def test_contains_rational_offset_entry(self):
        assert "cclass_b: s - (2+t)t/(1+t)" in catalog_text()

    def test_contains_reference_bundle(self):
        assert "example31_bundle" in catalog_text()


def _listed_selectors(text):
    """(kind, selector) of every choice line in the selector part of the
    listing: a kind header indented by 2, its choices by 4."""
    listed, kind = [], None
    for line in text.split("config selectors", 1)[1].splitlines():
        if line.startswith("    "):
            listed.append((kind, line.split()[0]))
        elif line.startswith("  "):
            kind = line.strip()
    return listed


def _sample(selector):
    """A spec that selects ``selector``, with 0.5 for every argument."""
    if selector.startswith("<"):
        return "0.5"
    head, *params = selector.split(":")
    return ":".join([head] + ["0.5"] * len(params))


class TestSelectorTable:
    def test_every_entry_is_listed(self):
        text = catalog_text()
        for entry in BUILTINS:
            assert f"    {entry.selector:<14} {entry.doc}" in text
        assert sorted(_listed_selectors(text)) == sorted((e.kind, e.selector) for e in BUILTINS)

    def test_every_listed_selector_resolves(self):
        problem = BVPProblem(rhs=rhs_zero, n=10)
        for kind, selector in _listed_selectors(catalog_text()):
            context = (problem,) if kind == "bundle" else ()
            assert resolve(kind, _sample(selector), None, *context) is not None

    @pytest.mark.parametrize("kind, spec", [
        ("bundle", "nope"), ("map", "affine"), ("map", "example31:1"),
        ("rhs", "expr"), ("order", "lexicographic"), ("carrier", "cube"),
        ("beta", "often"), ("colour", "red"),
    ])
    def test_names_outside_the_table_raise(self, kind, spec):
        with pytest.raises(DomainError):
            resolve(kind, spec)

    def test_carrier_mismatch_raises(self):
        with pytest.raises(DomainError, match="needs the interval carrier"):
            resolve("order", "natural", "grid")
        assert resolve("map", "example31", "grid") is example31_map


class TestParameterValidation:
    def test_zeta1_range(self):
        with pytest.raises(DomainError):
            zeta1(1.0)
        with pytest.raises(DomainError):
            zeta1(0.0)

    def test_cclass_c_constraints(self):
        with pytest.raises(DomainError):
            cclass_c(k=0.5)
        with pytest.raises(DomainError):
            cclass_c(r=1.0)

    def test_beta_constant_range(self):
        with pytest.raises(DomainError):
            beta_constant(1.0)


class TestSelectors:
    def test_example31_map_branches(self):
        assert example31_map(0.9) == pytest.approx(0.3)
        assert example31_map(2.0) == 6.0

    def test_map_selectors(self):
        mapping = resolve("map", "affine:3:0")
        assert mapping(2.0) == 6.0
        with pytest.raises(DomainError):
            resolve("map", "spiral")
        with pytest.raises(DomainError):
            resolve("map", "affine:1")

    def test_rhs_selectors(self):
        zero = resolve("rhs", "zero")
        assert np.array_equal(zero(np.linspace(0, 1, 5), np.zeros(5)), np.zeros(5))
        const = resolve("rhs", "const:2.5")
        assert np.array_equal(const(np.zeros(3), np.zeros(3)), np.full(3, 2.5))
        pi2sin = resolve("rhs", "pi2sin")
        assert pi2sin(np.array([0.5]), np.zeros(1))[0] == pytest.approx(np.pi ** 2)
        with pytest.raises(DomainError):
            resolve("rhs", "const:x")
        with pytest.raises(DomainError):
            resolve("rhs", "mystery")

    def test_expression_hook(self):
        rhs = resolve("rhs", "expr:sin(x) + t")
        t = np.array([0.0, 0.5])
        x = np.array([0.0, np.pi / 2.0])
        out = rhs(t, x)
        assert out[0] == 0.0 and out[1] == pytest.approx(1.5)


class TestDefaultProbes:
    def test_classic_probes_positive(self):
        for tn, sn in default_sequence_probes("classic"):
            assert tn.min() > 0.0 and sn.min() > 0.0

    def test_roldan_probes_ordered(self):
        for tn, sn in default_sequence_probes("roldan"):
            assert np.all(tn < sn)

    def test_beta_probes_nonnegative(self):
        for seq in default_beta_probes():
            assert seq.min() >= 0.0


class TestRhsShapes:
    # the definitions that returned t's shape whatever x was
    T_SHAPED = {
        "zero": lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        "pi2sin": lambda t, x: np.pi ** 2 * np.sin(np.pi * np.asarray(t, dtype=float)),
        "const:2": lambda t, x: np.full_like(np.asarray(t, dtype=float), 2.0),
    }

    @pytest.mark.parametrize("spec", list(T_SHAPED))
    def test_broadcast_shape_of_t_and_x(self, spec):
        rhs = resolve("rhs", spec)
        t = np.linspace(0.0, 1.0, 7)
        stack = np.arange(21.0).reshape(3, 7)
        values = rhs(t, stack)
        assert values.shape == (3, 7)
        assert all(np.array_equal(row, rhs(t, x)) for row, x in zip(values, stack))
        # scalar and 1-d results stay as they were
        old = self.T_SHAPED[spec]
        for args in [(0.25, 0.5), (t, t), (t, 0.5), (t, stack[0])]:
            got, want = rhs(*args), old(*args)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
