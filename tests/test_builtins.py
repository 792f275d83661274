"""Builtin catalog: listing contents, parameter validation, and selector
parsing."""

import math
import struct

import numpy as np
import pytest

from picardkit import BVPProblem, DomainError, alpha_from_order, bvp_operator
from picardkit.builtins import (BUILTINS, beta_constant, catalog_text, cclass_c,
                                default_beta_probes, default_sequence_probes,
                                example31_map, resolve, rhs_zero, zeta1)


# the listing's first lines: its title, then the selector block's header
HEADER = ["builtin catalog", "",
          "config selectors, by field: carrier is [carrier] kind, bundle [bundle] name,",
          "beta [bundle] beta, order [order] name, map [iterate] map, rhs [bvp] rhs;",
          "[interval] or [grid] marks a choice that fits that carrier only"]


class TestCatalogListing:
    def test_opens_with_the_header(self):
        assert catalog_text().splitlines()[:len(HEADER)] == HEADER

    def test_after_the_header_lists_only_kinds_and_their_choices(self):
        body = catalog_text().splitlines()[len(HEADER):]
        kinds = list(dict.fromkeys(e.kind for e in BUILTINS))
        assert [line.strip() for line in body if not line.startswith("    ")] == kinds
        assert all(line.startswith("  ") for line in body)
        assert len(body) == len(kinds) + len(BUILTINS)

    def test_lists_no_factory_family(self):
        text = catalog_text()
        for family_line in ("simulation functions", "zeta1(lam)", "cclass_b()",
                            "example31_bundle()"):
            assert family_line not in text


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

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0 / 3.0, 1.0, 1.0 + 2.0 ** -52, 3.0,
                                   math.inf, math.nan])
    def test_example31_map_gives_a_real_a_python_float(self, x):
        # the type and bits of the scalar formula, for a real and an array of one
        want = x / 3.0 if 0.0 <= x <= 1.0 else 3.0 * x
        for got in (example31_map(x), example31_map(np.float64(x)), example31_map(np.array(x))):
            assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
        assert example31_map(np.array([x])).tobytes() == struct.pack("<d", want)

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

    @pytest.mark.parametrize("mode", ["Roldan", "other"])
    def test_unknown_modes_raise_naming_the_choices(self, mode):
        # classic probes for a misspelt roldan mode would be refused by the
        # roldan check, which would blame the probes, not the mode
        with pytest.raises(DomainError) as raised:
            default_sequence_probes(mode)
        assert str(raised.value) == f"unknown sequence axiom {mode!r}; choices: classic, roldan"

    def test_beta_probes_nonnegative(self):
        for seq in default_beta_probes():
            assert seq.min() >= 0.0


class TestRhsShapes:
    # an rhs that ignores x gives t's shape whatever x is; BVPProblem.rhs_values
    # spreads it over one grid function or a stack
    T_ONLY = {
        "zero": lambda t: np.zeros(np.shape(t)),
        "pi2sin": lambda t: np.pi ** 2 * np.sin(np.pi * np.asarray(t, dtype=float)),
        "const:2": lambda t: np.full(np.shape(t), 2.0),
    }

    @pytest.mark.parametrize("spec", list(T_ONLY))
    def test_t_shape_for_every_argument_form(self, spec):
        rhs = resolve("rhs", spec)
        t = np.linspace(0.0, 1.0, 7)
        stack = np.arange(21.0).reshape(3, 7)
        for args in [(0.25, 0.5), (0.25, stack), (t, t), (t, 0.5), (t, stack[0]), (t, stack)]:
            got = rhs(*args)
            assert np.shape(got) == np.shape(args[0])
            assert np.array_equal(got, self.T_ONLY[spec](args[0]))

    @pytest.mark.parametrize("spec", [*T_ONLY, "sin_plus_one", "expr:2",
                                      "expr:pi**2*sin(pi*t)", "expr:10*x"])
    def test_rhs_values_on_a_stack_are_the_per_function_rows(self, spec):
        problem = BVPProblem(rhs=resolve("rhs", spec), n=6)
        stack = np.arange(21.0).reshape(3, 7) / 21.0
        values = problem.rhs_values(stack)
        assert values.shape == stack.shape
        rows = np.array([problem.rhs_values(x) for x in stack])
        assert np.ascontiguousarray(values).tobytes() == rows.tobytes()


# the tag a callable needs for the kernel to give it a chunk's columns whole:
# 1-d columns of reals, or stacks of grid functions
TAG = {"interval": "elementwise", "grid": "rowwise"}


def _evaluated(entry, choice):
    """(carrier, callable) of each callable of a built choice that the
    kernel evaluates on sample columns; family members read reals on
    either carrier."""
    if entry.kind == "carrier":
        return [(entry.selector, choice[0])]
    if entry.kind == "bundle":
        return [(entry.carrier, choice.mapping), (entry.carrier, choice.alpha.fn),
                *[("interval", member.fn) for member in (choice.beta, choice.zeta, choice.g)]]
    if entry.kind == "order":
        return [(entry.carrier, choice.leq), (entry.carrier, alpha_from_order(choice).fn)]
    if entry.kind == "rhs":  # on the displacement check's reals, and as an operator on stacks
        return [("interval", choice), ("grid", bvp_operator(BVPProblem(rhs=choice, n=10)))]
    return [("interval", choice if entry.kind == "map" else choice.fn)]


class TestTags:
    def test_every_builtin_the_kernel_evaluates_carries_its_carriers_tag(self):
        problem = BVPProblem(rhs=rhs_zero, n=10)
        for entry in BUILTINS:
            context = (problem,) if entry.kind == "bundle" else ()
            choice = resolve(entry.kind, _sample(entry.selector), None, *context)
            for carrier, fn in _evaluated(entry, choice):
                assert getattr(fn, TAG[carrier], False) is True, entry
                # one that fits one carrier does not take the other's columns
                other, = set(TAG.values()) - {TAG[carrier]}
                assert entry.carrier is None or not hasattr(fn, other), entry
        # the [bundle] overrides: lambda and beta are covered above, k and r here
        assert cclass_c(2.0, 3.0).fn.elementwise

    @pytest.mark.parametrize("body", ["sin(x) + t", "2"])
    def test_an_expression_is_elementwise(self, body):
        # an expression reads one node at a time, so its operator takes stacks
        rhs = resolve("rhs", f"expr:{body}")
        assert rhs.elementwise
        assert bvp_operator(BVPProblem(rhs=rhs, n=4)).rowwise
