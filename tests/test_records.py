"""The package's records: how each is made (by position or keyword, with
its defaults), how a derived one is made (``_replace``), what each refuses
when made, and that no two share a mutable default."""

import math

import numpy as np
import pytest

from picardkit import (BVPProblem, BVPSolution, CClassFunction, ContractionBundle, DomainError,
                       IterationTrace, PartialOrder, PicardConfig, SimulationFunction,
                       UniquenessReport, VerificationReport, Witness, scalar_metric,
                       uniqueness_probe)
from picardkit.builtins import (beta_constant, cclass_a, example31_map, rhs_zero,
                                zeta1)
from picardkit.cli import _FIELDS, RunConfig
from picardkit.framework import AlphaFunction, Family, GeraghtyBeta
from picardkit.report import PASS

from helpers import alpha_one


def _bundle_parts():
    return example31_map, alpha_one(), beta_constant(0.5), zeta1(0.5), cclass_a(0.0)


# each record: its fields given by position, and the defaults of the rest
RECORDS = {
    "Witness": (Witness, ("contraction", (1.0, 2.0), -0.5, "fails"),
                {"lhs": None, "bound": None}),
    "VerificationReport": (VerificationReport, ("check", PASS),
                           {"witnesses": (), "samples": 0, "mode": "exact", "tolerance": 0.0,
                            "notes": ()}),
    "ContractionBundle": (ContractionBundle, _bundle_parts(),
                          {"name": "bundle", "caveats": ()}),
    "PartialOrder": (PartialOrder, (lambda x, y: x <= y,), {"name": "order"}),
    "IterationTrace": (IterationTrace, (0.5, [1.0, 0.5], "converged", 0.0), {}),
    "BVPSolution": (BVPSolution, (IterationTrace(np.zeros(3), [], "converged", 0.0), 0.0), {}),
    "UniquenessReport": (UniquenessReport, ([0.0], [], [], []), {}),
    "PicardConfig": (PicardConfig, (),
                     {"tolerance": 1e-10, "max_iterations": 1000, "divergence_bound": 1e9}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_made_by_position_or_keyword_with_its_defaults(name):
    cls, given, defaults = RECORDS[name]
    by_position = cls(*given)
    by_keyword = cls(**dict(zip(cls._fields, given)))
    assert by_position == by_keyword and type(by_keyword) is cls
    assert cls._fields[len(given):] == tuple(defaults)
    assert tuple(by_position) == (*given, *defaults.values())
    assert cls(*given, *defaults.values()) == by_position


@pytest.mark.parametrize("name", RECORDS)
def test_replace_changes_one_field_and_keeps_the_others(name):
    cls, given, defaults = RECORDS[name]
    record = cls(*given)
    field = cls._fields[0]
    value = 0.5 if name == "PicardConfig" else "other"
    derived = record._replace(**{field: value})
    assert type(derived) is cls and getattr(derived, field) == value
    assert derived[1:] == record[1:] and record == cls(*given)


def test_a_config_is_checked_when_replaced_too():
    with pytest.raises(DomainError, match=r"^max_iterations must be at least 1, got 0$"):
        PicardConfig()._replace(max_iterations=0)


@pytest.mark.parametrize("call, message", [
    (lambda: PicardConfig(0.0), "tolerance must be positive, got 0.0"),
    (lambda: PicardConfig(tolerance=math.nan), "tolerance must be positive, got nan"),
    (lambda: PicardConfig(max_iterations=0), "max_iterations must be at least 1, got 0"),
    (lambda: PicardConfig(1e-10, 10.0), "max_iterations must be an int, got 10.0"),
    (lambda: PicardConfig(divergence_bound=math.inf),
     "divergence_bound must be finite and positive, got inf"),
    (lambda: SimulationFunction(lambda t, s: s - t, sequence_axiom="strict"),
     "unknown sequence axiom 'strict'"),
    (lambda: CClassFunction(lambda s, t: s - t, c_g=-1.0),
     "c_g must be a finite nonnegative real, got -1.0"),
    (lambda: CClassFunction(lambda s, t: s - t, c_g=math.inf),
     "c_g must be a finite nonnegative real, got inf"),
    (lambda: CClassFunction(lambda s, t: s - t, c_g="a"),
     "c_g must be a finite nonnegative real, got 'a'"),
    (lambda: CClassFunction(lambda s, t: s - t, c_g=None),
     "c_g must be a finite nonnegative real, got None"),
    (lambda: BVPProblem(rhs_zero, 1), "grid size must be at least 2, got 1"),
    (lambda: BVPProblem(rhs_zero, n=3), "grid size must be even, got 3"),
    (lambda: BVPProblem(rhs_zero, n=4.0), "grid size n must be an int, got 4.0"),
    (lambda: BVPProblem(rhs_zero, 4, 0.0), "tolerance must be positive, got 0.0"),
], ids=["zero tolerance", "nan tolerance", "no iterations", "a float budget",
        "an infinite bound", "an unknown axiom", "a negative c_g", "an infinite c_g",
        "a string c_g", "no c_g",
        "one subinterval", "an odd grid", "a float grid", "a zero grid tolerance"])
def test_each_construction_error_names_its_field(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


def test_a_family_member_takes_its_name_and_extra_fields_by_keyword_only():
    def fn(t, s):
        return s - t

    for cls, extra in ((Family, {}), (GeraghtyBeta, {}), (AlphaFunction, {}),
                       (SimulationFunction, {"sequence_axiom": "classic"}),
                       (CClassFunction, {"c_g": 0.0})):
        member = cls(fn)
        assert (member.fn, member.name) == (fn, "f")
        assert all(getattr(member, key) == value for key, value in extra.items())
        with pytest.raises(TypeError):
            cls(fn, "named")
    zeta = SimulationFunction(fn, name="z", sequence_axiom="roldan")
    g = CClassFunction(fn, c_g=0.25, name="g")
    assert (zeta.name, zeta.sequence_axiom, g.name, g.c_g) == ("z", "roldan", "g", 0.25)


def test_a_problem_derives_its_nodes_from_its_grid_size():
    problem = BVPProblem(rhs_zero)
    assert (problem.rhs, problem.n, problem.tolerance, problem.gate, problem.name) \
        == (rhs_zero, 100, 1e-8, None, "bvp")
    for given in (BVPProblem(rhs_zero, 4, 1e-6, np.minimum, "p"),
                  BVPProblem(rhs=rhs_zero, n=4, tolerance=1e-6, gate=np.minimum, name="p")):
        assert (given.rhs, given.n, given.tolerance, given.gate, given.name) \
            == (rhs_zero, 4, 1e-6, np.minimum, "p")
        assert given.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert given._complement.tolist() == [1.0, 0.75, 0.5, 0.25, 0.0]


def test_a_run_config_starts_at_the_field_defaults():
    config = RunConfig()
    assert vars(config) == {attr: default for _, _, attr, _, default in _FIELDS}
    config.seed = 3  # the CLI's --seed sets it after the parse
    assert RunConfig().seed == 42


def test_no_two_reports_share_a_mutable_default():
    for cls in (VerificationReport, UniquenessReport):
        for default in cls._field_defaults.values():
            hash(default)  # a default that is shared is immutable
    first, second = (uniqueness_probe(lambda x: 0.5 * x, [1.0, 2.0], PicardConfig(),
                                      scalar_metric) for _ in range(2))
    for field in UniquenessReport._fields:
        assert getattr(first, field) == getattr(second, field)
        assert getattr(first, field) is not getattr(second, field)
