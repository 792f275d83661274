"""Named builtin functions, mappings, and bundles.

:data:`BUILTINS` is the table of every choice a config selector field can
name; :func:`resolve` builds the selected object, and :func:`catalog_text`
lists the table. The module also holds the standard probe sets the verifiers
use when the caller supplies none. The modules a factory's object comes
from load when it is called, so the table itself loads none of them but
:mod:`~picardkit.metrics`, which every mode loads.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _Later
from .errors import DomainError
from .metrics import (GRID_EPS, SCALAR_EPS, Point, _real_or_array, elementwise, scalar_metric,
                      sup_metric)

bvp, framework, posets, sampling = map(_Later, ("bvp", "framework", "posets", "sampling"))


# --------------------------------------------------------------------------
# simulation functions

def zeta1(lam: float = 0.5) -> framework.SimulationFunction:
    """zeta(t, s) = lam*s - t, for 0 < lam < 1."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"zeta1 needs lam in (0, 1), got {lam}")
    return framework.SimulationFunction(elementwise(lambda t, s: lam * s - t),
                                        name=f"zeta1({lam!r})")


# --------------------------------------------------------------------------
# C-class functions

def cclass_a(r: float = 0.0) -> framework.CClassFunction:
    """G(s, t) = s - t, with benchmark c_g = r >= 0."""
    r = float(r)
    return framework.CClassFunction(elementwise(lambda s, t: s - t), c_g=r,
                                    name=f"cclass_a({r!r})")


def cclass_c(k: float = 1.0, r: float = 2.0) -> framework.CClassFunction:
    """G(s, t) = s/(1 + k*t), with benchmark c_g = r/(1+k), for k >= 1, r >= 2."""
    k = float(k)
    r = float(r)
    if not 1.0 <= k < math.inf:
        raise DomainError(f"cclass_c needs a finite k >= 1, got {k}")
    if not 2.0 <= r < math.inf:
        raise DomainError(f"cclass_c needs a finite r >= 2, got {r}")
    return framework.CClassFunction(elementwise(lambda s, t: s / (1.0 + k * t)),
                                    c_g=r / (1.0 + k), name=f"cclass_c({k!r}, {r!r})")


# --------------------------------------------------------------------------
# Geraghty gains and admissibility weights

def beta_reciprocal() -> framework.GeraghtyBeta:
    """beta(t) = 1/(1+t); beta(0) = 1 touches the top of the Geraghty range."""
    return framework.GeraghtyBeta(elementwise(lambda t: 1.0 / (1.0 + t)), name="beta_reciprocal")


def beta_constant(value: float = 0.5) -> framework.GeraghtyBeta:
    """beta(t) = value, for 0 <= value < 1."""
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise DomainError(f"constant beta needs a value in [0, 1), got {value}")
    return framework.GeraghtyBeta(elementwise(lambda t: np.full(np.shape(t), value)),
                                  name=f"beta_constant({value!r})")


def alpha_box(low: float = 0.0, high: float = 1.0) -> framework.AlphaFunction:
    """alpha(x, y) = 1 on [low, high]^2, else 0; elementwise on arrays."""
    low = float(low)
    high = float(high)
    return framework.AlphaFunction(elementwise(
        lambda x, y: np.where((low <= x) & (x <= high) & (low <= y) & (y <= high), 1.0, 0.0)),
        name=f"alpha_box({low!r}, {high!r})")


# --------------------------------------------------------------------------
# mappings

@elementwise
def example31_map(x: Point) -> Point:
    """Scalar map: ``x / 3`` on [0, 1], ``3 x`` elsewhere; elementwise on
    arrays, and a Python float for a real."""
    return _real_or_array(np.where((0.0 <= x) & (x <= 1.0), x / 3.0, 3.0 * x))


def affine_map(a: float, b: float) -> Callable[[Point], Point]:
    """x -> a*x + b; elementwise on arrays."""
    a = float(a)
    b = float(b)
    return elementwise(lambda x: a * x + b)


# --------------------------------------------------------------------------
# right-hand sides for the boundary-value solver, each elementwise. One that
# ignores x gives t's shape, which BVPProblem.rhs_at spreads over x's shape,
# as it does a scalar

@elementwise
def rhs_zero(t, x):
    return np.zeros(np.shape(t))


@elementwise
def rhs_pi2sin(t, x):
    return math.pi ** 2 * np.sin(math.pi * np.asarray(t, dtype=float))


@elementwise
def rhs_sin_plus_one(t, x):
    return np.sin(np.asarray(x, dtype=float)) + 1.0


def rhs_const(c: float) -> Callable:
    c = float(c)
    return elementwise(lambda t, x: np.full(np.shape(t), c))


# numpy functions an ``expr:`` right-hand side may call
_EXPR_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs",
                   "minimum", "maximum", "tanh")
_EXPR_NAMES = frozenset(("t", "x", "pi") + _EXPR_FUNCTIONS)


def compile_rhs_expression(body: str) -> Callable:
    """Compile the body of an ``expr:`` right-hand side into ``rhs(t, x)``.
    Raises :class:`DomainError` unless it is one Python expression whose
    names (attributes and names in nested code included) are all among t,
    x, pi and the numpy functions in ``_EXPR_FUNCTIONS``, and one evaluation
    on a probe (t and x float arrays of 5 nodes in [0, 1]) gives a real
    scalar or a real array of t's shape. Integer literals become floats, so a
    power overflows at once instead of growing a huge integer. An index or an
    ``@`` reads across nodes, so an expression that subscripts or uses ``@``
    is rejected; every other one is :func:`~picardkit.metrics.elementwise`.
    Non-finite values pass, silently: the solver rejects them where they
    occur. The expression gets read-only t and x."""
    names, kinds = set(), set()  # read in the one walk that floats the ints
    try:
        tree = ast.parse(body, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                node.value = float(node.value)
            names.add(getattr(node, "id", getattr(node, "attr", "")))
            kinds.add(type(node))
        code = compile(tree, "<rhs-expr>", "eval")
    except (SyntaxError, ValueError, OverflowError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise DomainError(f"expression {body!r} is not valid Python: {reason}") from exc
    unknown = sorted(names - _EXPR_NAMES - {""})
    if unknown:
        raise DomainError(f"expression {body!r} uses unknown name(s) "
                          f"{', '.join(unknown)}; allowed: {', '.join(sorted(_EXPR_NAMES))}")
    if ast.Subscript in kinds or ast.MatMult in kinds:
        reason = ("subscripts, which an expr: body cannot: its integer literals are floats, "
                  "and an index" if ast.Subscript in kinds else
                  "uses @, which an expr: body cannot: a matrix product")
        raise DomainError(f"expression {body!r} {reason} reads across nodes")
    namespace = {name: getattr(np, name) for name in _EXPR_FUNCTIONS}
    namespace["pi"] = math.pi

    @elementwise
    def rhs(t, x):
        local = dict(namespace)
        for name, value in (("t", t), ("x", x)):  # read-only: a ufunc's out= cannot write them
            local[name] = np.asarray(value, dtype=float).view()
            local[name].flags.writeable = False
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, local)

    t = np.linspace(0.0, 1.0, 5)
    try:
        value = np.asarray(rhs(t, t[::-1]))
    except Exception as exc:  # any failure here would recur in the solver
        raise DomainError(f"expression {body!r} fails on arrays: "
                          f"{type(exc).__name__}: {exc}") from exc
    if value.dtype.kind not in "biuf" or value.shape not in ((), t.shape):
        raise DomainError(f"expression {body!r} gives {value.dtype} of shape "
                          f"{value.shape}, not real values of t's shape")
    return rhs


# --------------------------------------------------------------------------
# bundles

def example31_bundle() -> framework.ContractionBundle:
    """The scalar reference bundle, on the reals.

    The piecewise x/3-or-3x map, the unit-box weight, zeta1(8/9), the
    reciprocal gain, and subtraction with benchmark 0. Carries a declared
    caveat: beta(0) = 1 violates the open Geraghty range while the
    contraction inequality itself is unaffected (the left-hand side is
    zeta(0, 0) = 0 there)."""
    return framework.ContractionBundle(
        mapping=example31_map,
        alpha=alpha_box(0.0, 1.0),
        beta=beta_reciprocal(),
        zeta=zeta1(8.0 / 9.0),
        g=cclass_a(0.0),
        name="example31_bundle",
        caveats=(("geraghty", "geraghty/range",
                  "beta(0) = 1 touches the top of the Geraghty range; the "
                  "contraction verdict is unaffected because the inequality "
                  "reads zeta(0, 0) = 0 >= 0 there. Both facts are reported."),))


def bvp_bundle(problem: bvp.BVPProblem) -> framework.ContractionBundle:
    """The bundle of the boundary-value operator, on grid functions.

    The gate-induced weight alpha_gate, zeta1(1/4), constant gain 1/2,
    subtraction with benchmark 0."""
    return framework.ContractionBundle(
        mapping=bvp.bvp_operator(problem),
        alpha=bvp.alpha_from_gate(problem),
        beta=beta_constant(0.5),
        zeta=zeta1(0.25),
        g=cclass_a(0.0),
        name="bvp_bundle")


# --------------------------------------------------------------------------
# standard probe sets

PROBE_TERMS = 200  # the length of every default probe
# (limit, t_offset, s_offset, start) of each default probe pair, by sequence axiom
_SEQUENCE_PROBES = {"classic": ((1.0, 1.0, 1.0, 1), (2.0, 0.0, 0.0, 1), (0.5, -0.25, 0.25, 2)),
                    "roldan": ((1.0, -1.0, 1.0, 2), (2.0, -0.5, 0.5, 1), (0.5, -0.25, 0.0, 2))}


def default_sequence_probes(mode: str = "classic") -> list[tuple[np.ndarray, np.ndarray]]:
    """Equal-limit positive probe pairs of :data:`PROBE_TERMS` terms for
    the limsup check of the sequence axiom ``mode``, "classic" or "roldan";
    the roldan probes keep t_n strictly below s_n. Any other ``mode`` raises
    :class:`DomainError`."""
    if mode not in _SEQUENCE_PROBES:
        raise DomainError(f"unknown sequence axiom {mode!r}; choices: {', '.join(_SEQUENCE_PROBES)}")
    return [sampling.probe_pair(limit, PROBE_TERMS, t_offset, s_offset, start)
            for limit, t_offset, s_offset, start in _SEQUENCE_PROBES[mode]]


def default_beta_probes() -> list[np.ndarray]:
    """Probes of :data:`PROBE_TERMS` terms for the Geraghty limit property:
    arguments diverging, tending to zero, and tending to a positive limit."""
    k = np.arange(1, PROBE_TERMS + 1, dtype=float)
    return [k, 1.0 / k, 1.0 + 1.0 / k]


# --------------------------------------------------------------------------
# selector table and catalog listing

class Builtin(NamedTuple):
    """One choice of a config selector field (see :func:`lookup` for the
    selector forms); ``factory`` builds it from the argument strings, and
    ``carrier`` is the one carrier it fits (None: either)."""

    kind: str
    selector: str
    carrier: Optional[str]
    factory: Callable
    doc: str


BUILTINS = (
    Builtin("carrier", "interval", None, lambda: (scalar_metric, SCALAR_EPS), "reals, |x - y|"),
    Builtin("carrier", "grid", None, lambda: (sup_metric, GRID_EPS), "grid functions, sup metric"),
    Builtin("bundle", "example31", "interval", lambda problem: example31_bundle(),
            "example31_bundle: example31 map, alpha_box, zeta1(8/9), beta_reciprocal, "
            "cclass_a(0)"),
    Builtin("bundle", "bvp", "grid", bvp_bundle,
            "bvp_bundle: bvp operator, alpha_gate, zeta1(1/4), beta_constant(0.5), cclass_a(0)"),
    Builtin("beta", "reciprocal", None, beta_reciprocal, "beta_reciprocal"),
    Builtin("beta", "half", None, lambda: beta_constant(0.5), "beta_constant(0.5)"),
    Builtin("beta", "<v>", None, beta_constant, "beta_constant(v), 0 <= v < 1"),
    Builtin("order", "natural", "interval", lambda: posets.natural_order, "alpha = [x <= y]"),
    Builtin("order", "pointwise", "grid",
            lambda: posets.pointwise_order, "alpha = [x <= y nodewise]"),
    Builtin("map", "example31", None, lambda: example31_map, "x/3 on [0, 1], 3x elsewhere"),
    Builtin("map", "affine:a:b", None, affine_map, "x -> a*x + b"),
    Builtin("rhs", "zero", None, lambda: rhs_zero, "f = 0"),
    Builtin("rhs", "const:c", None, rhs_const, "f = c"),
    Builtin("rhs", "pi2sin", None, lambda: rhs_pi2sin, "f = pi^2 sin(pi t)"),
    Builtin("rhs", "sin_plus_one", None, lambda: rhs_sin_plus_one, "f = sin(x) + 1"),
    Builtin("rhs", "expr:body", None, compile_rhs_expression, "a Python expression in t and x"),
)


def _arguments(selector: str, spec: str) -> Optional[list[str]]:
    """The argument strings ``spec`` gives the choice ``selector``, or None
    when it names another choice."""
    if selector.startswith("<"):
        return [spec]
    head, *params = selector.split(":")
    prefix, colon, rest = spec.partition(":")
    if prefix != head or bool(colon) != bool(params):
        return None
    values = rest.split(":", len(params) - 1) if params else []
    if len(values) != len(params):
        raise DomainError(f"{head} selector needs {selector!r}, got {spec!r}")
    return values


def lookup(kind: str, spec: str, carrier: Optional[str] = None) -> tuple[Builtin, list[str]]:
    """The :data:`BUILTINS` entry of ``kind`` that ``spec`` selects, and its
    argument strings. A selector is a name; ``head:p1:...``, selected by
    ``head:`` and one argument per parameter; or ``<p>``, whose argument is
    the whole spec. Raises :class:`DomainError` when no entry matches, or
    when ``carrier`` is given and the entry fits only the other one."""
    for entry in BUILTINS:
        args = _arguments(entry.selector, spec) if entry.kind == kind else None
        if args is not None:
            break
    else:
        choices = ", ".join(e.selector for e in BUILTINS if e.kind == kind)
        raise DomainError(f"unknown {kind} {spec!r} (choices: {choices})")
    if carrier is not None and entry.carrier not in (None, carrier):
        raise DomainError(f"the {spec} {kind} needs the {entry.carrier} carrier")
    return entry, args


def resolve(kind: str, spec: str, carrier: Optional[str] = None, *context):
    """Build the choice :func:`lookup` finds from its arguments and
    ``context`` (the BVP problem, for bundles); a rejected argument raises
    :class:`DomainError`."""
    entry, args = lookup(kind, spec, carrier)
    try:
        return entry.factory(*args, *context)
    except ValueError as exc:
        raise DomainError(f"{kind} {spec!r}: {exc}") from exc


def catalog_text() -> str:
    """Listing of every :data:`BUILTINS` choice, by kind."""
    lines = ["builtin catalog", "",
             "config selectors, by field: carrier is [carrier] kind, bundle [bundle] name,",
             "beta [bundle] beta, order [order] name, map [iterate] map, rhs [bvp] rhs;",
             "[interval] or [grid] marks a choice that fits that carrier only"]
    for kind in dict.fromkeys(e.kind for e in BUILTINS):
        lines.append(f"  {kind}")
        lines += [f"    {e.selector:<14} {e.doc}" + (f"  [{e.carrier}]" if e.carrier else "")
                  for e in BUILTINS if e.kind == kind]
    return "\n".join(lines) + "\n"
