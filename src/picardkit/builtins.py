"""Named builtin functions, mappings, and bundles.

These are the catalog entries the batch front-end can select by name, plus
the standard probe sets the verifiers use when the caller supplies none.
"""

from __future__ import annotations

import math
import types
from typing import Callable, Optional

import numpy as np

from .bvp import BVPProblem, bvp_operator
from .errors import DomainError
from .framework import (AlphaFunction, CClassFunction, ContractionBundle,
                        GeraghtyBeta, SimulationFunction)
from .metrics import Point
from .sampling import probe_pair


# --------------------------------------------------------------------------
# simulation functions

def zeta1(lam: float = 0.5) -> SimulationFunction:
    """``zeta(t, s) = lam * s - t`` with 0 < lam < 1."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"zeta1 needs lam in (0, 1), got {lam}")
    return SimulationFunction(lambda t, s: lam * s - t, name=f"zeta1({lam!r})")


def zeta2(phi: Optional[Callable[[float], float]] = None) -> SimulationFunction:
    """``zeta(t, s) = s * phi(s) - t`` for a gain ``phi`` into [0, 1);
    defaults to ``phi(s) = 1 / (1 + s)``."""
    gain = phi if phi is not None else (lambda s: 1.0 / (1.0 + s))
    return SimulationFunction(lambda t, s: s * gain(s) - t, name="zeta2")


def zeta3(psi: Optional[Callable[[float], float]] = None) -> SimulationFunction:
    """``zeta(t, s) = s - psi(s) - t`` for a continuous ``psi >= 0``
    vanishing only at 0; defaults to ``psi(s) = s / (1 + s)``."""
    offset = psi if psi is not None else (lambda s: s / (1.0 + s))
    return SimulationFunction(lambda t, s: s - offset(s) - t, name="zeta3")


def zeta_example31() -> SimulationFunction:
    """The ``(8/9) s - t`` member of the zeta1 family."""
    return zeta1(8.0 / 9.0)


def zeta_bvp() -> SimulationFunction:
    """The ``(1/4) s - t`` member of the zeta1 family, matched to the
    boundary-value operator's 1/8 contraction constant."""
    return zeta1(0.25)


# --------------------------------------------------------------------------
# C-class functions

def cclass_a(r: float = 0.0) -> CClassFunction:
    """``G(s, t) = s - t`` with benchmark ``c_g = r >= 0``."""
    r = float(r)
    return CClassFunction(lambda s, t: s - t, c_g=r, name=f"cclass_a({r!r})")


def cclass_b() -> CClassFunction:
    """``G(s, t) = s - (2 + t) t / (1 + t)`` with benchmark 0."""
    return CClassFunction(lambda s, t: s - (2.0 + t) * t / (1.0 + t),
                          c_g=0.0, name="cclass_b")


def cclass_c(k: float = 1.0, r: float = 2.0) -> CClassFunction:
    """``G(s, t) = s / (1 + k t)`` for k >= 1 with benchmark ``r / (1 + k)``
    for r >= 2."""
    k = float(k)
    r = float(r)
    if k < 1.0:
        raise DomainError(f"cclass_c needs k >= 1, got {k}")
    if r < 2.0:
        raise DomainError(f"cclass_c needs r >= 2, got {r}")
    return CClassFunction(lambda s, t: s / (1.0 + k * t), c_g=r / (1.0 + k),
                          name=f"cclass_c({k!r}, {r!r})")


# --------------------------------------------------------------------------
# Geraghty gains and admissibility weights

def beta_reciprocal() -> GeraghtyBeta:
    """``beta(t) = 1 / (1 + t)``. Note beta(0) = 1 touches the top of the
    Geraghty range; the range check reports it."""
    return GeraghtyBeta(lambda t: 1.0 / (1.0 + t), name="beta_reciprocal")


def beta_constant(value: float = 0.5) -> GeraghtyBeta:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise DomainError(f"constant beta needs a value in [0, 1), got {value}")
    return GeraghtyBeta(lambda t: np.full(np.shape(t), value),
                        name=f"beta_constant({value!r})")


def alpha_one() -> AlphaFunction:
    return AlphaFunction(lambda x, y: 1.0, name="alpha_one")


def alpha_box(low: float = 0.0, high: float = 1.0) -> AlphaFunction:
    """Indicator of the box [low, high]^2: 1 when both arguments lie inside;
    elementwise on arrays."""
    low = float(low)
    high = float(high)
    return AlphaFunction(
        lambda x, y: np.where((low <= x) & (x <= high) & (low <= y) & (y <= high), 1.0, 0.0),
        name=f"alpha_box({low!r}, {high!r})")


def alpha_from_gate(problem: BVPProblem) -> AlphaFunction:
    """Weight 1 on grid-function pairs whose gate is positive at every node
    (always 1 under the default open gate)."""
    def weight(x: Point, y: Point) -> float:
        return 1.0 if np.all(problem.gate_values(x, y) > 0.0) else 0.0
    return AlphaFunction(weight, name="alpha_gate")


# --------------------------------------------------------------------------
# mappings

def example31_map(x: Point) -> Point:
    """Scalar map: ``x / 3`` on [0, 1], ``3 x`` elsewhere; elementwise on
    arrays."""
    if getattr(x, "ndim", 0):
        return np.where((0.0 <= x) & (x <= 1.0), x / 3.0, 3.0 * x)
    x = float(x)
    return x / 3.0 if 0.0 <= x <= 1.0 else 3.0 * x


def affine_map(a: float, b: float) -> Callable[[float], float]:
    a = float(a)
    b = float(b)
    return lambda x: a * float(x) + b


def map_by_name(spec: str) -> tuple[Callable[[Point], Point], str]:
    """Resolve a mapping selector: ``example31`` or ``affine:a:b``."""
    if spec == "example31":
        return example31_map, "example31"
    if spec.startswith("affine:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"affine selector needs 'affine:a:b', got {spec!r}")
        try:
            a, b = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad affine coefficients in {spec!r}") from exc
        return affine_map(a, b), spec
    raise DomainError(f"unknown mapping {spec!r}")


# --------------------------------------------------------------------------
# right-hand sides for the boundary-value solver

def rhs_zero(t, x):
    return np.zeros_like(np.asarray(t, dtype=float))


def rhs_pi2sin(t, x):
    return math.pi ** 2 * np.sin(math.pi * np.asarray(t, dtype=float))


def rhs_sin_plus_one(t, x):
    return np.sin(np.asarray(x, dtype=float)) + 1.0


# numpy functions an ``expr:`` right-hand side may call
_EXPR_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs",
                   "minimum", "maximum", "tanh")
_EXPR_NAMES = frozenset(("t", "x", "pi") + _EXPR_FUNCTIONS)


def _code_names(code: types.CodeType) -> set[str]:
    """Every global and attribute name ``code`` and its nested code use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def compile_rhs_expression(body: str) -> Callable:
    """Compile the body of an ``expr:`` right-hand side into ``rhs(t, x)``.
    Raises :class:`DomainError` unless it is one Python expression whose
    names are all among t, x, pi and the numpy functions in
    ``_EXPR_FUNCTIONS`` (so no attribute access), and one evaluation on a
    probe (t and x float arrays of 5 nodes in [0, 1]) gives a real scalar or
    a real array of t's shape. Non-finite probe values pass: the solver
    rejects them where they occur."""
    try:
        code = compile(body, "<rhs-expr>", "eval")
    except (SyntaxError, ValueError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise DomainError(f"expression {body!r} is not valid Python: {reason}") from exc
    unknown = sorted(_code_names(code) - _EXPR_NAMES)
    if unknown:
        raise DomainError(f"expression {body!r} uses unknown name(s) "
                          f"{', '.join(unknown)}; allowed: {', '.join(sorted(_EXPR_NAMES))}")
    namespace = {name: getattr(np, name) for name in _EXPR_FUNCTIONS}
    namespace["pi"] = math.pi

    def rhs(t, x):
        local = dict(namespace)
        local["t"] = np.asarray(t, dtype=float)
        local["x"] = np.asarray(x, dtype=float)
        return eval(code, {"__builtins__": {}}, local)

    t = np.linspace(0.0, 1.0, 5)
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(rhs(t, t[::-1]))
    except Exception as exc:  # any failure here would recur in the solver
        raise DomainError(f"expression {body!r} fails on arrays: "
                          f"{type(exc).__name__}: {exc}") from exc
    if value.dtype.kind not in "biuf" or value.shape not in ((), t.shape):
        raise DomainError(f"expression {body!r} gives {value.dtype} of shape "
                          f"{value.shape}, not real values of t's shape")
    return rhs


def rhs_by_name(spec: str) -> tuple[Callable, str]:
    """Resolve an rhs selector: ``zero``, ``const:c``, ``pi2sin``,
    ``sin_plus_one``, or the expression hook ``expr:<python in t, x>``."""
    if spec == "zero":
        return rhs_zero, "zero"
    if spec == "pi2sin":
        return rhs_pi2sin, "pi2sin"
    if spec == "sin_plus_one":
        return rhs_sin_plus_one, "sin_plus_one"
    if spec.startswith("const:"):
        try:
            c = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad constant in {spec!r}") from exc
        return (lambda t, x, _c=c: np.full_like(np.asarray(t, dtype=float), _c)), spec
    if spec.startswith("expr:"):
        return compile_rhs_expression(spec.split(":", 1)[1]), spec
    raise DomainError(f"unknown rhs {spec!r}")


# --------------------------------------------------------------------------
# bundles

def example31_bundle() -> ContractionBundle:
    """Scalar reference bundle: the piecewise x/3-or-3x map, the unit-box
    weight, zeta1(8/9), the reciprocal gain, and subtraction with benchmark
    0. Carries a declared caveat: beta(0) = 1 violates the open Geraghty
    range while the contraction inequality itself is unaffected (the
    left-hand side is zeta(0, 0) = 0 there)."""
    return ContractionBundle(
        mapping=example31_map,
        alpha=alpha_box(0.0, 1.0),
        beta=beta_reciprocal(),
        zeta=zeta_example31(),
        g=cclass_a(0.0),
        name="example31_bundle",
        caveats=(("geraghty",
                  "beta(0) = 1 touches the top of the Geraghty range; the "
                  "contraction verdict is unaffected because the inequality "
                  "reads zeta(0, 0) = 0 >= 0 there. Both facts are reported."),))


def bvp_bundle(problem: BVPProblem) -> ContractionBundle:
    """Grid-function bundle for the boundary-value operator: gate-induced
    weight, zeta1(1/4), constant gain 1/2, subtraction with benchmark 0."""
    return ContractionBundle(
        mapping=bvp_operator(problem),
        alpha=alpha_from_gate(problem),
        beta=beta_constant(0.5),
        zeta=zeta_bvp(),
        g=cclass_a(0.0),
        name="bvp_bundle")


def bundle_by_name(name: str, problem: BVPProblem | None = None) -> ContractionBundle:
    if name == "example31":
        return example31_bundle()
    if name == "bvp":
        if problem is None:
            raise DomainError("the bvp bundle needs a grid carrier and a problem definition")
        return bvp_bundle(problem)
    raise DomainError(f"unknown bundle {name!r}")


# --------------------------------------------------------------------------
# standard probe sets

def default_sequence_probes(mode: str = "classic",
                            length: int = 200) -> list[tuple[np.ndarray, np.ndarray]]:
    """Equal-limit positive probe pairs for the limsup check. The roldan
    variant keeps t_n strictly below s_n."""
    if mode == "roldan":
        return [
            probe_pair(1.0, length, t_offset=-1.0, s_offset=1.0, start=2),
            probe_pair(2.0, length, t_offset=-0.5, s_offset=0.5),
            probe_pair(0.5, length, t_offset=-0.25, s_offset=0.0, start=2),
        ]
    return [
        probe_pair(1.0, length, t_offset=1.0, s_offset=1.0),
        probe_pair(2.0, length, t_offset=0.0, s_offset=0.0),
        probe_pair(0.5, length, t_offset=-0.25, s_offset=0.25, start=2),
    ]


def default_beta_probes(length: int = 200) -> list[np.ndarray]:
    """Probes for the Geraghty limit property: arguments diverging, tending
    to zero, and tending to a positive limit."""
    k = np.arange(1, length + 1, dtype=float)
    return [k, 1.0 / k, 1.0 + 1.0 / k]


# --------------------------------------------------------------------------
# catalog listing

_CATALOG = """\
builtin catalog

simulation functions
  zeta1(lambda)        zeta(t, s) = lambda*s - t          0 < lambda < 1
  zeta2(phi)           zeta(t, s) = s*phi(s) - t          default phi(s) = 1/(1+s)
  zeta3(psi)           zeta(t, s) = s - psi(s) - t        default psi(s) = s/(1+s)
  zeta_example31       zeta1 with lambda = 8/9
  zeta_bvp             zeta1 with lambda = 1/4

c-class functions
  cclass_a(r): s - t, c_g = r                             r >= 0
  cclass_b: s - (2+t)t/(1+t), c_g = 0
  cclass_c(k, r): s/(1 + k*t), c_g = r/(1+k)              k >= 1, r >= 2

geraghty gains
  beta_reciprocal      beta(t) = 1/(1+t)
  beta_constant(v)     beta(t) = v                        0 <= v < 1

admissibility weights
  alpha_one            constant 1
  alpha_box(lo, hi)    indicator of [lo, hi]^2
  order:natural        indicator of x <= y on reals
  order:pointwise      indicator of nodewise <= on grid functions
  alpha_gate           gate-induced weight on grid functions

mappings
  example31            x/3 on [0, 1], 3x elsewhere
  affine:a:b           x -> a*x + b
  bvp operator         kernel-weighted quadrature of f(s, x(s))

right-hand sides (solve-bvp)
  zero | const:c | pi2sin | sin_plus_one | expr:<python in t, x>

bundles
  example31_bundle     example31 map, alpha_box, zeta1(8/9), beta_reciprocal, cclass_a(0)
  bvp_bundle           bvp operator, alpha_gate, zeta1(1/4), beta_constant(0.5), cclass_a(0)
"""


def catalog_text() -> str:
    """Static text listing of every named builtin."""
    return _CATALOG
