"""picardkit: sampling-based verification of generalized contraction
hypotheses, Picard iteration with convergence diagnostics, and a
Green's-kernel solver for two-point boundary-value problems.

The package namespace is lazy: a public name imports its module when it is
first read, so ``import picardkit`` loads no submodule and no numpy. A
submodule names the modules it loads on first use once, at its top, as
:class:`_Later` handles."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the module that defines them; a module that lists its
# own name gives the submodule itself
_MODULES = {
    "errors": ("DimensionError", "DomainError"),
    "metrics": ("GRID_EPS", "SCALAR_EPS", "Point", "as_grid_function", "elementwise", "nodes",
                "rowwise", "save_grid_csv", "scalar_metric", "sup_metric"),
    "report": ("FAIL", "HYPOTHESIS_UNMET", "PASS", "VerificationReport", "Witness",
               "render_text", "report_rows", "write_report_csv"),
    "framework": ("AlphaFunction", "CClassFunction", "ContractionBundle", "GeraghtyBeta",
                  "SimulationFunction", "check_alpha_admissible", "check_cclass",
                  "check_geraghty", "check_simulation_pointwise", "check_simulation_sequences",
                  "check_triangular_alpha", "verify_contraction"),
    "picard": ("CONVERGED", "DIVERGED", "MAX_ITERATIONS", "IterationTrace", "PicardConfig",
               "UniquenessReport", "check_alpha_orbit", "check_ratio_bound", "gaps_monotone",
               "picard_iterate", "uniqueness_probe"),
    "posets": ("PartialOrder", "alpha_from_order", "check_increasing", "check_initial_point",
               "check_order_axioms", "natural_order", "pointwise_order"),
    "bvp": ("BVPProblem", "BVPSolution", "CONTRACTION_FACTOR", "bvp_operator",
            "check_gate_limit", "check_gate_propagation", "check_operator_contraction",
            "check_rhs_displacement_bound", "green_kernel", "green_row_integral",
            "integral_operator", "row_integral_quadrature", "second_difference_residual",
            "solve_bvp"),
    "builtins": ("builtins",),
    "sampling": ("sampling",),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}
__all__ = tuple(_MODULE_OF)  # so ``from picardkit import *`` binds the table


class _Later:
    """The submodule ``name``, imported at the first read of one of its
    names. Every read goes through ``import_module``, so a name patched on
    the module is seen, and ``sys.modules`` holds only modules that ran."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(_import_module(f".{self._name}", __name__), attr)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # so ``from picardkit import cli`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = _import_module(f".{module}", __name__)
    return found if name == module else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
