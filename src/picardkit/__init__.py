"""picardkit: sampling-based verification of generalized contraction
hypotheses, Picard iteration with convergence diagnostics, and a
Green's-kernel solver for two-point boundary-value problems."""

from .errors import DimensionError, DomainError, OracleError
from .metrics import (Point, as_grid_function, load_grid_csv, nodes, rowwise,
                      save_grid_csv, scalar_metric, sup_metric)
from .report import (FAIL, HYPOTHESIS_UNMET, PASS, VerificationReport,
                     Witness, make_report, merge_reports, render_text,
                     report_rows, write_report_csv)
from .framework import (GRID_EPS, SCALAR_EPS, AlphaFunction, CClassFunction,
                        ContractionBundle, GeraghtyBeta, SimulationFunction,
                        check_alpha_admissible, check_cclass, check_geraghty,
                        check_simulation_pointwise, check_simulation_sequences,
                        check_triangular_alpha, verify_contraction)
from .picard import (CONVERGED, DIVERGED, MAX_ITERATIONS, IterationTrace,
                     PicardConfig, UniquenessReport, check_alpha_orbit,
                     check_ratio_bound, gaps_monotone, picard_iterate,
                     uniqueness_probe)
from .posets import (PartialOrder, alpha_from_order, check_increasing,
                     check_initial_point, check_order_axioms, natural_order,
                     pointwise_order)
from .bvp import (BVPProblem, BVPSolution, CONTRACTION_FACTOR, bvp_operator,
                  check_gate_limit, check_gate_propagation,
                  check_operator_contraction, check_rhs_displacement_bound,
                  finite_difference_solve, gate_accepts_start, green_kernel,
                  green_row_integral, integral_operator,
                  row_integral_quadrature, second_difference_residual,
                  solve_bvp)
from . import builtins
from . import sampling

__version__ = "0.1.0"
