"""Sparse optimal control of a three-field tumor-growth phase-field system.

Forward, linearized and adjoint PDE solvers, proximal-gradient optimization
under box constraints with L1 / directional sparsity, sparsity certificates
and an independent verification harness.
"""

__version__ = "0.1.0"

from .fields import (Field, GridSpec, ShapeMismatch, SpaceTimeField,
                     StateTriple, TimeGrid, Trajectory, grid1d, grid2d, inner,
                     slice_norms)
from .model import (BoxBounds, InterpolantSpec, ModelParams, PotentialSpec,
                    ValidationReport, logarithmic_potential,
                    regular_potential, smoothstep7, validate_setup)
from .optim import (GradientBundle, OptimizeResult, StepsizeCollapse,
                    ThresholdReport, gradient_bundle, kappa_sweep,
                    proximal_gradient_solve, reduced_cost, support_measure,
                    tracking_term, zero_control_threshold)
from .presets import (Problem, Targets, make_problem, preset_names,
                      preset_problem, preset_settings)
from .solver import (AdjointTriple, ControlPair, LinearizedSpec,
                     LinearSolveError, NewtonDivergence, SeparationLoss,
                     SolveFailure, solve_adjoint, solve_linearized,
                     solve_state, solve_states, state_balance_report)
from .sparsity import (BadBounds, CertificateReport, SparsityMode,
                       certificate, eval_g, prox, select_subgradient)
from .verify import CheckReport, separation_monitor, verify_checks
