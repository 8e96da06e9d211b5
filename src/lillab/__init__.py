"""Numerical laboratory for small-time iterated-logarithm scaling of
degenerate stochastic systems: simulation, rescaling, variational limit
objects, Monte Carlo scale sweeps, and boundary regularity certificates."""

from .sde import (DEATH, ExplosivePath, LinearSpec, NoisePath, NumericalFailure,
                  PolynomialDrift, SdeSystem, brownian_path, path_distance,
                  path_from_csv, path_from_json_dict, path_texts,
                  path_to_csv, path_to_json_dict, simulate_sde)
from .scaling import (AsymptoticIndex, ContractionFamily, PropertyReport,
                      check_asymptotic_index, check_contraction_family,
                      driving_scale, eval_index, power_log_value, rate_scale,
                      rescale_path, rescaled_sde_system,
                      transformed_coefficients)
from .controls import (ControlGrid, LimitOdeProblem, cramer_transform,
                       limit_set_distance, limit_set_sample,
                       linear_kernel_oracle, solve_control_ode)
from .extremals import (ExtremalResult, OptimizerConfig,
                        QuadraticMissFunctional, RunningMaxAbsFunctional,
                        TerminalLinearFunctional, adjoint_gradient,
                        fd_gradient, optimize_extremal)
from .examples import (ExampleSystem, coefficient_deviation, describe_example,
                       deviation_table, functional_value, get_example,
                       ik_reference_constant, list_examples)
from .lil import (LilExperimentConfig, LilReport, run_lil_experiment,
                  running_extremes)
from .regularity import (DomainSpec, PolygonApprox, ReachabilityReport,
                         RegularityVerdict, cone_criterion,
                         face_parallel_check, polygonalize, reach_target,
                         sphere_criterion)

__version__ = "0.1.0"
