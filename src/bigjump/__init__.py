"""Heavy-tail Levy process toolkit: simulation, regular-variation calculus,
cadlag path metrics and one-big-jump Monte Carlo diagnostics."""

__version__ = "0.1.0"

from .cadlag import (CadlagPath, j1_distance, j1_within, one_step_approx, sup_norm,
                     uniform_distance)
from .diagnostics import (ConditionalDistanceCurve, HillEstimate, RatioEstimate,
                          TailEstimate, TrendPoint, analytic_prediction,
                          breiman_ratio, double_jump_trend, hill,
                          maximal_product_bound, one_big_jump_curve,
                          tail_equivalence)
from .experiments import RunManifest, ValidationError, config_hash, run, validate
from .levy_sim import (ConstantIntegrand, DeterministicIntegrand, ExpOUIntegrand,
                       IntegrandSpec, LevyModel, SimConfig,
                       assemble_levy_path, batch_integral_functionals,
                       one_jump_integral, simulate_big_jumps, simulate_integrand,
                       simulate_levy_path, simulate_small_part, stochastic_integral)
from .regvar import RegVarMeasure, ScalingSequence, mu_tail, weighted_one_step_mass
