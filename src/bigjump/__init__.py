"""Heavy-tail Levy process toolkit: simulation, regular-variation calculus,
cadlag path metrics and one-big-jump Monte Carlo diagnostics.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the layers it touches: ``bigjump validate`` never loads
``cadlag`` or, for most kinds, ``diagnostics``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_NAMES = {
    **dict.fromkeys(("CadlagPath", "j1_distance", "j1_within", "one_step_approx",
                     "sup_norm", "uniform_distance"), "cadlag"),
    **dict.fromkeys(("ConditionalDistanceCurve", "HillEstimate", "RatioEstimate",
                     "TailEstimate", "TrendPoint", "analytic_prediction", "breiman_ratio",
                     "double_jump_trend", "hill", "maximal_product_bound",
                     "one_big_jump_curve", "tail_equivalence"), "diagnostics"),
    **dict.fromkeys(("RunManifest", "ValidationError", "config_hash", "run", "validate"),
                    "experiments"),
    **dict.fromkeys(("ConstantIntegrand", "DeterministicIntegrand", "ExpOUIntegrand",
                     "IntegrandSpec", "LevyModel", "SimConfig", "assemble_levy_path",
                     "batch_integral_functionals", "one_jump_integral", "simulate_big_jumps",
                     "simulate_integrand", "simulate_levy_path", "simulate_small_part",
                     "stochastic_integral"), "levy_sim"),
    **dict.fromkeys(("RegVarMeasure", "ScalingSequence", "mu_tail",
                     "weighted_one_step_mass"), "regvar"),
}
_MODULES = frozenset(_NAMES.values())
__all__ = sorted(_NAMES)


def __getattr__(name: str):
    if name in _NAMES:
        return getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_NAMES, *_MODULES})
