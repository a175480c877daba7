"""Numerical laboratory for one-dimensional jump SDEs with non-Lipschitz,
super-linear coefficients.

The package splits into model building blocks (`model`), reproducible noise
(`noise`), path integration (`integrator`), inequality analysis
(`analysis`), condition checking (`verifier`), Monte Carlo experiments
(`harness`), and a config-driven CLI (`cli`, `config`, `exprs`).  Each
loads the first time one of its names is read, not with the package.
"""

import os
from importlib import import_module

# Set before the first submodule loads numpy: OpenBLAS otherwise starts a
# worker thread per core that busy-waits, and on a small machine it takes
# CPU from the import and the run itself, while the package's only BLAS
# calls (1-D dots, one per row of mark values) gain nothing from threads.
# A value the caller set is kept, and once numpy is loaded the variable no
# longer has any effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": ("OmegaTransform", "PsiFamily", "a_sequence", "bihari_bound",
                 "moment_bound", "nonconfluence_constants", "omega_build",
                 "p_alpha", "phi_growth", "psi_build", "r_inequality_check",
                 "w_integral"),
    "config": ("parse_config", "resolve_seed"),
    "errors": ("AssumptionViolationError", "CatalogError", "ConfigError",
               "DomainError", "ExpressionError", "NumericalDomainError",
               "ResourceLimitError", "TransformRangeError", "UsageError"),
    "exprs": ("Expression", "parse_expression", "parse_scalar"),
    "harness": ("ExperimentConfig", "ExperimentSummary", "run_convergence",
                "run_experiment", "run_explosion", "run_nonconfluence",
                "run_uniqueness"),
    "integrator": ("PathResult", "SchemeConfig", "dump_path_csv",
                   "first_exit_time", "ito_levy_apply", "simulate",
                   "simulate_paths"),
    "model": ("DEFAULT_SEED", "GAMMA", "GROWTH_CATALOG", "MODULUS_CATALOG",
              "TAMING_MODES", "Band", "CoefficientSet", "GrowthFunction",
              "MarkMeasure", "Modulus", "builtin_growth", "builtin_modulus",
              "lebesgue", "preset", "scale_modulus"),
    "noise": ("NoiseBatch", "derive_path_seed", "sample_batch",
              "sample_noise", "truncate_small_jumps"),
    "verifier": ("NO_VIOLATION", "VIOLATED", "AssumptionReport",
                 "ConditionResult", "check_corollary_conditions",
                 "check_growth", "check_local_conditions", "check_modulus",
                 "check_nonconfluence_conditions", "designated_checks",
                 "format_report_table", "growth_ratio_supremum",
                 "reports_to_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # PEP 562: called only for names not yet in the module's namespace
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS, "cli"})
