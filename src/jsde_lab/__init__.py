"""Numerical laboratory for one-dimensional jump SDEs with non-Lipschitz,
super-linear coefficients.

The package splits into model building blocks (`model`), reproducible noise
(`noise`), path integration (`integrator`), inequality analysis
(`analysis`), condition checking (`verifier`), Monte Carlo experiments
(`harness`), and a config-driven CLI (`cli`, `config`, `exprs`).
"""

import os

# Set before the first submodule loads numpy: OpenBLAS otherwise starts a
# worker thread per core that busy-waits, and on a small machine it takes
# CPU from the import and the run itself, while the package's only BLAS
# calls (1-D dots, one per row of mark values) gain nothing from threads.
# A value the caller set is kept, and once numpy is loaded the variable no
# longer has any effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (OmegaTransform, PsiFamily, a_sequence, bihari_bound,
                       moment_bound, nonconfluence_constants, omega_build,
                       p_alpha, phi_growth, psi_build, r_inequality_check,
                       w_integral)
from .config import parse_config, resolve_seed
from .errors import (AssumptionViolationError, CatalogError, ConfigError,
                     DomainError, ExpressionError, NumericalDomainError,
                     ResourceLimitError, TransformRangeError, UsageError)
from .exprs import Expression, parse_expression, parse_scalar
from .harness import (DEFAULT_SEED, ExperimentConfig, ExperimentSummary,
                      run_convergence, run_experiment, run_explosion,
                      run_nonconfluence, run_uniqueness)
from .integrator import (TAMING_MODES, PathResult, SchemeConfig,
                         dump_path_csv, first_exit_time, ito_levy_apply,
                         simulate, simulate_paths)
from .model import (GAMMA, GROWTH_CATALOG, MODULUS_CATALOG, Band,
                    CoefficientSet, GrowthFunction, MarkMeasure, Modulus,
                    builtin_growth, builtin_modulus, lebesgue, preset,
                    scale_modulus)
from .noise import (NoiseBatch, derive_path_seed, sample_batch,
                    sample_noise, truncate_small_jumps)
from .verifier import (NO_VIOLATION, VIOLATED, AssumptionReport,
                       ConditionResult, check_corollary_conditions,
                       check_growth, check_local_conditions, check_modulus,
                       check_nonconfluence_conditions, designated_checks,
                       format_report_table, growth_ratio_supremum,
                       reports_to_json)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "AssumptionViolationError", "Band", "CatalogError",
    "CoefficientSet", "ConditionResult", "ConfigError", "DEFAULT_SEED",
    "DomainError", "ExperimentConfig", "ExperimentSummary", "Expression",
    "ExpressionError", "GAMMA", "GROWTH_CATALOG", "GrowthFunction",
    "MODULUS_CATALOG", "MarkMeasure", "Modulus",
    "NO_VIOLATION", "NoiseBatch", "NumericalDomainError",
    "OmegaTransform", "PathResult", "PsiFamily", "ResourceLimitError",
    "SchemeConfig", "TAMING_MODES", "TransformRangeError", "UsageError",
    "VIOLATED", "a_sequence", "bihari_bound",
    "builtin_growth", "builtin_modulus", "check_corollary_conditions",
    "check_growth", "check_local_conditions", "check_modulus",
    "check_nonconfluence_conditions", "derive_path_seed",
    "designated_checks", "dump_path_csv", "first_exit_time",
    "format_report_table", "growth_ratio_supremum",
    "ito_levy_apply", "lebesgue", "moment_bound", "nonconfluence_constants",
    "omega_build", "p_alpha", "parse_config", "parse_expression",
    "parse_scalar", "phi_growth", "preset", "psi_build",
    "r_inequality_check", "reports_to_json",
    "resolve_seed", "run_convergence", "run_experiment", "run_explosion",
    "run_nonconfluence", "run_uniqueness", "sample_batch", "sample_noise",
    "scale_modulus", "simulate", "simulate_paths",
    "truncate_small_jumps", "w_integral",
]
