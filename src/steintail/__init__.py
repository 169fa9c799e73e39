"""Pearson reference laws, indicator Stein solutions with certified derivative
bounds, exact Malliavin G on one-dimensional Wiener chaos, and tail-comparison
certificates, with a Monte-Carlo/quadrature verification harness on top."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bounds import (
    asymptotic_tail_constant,
    implicit_lower_bound,
    pearson_lower,
    pearson_upper_constant,
    phi_envelope,
    variance_bound_check,
)
from .chaos import (
    HermiteSeries,
    dominance_margin,
    g_function,
    hermite_eval,
    ibp_check,
    law_of_polynomial,
    malliavin_G,
)
from .pearson import (
    CaseTag,
    PearsonCoefficients,
    PearsonLaw,
    build_law,
    classify,
    moment,
    quantile,
    sample,
    tail,
)
from .stein import (
    IndicatorSteinSolution,
    certify_fprime,
    check_residual,
    solve_indicator,
)
from .verify import (
    Hypothesis,
    ScenarioSpec,
    TailReport,
    empirical_tail,
    run_scenario,
    slope_estimate,
)

# every public name imported above: the imports are the one list of them
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
