"""fastICA's negentropy approximation ladder, examined end to end.

The package implements every stage between true negentropy and the
contrast fastICA actually optimizes -- the maximum-entropy surrogate f0,
its linearization, the Taylor-level contrast, and the sample contrast
against a quadrature Gaussian baseline -- next to a direct m-spacing
negentropy estimate, plus the banded-Gaussian generator whose obvious
structure the final contrast misses.
"""

from .contrast import (
    GFunction,
    KFunction,
    build_k,
    c_value,
    fastica_contrast,
    gaussian_expectation,
    hat_j_from_c,
    kurtosis_contrast,
    logcosh,
    negexp,
    quartic,
)
from .datagen import GenConfig, gen_banded_gaussian, gen_mixed_sources
from .entropy import (
    ETA_1,
    digamma,
    gaussian_entropy,
    kde,
    mspacing_entropy,
    mspacing_negentropy,
)
from .fastica import Loadings, amari_error, deflation, fixed_point_step
from .maxent import (
    LinearizedDensity,
    SurrogateDensity,
    entropy_by_quadrature,
    hat_entropy,
    rate_fit,
    solve_f0,
    sup_error,
    uniform_mixture_case,
)
from .projsearch import SweepResult, optimize_direction, sweep
from .quadrature import gaussian_weighted_rule, integrate_interval
from .whiten import whiten

__version__ = "0.1.0"
