"""Neumann-series solutions of weighted composition equations in Lorentz
spaces, with machine-checkable contraction audits and a-priori tail-bound
certificates.

The package solves

    phi = sum_n g_n * (phi o f_n) + h0

by summing the series sum_m P^m h0 for the transfer-type operator
P phi = sum_n g_n * (phi o f_n), on piecewise-constant functions over
finite unions of intervals.  Everything is built on a Lorentz norm engine
with two exact routes; they read the levels and measures from one sort,
so their agreement checks the two summations.  A vector-valued function
is measured by its pointwise length.  Every solve carries the a-priori
geometric tail bound
(2 alpha)^m / (1 - 2 alpha) * ||h0|| as its certificate.  That bounds the
distance to the fixed point of the grid operator, which composes by
midpoint lookup, not the distance to the solution of the equation.

Layers, bottom up:

``young``        Young functions, the tau transform, the admissible families
``grids``        domains, sampled step functions, rearrangements
``maps``         piecewise monotone maps, indicatrix counts,
                 change-of-variables checks
``norms``        Lorentz / Orlicz norms, the axiom suite
``transfer``     problem instances, the operator P, contraction audits
``solve``        series summation, stopping certificates, uniqueness probes
``expressions``  tiny arithmetic expression language for config files
``config``       INI instance files and the bundled examples
``cli``          the ``lorsolve`` command
"""

from .config import (
    BUNDLED_INSTANCES,
    ConfigError,
    bundled_instance_path,
    load_instance,
)
from .expressions import ExpressionError, compile_expression
from .grids import (
    Domain,
    GridError,
    SampledFn,
    StepDistribution,
    distribution,
    pointwise_norm,
    rearrangement,
)
from .maps import (
    Branch,
    MapError,
    PiecewiseMap,
    affine_map,
    change_of_variables_check,
    doubling_map,
    halving_map,
    identity_map,
    indicatrix_profile,
    tent3_map,
)
from .norms import (
    ROUTES,
    NormError,
    axiom_suite,
    check_orlicz_lorentz_bridge,
    default_test_sets,
    lorentz_norm,
    luxemburg_norm,
    orlicz_modular,
    seeded_corpus,
)
from .solve import (
    DivergenceError,
    IterationTrace,
    ToleranceError,
    residual,
    solve_elementary,
    uniqueness_probe,
)
from .transfer import (
    AuditFailure,
    InstanceError,
    ProblemInstance,
    audit_contraction,
    estimate_overlap_L,
)
from .young import (
    YoungFnError,
    derive_tau,
    monomial_young,
    power_young,
    young_family,
)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure",
    "BUNDLED_INSTANCES",
    "Branch",
    "ConfigError",
    "DivergenceError",
    "Domain",
    "ExpressionError",
    "GridError",
    "InstanceError",
    "IterationTrace",
    "MapError",
    "NormError",
    "PiecewiseMap",
    "ProblemInstance",
    "ROUTES",
    "SampledFn",
    "StepDistribution",
    "ToleranceError",
    "YoungFnError",
    "affine_map",
    "audit_contraction",
    "axiom_suite",
    "bundled_instance_path",
    "change_of_variables_check",
    "check_orlicz_lorentz_bridge",
    "compile_expression",
    "default_test_sets",
    "derive_tau",
    "distribution",
    "doubling_map",
    "halving_map",
    "identity_map",
    "indicatrix_profile",
    "load_instance",
    "lorentz_norm",
    "luxemburg_norm",
    "monomial_young",
    "orlicz_modular",
    "pointwise_norm",
    "power_young",
    "rearrangement",
    "residual",
    "seeded_corpus",
    "solve_elementary",
    "tent3_map",
    "uniqueness_probe",
    "young_family",
    "__version__",
]
