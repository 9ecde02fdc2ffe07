"""Laminar set systems, quasi-forests, convex orderings, and type-counting
growth experiments on finite carrier models."""

from .errors import DomainError, ModelFormatError, ResourceCapError, ValidationError
from .setsystem import (
    FitResult,
    GrowthPoint,
    GrowthSeries,
    ParametrizedFormula,
    SetFamily,
    TypeSpace,
    Universe,
    fit_codensity_exponent,
    max_trace_profile,
    sauer_check,
    type_space,
    vc_dimension,
)
from .forest import (
    ComponentsFailure,
    ConvexOrder,
    CrossingPair,
    DirectedFamily,
    QuasiForest,
    SumDistReport,
    TypeTree,
    VirtualTypeSpace,
    build_forest,
    check_convexity,
    check_directed,
    components,
    convex_order,
    forest_from_extents,
    forest_from_ranges,
    sum_dist_check,
    type_tree,
    virtual_type_space,
)
from .models import (
    GROWTH_KINDS,
    OrderModel,
    UltrametricModel,
    ball_family,
    growth_formula,
    load_model,
    random_ultrametric,
    save_model,
)
from .fullvcmin import (
    FullVCMinInstance,
    IncrementalCountReport,
    PsiFamily,
    dlo_instance,
    eval_psi,
    forest_from_type,
    incremental_count_check,
    p_virtual_space,
    psi_type,
    validate_certificate,
)
from .harness import ExperimentConfig, GrowthReport, run_growth

__version__ = "0.1.0"
