"""Exact slope-stability invariants of polarized varieties along subschemes,
with an independent lattice-point verification oracle for toric models."""

from .models import (
    Diagnostic,
    Diagnostics,
    IntersectionTable,
    MixedTable,
    ModelError,
    parse_model,
    serialize_model,
    validate,
)
from .oracle import (
    ExpansionFit,
    VerificationRecord,
    WeightSample,
    filtration_count,
    fit_expansions,
    verify_main_theorem,
    weight_total,
)
from .polynomials import (
    DEFAULT_ISOLATION_WIDTH,
    IsolatingInterval,
    UniPoly,
    WitnessMismatch,
    fit_polynomial,
    integrate_definite,
    interpolate,
    isolate_roots,
)
from .slope import (
    AlphaPair,
    PositivityError,
    SlopeReport,
    alpha_polys,
    df_numerator,
    mu_c,
    perturbation_limit,
    slope_mu,
    stability_scan,
)
from .toric import (
    Fan,
    LatticePolytope,
    ToricDivisor,
    ToricError,
    ToricModel,
    check_fan,
    curve_degree,
    export_table,
    nef_threshold,
    polytope_of,
    star_subdivide,
)

__version__ = "0.1.0"
