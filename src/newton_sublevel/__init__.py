"""Symbolic and numeric analysis of bivariate phase singularities at the origin.

The toolkit computes Newton-polygon invariants of a polynomial-type phase,
reduces it to superadapted coordinates, decomposes a sector at the origin
into charts on which the phase is comparable to a monomial, and checks the
predicted sublevel-measure and oscillatory-integral asymptotics numerically,
including their stability under one-parameter perturbations.
"""

__version__ = "0.1.0"

from .exact_poly import (
    PuiseuxPoly,
    Rational,
    deriv_x,
    deriv_y,
    divide_out_x,
    eval_rational,
    eval_real,
    format_poly,
    poly_add,
    poly_mul,
    poly_scale,
    reflect_axes,
    subst_scale,
    subst_shear,
    subst_y,
)
from .newton import (
    BisectrixClass,
    CompactEdge,
    NewtonPolygon,
    bisectrix_classify,
    edge_polynomial,
    newton_distance,
    newton_polygon_of,
    polygon_subset,
)
from .roots import (
    IsolatedRoot,
    coeffs_of,
    count_roots_halfopen,
    isolate_real_roots,
    refine_root,
    squarefree_factor,
    sturm_sequence,
)
from .adapt import (
    AdaptReport,
    GrowthIndex,
    ShearStep,
    SuperadaptedCheck,
    Witness,
    growth_index,
    is_morse,
    is_superadapted,
    to_superadapted,
)
from .resolve import (
    Chart,
    Decomposition,
    ResolveParams,
    SectorDescriptor,
    TraceNode,
    VerifyReport,
    branch_curve,
    chart_apply,
    chart_unapply,
    decomposition_to_json,
    resolve,
    verify_chart,
)
from .measure_lab import (
    CurvedTriangle,
    Cutoff,
    Disk,
    FitResult,
    MeasureSample,
    MonomialMeasure,
    SectorProduct,
    curved_triangle,
    decay_coefficient_cap,
    decay_csv,
    decay_pairs,
    fit_decay,
    fit_growth,
    measure_csv,
    monomial_measure_exact,
    oscillatory_integral,
    region_area,
    sublevel_measure,
    vdc_check,
    vdc_sublevel_bound,
)
from .stability import (
    ExceptionalSet,
    SweepRow,
    exceptional_candidates,
    mixture_sweep,
    stability_sweep,
    sweep_csv,
)
from .cli import (
    ParseError,
    PhaseExpr,
    parse_expression,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
