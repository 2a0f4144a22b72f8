"""Generalized Cheeger constants and sets of rectangles, strips and annuli.

The public surface mirrors the module layout: closed forms in ``analytic``,
spine curves in ``curves``, polygonal machinery in ``geometry`` and
``strips``, the independent numeric oracle in ``oracle``, the decision
procedures in ``classifier``, figures in ``render`` and the command line in
``cli``.
"""

from .analytic import (
    CASE_BOUNDARY_RTOL,
    CaseError,
    CheegerSolution,
    Ordering,
    SolutionKind,
    alpha_bar,
    annulus_substrip_wins,
    corner_radius,
    cut_corner_area,
    cut_corner_perimeter,
    diameter_bound,
    free_boundary_radius,
    h_alpha_strip_limit,
    m_of_alpha,
    scale_constant,
    stadium_area,
    stadium_perimeter,
)
from .classifier import (
    CaseTag,
    MIN_SPINE_LENGTH,
    StripClassification,
    classify_annulus,
    classify_open_strip,
    classify_rectangle,
    spine_window,
)
from .curves import (
    CurveKind,
    CurveValidationError,
    PathSpec,
    SampledSpec,
    StripCurve,
    WindowSpec,
    curve_from_samples,
    curve_from_source,
    densify,
    load_curve,
    parse_curve,
    retruncate,
)
from .geometry import (
    DEFAULT_SEGMENTS,
    PolyShape,
    build_cut_corner_rectangle,
    build_topped_substrip,
    contains_points,
    cut_corner_rectangle_measures,
    measure,
    scale_shape,
    topped_substrip_measures,
    translate_shape,
)
from .oracle import (
    NonUnimodalError,
    UnconvergedSearchError,
    golden_section_min,
    monte_carlo_area,
    oracle_rectangle,
    oracle_strip,
    ratio,
)
from .strips import (
    FitResult,
    build_cut_corner_strip,
    build_strip_polygon,
    build_topped_substrip_on_curve,
    cut_corner_strip_measures,
    fit_topped_substrip,
)

__version__ = "0.1.0"
