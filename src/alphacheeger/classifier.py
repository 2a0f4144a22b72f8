"""Decision procedures returning complete Cheeger solutions per domain class.

Rectangles are handled by closed forms end to end.  Open strips with a
genuinely curved spine need two numeric ingredients: the cut-corner radius
is the fixed point of the paper's free-boundary law r = alpha A / P on the
strip's exact measures minus four corner patches (no polygon is built and
the oracle is not imported, so its polygonal search checks it), and the
capped-substrip family needs the fit scanner for its placements (its
measures stay the curvature-independent closed forms).  Generalized annuli
compare the substrip family against the whole domain, whose measures
(2L, 2L) are exact for every admissible closed spine.

Placement conventions: rectangle solutions report center abscissae of the
capped substrip in rectangle coordinates; strip and annulus solutions report
arclength anchors s0 of the substrip start, as scanned by
fit_topped_substrip.  Evidence dictionaries carry the decisive numbers
(case boundaries, fit intervals, ratio comparisons, tolerances), chosen so
that re-evaluating them reproduces the branch taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (
    CASE_BOUNDARY_RTOL,
    CheegerSolution,
    Ordering,
    SolutionKind,
    _alpha_value,
    annulus_substrip_wins,
    corner_radius,
    cut_corner_area,
    cut_corner_perimeter,
    diameter_bound,
    free_boundary_radius,
    m_of_alpha,
    stadium_area,
    stadium_perimeter,
)
from .curves import CurveKind, StripCurve, retruncate
from .strips import FitResult, cut_corner_strip_measures, fit_topped_substrip

# Shortest supported spine; the structure results need L >= 9 pi / 2 and
# shorter strips are refused rather than guessed at.
MIN_SPINE_LENGTH = 4.5 * math.pi

# A spine whose discrete curvature never exceeds this is treated as straight
# and delegated to the rectangle classifier.
STRAIGHT_SPINE_KAPPA_TOL = 1e-9

# Window length for realizing semi-infinite and infinite spines: a multiple
# of the diameter bound so no candidate shape can feel the cut, floored at
# the admissibility threshold.
TRUNCATION_DIAMETER_FACTOR = 4.0

# Curved case-(i) radius steps before the iteration counts as unconverged.
RADIUS_MAX_ITER = 100

# Relative band within which the two annulus candidates count as tied.
ANNULUS_TIE_RTOL = 1e-9


class CaseTag(str, Enum):
    """Which branch of the structure results produced the answer."""

    UNIQUE_CUT_CORNERS = "unique_cut_corners"
    UNIQUE_BOUNDARY_CASE = "unique_boundary_case"
    TOPPED_FAMILY = "topped_family"
    ANNULUS_WHOLE = "annulus_whole"
    ANNULUS_FAMILY = "annulus_family"
    ANNULUS_TIE = "annulus_tie"


@dataclass(frozen=True)
class StripClassification:
    """A classified domain: case tag, solution, and the decisive numbers.

    ``evidence`` holds the comparisons that drove the branch (case
    boundaries, fit intervals, ratio values, tolerances); re-evaluating them
    reproduces the decision.  ``alternate`` is populated only for annulus
    ties and then holds the whole-domain solution next to the substrip
    family in ``solution``.
    """

    case_tag: CaseTag
    solution: CheegerSolution
    evidence: dict[str, object]
    alternate: CheegerSolution | None = None


def classify_rectangle(length: float, alpha) -> StripClassification:
    """Classify R_L = (-L/2, L/2) x (-1, 1) by closed forms.

    Case (i), L < M(alpha) + 2: the unique minimizer cuts the four corners
    with arcs of radius ``corner_radius`` < 1.  Case (ii), L = M(alpha) + 2
    within the relative band CASE_BOUNDARY_RTOL: the boundary shape, radius
    exactly 1.  Case (iii), L > M(alpha) + 2 including the L = +inf
    sentinel: every capped substrip of length M(alpha) whose center abscissa
    lies in the centered interval of length L - M - 2 minimizes, so the
    solution is a translate family and ``unique`` is False.
    """
    a = _alpha_value(alpha)
    if not (length >= 2.0):
        raise ValueError(f"normalized rectangle length must be >= 2, got {length}")
    m = m_of_alpha(a)
    boundary = m + 2.0
    evidence: dict[str, object] = {
        "alpha": a,
        "length": length,
        "case_boundary": boundary,
        "boundary_rtol": CASE_BOUNDARY_RTOL,
    }

    at_boundary = (not math.isinf(length)
                   and abs(length - boundary) <= CASE_BOUNDARY_RTOL * boundary)
    if at_boundary:
        area = cut_corner_area(length, 1.0)
        perim = cut_corner_perimeter(length, 1.0)
        h = perim / area ** (1.0 / a)
        evidence["case"] = "ii"
        evidence["h_cut_corners"] = h
        evidence["h_substrip_family"] = (stadium_perimeter(m)
                                         / stadium_area(m) ** (1.0 / a))
        solution = CheegerSolution(kind=SolutionKind.CUT_CORNERS, h_alpha=h,
                                   area=area, perimeter=perim, unique=True,
                                   radius=1.0)
        return StripClassification(CaseTag.UNIQUE_BOUNDARY_CASE, solution, evidence)

    if length < boundary:
        r = corner_radius(length, a)
        area = cut_corner_area(length, r)
        perim = cut_corner_perimeter(length, r)
        h = perim / area ** (1.0 / a)
        evidence["case"] = "i"
        evidence["radius"] = r
        solution = CheegerSolution(kind=SolutionKind.CUT_CORNERS, h_alpha=h,
                                   area=area, perimeter=perim, unique=True,
                                   radius=r)
        return StripClassification(CaseTag.UNIQUE_CUT_CORNERS, solution, evidence)

    area = stadium_area(m)
    perim = stadium_perimeter(m)
    h = perim / area ** (1.0 / a)
    if math.isinf(length):
        placements = (-math.inf, math.inf)
        interval_length = math.inf
    else:
        half = 0.5 * (length - boundary)
        placements = (-half, half)
        interval_length = length - boundary
    evidence["case"] = "iii"
    evidence["placement_interval_length"] = interval_length
    solution = CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP, h_alpha=h,
                               area=area, perimeter=perim, unique=False,
                               stadium_length=m, placements=placements)
    return StripClassification(CaseTag.TOPPED_FAMILY, solution, evidence)


def _cut_corner_strip_classification(curve: StripCurve, a: float,
                                     evidence: dict[str, object]) -> StripClassification:
    """Unique cut-corner solution on a curved spine, radius by the paper's
    free-boundary law r = (alpha/h) |E|^(1-1/alpha) = alpha A / P.

    An arc of radius t moves the perimeter by dA / t, so h is stationary
    exactly where t = alpha A / P.  t <- min(alpha A / P, 1) is iterated from
    t = 1 on ``cut_corner_strip_measures`` (no polygon built) until a step
    is zero (the bound t = 1 is active) or no smaller than the one before;
    after RADIUS_MAX_ITER steps it raises.  The evidence keeps the step
    count and the law's relative gap at the reported radius.
    """
    measures = cut_corner_strip_measures(curve)
    t, step = 1.0, math.inf
    for iterations in range(1, RADIUS_MAX_ITER + 1):
        area, perim = measures(t)
        h = perim / area ** (1.0 / a)
        law = free_boundary_radius(h, area, a)
        t_next = min(law, 1.0)
        if not 0.0 < abs(t_next - t) < step:
            break
        t, step = t_next, abs(t_next - t)
    else:
        raise ValueError(f"corner radius iteration did not settle in {RADIUS_MAX_ITER} "
                         f"steps; its last iterates are {t!r} and {t_next!r}")
    solution = CheegerSolution(kind=SolutionKind.CUT_CORNERS, h_alpha=h,
                               area=area, perimeter=perim, unique=True,
                               radius=t)
    evidence["radius"] = t
    evidence["radius_iterations"] = iterations
    evidence["radius_relation_residual"] = abs(law - t) / t
    return StripClassification(CaseTag.UNIQUE_CUT_CORNERS, solution, evidence)


def _topped_family_classification(a: float, m: float, fit: FitResult,
                                  evidence: dict[str, object],
                                  full_span: float | None = None) -> StripClassification:
    """Translate family of capped substrips with fit-scanned placements.

    ``placements`` reports one representative interval of start anchors (the
    widest, or the full circle when every anchor of a closed spine is
    feasible); the complete interval list lives in the evidence.
    """
    area = stadium_area(m)
    perim = stadium_perimeter(m)
    h = perim / area ** (1.0 / a)
    if full_span is not None and bool(fit.feasible.all()):
        placements = (0.0, full_span)
    else:
        placements = fit.widest
    solution = CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP, h_alpha=h,
                               area=area, perimeter=perim, unique=False,
                               stadium_length=m, placements=placements)
    return StripClassification(CaseTag.TOPPED_FAMILY, solution, evidence)


def spine_window(curve: StripCurve, alpha) -> StripCurve:
    """The spine an open strip is realized on: semi-infinite and infinite
    spines ``retruncate`` to length max(4 * diameter_bound, 9 pi / 2), so no
    candidate shape feels the cut; finite spines and annuli are the spine."""
    return retruncate(curve, max(TRUNCATION_DIAMETER_FACTOR * diameter_bound(alpha),
                                 MIN_SPINE_LENGTH))


def classify_open_strip(curve: StripCurve, alpha) -> StripClassification:
    """Classify the width-2 strip around an open spine.

    Straight finite spines delegate to ``classify_rectangle`` (the strip is
    an isometric copy of the rectangle), straight doubly infinite spines
    delegate with the L = +inf sentinel.  Other semi-infinite and infinite
    spines are realized on their ``spine_window``, whose length is recorded
    in the evidence as ``truncation_target``.  Finite spines
    shorter than 9 pi / 2 are refused.

    The case split in the spine length L: below M + 2 the unique cut-corner
    solution (case i); above M + pi the capped-substrip family, whose fit
    scan must find a placement (case ii); in between, the fit scan decides
    between family and cut corners (case iii).
    """
    a = _alpha_value(alpha)
    if curve.kind is CurveKind.ANNULUS:
        raise ValueError("closed spine: classify_annulus handles annuli")
    curve.require_admissible()

    kappa_max = float(np.abs(curve.curvature()).max())
    straight = kappa_max <= STRAIGHT_SPINE_KAPPA_TOL
    if straight and curve.kind is CurveKind.INFINITE:
        return classify_rectangle(math.inf, a)

    evidence: dict[str, object] = {"alpha": a, "spine_kappa_max": kappa_max}
    if curve.kind is not CurveKind.FINITE:
        curve = spine_window(curve, a)
        evidence["truncation_target"] = curve.length

    length = curve.length
    if length < MIN_SPINE_LENGTH * (1.0 - 1e-12):
        raise ValueError(
            f"spine length {length:.6f} is below the supported threshold "
            f"9 pi / 2 = {MIN_SPINE_LENGTH:.6f}; shorter strips are refused")
    if straight and curve.kind is CurveKind.FINITE:
        return classify_rectangle(length, a)

    m = m_of_alpha(a)
    lower = m + 2.0
    upper = m + math.pi
    evidence["length"] = length
    evidence["case_boundary_low"] = lower
    evidence["case_boundary_high"] = upper
    evidence["boundary_rtol"] = CASE_BOUNDARY_RTOL

    if length < lower * (1.0 - CASE_BOUNDARY_RTOL):
        evidence["case"] = "i"
        return _cut_corner_strip_classification(curve, a, evidence)

    fit = fit_topped_substrip(curve, m)
    evidence["fit_step"] = fit.step
    evidence["fit_intervals"] = [[lo, hi] for lo, hi in fit.intervals]
    if length > upper * (1.0 + CASE_BOUNDARY_RTOL):
        evidence["case"] = "ii"
        if not fit.any_feasible:
            raise ValueError(
                "no feasible substrip placement found although the spine is "
                f"longer than M + pi = {upper:.6f}; the admissibility "
                "invariants should rule this out, inspect the spine")
        return _topped_family_classification(a, m, fit, evidence)

    evidence["case"] = "iii"
    if fit.any_feasible:
        return _topped_family_classification(a, m, fit, evidence)
    evidence["fit_empty"] = True
    return _cut_corner_strip_classification(curve, a, evidence)


def classify_annulus(spine: StripCurve, alpha) -> StripClassification:
    """Decide between the substrip family and the whole generalized annulus.

    Both candidate measures are exact closed forms: the annulus of spine
    length L measures (2L, 2L) for every admissible closed spine, the capped
    substrip (2 M + pi, 2 M + 2 pi) independently of curvature.  The fit
    scan supplies feasibility and placements; the ratio comparison carries a
    relative tie band of ANNULUS_TIE_RTOL, and a tie reports both solutions
    (family in ``solution``, whole domain in ``alternate``).

    With no feasible placement the whole annulus is the unique minimizer;
    with placements the comparison decides, the whole domain again unique
    when it wins strictly.
    """
    if spine.kind is not CurveKind.ANNULUS:
        raise ValueError(f"annulus needs a closed spine, got kind={spine.kind}")
    spine.require_admissible()
    length = spine.length
    if length < MIN_SPINE_LENGTH * (1.0 - 1e-12):
        raise ValueError(
            f"annulus spine length {length:.6f} is below the supported "
            f"threshold 9 pi / 2 = {MIN_SPINE_LENGTH:.6f}")

    a = _alpha_value(alpha)
    m = m_of_alpha(a)
    h_family = stadium_perimeter(m) / stadium_area(m) ** (1.0 / a)
    h_whole = 2.0 * length / (2.0 * length) ** (1.0 / a)
    ordering = annulus_substrip_wins(length, a, eps_tie=ANNULUS_TIE_RTOL)
    fit = fit_topped_substrip(spine, m)
    evidence: dict[str, object] = {
        "alpha": a,
        "spine_length": length,
        "h_substrip_family": h_family,
        "h_whole_domain": h_whole,
        "ordering": ordering.value,
        "eps_tie": ANNULUS_TIE_RTOL,
        "fit_step": fit.step,
        "fit_intervals": [[lo, hi] for lo, hi in fit.intervals],
        "fit_any_feasible": fit.any_feasible,
    }

    def whole_solution(unique: bool) -> CheegerSolution:
        return CheegerSolution(kind=SolutionKind.WHOLE_DOMAIN, h_alpha=h_whole,
                               area=2.0 * length, perimeter=2.0 * length,
                               unique=unique)

    if not fit.any_feasible:
        evidence["decided_by"] = "fit_empty"
        return StripClassification(CaseTag.ANNULUS_WHOLE, whole_solution(True),
                                   evidence)
    evidence["decided_by"] = "ratio_comparison"
    if ordering is Ordering.ANNULUS_BETTER:
        return StripClassification(CaseTag.ANNULUS_WHOLE, whole_solution(True),
                                   evidence)
    family = _topped_family_classification(a, m, fit, evidence, full_span=length)
    if ordering is Ordering.SUBSTRIP_BETTER:
        return StripClassification(CaseTag.ANNULUS_FAMILY, family.solution, evidence)
    return StripClassification(CaseTag.ANNULUS_TIE, family.solution, evidence,
                               alternate=whole_solution(False))
