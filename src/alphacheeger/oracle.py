"""Independent numerical verification layer.

Everything here re-derives answers from polygonal measures and generic
one-dimensional minimization, never from the closed forms, so agreement
between this module and ``analytic`` is a real check rather than an echo.
Every family search is ``golden_section_min`` over the ratio perimeter /
area^(1/alpha) of polygons at a tenth of the final resolution.  The
rectangle's cut-corner and stadium families, and the free stadium length of
``oracle_strip``, read those measures from ``geometry``'s arc-template sums
(``cut_corner_rectangle_measures``, ``topped_substrip_measures``), which
equal the shoelace measures of the built polygons without building them;
so do the rectangle's winners, read at full resolution.  Strip winners are
built at full resolution and shoelace-measured.  ``oracle_strip`` covers
open and closed spines alike; its cut-corner search builds and measures
each polygon, where the classifier iterates the free-boundary law on corner
patches, so on curved spines too the two agree only if both are right.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .analytic import CheegerSolution, SolutionKind, _alpha_value
from .curves import CurveKind, StripCurve, densify
from .geometry import (DEFAULT_SEGMENTS, PolyShape, contains_points,
                       cut_corner_rectangle_measures, measure,
                       topped_substrip_measures, translate_shape)
from .strips import (build_cut_corner_strip, build_strip_polygon,
                     build_topped_substrip_on_curve, fit_topped_substrip)

__all__ = [
    "NonUnimodalError",
    "UnconvergedSearchError",
    "golden_section_min",
    "monte_carlo_area",
    "oracle_rectangle",
    "oracle_strip",
    "ratio",
]

GOLDEN_MAX_ITER = 200
PRESCAN_SAMPLES = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
SEARCH_TOL = 1e-9
STADIUM_BISECT_STEPS = 12

# Longest rectangle the oracle can resolve: golden section shrinks the
# stadium bracket [0, L - 2] by _INVPHI per step and has GOLDEN_MAX_ITER
# steps to bring it below SEARCH_TOL (L about 6e32).
MAX_ORACLE_LENGTH = 2.0 + SEARCH_TOL / _INVPHI ** GOLDEN_MAX_ITER


class UnconvergedSearchError(ValueError):
    """Golden section used its GOLDEN_MAX_ITER steps with the bracket still
    wider than the tolerance."""

    def __init__(self, lo, hi, tol, iterations: int):
        self.lo, self.hi, self.tol, self.iterations = lo, hi, tol, iterations
        super().__init__(
            f"golden section did not converge: bracket [{lo!r}, {hi!r}] of "
            f"width {hi - lo!r} is still wider than tolerance {tol!r} after "
            f"{iterations} iterations")


class NonUnimodalError(ValueError):
    """The 64-sample pre-scan saw the function rise and then fall again."""

    def __init__(self, x_rise: float, x_fall: float):
        self.x_rise = x_rise
        self.x_fall = x_fall
        super().__init__(
            f"pre-scan found a rise near x={x_rise!r} followed by a fall "
            f"near x={x_fall!r}; the function is not unimodal on the bracket")


def ratio(shape: PolyShape, alpha) -> float:
    """The shape's alpha-Cheeger ratio, perimeter / area^(1/alpha)."""
    a = _alpha_value(alpha, hi_open=False)
    area, perim = measure(shape)
    return perim / area ** (1.0 / a)


def golden_section_min(f: Callable, a, b, tol):
    """Minimize a unimodal function on [a, b]; returns (x*, f(x*)).

    Unimodality is checked empirically first: PRESCAN_SAMPLES equispaced
    samples must fall (weakly) and then rise (weakly); a second descent
    raises NonUnimodalError.  Arithmetic stays in the type of a and b, so
    extended-precision intervals keep their precision.  |x* - argmin| <= tol
    under unimodality, within GOLDEN_MAX_ITER steps; a bracket still wider
    than tol after them raises UnconvergedSearchError.
    """
    if not (b > a):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")

    xs = [a + (b - a) * i / (PRESCAN_SAMPLES - 1) for i in range(PRESCAN_SAMPLES)]
    fs = [f(x) for x in xs]
    band = 1e-12 * max(abs(float(v)) for v in fs)
    rising_from = None
    for i in range(len(fs) - 1):
        d = float(fs[i + 1] - fs[i])
        if d > band:
            rising_from = xs[i]
        elif d < -band and rising_from is not None:
            raise NonUnimodalError(float(rising_from), float(xs[i]))

    lo, hi = a, b
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if hi - lo <= tol:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    if hi - lo > tol:
        raise UnconvergedSearchError(lo, hi, tol, GOLDEN_MAX_ITER)
    x_star = (lo + hi) / 2
    return x_star, f(x_star)


def _min_ratio(measures: Callable[[float], tuple[float, float]], a: float,
               lo: float, hi: float) -> float:
    """Golden-section minimizer on [lo, hi] of the ratio perimeter /
    area^(1/a) of measures(x) = (area, perimeter)."""
    def h(x):
        area, perim = measures(x)
        return perim / area ** (1.0 / a)

    x_star, _ = golden_section_min(h, lo, hi, SEARCH_TOL)
    return x_star


def _search_segments(segments: int) -> int:
    return max(segments // 10, 64)


def oracle_rectangle(length: float, alpha,
                     segments: int = DEFAULT_SEGMENTS) -> CheegerSolution:
    """Best alpha-Cheeger ratio of R_length found by searching both candidate
    families on polygonal measures alone.

    The corner-cut family is minimized over t in (0, min(1, L/2)] and the
    stadium family over its length m in [0, L-2]; the search reads the
    template sums of polygons at a tenth of ``segments``, and each winner
    is read from them at full resolution.  No closed form enters: this
    output is what the formulas are tested against.
    """
    a = _alpha_value(alpha)
    if length < 2.0:
        raise ValueError(f"normalized length must be >= 2, got {length}")
    if not (length <= MAX_ORACLE_LENGTH):
        raise ValueError(
            f"normalized length L={length} is beyond the polygonal oracle: "
            f"its golden search over stadium lengths [0, L-2] cannot reach "
            f"tolerance {SEARCH_TOL:g} in {GOLDEN_MAX_ITER} steps for "
            f"L > {MAX_ORACLE_LENGTH:.3g}")
    coarse = _search_segments(segments)

    t_hi = min(1.0, length / 2.0)
    t_star = _min_ratio(lambda t: cut_corner_rectangle_measures(length, t, coarse),
                        a, 1e-9 * t_hi, t_hi)
    cut_area, cut_perim = cut_corner_rectangle_measures(length, t_star, segments)
    h_cut = cut_perim / cut_area ** (1.0 / a)

    m_hi = length - 2.0
    if m_hi > 1e-9:
        m_star = _min_ratio(lambda m: topped_substrip_measures(m, coarse),
                            a, 0.0, m_hi)
    else:
        m_star = 0.0
    top_area, top_perim = topped_substrip_measures(m_star, segments)
    h_top = top_perim / top_area ** (1.0 / a)

    if h_cut <= h_top:
        return CheegerSolution(kind=SolutionKind.CUT_CORNERS, h_alpha=h_cut,
                               area=cut_area, perimeter=cut_perim,
                               unique=True, radius=min(t_star, 1.0))
    return CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP, h_alpha=h_top,
                           area=top_area, perimeter=top_perim,
                           unique=False, stadium_length=m_star)


def _coarse_fit(curve: StripCurve, m: float):
    return fit_topped_substrip(curve, m, scan_step=curve.length / 64.0)


def _best_feasible_stadium(curve: StripCurve, a: float, coarse: int):
    """(m, fit) minimizing the capped-substrip ratio subject to fitting.

    The measures of a capped substrip do not depend on the spine, so the
    unconstrained minimizer comes from the straight stadium family's
    template measures at ``coarse`` segments per cap; when that
    length does not fit, the largest feasible length is bisected (feasibility
    shrinks monotonically in m) and taken, since the ratio decreases up to
    the unconstrained minimizer.  Returns (None, None) if nothing fits.
    """
    m_free = _min_ratio(lambda m: topped_substrip_measures(m, coarse),
                        a, 0.0, curve.length)
    fit = _coarse_fit(curve, m_free)
    if fit.any_feasible:
        return m_free, fit
    lo, hi = 0.0, m_free  # m = 0 (a disk on the spine) always fits
    fit_lo = _coarse_fit(curve, lo)
    if not fit_lo.any_feasible:
        return None, None
    for _ in range(STADIUM_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        f = _coarse_fit(curve, mid)
        if f.any_feasible:
            lo, fit_lo = mid, f
        else:
            hi = mid
    return lo, fit_lo


def search_cut_corner_strip(curve: StripCurve, dense: StripCurve, alpha,
                            segments: int) -> CheegerSolution:
    """Best member of the cut-corner family on a finite spine.

    Golden-searches the corner radius t in [1e-9, 1] over builds on
    ``curve`` (the spine as loaded) at a tenth of ``segments`` per arc, then
    measures the winner on ``dense`` (the same spine densified to
    ``segments``) at ``segments`` per arc, as oracle_rectangle does.
    """
    a = _alpha_value(alpha)
    coarse = _search_segments(segments)
    t_star = _min_ratio(lambda t: measure(build_cut_corner_strip(curve, t, coarse)),
                        a, 1e-9, 1.0)
    area, perim = measure(build_cut_corner_strip(dense, t_star, segments))
    return CheegerSolution(kind=SolutionKind.CUT_CORNERS,
                           h_alpha=perim / area ** (1.0 / a), area=area,
                           perimeter=perim, unique=True,
                           radius=min(float(t_star), 1.0))


def oracle_strip(curve: StripCurve, alpha,
                 segments: int = DEFAULT_SEGMENTS) -> CheegerSolution:
    """Best ratio over the candidate families living on a strip spine.

    The corner-cut family (finite open spines) is golden-searched over the
    corner radius (``search_cut_corner_strip``); closed spines contribute
    the whole annulus; the capped-substrip family is searched over its
    length with fit feasibility enforced, then evaluated at the start of the
    widest feasible run (all placements share the same measures), translated
    so that its anchor point is the origin.  Purely polygonal, mirroring
    oracle_rectangle, so on curved spines it checks the classifier's
    free-boundary iteration independently.
    """
    a = _alpha_value(alpha)
    dense = densify(curve, segments)
    coarse = _search_segments(segments)
    best: CheegerSolution | None = None

    if curve.kind is CurveKind.FINITE:
        best = search_cut_corner_strip(curve, dense, a, segments)
    elif curve.kind is CurveKind.ANNULUS:
        dense.require_admissible()
        shape = build_strip_polygon(dense)
        area, perim = measure(shape)
        best = CheegerSolution(kind=SolutionKind.WHOLE_DOMAIN,
                               h_alpha=perim / area ** (1.0 / a),
                               area=area, perimeter=perim, unique=True)

    m_star, fit = _best_feasible_stadium(dense, a, coarse)
    if m_star is not None:
        s0 = fit.widest[0]  # nearest s = 0: far out, arclength is quantized
        shape = build_topped_substrip_on_curve(dense, s0, m_star, segments)
        # measured next to the origin: far from it the shoelace sum cancels
        x0, y0 = dense.frames(np.array([s0]))[0][0]
        area, perim = measure(translate_shape(shape, -x0, -y0))
        h_top = perim / area ** (1.0 / a)
        if best is None or h_top < best.h_alpha:
            best = CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP,
                                   h_alpha=h_top, area=area, perimeter=perim,
                                   unique=False, stadium_length=m_star)
    if best is None:
        raise ValueError(f"no candidate family applies to kind {curve.kind}")
    return best


def monte_carlo_area(shape: PolyShape, samples: int,
                     seed: int) -> tuple[float, float]:
    """Rejection-sampling area estimate over the bounding box.

    Uses the counter-based Philox generator so a seed pins the exact sample
    stream.  Returns (estimate, standard error of the estimate).
    """
    if samples < 1000:
        raise ValueError(f"need >= 1000 samples, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    x0, y0, x1, y1 = shape.bounds()
    pts = rng.random((samples, 2))
    pts[:, 0] = x0 + (x1 - x0) * pts[:, 0]
    pts[:, 1] = y0 + (y1 - y0) * pts[:, 1]
    hits = int(contains_points(shape, pts).sum())
    box = (x1 - x0) * (y1 - y0)
    p = hits / samples
    return box * p, box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
