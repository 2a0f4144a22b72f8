"""Closed-form machinery for generalized Cheeger problems on planar domains.

The generalized Cheeger constant of an open set Omega with exponent alpha is

    h_alpha(Omega) = inf { P(E) / |E|^(1/alpha) : E subset of Omega, |E| > 0 }

where P is the perimeter.  In the plane the problem is non-trivial exactly for
1 < alpha < 2.  For rectangles of half-width 1 (and for the curved strips
handled elsewhere in this package) the minimizers have an explicit structure,
and everything in this module is a direct closed-form evaluation: no meshes,
no optimization.  The numerical cross-checks live in ``alphacheeger.oracle``.
The rectangle's three-way case split at L = M(alpha) + 2 is made once, by
``classifier.classify_rectangle``.

All rectangles are normalized to R_L = (-L/2, L/2) x (-1, 1) with L >= 2;
``Rectangle.from_sides`` maps an arbitrary a x b box onto that normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CaseError",
    "CheegerSolution",
    "Ordering",
    "Rectangle",
    "SolutionKind",
    "alpha_bar",
    "annulus_substrip_wins",
    "corner_radius",
    "cut_corner_area",
    "cut_corner_perimeter",
    "diameter_bound",
    "free_boundary_radius",
    "h_alpha_strip_limit",
    "m_of_alpha",
    "scale_constant",
    "stadium_area",
    "stadium_perimeter",
]

# Relative tolerance for deciding L == M(alpha) + 2 (the boundary between the
# short-rectangle and long-rectangle regimes).  classify_rectangle splits the
# cases with it, and corner_radius admits lengths up to the band's top.
CASE_BOUNDARY_RTOL = 1e-9


class CaseError(ValueError):
    """A closed form was evaluated outside the regime where it is valid."""


def _alpha_value(alpha: float, lo_open: bool = True,
                 hi_open: bool = True) -> float:
    """Range-check an exponent against the interval between 1 and 2.

    The bounds are open by default; closing one lets a caller evaluate a
    limit (alpha = 1, alpha = 2) of its formula.
    """
    a = float(alpha)
    if (math.isnan(a) or (a < 1.0 or (lo_open and a == 1.0))
            or (a > 2.0 or (hi_open and a == 2.0))):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise ValueError(f"alpha={a} outside domain {lo_b}1.0, 2.0{hi_b}")
    return a


@dataclass(frozen=True)
class Rectangle:
    """A rectangle in the half-width-1 normal form R_L = (-L/2, L/2) x (-1, 1).

    ``scale_to_user`` is the homothety factor mapping the normal form back to
    the rectangle the caller actually asked about (1.0 when no rescaling was
    needed).  Constants transform as h -> t^(1 - 2/alpha) h under x -> t x.
    """

    length: float
    scale_to_user: float = 1.0

    def __post_init__(self) -> None:
        if not (self.length >= 2.0):
            raise ValueError(
                f"normalized length must be >= 2 (short side fixed at 2), "
                f"got L={self.length}")
        if not (self.scale_to_user > 0.0):
            raise ValueError(f"scale factor must be > 0, got {self.scale_to_user}")

    @classmethod
    def from_sides(cls, a: float, b: float) -> "Rectangle":
        """Normalize an a x b rectangle (sides in any order).

        Sides and the normalized length must be finite; the infinite strip
        is ``Rectangle(math.inf)``, never an overflowing side ratio.
        """
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(
                f"rectangle sides must be positive and finite, got {a} x {b}")
        long_side, short_side = (a, b) if a >= b else (b, a)
        length = 2.0 * (long_side / short_side)
        if math.isinf(length):
            raise ValueError(f"rectangle {a} x {b} is too elongated: its "
                             f"normalized length 2 * {long_side} / {short_side} "
                             f"overflows")
        return cls(length=length, scale_to_user=short_side / 2.0)


class SolutionKind(str, Enum):
    """Shape family of a generalized Cheeger set."""

    CUT_CORNERS = "cut_corners"          # domain minus four tangent corner arcs
    TOPPED_SUBSTRIP = "topped_substrip"  # substrip with two half-disk caps
    WHOLE_DOMAIN = "whole_domain"        # the domain itself (annuli only)


@dataclass(frozen=True)
class CheegerSolution:
    """A generalized Cheeger set together with its measures.

    ``radius`` is the corner-arc radius for CUT_CORNERS; ``stadium_length``
    the straight length M of the capped substrip for TOPPED_SUBSTRIP;
    ``placements`` the closed interval of admissible anchor positions when
    the minimizer is a translate family (None means a single placement,
    +/-inf endpoints mean an unbounded family).
    """

    kind: SolutionKind
    h_alpha: float
    area: float
    perimeter: float
    unique: bool
    radius: float | None = None
    stadium_length: float | None = None
    placements: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind is SolutionKind.CUT_CORNERS:
            if self.radius is None or not (0.0 < self.radius <= 1.0):
                raise ValueError(f"cut-corner radius must be in (0, 1], got {self.radius}")
        if self.kind is SolutionKind.TOPPED_SUBSTRIP:
            if self.stadium_length is None or self.stadium_length < 0.0:
                raise ValueError("topped substrip needs a length M >= 0")
            if self.placements is not None:
                lo, hi = self.placements
                if hi > lo and self.unique:
                    raise ValueError("a positive placement interval contradicts uniqueness")


class Ordering(str, Enum):
    """Outcome of comparing capped substrips against the whole annulus."""

    SUBSTRIP_BETTER = "substrip_better"
    ANNULUS_BETTER = "annulus_better"
    TIE = "tie"


_FOUR_MINUS_PI = 4.0 - math.pi


def m_of_alpha(alpha: float) -> float:
    """Optimal straight length of a capped substrip (stadium) for exponent alpha.

    M(alpha) = (pi/2) (2 - alpha)/(alpha - 1).  Strictly decreasing on (1, 2),
    +inf as alpha -> 1+, 0 as alpha -> 2-.  The float path accepts alpha = 2
    (limit value 0) for sentinel evaluations.
    """
    a = _alpha_value(alpha, hi_open=False)
    return 0.5 * math.pi * (2.0 - a) / (a - 1.0)


def alpha_bar(length: float) -> float:
    """The exponent at which a length-L rectangle switches minimizer regimes.

    Solves L = M(alpha) + 2.  Equals 2 at L = 2 and decreases strictly to 1 as
    L -> inf.  Below alpha_bar(L) the minimizer cuts the rectangle's corners;
    above it the minimizer is a translate family of capped substrips.
    """
    if not (length >= 2.0):
        raise ValueError(f"normalized rectangle length must be >= 2, got {length}")
    if math.isinf(length):
        return 1.0
    return 2.0 * (math.pi + length - 2.0) / (math.pi + 2.0 * length - 4.0)


def cut_corner_perimeter(length: float, t: float) -> float:
    """Perimeter of R_L with the four corners cut by tangent arcs of radius t."""
    return 2.0 * length + 4.0 - (8.0 - 2.0 * math.pi) * t


def cut_corner_area(length: float, t: float) -> float:
    """Area of R_L with the four corners cut by tangent arcs of radius t."""
    return 2.0 * length - _FOUR_MINUS_PI * t * t


def stadium_area(m: float) -> float:
    """Area of a straight substrip of length m with two unit half-disk caps."""
    return 2.0 * m + math.pi


def stadium_perimeter(m: float) -> float:
    """Perimeter of a straight substrip of length m with two unit half-disk caps."""
    return 2.0 * m + 2.0 * math.pi


def corner_radius(length: float, alpha: float) -> float:
    """Radius of the corner arcs of the minimizer of a short rectangle.

    Valid for 2 <= L <= M(alpha) + 2; the radius is the smaller root of

        (4 - pi)(2 - alpha) r^2 - (L + 2) r + 2 alpha L = 0... scaled form:
        r = [ (L+2) - sqrt((L+2)^2 - 2(4-pi)(2-alpha) L alpha) ]
            / [ (4-pi)(2-alpha) ]

    and satisfies 0 < r <= 1, with r = 1 exactly at L = M(alpha) + 2.
    The float path accepts alpha down to 1.0 inclusive (the classical
    Cheeger problem) for limit checks.
    """
    a = _alpha_value(alpha, lo_open=False)
    if not (length >= 2.0):
        raise ValueError(f"normalized rectangle length must be >= 2, got {length}")
    if math.isinf(length) or (a > 1.0 and length > (m_of_alpha(a) + 2.0)
                              * (1.0 + CASE_BOUNDARY_RTOL)):
        raise CaseError(
            f"L={length} exceeds M(alpha)+2={m_of_alpha(a) + 2.0}: the minimizer "
            f"is a capped-substrip family; use the classifier instead")
    lp2 = length + 2.0
    disc = lp2 * lp2 - 2.0 * _FOUR_MINUS_PI * (2.0 - a) * length * a
    if disc < 0.0:
        # Only roundoff can push the discriminant below zero in-domain.
        if disc < -1e-12 * lp2 * lp2:
            raise CaseError(f"negative discriminant {disc} for L={length}, alpha={a}")
        disc = 0.0
    r = (lp2 - math.sqrt(disc)) / (_FOUR_MINUS_PI * (2.0 - a))
    # At L = M(alpha)+2 the exact radius is 1; clamp the last-ulp overshoot.
    if 1.0 < r <= 1.0 + 1e-9:
        r = 1.0
    if not (0.0 < r <= 1.0):
        raise CaseError(f"corner radius {r} outside (0, 1] for L={length}, alpha={a}")
    return r


def h_alpha_strip_limit(alpha: float) -> float:
    """Cheeger constant of the infinite strip R x (-1, 1).

    Equals alpha (pi/(alpha-1))^(1-1/alpha), the shape ratio of the optimal
    capped substrip, and is the infimum of h_alpha(R_L) over L.
    """
    a = _alpha_value(alpha)
    return a * (math.pi / (a - 1.0)) ** (1.0 - 1.0 / a)


def scale_constant(h: float, t: float, alpha: float) -> float:
    """Transform a Cheeger constant under the homothety x -> t x.

    h_alpha(t Omega) = t^(1 - 2/alpha) h_alpha(Omega); the exponent is
    negative, so enlarging the domain lowers the constant.  The float path
    accepts alpha = 2, where the constant is scale-invariant.
    """
    if not (t > 0.0):
        raise ValueError(f"scale factor must be > 0, got {t}")
    a = _alpha_value(alpha, hi_open=False)
    return h * t ** (1.0 - 2.0 / a)


def free_boundary_radius(h: float, area: float, alpha: float) -> float:
    """Curvature radius of the free boundary of a generalized Cheeger set.

    The free boundary of a minimizer with constant h and measure |E| consists
    of circular arcs of radius (alpha/h) |E|^(1-1/alpha).  At alpha = 1 this
    collapses to the classical 1/h (the float path accepts that limit).
    """
    if not (h > 0.0 and area > 0.0):
        raise ValueError(f"need h > 0 and area > 0, got h={h}, area={area}")
    a = _alpha_value(alpha, lo_open=False)
    return (a / h) * area ** (1.0 - 1.0 / a)


def diameter_bound(alpha: float) -> float:
    """Upper bound for the diameter of rectangle/strip generalized Cheeger sets.

    Any Cheeger set E of a half-width-1 rectangle or strip satisfies
    P(E) >= 2 diam(E) and |E| <= 2 diam(E), hence h >= (2 diam)^(1-1/alpha);
    combining with h >= h_alpha(strip) gives

        diam(E) <= (1/2) h_strip^(alpha/(alpha-1)).

    (Whole-annulus minimizers are not width-2 subsets and only obey the raw
    inequality (2 diam)^(1-1/alpha) <= h.)
    """
    a = _alpha_value(alpha)
    h_inf = h_alpha_strip_limit(a)
    return 0.5 * h_inf ** (a / (a - 1.0))


def annulus_substrip_wins(spine_length: float, alpha: float,
                          eps_tie: float = 1e-9) -> Ordering:
    """Compare capped substrips against the whole annulus of spine length L.

    A generalized annulus of spine length L has area and perimeter both equal
    to 2L, so its shape ratio is 2L/(2L)^(1/alpha); the optimal capped
    substrip scores (2 pi + 2M)/(2M + pi)^(1/alpha) with M = M(alpha).
    Returns which candidate wins, with a relative tie band ``eps_tie``.

    The float path accepts alpha = 2, where substrips win for every
    L >= 9 pi / 2 (left side 2 sqrt(pi) < sqrt(2L)); as alpha -> 1+ the whole
    annulus wins for every finite L.
    """
    if not (spine_length > 0.0):
        raise ValueError(f"spine length must be > 0, got {spine_length}")
    a = _alpha_value(alpha, hi_open=False)
    m = m_of_alpha(a)
    lhs = (2.0 * math.pi + 2.0 * m) / (2.0 * m + math.pi) ** (1.0 / a)
    rhs = 2.0 * spine_length / (2.0 * spine_length) ** (1.0 / a)
    if abs(lhs - rhs) <= eps_tie * max(abs(lhs), abs(rhs)):
        return Ordering.TIE
    return Ordering.SUBSTRIP_BETTER if lhs < rhs else Ordering.ANNULUS_BETTER
