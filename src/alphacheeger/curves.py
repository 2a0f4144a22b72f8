"""Spine curves for strips and annuli.

An open strip (or generalized annulus) of half-width 1 is the image of
Psi(s, t) = gamma(s) + t nu(s) for a unit-speed C^{1,1} spine gamma with
|curvature| <= 1, where nu is the left unit normal.  This module carries the
sampled representation of such spines: uniform-arclength samples with
normals, taken from a source with exact frames at any arclength (a
``PathSpec`` of line and arc pieces, which every primitive of a curve file
is, the spline ``SampledSpec`` through a sample list, or a ``WindowSpec``
of either), plus a JSON file loader and the invariant validator that
rejects spines the structure theorems do not cover (``StripCurve.validate``,
the one test).

Curve kinds: "finite", "semi_infinite", "infinite" (open strips; the
infinite ones are realized on a finite window and re-truncated on demand)
and "annulus" (closed spine).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import first_segment_intersection

__all__ = [
    "CurveKind",
    "CurveValidationError",
    "PathSpec",
    "SampledSpec",
    "StripCurve",
    "WindowSpec",
    "curve_from_samples",
    "curve_from_source",
    "load_curve",
    "parse_curve",
]

DEFAULT_SAMPLE_COUNT = 2048  # default arclength step is length / 2048

CURVATURE_SLACK = 1e-6   # |kappa| <= 1 + slack passes the admissibility check
FRAME_TOL = 1e-8         # annulus closure tolerance
# The closure gap of a long spine is rounding in its point coordinates, which
# grows with the length: the position tolerance gets CLOSURE_ULPS * eps * L.
CLOSURE_ULPS = 4.0
# Largest accepted spine length, radius, angle or sample coordinate: beyond
# it the product of three sample chords (discrete curvature) can overflow.
# Spine lengths below the reciprocal would sample at a step that underflows.
MAX_SPINE_SCALE = 1e100
# A sample list whose samples all lie within this fraction of its length of
# the chord from its first sample to its last is straight: an unbounded one
# is rebuilt as one line of its window's length, as a segment would be.
STRAIGHT_RTOL = 1e-12


class CurveKind(str, Enum):
    FINITE = "finite"
    SEMI_INFINITE = "semi_infinite"
    INFINITE = "infinite"
    ANNULUS = "annulus"


class CurveValidationError(ValueError):
    """Raised when a spine violates the admissibility invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid spine curve: " + "; ".join(self.violations))


# ---------------------------------------------------------------------------
# Spine sources.  Each provides length, kind and exact frames at any s.

@dataclass(frozen=True)
class PathSpec:
    """C^{1,1} concatenation of line and arc pieces, starting at the origin
    heading +x.  Pieces: ("line", length) or ("arc", radius, signed_angle)."""

    pieces: tuple[tuple, ...]
    kind: CurveKind = CurveKind.FINITE

    @property
    def length(self) -> float:
        total = 0.0
        for p in self.pieces:
            if p[0] == "line":
                total += p[1]
            elif p[0] == "arc":
                total += p[1] * abs(p[2])
            else:
                raise ValueError(f"unknown path piece {p[0]!r}")
        return total

    def frame(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        pts = np.empty((len(s), 2))
        tan = np.empty((len(s), 2))
        start = np.zeros(2)
        heading = 0.0
        s0 = 0.0
        remaining = np.ones(len(s), dtype=bool)
        for p in self.pieces:
            plen = p[1] if p[0] == "line" else p[1] * abs(p[2])
            local = remaining & (s <= s0 + plen + 1e-9 * (1.0 + s0 + plen))
            u = s[local] - s0
            if p[0] == "line":
                direction = np.array([math.cos(heading), math.sin(heading)])
                pts[local] = start + u[:, None] * direction
                tan[local] = direction
                start = start + plen * direction
            else:
                radius, angle = p[1], p[2]
                sgn = 1.0 if angle >= 0 else -1.0
                center = start + radius * sgn * np.array([-math.sin(heading),
                                                          math.cos(heading)])
                phi0 = math.atan2(start[1] - center[1], start[0] - center[0])
                phi = phi0 + sgn * u / radius
                pts[local] = center + radius * np.column_stack([np.cos(phi), np.sin(phi)])
                tan[local] = np.column_stack([-sgn * np.sin(phi), sgn * np.cos(phi)])
                phi_end = phi0 + angle
                start = center + radius * np.array([math.cos(phi_end), math.sin(phi_end)])
                heading += angle
            remaining &= ~local
            s0 += plen
        if remaining.any():
            raise ValueError(f"arclength {s[remaining][0]} beyond path length {s0}")
        return pts, tan


# Five-point Gauss-Legendre rule on [0, 1], for the spline arclength.
_GL_NODES = 0.5 + np.array([-0.453089922969332, -0.26923465505284155, 0.0,
                            0.26923465505284155, 0.453089922969332])
_GL_WEIGHTS = np.array([0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                        0.23931433524968324, 0.11846344252809454])
_JACOBI_SWEEPS = 60  # each halves the spline system's error
_NEWTON_STEPS = 3    # per arclength inversion; a fixed count keeps points independent


class SampledSpec:
    """C^2 cubic spline through ``knots`` (the samples, the first repeated
    at the end for an annulus) in chord length, reparametrized by arclength.

    Ends are periodic for annuli, natural (zero second derivative) otherwise.
    Moments come from Jacobi sweeps (off-diagonal row sums are half the
    diagonal), piece lengths from 5-point Gauss-Legendre, and ``frame``
    inverts the arclength by Newton steps whose speed is floored at a
    thousandth of the chord's, so a vanishing speed never divides by 0.
    """

    def __init__(self, knots: np.ndarray, kind: CurveKind):
        self.kind, self._p = kind, knots
        h = self._h = np.hypot(*np.diff(knots, axis=0).T)
        d = self._d = np.diff(knots, axis=0) / h[:, None]
        closed = kind is CurveKind.ANNULUS
        if closed:
            hp, hn, rhs = np.roll(h, 1), h, 6.0 * (d - np.roll(d, 1, axis=0))
        else:
            hp, hn, rhs = h[:-1], h[1:], 6.0 * (d[1:] - d[:-1])
        diag = 2.0 * (hp + hn)
        hp, hn, rhs = hp / diag, hn / diag, rhs.T / diag
        m = np.zeros((2, len(diag) + 2))  # moments, one neighbour past each end
        for _ in range(_JACOBI_SWEEPS):
            m[:, 1:-1] = rhs - hp * m[:, :-2] - hn * m[:, 2:]
            if closed:
                m[:, 0], m[:, -1] = m[:, -2], m[:, 1]
        self._m = np.ascontiguousarray((m[:, 1:] if closed else m).T)
        self._pieces = self._arc(np.arange(len(h)), np.ones(len(h)))
        self._cum = np.concatenate([[0.0], np.cumsum(self._pieces)])
        self.length = float(self._cum[-1])

    def _velocity(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Chord-length derivative (n, k, 2) on pieces i (n,) at parameters t (n, k)."""
        a, t = (1.0 - t)[..., None], t[..., None]
        return self._d[i][:, None] + (self._h[i] / 6.0)[:, None, None] * (
            (1.0 - 3.0 * a * a) * self._m[i][:, None]
            + (3.0 * t * t - 1.0) * self._m[i + 1][:, None])

    def _arc(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Arclength along pieces i from their starts to local parameters t."""
        v = self._velocity(i, t[:, None] * _GL_NODES)
        speed = np.hypot(v[..., 0], v[..., 1])
        return self._h[i] * t * sum(w * speed[:, k] for k, w in enumerate(_GL_WEIGHTS))

    def frame(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        i = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, len(self._h) - 1)
        h = self._h[i]
        goal = np.clip(s - self._cum[i], 0.0, self._pieces[i])
        t = np.minimum(goal / h, 1.0)
        for _ in range(_NEWTON_STEPS):
            v = self._velocity(i, t[:, None])[:, 0]
            rate = np.maximum(h * np.hypot(v[:, 0], v[:, 1]), 1e-3 * h)
            t = np.clip(t - (self._arc(i, t) - goal) / rate, 0.0, 1.0)
        a = 1.0 - t
        pts = (a[:, None] * self._p[i] + t[:, None] * self._p[i + 1]
               + (h * h / 6.0 * (a * a * a - a))[:, None] * self._m[i]
               + (h * h / 6.0 * (t * t * t - t))[:, None] * self._m[i + 1])
        v = self._velocity(i, t[:, None])[:, 0]
        speed = np.hypot(v[:, 0], v[:, 1])[:, None]
        return pts, np.divide(v, speed, out=self._d[i], where=speed > 0.0)


@dataclass(frozen=True)
class WindowSpec:
    """The arclength window [start, start + length] of another source."""

    source: object
    start: float
    length: float
    kind: CurveKind

    def frame(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.source.frame(np.asarray(s, dtype=float) + self.start)


# ---------------------------------------------------------------------------
# The sampled curve.

def _unit_frames(source, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The source's points, unit tangents and left normals at arclengths s."""
    p, tan = source.frame(s)
    t = tan / np.hypot(tan[:, 0], tan[:, 1])[:, None]
    return p, t, np.column_stack([-t[:, 1], t[:, 0]])


@dataclass(frozen=True)
class StripCurve:
    """Uniform-arclength samples of a spine: points and unit left normals.

    For kind ANNULUS the first and last samples coincide (the closing point is
    stored explicitly).  ``source`` is the spine the samples were taken from,
    so frames at any arclength, densification and re-truncation are exact.
    The half-width is 1: all widths are normalized away upstream.
    """

    points: np.ndarray
    normals: np.ndarray
    ds: float
    length: float
    kind: CurveKind
    source: object

    def __post_init__(self) -> None:
        n = len(self.points)
        if n < 8:
            raise ValueError(f"need >= 8 samples, got {n}")
        if self.normals.shape != (n, 2):
            raise ValueError("points/normals must have matching shapes")

    def frames(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, tangents, normals), each (n, 2), from the source at s."""
        s = np.asarray(s, dtype=float)
        if self.kind is CurveKind.ANNULUS:
            s = s % self.length
        return _unit_frames(self.source, s)

    def offset(self, level: float) -> np.ndarray:
        """The parallel polyline Psi(s, level) at all samples."""
        return self.points + level * self.normals

    def curvature(self) -> np.ndarray:
        """Signed discrete curvature via circumscribed circles of sample triples.

        Exact for circular arcs (three points determine the circle); endpoint
        values are copied from their neighbors (wrapped for annuli).
        """
        p = self.points
        if self.kind is CurveKind.ANNULUS:
            # drop the duplicated closing point, wrap around
            q = p[:-1]
            a, b, c = np.roll(q, 1, axis=0), q, np.roll(q, -1, axis=0)
            kappa = _menger(a, b, c)
            return np.append(kappa, kappa[0])
        a, b, c = p[:-2], p[1:-1], p[2:]
        kappa = _menger(a, b, c)
        return np.concatenate([[kappa[0]], kappa, [kappa[-1]]])

    def validate(self) -> list[str]:
        """Violated admissibility invariants (empty list = valid spine): the
        curvature bound, an annulus' closure, no unit-curvature run, then a
        simple strip boundary; unit normals hold by construction
        (``_unit_frames``)."""
        bad: list[str] = []
        kappa = np.abs(self.curvature())
        if kappa.max() > 1.0 + CURVATURE_SLACK:
            i = int(kappa.argmax())
            bad.append(f"curvature bound violated: |kappa| = {kappa.max():.6f} "
                       f"at s = {i * self.ds:.6f} (must be <= 1)")
        if self.kind is CurveKind.ANNULUS:
            gap = np.hypot(*(self.points[0] - self.points[-1]))
            # the normal is the tangent turned by 90 degrees: same gap
            tgap = np.hypot(*(self.normals[0] - self.normals[-1]))
            gap_tol = FRAME_TOL + CLOSURE_ULPS * np.finfo(float).eps * self.length
            if gap > gap_tol or tgap > FRAME_TOL:
                bad.append(f"annulus spine not closed: position gap {gap:.3e}, "
                           f"tangent gap {tgap:.3e}")
        if not bad and (collapse := _collapsed_offset(self)) is not None:
            bad.append("unit curvature: offset t={:+g} collapses to a point at "
                       "s = {:.6f}, so Psi is not injective (arcs of radius 1 are "
                       "refused)".format(*collapse))
        if not bad and (crossing := _boundary_crossing(self)) is not None:
            bad.append("strip boundary self-intersects: {} crosses {}".format(*crossing))
        return bad

    @functools.cached_property
    def violations(self) -> tuple[str, ...]:
        """``validate()``, evaluated once per curve object."""
        return tuple(self.validate())

    def require_admissible(self) -> None:
        """Raise CurveValidationError listing the violated invariants, if any."""
        if self.violations:
            raise CurveValidationError(list(self.violations))


def _collapsed_offset(curve: StripCurve) -> tuple[float, float] | None:
    """The level and arclength of the first offset segment of rounding
    length, or None.

    Along a sample step of curvature +-1 the offset t = +-1 moves at speed
    1 -+ kappa = 0: it collapses onto the arc's centre, whatever the angle,
    and its segments are rounding noise (about 0.3 ulp of the coordinates
    on unit arcs) that may or may not cross.  A radius of 1 + 1e-7 keeps
    segments of 1e-7 ds, far above CLOSURE_ULPS ulps.
    """
    tol = CLOSURE_ULPS * np.finfo(float).eps * (float(np.abs(curve.points).max()) + 1.0)
    for level in (1.0, -1.0):
        step = np.diff(curve.offset(level), axis=0)
        short = np.flatnonzero(np.hypot(step[:, 0], step[:, 1]) <= tol)
        if len(short):
            return level, float(short[0]) * curve.ds
    return None


def _boundary_crossing(curve: StripCurve) -> tuple[str, str] | None:
    """The two parts of the strip's boundary that cross first, or None.

    With |kappa| <= 1 the map Psi is a local diffeomorphism, so it is
    injective on [0, L] x [-1, 1] exactly when the boundary is simple.  An
    annulus' boundary is its two offset loops; an open strip's is one loop:
    offset t = -1, the end at s = L, offset t = +1 back, the end at s = 0.
    Each end is split into collinear pieces no longer than ds (at most one
    per sample), so that it does not size the cells of
    ``first_segment_intersection``'s grid; adjacent pieces are not tested
    and the others are disjoint, so the split adds no crossing.
    """
    lo, hi = curve.offset(-1.0), curve.offset(+1.0)
    if curve.kind is CurveKind.ANNULUS:
        off = {"-1": lo[:-1], "+1": hi[:-1]}
        for ta, tb in (("-1", "-1"), ("+1", "+1"), ("-1", "+1")):
            pair = first_segment_intersection(off[ta], off[tb] if tb != ta else None,
                                              closed_a=True, closed_b=True)
            if pair is not None:
                return tuple(f"offset t={lv} segment {k}" for lv, k in zip((ta, tb), pair))
        return None
    n, pieces = len(lo) - 1, min(len(lo), math.ceil(2.0 / curve.ds))
    t = (np.arange(1, pieces) / pieces)[:, None]
    loop = np.vstack([lo, lo[-1] + t * (hi[-1] - lo[-1]), hi[::-1],
                      hi[0] + t * (lo[0] - hi[0])])
    pair = first_segment_intersection(loop, closed_a=True)
    return None if pair is None else tuple(
        f"offset t=-1 segment {k}" if k < n else
        "the end segment at s = L" if k < n + pieces else
        f"offset t=+1 segment {2 * n + pieces - 1 - k}" if k < 2 * n + pieces else
        "the end segment at s = 0" for k in pair)


def _menger(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed inverse circumradius of point triples (positive = left turn)."""
    ab = b - a
    bc = c - b
    ac = c - a
    cross = ab[:, 0] * bc[:, 1] - ab[:, 1] * bc[:, 0]
    denom = (np.hypot(*ab.T) * np.hypot(*bc.T) * np.hypot(*ac.T))
    denom = np.where(denom == 0.0, np.inf, denom)
    return 2.0 * cross / denom


def curve_from_source(source, ds: float | None = None,
                      n_samples: int | None = None) -> StripCurve:
    """Sample a source at uniform arclength."""
    length = source.length
    if not 1.0 / MAX_SPINE_SCALE <= length <= MAX_SPINE_SCALE:
        raise ValueError(f"spine length must lie in [{1.0 / MAX_SPINE_SCALE:g}, "
                         f"{MAX_SPINE_SCALE:g}], got {length}")
    if ds is None:
        n = n_samples if n_samples is not None else DEFAULT_SAMPLE_COUNT
        ds = length / n
    n_steps = max(int(round(length / ds)), 8)
    ds = length / n_steps
    pts, _, nor = _unit_frames(source, ds * np.arange(n_steps + 1))
    return StripCurve(points=pts, normals=nor, ds=ds, length=length,
                      kind=source.kind, source=source)


def densify(curve: StripCurve, n_samples: int) -> StripCurve:
    """Resample the curve's source with at least ``n_samples`` steps."""
    if len(curve.points) - 1 >= n_samples:
        return curve
    return curve_from_source(curve.source, n_samples=n_samples)


def curve_from_samples(samples: np.ndarray, kind: CurveKind) -> StripCurve:
    """Sample the ``SampledSpec`` spline through an ordered point sequence.

    For kind ANNULUS the sequence is closed (a duplicated endpoint is
    accepted and normalized away).  Consecutive points closer than 2.2e-16
    of the total chord length count as coincident and are refused.
    """
    try:
        pts = np.asarray(samples, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("curve samples must be a list of [x, y] number pairs") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ValueError(f"need an (n, 2) array with n >= 4, got {pts.shape}")
    if not (np.abs(pts) <= MAX_SPINE_SCALE).all():
        raise ValueError(f"curve samples must be finite with magnitude at most "
                         f"{MAX_SPINE_SCALE:g}")
    if kind is CurveKind.ANNULUS:
        if np.hypot(*(pts[0] - pts[-1])) <= 1e-12:
            pts = pts[:-1]
        pts = np.vstack([pts, pts[:1]])
    chord = np.hypot(*(np.diff(pts, axis=0)).T)
    length = float(chord.sum())
    if not (chord > np.finfo(float).eps * length).all():
        raise ValueError("input samples contain coincident consecutive points")
    if not 1.0 / MAX_SPINE_SCALE <= length <= MAX_SPINE_SCALE:
        raise ValueError(f"curve samples span a length {length:g} outside "
                         f"[{1.0 / MAX_SPINE_SCALE:g}, {MAX_SPINE_SCALE:g}]")
    return curve_from_source(SampledSpec(pts, kind))


# ---------------------------------------------------------------------------
# File format: a JSON object, either a primitive or a sample list.
#
#   {"primitive": "segment", "length": 20}
#   {"primitive": "segment", "kind": "infinite"}          (window chosen later)
#   {"primitive": "circle", "radius": 5}                  (an annulus)
#   {"primitive": "arc", "radius": 8, "angle": 1.2, "kind": "finite"}
#   {"primitive": "path", "pieces": [["arc", 1.3, 1.5], ["line", 9.0]]}
#   {"samples": [[x, y], ...], "kind": "finite"}

PROVISIONAL_WINDOW = 64.0  # realized length for infinite spines until re-truncation


def _real(value, field: str) -> float:
    """A finite number of magnitude at most MAX_SPINE_SCALE, or ValueError
    naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"curve {field} must be a number, got {value!r}") from None
    if not abs(x) <= MAX_SPINE_SCALE:
        raise ValueError(f"curve {field} must be finite with magnitude at most "
                         f"{MAX_SPINE_SCALE:g}, got {x!r}")
    return x


def _field(spec: dict, key: str, default=None, check=_real) -> float:
    if key not in spec and default is None:
        raise ValueError(f"curve spec needs a {key!r} entry")
    return check(spec.get(key, default), key)


def _positive(value, field: str) -> float:
    x = _real(value, field)
    if not x > 0.0:
        raise ValueError(f"curve {field} must be > 0, got {x!r}")
    return x


def _kind(spec: dict) -> CurveKind:
    raw = spec.get("kind", "finite")
    try:
        return CurveKind(raw)
    except (TypeError, ValueError):
        raise ValueError(f"unknown curve kind {raw!r}") from None


def _path_pieces(raw) -> tuple[tuple, ...]:
    """Path pieces checked one by one: ["line", length] or
    ["arc", radius, signed_angle], with positive lengths and radii."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"path pieces must be a non-empty list, got {raw!r}")
    pieces = []
    for k, p in enumerate(raw):
        if isinstance(p, (list, tuple)) and len(p) == 2 and p[0] == "line":
            pieces.append(("line", _positive(p[1], f"pieces[{k}] length")))
        elif isinstance(p, (list, tuple)) and len(p) == 3 and p[0] == "arc":
            pieces.append(("arc", _positive(p[1], f"pieces[{k}] radius"),
                           _real(p[2], f"pieces[{k}] angle")))
        else:
            raise ValueError(f'path piece {k} must be ["line", length] or '
                             f'["arc", radius, angle], got {p!r}')
    return tuple(pieces)


def parse_curve(spec: dict) -> StripCurve:
    """Build a StripCurve from a parsed JSON object (see module docstring).

    Every number is checked once here: a non-numeric, non-finite or
    overflowing (beyond MAX_SPINE_SCALE) length, radius, angle or sample,
    and a length or radius that is not positive, raises ValueError naming
    its field.  Each primitive is a one-piece path: a segment is one line,
    an arc one arc and a circle the annulus of one arc turning 2 pi.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"curve spec must be a JSON object, got {type(spec).__name__}")
    if "primitive" in spec:
        prim = spec["primitive"]
        kind = _kind(spec) if prim != "circle" else CurveKind.ANNULUS
        if prim == "segment":
            window = kind in (CurveKind.SEMI_INFINITE, CurveKind.INFINITE)
            length = _field(spec, "length", PROVISIONAL_WINDOW if window else None, _positive)
            pieces = (("line", length),)
        elif prim == "circle":
            pieces = (("arc", _field(spec, "radius", check=_positive), 2.0 * math.pi),)
        elif prim == "arc":
            radius = _field(spec, "radius", check=_positive)
            pieces = (("arc", radius, _field(spec, "angle")),)
        elif prim == "path":
            pieces = _path_pieces(spec.get("pieces"))
        else:
            raise ValueError(f"unknown primitive {prim!r}")
        return curve_from_source(PathSpec(pieces, kind))
    if "samples" in spec:
        return curve_from_samples(spec["samples"], kind=_kind(spec))
    raise ValueError("curve spec needs a 'primitive' or 'samples' entry")


def load_curve(path: str) -> StripCurve:
    """Load and validate a spine curve file; raises CurveValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    curve = parse_curve(spec)
    curve.require_admissible()
    return curve


def _on_chord(points: np.ndarray, length: float) -> bool:
    """Whether every point lies within STRAIGHT_RTOL * length of the chord
    from the first point to the last."""
    a, ab = points[0], points[-1] - points[0]
    ab2 = float(ab @ ab)
    if not ab2 > 0.0:
        return False
    t = np.clip((points - a) @ ab / ab2, 0.0, 1.0)
    off = points - a - t[:, None] * ab
    return bool((np.hypot(off[:, 0], off[:, 1]) <= STRAIGHT_RTOL * length).all())


def retruncate(curve: StripCurve, target_length: float) -> StripCurve:
    """Realize a semi-infinite/infinite spine on a window of the given length.

    A straight source (a path of line pieces only, or a sample list within
    STRAIGHT_RTOL of its chord) is rebuilt as one line of the target
    length; any other source is windowed (from s=0 for semi-infinite,
    centered for infinite) and a spine shorter than the target is refused
    with ValueError.  Finite and annulus spines are returned untouched.
    """
    if curve.kind not in (CurveKind.SEMI_INFINITE, CurveKind.INFINITE):
        return curve
    src = curve.source
    if (isinstance(src, PathSpec) and all(p[0] == "line" for p in src.pieces)) or (
            isinstance(src, SampledSpec) and _on_chord(src._p, curve.length)):
        return curve_from_source(PathSpec((("line", target_length),), curve.kind))
    if target_length > curve.length:
        raise ValueError(f"{curve.kind.value} spine of length {curve.length:.6f} is "
                         f"shorter than its truncation window {target_length:.6f}")
    start = 0.5 * (curve.length - target_length) if curve.kind is CurveKind.INFINITE else 0.0
    window = WindowSpec(curve.source, start, target_length, curve.kind)
    return curve_from_source(window, ds=curve.ds)
