"""Polygonal geometry: shapes, measures, containment, intersection tests.

Everything downstream of the closed forms is checked against polygon
approximations built here.  Circular arcs are discretized with vertices on
the arc (inscribed polygons), so areas and perimeters converge to the smooth
values at rate O(1/segments^2), which the test suite measures explicitly.
Unit-arc templates are cached per (angles, segments), so a builder only
scales and shifts them into one preallocated vertex array; the vertices are
bit for bit those of evaluating the arcs directly.

Coordinates are plain float64 numpy arrays of shape (n, 2).  A ``PolyShape``
is a simple closed CCW loop, optionally with holes (for annuli); no exact or
symbolic kernel is involved anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyShape",
    "build_cut_corner_rectangle",
    "build_topped_substrip",
    "contains_points",
    "first_segment_intersection",
    "measure",
    "polyline_is_simple",
    "regular_polygon",
    "scale_shape",
    "signed_area",
    "translate_shape",
]

DEFAULT_SEGMENTS = 10_000


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace signed area of a closed loop (positive = CCW)."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError(f"need at least 3 planar vertices, got shape {v.shape}")
    w = np.concatenate((v, v[:1]))  # w[i] -> w[i+1] walks every edge
    x, y = w[:, 0], w[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def loop_length(vertices: np.ndarray) -> float:
    """Total edge length of a closed loop."""
    v = np.asarray(vertices, dtype=float)
    w = np.concatenate((v, v[:1]))
    d = w[1:] - w[:-1]
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


@dataclass(frozen=True)
class PolyShape:
    """A simple closed polygon (CCW), possibly with holes."""

    vertices: np.ndarray
    holes: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError(f"outer loop needs >= 3 planar vertices, got {v.shape}")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "holes",
                           tuple(np.asarray(h, dtype=float) for h in self.holes))

    def bounds(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))


def measure(shape: PolyShape) -> tuple[float, float]:
    """(area, perimeter) of a PolyShape; hole areas subtract, hole lengths add."""
    area = signed_area(shape.vertices)
    if area <= 0.0:
        raise ValueError(f"outer loop must be CCW with positive area, got {area}")
    perim = loop_length(shape.vertices)
    for hole in shape.holes:
        area -= abs(signed_area(hole))
        perim += loop_length(hole)
    if area <= 0.0:
        raise ValueError(f"holes exhaust the outer loop (area {area})")
    return area, perim


def translate_shape(shape: PolyShape, dx: float, dy: float) -> PolyShape:
    off = np.array([dx, dy])
    return PolyShape(shape.vertices + off, tuple(h + off for h in shape.holes))


def scale_shape(shape: PolyShape, t: float) -> PolyShape:
    if not (t > 0.0):
        raise ValueError(f"scale factor must be > 0, got {t}")
    return PolyShape(shape.vertices * t, tuple(h * t for h in shape.holes))


def regular_polygon(sides: int, radius: float = 1.0) -> PolyShape:
    """Regular n-gon inscribed in a circle (CCW), handy for calibration tests."""
    if sides < 3:
        raise ValueError(f"need >= 3 sides, got {sides}")
    ang = 2.0 * math.pi * np.arange(sides) / sides
    verts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return PolyShape(verts)


@functools.lru_cache(maxsize=32)
def _unit_arc(a0: float, a1: float, segments: int) -> np.ndarray:
    """Read-only (segments+1, 2) points of the unit circle from angle a0 to
    a1 (signed sweep), both endpoints included."""
    angles = np.linspace(a0, a1, segments + 1)
    arc = np.column_stack([np.cos(angles), np.sin(angles)])
    arc.flags.writeable = False
    return arc


def _put_arc(out: np.ndarray, center: tuple[float, float], radius: float,
             a0: float, a1: float) -> None:
    """Write the arc of ``radius`` around ``center`` into out's rows,
    one vertex per row (len(out) - 1 segments)."""
    np.multiply(_unit_arc(a0, a1, len(out) - 1), radius, out=out)
    out[:, 0] += center[0]  # per column: a length-2 broadcast row is slow
    out[:, 1] += center[1]


def _dedupe(points: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Drop consecutive duplicates (and a duplicated closing vertex); the
    input itself comes back when nothing is dropped."""
    keep = np.hypot(*(points[1:] - points[:-1]).T) > tol
    if not keep.all():
        points = points[np.concatenate(([True], keep))]
    if len(points) > 1 and np.hypot(*(points[0] - points[-1])) <= tol:
        points = points[:-1]
    return points


def build_cut_corner_rectangle(length: float, t: float,
                               segments: int = DEFAULT_SEGMENTS) -> PolyShape:
    """R_L = (-L/2, L/2) x (-1, 1) with corners cut by tangent arcs of radius t.

    Exact measures: area 2L - (4-pi) t^2, perimeter 2L + 4 - (8-2pi) t.
    ``segments`` counts edges per quarter arc.  Requires 0 < t <= min(1, L/2);
    t = 1, L = 2 degenerates to the inscribed unit disk.
    """
    if not (length > 0.0 and 0.0 < t <= min(1.0, length / 2.0)):
        raise ValueError(f"need 0 < t <= min(1, L/2), got t={t}, L={length}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per arc, got {segments}")
    cx, cy = length / 2.0 - t, 1.0 - t
    centers = ((cx, -cy), (cx, cy), (-cx, cy), (-cx, -cy))
    starts = (-0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi)
    n = int(segments) + 1
    verts = np.empty((4 * n, 2))
    for k, (center, a0) in enumerate(zip(centers, starts)):
        _put_arc(verts[k * n:(k + 1) * n], center, t, a0, a0 + 0.5 * math.pi)
    return PolyShape(_dedupe(verts))


def build_topped_substrip(m: float, segments: int = DEFAULT_SEGMENTS) -> PolyShape:
    """Stadium: straight substrip of length m capped by two unit half-disks.

    Centered at the origin, caps at (+-m/2, 0).  Exact measures: area
    2m + pi, perimeter 2m + 2pi.  m = 0 gives the unit disk.
    """
    if m < 0.0:
        raise ValueError(f"substrip length must be >= 0, got {m}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per arc, got {segments}")
    n = int(segments) + 1
    verts = np.empty((2 * n, 2))
    _put_arc(verts[:n], (m / 2.0, 0.0), 1.0, -0.5 * math.pi, 0.5 * math.pi)
    _put_arc(verts[n:], (-m / 2.0, 0.0), 1.0, 0.5 * math.pi, 1.5 * math.pi)
    return PolyShape(_dedupe(verts))


# ---------------------------------------------------------------------------
# Point containment and segment intersection (vectorized, chunked).

_CHUNK = 4_000_000  # max broadcast cells per block, keeps memory bounded


def _crossing_inside(loop: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray-casting containment of pts in a closed loop."""
    x1, y1 = loop[:, 0], loop[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px, py = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    step = max(1, _CHUNK // max(len(loop), 1))
    for lo in range(0, len(pts), step):
        sl = slice(lo, lo + step)
        pxs = px[sl][:, None]
        pys = py[sl][:, None]
        straddles = (y1 > pys) != (y2 > pys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (pys - y1) * (x2 - x1) / (y2 - y1)
        hits = straddles & (pxs < xcross)
        inside[sl] = np.bitwise_xor.reduce(hits, axis=1)
    return inside


def _dist_to_loop(loop: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Min distance from each point to the loop's edges."""
    a = loop
    b = np.roll(loop, -1, axis=0)
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ab2 = np.where(ab2 == 0.0, 1.0, ab2)
    best = np.full(len(pts), np.inf)
    step = max(1, _CHUNK // max(len(loop), 1))
    for lo in range(0, len(pts), step):
        sl = slice(lo, lo + step)
        ap = pts[sl][:, None, :] - a[None, :, :]
        tt = np.clip(np.einsum("pij,ij->pi", ap, ab) / ab2, 0.0, 1.0)
        closest = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
        d = np.hypot(*(pts[sl][:, None, :] - closest).transpose(2, 0, 1))
        best[sl] = d.min(axis=1)
    return best


def contains_points(shape: PolyShape, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean mask: which points lie inside the shape (holes excluded).

    ``tol`` is an absolute slack: points outside (or inside a hole) but within
    distance tol of the boundary still count as inside, which makes tangency
    configurations robust to roundoff.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    inside = _crossing_inside(shape.vertices, pts)
    for hole in shape.holes:
        inside &= ~_crossing_inside(hole, pts)
    if tol > 0.0:
        doubtful = ~inside
        if doubtful.any():
            d = _dist_to_loop(shape.vertices, pts[doubtful])
            for hole in shape.holes:
                d = np.minimum(d, _dist_to_loop(hole, pts[doubtful]))
            inside[doubtful] = d <= tol
    return inside


def _segments_cross(a0, a1, b0, b1) -> np.ndarray:
    """Proper-crossing test for paired segment arrays (same leading shape)."""
    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    return (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & \
           (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))


def first_segment_intersection(path_a: np.ndarray, path_b: np.ndarray | None = None,
                               closed_a: bool = False, closed_b: bool = False,
                               ) -> tuple[int, int] | None:
    """First properly-crossing segment pair within a path or between two paths.

    With one argument, tests the path against itself (adjacent segments
    excluded).  Returns (i, j) segment indices or None.  Bounding-box
    prefiltered, chunked O(n m) in the comparisons but with the exact
    orientation test only on box-overlapping pairs.
    """
    def segs(path, closed):
        p = np.asarray(path, dtype=float)
        if closed:
            return p, np.roll(p, -1, axis=0)
        return p[:-1], p[1:]

    a0, a1 = segs(path_a, closed_a)
    self_test = path_b is None
    if self_test:
        b0, b1 = a0, a1
    else:
        b0, b1 = segs(path_b, closed_b)
    n, m = len(a0), len(b0)
    ax_lo, ax_hi = np.minimum(a0[:, 0], a1[:, 0]), np.maximum(a0[:, 0], a1[:, 0])
    ay_lo, ay_hi = np.minimum(a0[:, 1], a1[:, 1]), np.maximum(a0[:, 1], a1[:, 1])
    bx_lo, bx_hi = np.minimum(b0[:, 0], b1[:, 0]), np.maximum(b0[:, 0], b1[:, 0])
    by_lo, by_hi = np.minimum(b0[:, 1], b1[:, 1]), np.maximum(b0[:, 1], b1[:, 1])
    step = max(1, _CHUNK // max(m, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        overlap = ((ax_lo[lo:hi, None] <= bx_hi[None, :])
                   & (ax_hi[lo:hi, None] >= bx_lo[None, :])
                   & (ay_lo[lo:hi, None] <= by_hi[None, :])
                   & (ay_hi[lo:hi, None] >= by_lo[None, :]))
        if self_test:
            ii = np.arange(lo, hi)[:, None]
            jj = np.arange(m)[None, :]
            adjacent = np.abs(ii - jj) <= 1
            if closed_a:
                adjacent |= (np.minimum(ii, jj) == 0) & (np.maximum(ii, jj) == m - 1)
            overlap &= ~adjacent
        cand = np.argwhere(overlap)
        if len(cand) == 0:
            continue
        i_idx = cand[:, 0] + lo
        j_idx = cand[:, 1]
        hit = _segments_cross(a0[i_idx], a1[i_idx], b0[j_idx], b1[j_idx])
        if hit.any():
            k = int(np.argmax(hit))
            return int(i_idx[k]), int(j_idx[k])
    return None


def polyline_is_simple(path: np.ndarray, closed: bool = False) -> bool:
    return first_segment_intersection(path, closed_a=closed) is None
