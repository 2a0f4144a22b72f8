"""Polygonal geometry: shapes, measures, containment, intersection tests.

Everything downstream of the closed forms is checked against polygon
approximations built here.  Circular arcs are discretized with vertices on
the arc (inscribed polygons), so areas and perimeters converge to the smooth
values at rate O(1/segments^2), which the test suite measures explicitly.
Unit-arc templates are cached per (angles, segments), so a builder only
scales and shifts them into one preallocated vertex array; the vertices are
bit for bit those of evaluating the arcs directly.  Coincident vertices
(closer than 1e-14) can sit only where two arcs join or where the loop
closes, so the builders test just those pairs; when the spacing within an
arc comes near the tolerance they fall back to the full scan, and either
way they keep the same vertices.  ``measure`` closes each loop once and
takes both the shoelace area and the edge lengths from that one copy.

Each vertex of an arc is c + r u_i, so a loop's shoelace area and edge
lengths are also sums over the templates alone (S = sum u_i x u_i+1,
C = sum |u_i+1 - u_i|, cached beside them) plus the joins between arcs.
``cut_corner_rectangle_measures`` and ``topped_substrip_measures`` return
them without building the polygon, equal to ``measure`` of the built loop
up to rounding.  The oracle reads them for its rectangle and stadium
searches and for its rectangle winners; figures and Monte Carlo build.

Coordinates are plain float64 numpy arrays of shape (n, 2).  A ``PolyShape``
is a simple closed CCW loop, optionally with holes (for annuli); no exact or
symbolic kernel is involved anywhere.

The all-pairs kernels (segment crossings, point containment) draw their
candidate pairs from one uniform-grid bucket index,
``_Grid``: item boxes are registered in every cell they touch, the cell
keys are sorted once, and queries find their cells with ``searchsorted``.
Cells come from a floor that is monotone under rounding, so a pair whose
boxes meet always shares a cell; the exact test then runs on the
candidates only, with the same arithmetic as an every-pair scan, and gives
the same answer bit for bit.
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
    "cut_corner_rectangle_measures",
    "first_segment_intersection",
    "measure",
    "scale_shape",
    "signed_area",
    "topped_substrip_measures",
    "translate_shape",
]

DEFAULT_SEGMENTS = 10_000


def _shoelace(w: np.ndarray) -> float:
    """Signed area of the loop whose closed copy (first vertex appended) is w."""
    x, y = w[:, 0], w[:, 1]  # w[i] -> w[i+1] walks every edge
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def _planar_loop(vertices, what: str) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError(f"{what} needs >= 3 planar vertices, got {v.shape}")
    return v


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace signed area of a closed loop (positive = CCW)."""
    v = _planar_loop(vertices, "loop")
    return _shoelace(np.concatenate((v, v[:1])))


def _closing_pass(v: np.ndarray) -> tuple[float, float]:
    """(signed area, total edge length) of the closed loop v, both taken
    from one closed copy of it."""
    w = np.concatenate((v, v[:1]))
    area = _shoelace(w)
    d = w[1:] - w[:-1]
    del w  # before the lengths: at most two loop copies live besides the loop
    return area, float(np.sum(np.hypot(d[:, 0], d[:, 1])))


@dataclass(frozen=True)
class PolyShape:
    """A simple closed polygon (CCW), possibly with holes."""

    vertices: np.ndarray
    holes: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _planar_loop(self.vertices, "outer loop"))
        object.__setattr__(self, "holes",
                           tuple(_planar_loop(h, "hole") for h in self.holes))

    def bounds(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))


def measure(shape: PolyShape) -> tuple[float, float]:
    """(area, perimeter) of a PolyShape; hole areas subtract, hole lengths add.

    Each loop is closed once (its first vertex appended) and that one copy
    gives both its shoelace area and its edge lengths.
    """
    area, perim = _closing_pass(shape.vertices)
    if area <= 0.0:
        raise ValueError(f"outer loop must be CCW with positive area, got {area}")
    for hole in shape.holes:
        hole_area, hole_perim = _closing_pass(hole)
        area -= abs(hole_area)
        perim += hole_perim
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


@functools.lru_cache(maxsize=32)
def _unit_arc(a0: float, a1: float, segments: int) -> np.ndarray:
    """Read-only (segments+1, 2) points of the unit circle from angle a0 to
    a1 (signed sweep), both endpoints included."""
    angles = np.linspace(a0, a1, segments + 1)
    arc = np.column_stack([np.cos(angles), np.sin(angles)])
    arc.flags.writeable = False
    return arc


def _dedupe(points: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Drop consecutive duplicates (and a duplicated closing vertex); the
    input itself comes back when nothing is dropped."""
    keep = np.hypot(*(points[1:] - points[:-1]).T) > tol
    if not keep.all():
        points = points[np.concatenate(([True], keep))]
    if len(points) > 1 and np.hypot(*(points[0] - points[-1])) <= tol:
        points = points[:-1]
    return points


def _arc_loop(radius: float, arcs: tuple[tuple[float, float, float, float], ...],
              scale: float, segments: int, tol: float = 1e-14) -> PolyShape:
    """Closed loop of arcs (center x, center y, a0, a1) of one radius and one
    sweep laid end to end, ``segments`` edges each and no coordinate larger
    than ``scale`` in magnitude, deduplicated as ``_dedupe`` would.

    The cached templates are copied into one array, scaled, and shifted by
    their centers.  Within an arc consecutive vertices are a chord 2 r
    sin(sweep / 2 segments) apart; while that chord clears tol by 64 ulps of
    scale (``_joins_only``), no rounding of the vertices brings a within-arc
    pair down to tol, so only the first vertex of each arc can duplicate its
    predecessor (for the first arc that is the last vertex, closing the
    loop, which _dedupe drops instead).  These pairs get _dedupe's
    arithmetic and so its answer.  Below that margin the full scan runs.
    """
    n = int(segments) + 1
    points = np.empty((len(arcs) * n, 2))
    np.concatenate([_unit_arc(a0, a1, n - 1) for _, _, a0, a1 in arcs], out=points)
    points *= radius
    # one row (x, y) read as the complex x + iy: a complex add is the two
    # float adds x + cx and y + cy, in one contiguous pass (a length-2
    # broadcast row, or one strided column at a time, is slow)
    blocks = points.view(np.complex128).reshape(len(arcs), n)
    blocks += np.array([complex(x, y) for x, y, _, _ in arcs])[:, None]
    if not _joins_only(radius, arcs, scale, n - 1, tol):
        return PolyShape(_dedupe(points, tol))
    starts = np.arange(0, len(points), n)
    d = points[starts] - points[starts - 1]
    dup = ~(np.hypot(d[:, 0], d[:, 1]) > tol)
    if dup.any():
        drop = starts[dup]
        drop[drop == 0] = len(points) - 1
        points = np.delete(points, drop, axis=0)
    return PolyShape(points)


def _joins_only(radius: float, arcs, scale: float, segments: int,
                tol: float) -> bool:
    """Whether the within-arc chord clears tol by 64 ulps of scale, so that
    only arc joins can hold coincident vertices."""
    _, _, a0, a1 = arcs[0]
    chord = 2.0 * radius * math.sin(abs(a1 - a0) / (2 * segments))
    return chord > tol + 64.0 * math.ulp(scale)


@functools.lru_cache(maxsize=32)
def _unit_arc_sums(a0: float, a1: float, segments: int) -> tuple:
    """(S, C, u_first, u_last) of the template u = _unit_arc(a0, a1,
    segments) as Python floats: S = sum u_i x u_i+1, C = sum |u_i+1 - u_i|,
    and its end points as (x, y) pairs."""
    u = _unit_arc(a0, a1, segments)
    x, y = u[:, 0], u[:, 1]
    d = u[1:] - u[:-1]
    return (float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])),
            float(np.sum(np.hypot(d[:, 0], d[:, 1]))),
            (float(x[0]), float(y[0])), (float(x[-1]), float(y[-1])))


def _arc_loop_measures(radius: float, arcs: tuple[tuple[float, float, float, float], ...],
                       scale: float, segments: int,
                       tol: float = 1e-14) -> tuple[float, float]:
    """(area, perimeter) of ``_arc_loop(radius, arcs, scale, segments, tol)``
    without building it.

    Arc k's vertices are c_k + r u_i, so its edges contribute
    r^2 S_k + r c_k x (u_last - u_first) to twice the shoelace area and
    r C_k to the perimeter, with S and C the template sums of
    ``_unit_arc_sums``; the joins, from each arc's last vertex to the next
    arc's first, are measured on those two vertices as the builder rounds
    them.  A join the builder drops as a duplicate is at most tol long and
    is counted all the same: that moves the perimeter by at most 2 tol and
    the area by less, far below the rounding of the sums.  Below the
    join-only margin the loop is built and measured.
    """
    segments = int(segments)
    if not _joins_only(radius, arcs, scale, segments, tol):
        return measure(_arc_loop(radius, arcs, scale, segments, tol))
    twice_area = perim = 0.0
    ends = []  # each arc's (first, last) vertex
    for cx, cy, a0, a1 in arcs:
        cross, length, (x0, y0), (x1, y1) = _unit_arc_sums(a0, a1, segments)
        twice_area += radius * (radius * cross + cx * (y1 - y0) - cy * (x1 - x0))
        perim += radius * length
        ends.append(((x0 * radius + cx, y0 * radius + cy),
                     (x1 * radius + cx, y1 * radius + cy)))
    for (_, p), (q, _) in zip(ends, ends[1:] + ends[:1]):
        twice_area += p[0] * q[1] - p[1] * q[0]
        perim += math.hypot(q[0] - p[0], q[1] - p[1])
    return 0.5 * twice_area, perim


def _cut_corner_loop(length: float, t: float, segments: int):
    """(radius, arcs, scale) of the cut-corner rectangle, validated."""
    if not (length > 0.0 and 0.0 < t <= min(1.0, length / 2.0)):
        raise ValueError(f"need 0 < t <= min(1, L/2), got t={t}, L={length}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per arc, got {segments}")
    cx, cy = length / 2.0 - t, 1.0 - t
    quarter = 0.5 * math.pi
    arcs = ((cx, -cy, -quarter, 0.0), (cx, cy, 0.0, quarter),
            (-cx, cy, quarter, math.pi), (-cx, -cy, math.pi, math.pi + quarter))
    return t, arcs, max(length / 2.0, 1.0)


def build_cut_corner_rectangle(length: float, t: float,
                               segments: int = DEFAULT_SEGMENTS) -> PolyShape:
    """R_L = (-L/2, L/2) x (-1, 1) with corners cut by tangent arcs of radius t.

    Exact measures: area 2L - (4-pi) t^2, perimeter 2L + 4 - (8-2pi) t.
    ``segments`` counts edges per quarter arc.  Requires 0 < t <= min(1, L/2);
    t = 1, L = 2 degenerates to the inscribed unit disk.
    """
    return _arc_loop(*_cut_corner_loop(length, t, segments), segments)


def cut_corner_rectangle_measures(length: float, t: float,
                                  segments: int = DEFAULT_SEGMENTS) -> tuple[float, float]:
    """(area, perimeter) of ``build_cut_corner_rectangle(length, t, segments)``
    from the arc templates' sums, without building the polygon."""
    return _arc_loop_measures(*_cut_corner_loop(length, t, segments), segments)


def _stadium_loop(m: float, segments: int):
    """(radius, arcs, scale) of the stadium, validated."""
    if m < 0.0:
        raise ValueError(f"substrip length must be >= 0, got {m}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per arc, got {segments}")
    arcs = ((m / 2.0, 0.0, -0.5 * math.pi, 0.5 * math.pi),
            (-m / 2.0, 0.0, 0.5 * math.pi, 1.5 * math.pi))
    return 1.0, arcs, m / 2.0 + 1.0


def build_topped_substrip(m: float, segments: int = DEFAULT_SEGMENTS) -> PolyShape:
    """Stadium: straight substrip of length m capped by two unit half-disks.

    Centered at the origin, caps at (+-m/2, 0).  Exact measures: area
    2m + pi, perimeter 2m + 2pi.  m = 0 gives the unit disk.
    """
    return _arc_loop(*_stadium_loop(m, segments), segments)


def topped_substrip_measures(m: float,
                             segments: int = DEFAULT_SEGMENTS) -> tuple[float, float]:
    """(area, perimeter) of ``build_topped_substrip(m, segments)`` from the
    arc templates' sums, without building the polygon."""
    return _arc_loop_measures(*_stadium_loop(m, segments), segments)


# ---------------------------------------------------------------------------
# Uniform-grid bucket index: the candidate pairs of the all-pairs kernels.

_CHUNK = 4_000_000  # max candidate pairs per block, keeps memory bounded
_MAX_CELLS = 1 << 20  # cells per axis, keeps int64 cell keys exact


def _finite_max(values: np.ndarray) -> np.ndarray:
    """Column maxima over the finite entries (0 where there are none)."""
    return np.max(np.where(np.isfinite(values), values, 0.0), axis=0,
                  initial=0.0)


class _Grid:
    """Uniform-grid bucket index over axis-aligned item boxes (1-D or 2-D).

    Each item box [lo, hi] is registered in every cell it touches; the
    (cell key, item) entries are sorted once and a query box finds the items
    of the cells it touches with ``searchsorted``.  A cell coordinate is
    floor((x - origin) / cell), monotone in x under rounding, so an item box
    that meets a query box always shares a cell with it: the candidates are
    a superset of the overlapping items (a pair repeats when both boxes
    span several shared cells; a point query touches one cell, so its
    candidates are distinct).  Items and queries with a non-finite
    coordinate take part in no pair.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, cell) -> None:
        finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
        lo, hi = lo[finite], hi[finite]
        self.origin = lo.min(axis=0) if len(lo) else np.zeros(lo.shape[1])
        span = hi.max(axis=0) - self.origin if len(hi) else np.zeros(lo.shape[1])
        cell = np.maximum(np.asarray(cell, dtype=float), span / _MAX_CELLS)
        self.cell = np.where(cell > 0.0, cell, 1.0)
        self.shape = np.floor(span / self.cell).astype(np.int64) + 1
        keys, items = self._entries(self._coords(lo), self._coords(hi),
                                    np.flatnonzero(finite))
        order = np.argsort(keys, kind="stable")
        self.keys, self.items = keys[order], items[order]

    def _coords(self, x: np.ndarray) -> np.ndarray:
        """Cell coordinates, clipped to one cell beyond the grid each way."""
        with np.errstate(over="ignore"):  # far coordinates clip like +-inf
            c = np.floor((x - self.origin) / self.cell)
        return np.clip(c, -1, self.shape).astype(np.int64)

    def _entries(self, c0: np.ndarray, c1: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cell key, id) for every cell of each coordinate box [c0, c1];
        the entries of one id stay contiguous and in id order."""
        keys = np.zeros(len(ids), dtype=np.int64)
        for ax in range(c0.shape[1]):
            n = c1[:, ax] - c0[:, ax] + 1
            rep = np.repeat(np.arange(len(ids)), n)
            step = np.arange(len(rep)) - np.repeat(np.cumsum(n) - n, n)
            keys = keys[rep] * self.shape[ax] + c0[rep, ax] + step
            ids, c0, c1 = ids[rep], c0[rep], c1[rep]
        return keys, ids

    def pairs(self, lo: np.ndarray, hi: np.ndarray | None = None):
        """Yield (query, item) index arrays of candidate pairs for query boxes
        [lo, hi] (points when hi is None), in blocks of whole queries in
        ascending order, each of at most _CHUNK pairs unless one query
        alone has more."""
        hi = lo if hi is None else hi
        finite = np.flatnonzero(np.isfinite(lo).all(axis=1)
                                & np.isfinite(hi).all(axis=1))
        c0 = np.maximum(self._coords(lo[finite]), 0)
        c1 = np.minimum(self._coords(hi[finite]), self.shape - 1)
        hit = (c0 <= c1).all(axis=1)
        qkeys, qids = self._entries(c0[hit], c1[hit], finite[hit])
        start = np.searchsorted(self.keys, qkeys, "left")
        count = np.searchsorted(self.keys, qkeys, "right") - start
        per_query = np.cumsum(np.bincount(qids, weights=count,
                                          minlength=len(lo)))
        q = 0
        while q < len(lo):
            done = per_query[q - 1] if q else 0.0
            q_end = max(int(np.searchsorted(per_query, done + _CHUNK, "right")),
                        q + 1)
            e0, e1 = np.searchsorted(qids, (q, q_end))
            n = count[e0:e1]
            if n.sum():
                offs = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
                yield (np.repeat(qids[e0:e1], n),
                       self.items[np.repeat(start[e0:e1], n) + offs])
            q = q_end


# ---------------------------------------------------------------------------
# Point containment and segment intersection.

def _crossing_inside(loop: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray-casting containment of pts in a closed loop.

    A point is cast only against the edges bucketed in its y-band: an edge
    whose y-range misses the band cannot straddle the point's ordinate.
    Bands are sized so that each edge lands in about two of them.
    """
    x1, y1 = loop[:, 0], loop[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    dy = np.abs(y2 - y1)
    band = dy[np.isfinite(dy)].sum() / len(loop)
    bands = _Grid(np.minimum(y1, y2)[:, None], np.maximum(y1, y2)[:, None], band)
    crossings = np.zeros(len(pts), dtype=np.int64)
    for p, e in bands.pairs(pts[:, 1:]):
        py = pts[p, 1]
        straddles = (y1[e] > py) != (y2[e] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1[e] + (py - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
        hits = straddles & (pts[p, 0] < xcross)
        crossings += np.bincount(p[hits], minlength=len(pts))
    return crossings % 2 == 1


def contains_points(shape: PolyShape, pts: np.ndarray) -> np.ndarray:
    """Boolean mask: which points lie inside the shape (holes excluded)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    inside = _crossing_inside(shape.vertices, pts)
    for hole in shape.holes:
        inside &= ~_crossing_inside(hole, pts)
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
    excluded).  Returns the lexicographically first (i, j) segment indices
    or None.  Candidate pairs come from a uniform grid with cells as large
    as the largest segment box; only pairs whose bounding boxes overlap get
    the exact orientation test.  Segments with a non-finite coordinate never
    cross.
    """
    def segs(path, closed):
        p = np.asarray(path, dtype=float)
        if closed:
            return p, np.roll(p, -1, axis=0)
        return p[:-1], p[1:]

    a0, a1 = segs(path_a, closed_a)
    self_test = path_b is None
    b0, b1 = (a0, a1) if self_test else segs(path_b, closed_b)
    m = len(b0)
    if len(a0) == 0 or m == 0:
        return None
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    cell = np.maximum(_finite_max(a_hi - a_lo), _finite_max(b_hi - b_lo))
    for i, j in _Grid(b_lo, b_hi, cell).pairs(a_lo, a_hi):
        keep = (a_lo[i] <= b_hi[j]).all(axis=1) & (a_hi[i] >= b_lo[j]).all(axis=1)
        if self_test:
            # crossing is symmetric in (i, j): the first pair has i < j
            keep &= j > i + 1
            if closed_a:
                keep &= ~((i == 0) & (j == m - 1))
        i, j = i[keep], j[keep]
        hit = _segments_cross(a0[i], a1[i], b0[j], b1[j])
        if hit.any():
            k = int(np.argmin(i[hit] * m + j[hit]))
            return int(i[hit][k]), int(j[hit][k])
    return None
