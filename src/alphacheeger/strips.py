"""Shapes carved out of curved strips: the strip itself, capped substrips,
corner-cut variants, and the feasibility scan for cap placements.

For a spine gamma with left normal nu, the strip is Psi([0, L] x [-1, 1]),
Psi(s, t) = gamma(s) + t nu(s).  A "topped substrip" anchored at s0 is
Psi([s0, s0+M] x [-1, 1]) together with two unit half-disks centered at
gamma(s0) and gamma(s0+M) on the outward sides.  Whatever the spine's
curvature, its area is 2M + pi and its perimeter 2M + 2pi: the linear
curvature term integrates to zero across the width, and the two offset
lengths (1-kappa) ds + (1+kappa) ds cancel.  A placement is feasible when
both caps lie inside the strip and the caps do not collide with each other.

A cap is a closed unit half-disk D(c, u): centre c on the spine, outward
flat-side direction u.  Its points are within 1 of c, and a point that
close to an admissible spine lies in the strip unless its nearest spine
point is an end of an open spine; then it lies in the unit half-disk beyond
that end.  So both fit tests ask whether two unit half-disks meet: the two
caps (the collision test) and, on open spines, each cap and each end
half-disk D(gamma(0), -T(0)), D(gamma(L), T(L)), T the unit tangent (the
end test).  D(c, u) has the support function c . w + |w| in directions w
with w . u >= 0, else c . w + |w . u_perp|.  Over 11 axes, u_a, u_b,
c_b - c_a, each centre to the other's two flat-side corners and the four
corner-to-corner directions (the normals of every closest-feature pair),
the largest gap between the two projections is the distance of disjoint
half-disks and <= 0 for half-disks that meet.  The end test is
conservative: where an end points back at the spine, its half-disk also
covers strip points, and a cap lying on them is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveKind, StripCurve
from .geometry import PolyShape, signed_area

__all__ = [
    "FitResult",
    "build_cut_corner_strip",
    "build_strip_polygon",
    "build_topped_substrip_on_curve",
    "cut_corner_strip_measures",
    "fit_topped_substrip",
]

# Containment slack for exact-resolution tests is CONTAINMENT_RTOL * length.
CONTAINMENT_RTOL = 1e-9

# Corner patches of cut_corner_strip_measures: the crossing table covers
# arclength pi/2 from each end (plus a margin for the curvature slack), and
# each offset run is CORNER_RUN_POINTS source points (odd, so every second
# point keeps both ends).
CORNER_REACH = 0.5 * math.pi * 1.01
CORNER_TABLE_POINTS = 513
CORNER_MAX_SECANT_STEPS = 8
CORNER_CROSSING_TOL = 1e-14  # arclength step that ends the secant iteration
CORNER_RUN_POINTS = 257


def _ccw(vertices: np.ndarray) -> np.ndarray:
    return vertices if signed_area(vertices) > 0.0 else vertices[::-1]


def _unique_offset(curve: StripCurve, level: float) -> np.ndarray:
    """Offset polyline without the duplicated closing sample of an annulus."""
    pts = curve.offset(level)
    return pts[:-1] if curve.kind is CurveKind.ANNULUS else pts


def build_strip_polygon(curve: StripCurve) -> PolyShape:
    """Polygon bounded by the offsets at t = +-1 (plus end segments if open).

    For an annulus spine the result has one hole (outer and inner offset
    loops).  It only builds: admissibility, including a simple boundary, is
    ``StripCurve.validate``'s test.
    """
    lo = _unique_offset(curve, -1.0)
    hi = _unique_offset(curve, +1.0)
    if curve.kind is CurveKind.ANNULUS:
        area_lo, area_hi = abs(signed_area(lo)), abs(signed_area(hi))
        outer, inner = (lo, hi) if area_lo >= area_hi else (hi, lo)
        return PolyShape(_ccw(outer), holes=(_ccw(inner),))
    return PolyShape(_ccw(np.vstack([lo, hi[::-1]])))


def _offset_run(curve: StripCurve, level: float, s_a: float, s_b: float,
                points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Offset polyline from s_a to s_b inclusive: the caller's exact frames
    at both ends (``points`` and ``normals``, each (2, 2), at s_a then s_b),
    the curve's stored samples strictly in between.  s_b may exceed the
    spine length on annulus spines (wraps)."""
    if s_b < s_a:
        raise ValueError(f"need s_a <= s_b, got [{s_a}, {s_b}]")
    ds = curve.ds
    off = _unique_offset(curve, level)
    n = len(off)
    i_lo = int(math.floor(s_a / ds + 1e-9)) + 1
    i_hi = int(math.ceil(s_b / ds - 1e-9)) - 1
    if i_hi >= i_lo:
        idx = np.arange(i_lo, i_hi + 1)
        mid = off[idx % n] if curve.kind is CurveKind.ANNULUS else off[idx]
    else:
        mid = np.empty((0, 2))
    return np.vstack([[points[0] + level * normals[0]], mid,
                      [points[1] + level * normals[1]]])


def _cap_boundary(center: np.ndarray, tangent: np.ndarray, normal: np.ndarray,
                  outward: float, n_points: int) -> np.ndarray:
    """Sampled half-circle boundary of a unit cap (flat side excluded).

    ``outward`` is +1 for a cap pointing along the tangent (forward end),
    -1 for one pointing against it.  Runs from center - normal to
    center + normal through center + outward * tangent.  Frames of shape
    (..., 2) give caps of shape (..., n_points, 2).
    """
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_points)[:, None]
    return (center[..., None, :]
            + outward * (np.cos(phi) * tangent[..., None, :])
            + np.sin(phi) * normal[..., None, :])


def build_topped_substrip_on_curve(curve: StripCurve, s0: float, m: float,
                                   segments: int = 256) -> PolyShape:
    """Polygon of the capped substrip anchored at arclength s0.

    Offsets are taken at the curve's own sample resolution; each half-disk
    cap gets ``segments`` edges.  On annulus spines s0 + M may wrap.
    """
    if m < 0.0:
        raise ValueError(f"substrip length must be >= 0, got {m}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per cap, got {segments}")
    wrap = curve.kind is CurveKind.ANNULUS
    s1 = s0 + m
    if not wrap and (s0 < -1e-9 or s1 > curve.length + 1e-9):
        raise ValueError(f"substrip [{s0}, {s1}] outside spine [0, {curve.length}]")
    p, tan, nor = curve.frames(np.array([s0, s1]))
    bottom = _offset_run(curve, -1.0, s0, s1, p, nor)
    top = _offset_run(curve, +1.0, s0, s1, p, nor)
    cap_fwd = _cap_boundary(p[1], tan[1], nor[1], +1.0, segments + 1)[1:]
    cap_back = _cap_boundary(p[0], tan[0], nor[0], -1.0, segments + 1)[::-1][1:-1]
    boundary = np.vstack([bottom, cap_fwd, top[::-1][1:], cap_back])
    area = signed_area(boundary)
    if area <= 0.0:
        raise ValueError(f"degenerate capped substrip (signed area {area})")
    return PolyShape(boundary)


def _end_offset_crossing(curve: StripCurve, end: int, base: np.ndarray,
                         tangent: np.ndarray, level: float, depth: float) -> float:
    """Arclength s where the offset polyline Psi(s, level) reaches signed
    distance ``depth`` from the end line, measured along the inward tangent.

    ``end`` is 0 for the s=0 end, 1 for the s=L end; ``base`` and
    ``tangent`` are the spine's point and unit tangent there.  Monotone near
    the ends for admissible spines; solved on the samples with linear
    interpolation.  For depth <= 1 the crossing lies within arclength pi/2 of
    the end (see ``cut_corner_strip_measures``), so only the samples that far
    out (plus two steps) are scanned first; the whole offset is the fallback.
    """
    pts, nor = curve.points, curve.normals
    inward = tangent
    if end == 1:
        inward = -tangent
        pts, nor = pts[::-1], nor[::-1]
    n = len(pts)
    near = min(int(0.5 * math.pi / curve.ds) + 3, n)
    for count in (near, n):
        g = (pts[:count] + level * nor[:count] - base) @ inward
        idx = int(np.argmax(g >= depth))
        if g[idx] >= depth:
            break
    else:
        raise ValueError(f"spine too short to cut a corner of depth {depth}")
    if idx == 0:
        return 0.0 if end == 0 else curve.length
    g0, g1 = g[idx - 1], g[idx]
    w = (depth - g0) / (g1 - g0)
    s_from_end = (idx - 1 + w) * curve.ds
    return s_from_end if end == 0 else curve.length - s_from_end


def _arc_between(center: np.ndarray, radius: float, p_from: np.ndarray,
                 p_to: np.ndarray, segments: int) -> np.ndarray:
    """Inscribed arc from p_from to p_to around center, short way, with
    segments+1 points (both endpoints included)."""
    a0 = math.atan2(p_from[1] - center[1], p_from[0] - center[0])
    a1 = math.atan2(p_to[1] - center[1], p_to[0] - center[0])
    sweep = (a1 - a0 + math.pi) % (2.0 * math.pi) - math.pi
    ang = a0 + sweep * np.linspace(0.0, 1.0, segments + 1)
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


def build_cut_corner_strip(curve: StripCurve, t: float,
                           segments: int = 256) -> PolyShape:
    """The strip with its four corners cut by arcs of radius t (0 < t <= 1).

    Each corner arc is tangent both to the end segment and to the offset
    boundary: its center sits on the level +-(1-t) offset at inward distance
    t from the end line.  Reduces to the cut-corner rectangle for a straight
    spine.  Finite open spines only.
    """
    if curve.kind is not CurveKind.FINITE:
        raise ValueError(f"corner cutting needs a finite open spine, got {curve.kind}")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"corner radius must be in (0, 1], got {t}")
    if segments < 4:
        raise ValueError(f"need >= 4 segments per arc, got {segments}")

    # corners (end 0, side -1), (0, +1), (1, -1), (1, +1); one frames call
    # for the ends and one for the four crossings, which also end the runs
    e_pts, e_tans, _ = curve.frames(np.array([0.0, curve.length]))
    keys = [(end, side) for end in (0, 1) for side in (-1.0, +1.0)]
    s_c = np.array([_end_offset_crossing(curve, end, e_pts[end], e_tans[end],
                                         side * (1.0 - t), t) for end, side in keys])
    c_pts, _, c_nors = curve.frames(s_c)
    corners = []
    for (end, side), c_pt, c_nor in zip(keys, c_pts, c_nors):
        inward = e_tans[0] if end == 0 else -e_tans[1]
        center = c_pt + side * (1.0 - t) * c_nor  # on the level +-(1 - t) offset
        # tangency foot on the end line: drop the inward component
        foot = center - ((center - e_pts[end]) @ inward) * inward
        touch = c_pt + side * c_nor  # tangency on the offset boundary
        corners.append((center, foot, touch))

    (c_bl, f_bl, o_bl), (c_tl, f_tl, o_tl), (c_br, f_br, o_br), (c_tr, f_tr, o_tr) = corners
    s_bl, s_tl, s_br, s_tr = s_c
    if s_bl >= s_br or s_tl >= s_tr:
        raise ValueError(f"spine too short for corner radius {t}")

    bottom = _offset_run(curve, -1.0, s_bl, s_br, c_pts[[0, 2]], c_nors[[0, 2]])
    top = _offset_run(curve, +1.0, s_tl, s_tr, c_pts[[1, 3]], c_nors[[1, 3]])
    arc_br = _arc_between(c_br, t, o_br, f_br, segments)[1:]
    arc_tr = _arc_between(c_tr, t, f_tr, o_tr, segments)
    arc_tl = _arc_between(c_tl, t, o_tl, f_tl, segments)[1:]
    arc_bl = _arc_between(c_bl, t, f_bl, o_bl, segments)[:-1]
    boundary = np.vstack([bottom, arc_br, arc_tr, top[::-1][1:], arc_tl, arc_bl])
    area = signed_area(boundary)
    if area <= 0.0:
        raise ValueError(f"degenerate corner-cut strip (signed area {area})")
    return PolyShape(boundary)


def cut_corner_strip_measures(curve: StripCurve):
    """(area, perimeter) of the cut-corner strip as a function of its corner
    radius t in (0, 1], on a finite open spine, without building a polygon.

    The strip measures exactly (2L, 2L + 4); cutting a corner removes the
    patch bounded by the end line, the +-1 offset from the end to the arc's
    tangency and the arc itself, so the returned function gives
    (2L - sum dA_c(t), 2L + 4 - sum dP_c(t)) over the four corners.  Per
    corner, in coordinates x along the inward tangent and y along the normal
    at the end e:

    * the arc center c = Psi(s_c, +-(1 - t)) solves (c - e) . inward = t.
      That distance g(s) has g' >= t cos s from the end when |kappa| <= 1,
      so the root lies within arclength pi/2; a table of (gamma - e) .
      inward and nu . inward over that reach brackets it (g is linear in t),
      then secant steps on the source frames refine it until a step is
      below CORNER_CROSSING_TOL (two or three; a curvature jump next to s_c
      takes the third);
    * the arc sweeps theta between -inward and the offset's normal at s_c:
      length t theta, circular segment t^2 (theta - sin theta) / 2;
    * the end-line piece is |y_side - y_c|; the offset run, of speed
      1 -+ kappa, has the exact length |s_c - s_end| + theta - pi/2;
    * the area between run, arc chord and end line is a shoelace over
      CORNER_RUN_POINTS source points spaced evenly between the exact
      endpoints, Richardson-combined with every second point (the error of
      an inscribed polygon is even in its step).  A fixed count keeps the
      measure smooth in t, which the classifier's radius iteration relies on.
    """
    if curve.kind is not CurveKind.FINITE:
        raise ValueError(f"corner cutting needs a finite open spine, got {curve.kind}")
    length = curve.length
    s_end = np.array([0.0, length])
    e, tan_e, nor_e = curve.frames(s_end)
    inward = tan_e * [[1.0], [-1.0]]
    reach = min(CORNER_REACH, 0.5 * length)
    u = np.linspace(0.0, reach, CORNER_TABLE_POINTS)
    p, _, nor = curve.frames(np.concatenate([u, length - u]))
    dist = np.einsum("eki,ei->ek", p.reshape(2, -1, 2) - e[:, None], inward)
    lean = np.einsum("eki,ei->ek", nor.reshape(2, -1, 2), inward)

    # corners (end 0, side -1), (end 0, +1), (end 1, -1), (end 1, +1)
    ends = np.array([0, 0, 1, 1])
    side = np.array([-1.0, 1.0, -1.0, 1.0])
    heading = np.array([1.0, 1.0, -1.0, -1.0])  # direction of s away from the end
    e, inward, nor_e = e[ends], inward[ends], nor_e[ends]
    dist, lean, s_end = dist[ends], lean[ends], s_end[ends]
    run = np.linspace(0.0, 1.0, CORNER_RUN_POINTS)
    rows = np.arange(4)

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]

    def loop_area(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 0.5 * (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)

    def measures(t: float) -> tuple[float, float]:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"corner radius must be in (0, 1], got {t}")
        level = side * (1.0 - t)
        g = dist + level[:, None] * lean - t
        k = np.argmax(g >= 0.0, axis=1)
        if not (g[rows, k] >= 0.0).all():
            raise ValueError(f"spine too short to cut a corner of depth {t}")
        u_lo, u_hi = u[k - 1], u[k]
        g_lo, g_hi = g[rows, k - 1], g[rows, k]
        x = u_lo - g_lo * (u_hi - u_lo) / (g_hi - g_lo)
        x_prev, g_prev = u_hi, g_hi
        for _ in range(CORNER_MAX_SECANT_STEPS):
            pc, _, nc = curve.frames(s_end + heading * x)
            gx = dot(pc - e, inward) + level * dot(nc, inward) - t
            slope = gx - g_prev
            moved = slope != 0.0
            step = gx * (x - x_prev) / np.where(moved, slope, 1.0)
            x_prev, g_prev = x, gx
            x = np.clip(np.where(moved, x - step, x), u_lo, u_hi)
            if (np.abs(x - x_prev) <= CORNER_CROSSING_TOL).all():
                break

        s = s_end[:, None] + (heading * x)[:, None] * run
        p, _, nor = curve.frames(s.ravel())
        p, nor = p.reshape(4, -1, 2), nor.reshape(4, -1, 2)
        rel = p + side[:, None, None] * nor - e[:, None]  # the +-1 offset run
        xs, ys = dot(rel, inward[:, None]), dot(rel, nor_e[:, None])
        yc = dot(p[:, -1] + level[:, None] * nor[:, -1] - e, nor_e)
        touch = side[:, None] * nor[:, -1]  # from the arc center to the offset
        theta = np.arctan2(np.abs(dot(touch, nor_e)), -dot(touch, inward))
        # loop: the corner, the run to the tangency, the foot (0, y_c)
        fine = loop_area(np.column_stack([xs, np.zeros(4)]),
                         np.column_stack([ys, yc]))
        coarse = loop_area(np.column_stack([xs[:, ::2], np.zeros(4)]),
                           np.column_stack([ys[:, ::2], yc]))
        patch_area = (np.abs(4.0 * fine - coarse) / 3.0
                      - 0.5 * t * t * (theta - np.sin(theta)))
        patch_perim = np.abs(side - yc) + x + theta - 0.5 * math.pi - t * theta
        return (2.0 * length - float(patch_area.sum()),
                2.0 * length + 4.0 - float(patch_perim.sum()))

    return measures


@dataclass(frozen=True)
class FitResult:
    """Outcome of scanning cap placements along a spine.

    ``candidates`` holds the scanned anchor values s0, ``feasible`` the
    verdict per candidate (end test and collision test) and ``step`` the
    scan resolution.  On annulus spines a feasible run that wraps past
    s = 0 shows up as two intervals.
    """

    candidates: np.ndarray
    feasible: np.ndarray
    step: float

    @property
    def cap_points(self) -> int:
        # read only by perfbench/tracing.py; ROADMAP item 1a retires it
        return 0  # no cap points are sampled: the fit tests are exact

    @property
    def any_feasible(self) -> bool:
        return bool(self.feasible.any())

    @property
    def intervals(self) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        run_start = prev = None
        for s, ok in zip(self.candidates, self.feasible):
            if ok:
                if run_start is None:
                    run_start = s
                prev = s
            elif run_start is not None:
                out.append((float(run_start), float(prev)))
                run_start = None
        if run_start is not None:
            out.append((float(run_start), float(prev)))
        return out

    @property
    def widest(self) -> tuple[float, float]:
        """The first of the widest feasible runs; ValueError if none."""
        runs = self.intervals
        if not runs:
            raise ValueError("no feasible placement")
        return max(runs, key=lambda iv: iv[1] - iv[0])


def _half_disk_gap(c_a: np.ndarray, u_a: np.ndarray, c_b: np.ndarray,
                   u_b: np.ndarray) -> np.ndarray:
    """Per row, the gap of the unit half-disks D(c_a, u_a) and D(c_b, u_b)
    (each argument (k, 2)) over the 11 axes of the module docstring, those
    of zero length skipped; complementary half-disks on one centre give 0."""
    d = c_b - c_a  # projections relative to c_a
    n_a, n_b = (np.column_stack([-u[:, 1], u[:, 0]]) for u in (u_a, u_b))
    # d + i n_b + j n_a for i, j in {-1, 0, 1}: the centre line, each centre
    # to the other's corners, and corner to corner
    i, j = np.divmod(np.arange(9.0), 3.0)
    axes = np.concatenate([[u_a, u_b], d + (i - 1.0)[:, None, None] * n_b
                           + (j - 1.0)[:, None, None] * n_a])
    norm = np.hypot(axes[..., 0], axes[..., 1])
    w = axes / np.where(norm > 0.0, norm, 1.0)[..., None]

    def reach(u: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Support of D(0, u) along w and along -w."""
        wu, wn = (w * u).sum(axis=-1), np.abs((w * n).sum(axis=-1))
        return np.where(wu >= 0.0, 1.0, wn), np.where(wu <= 0.0, 1.0, wn)

    (up_a, down_a), (up_b, down_b) = reach(u_a, n_a), reach(u_b, n_b)
    shift = (w * d).sum(axis=-1)
    gap = np.maximum(shift - down_b - up_a, -shift - down_a - up_b)
    return np.where(norm > 0.0, gap, -np.inf).max(axis=0)


def _cap_gaps(curve: StripCurve, s0: np.ndarray, m: float) -> np.ndarray:
    """Half-disk gaps of the caps anchored at each s0, in one batched call:
    row 0 pairs the two caps; on open spines rows 1-4 pair the back cap,
    then the front cap, with the start's end half-disk, then with the end's."""
    p0, t0, _ = curve.frames(s0)
    p1, t1, _ = curve.frames(s0 + m)
    pairs = [(p0, -t0, p1, t1)]
    if curve.kind is not CurveKind.ANNULUS:
        ends, tans, _ = curve.frames(np.array([0.0, curve.length]))
        for end, u in ((ends[0], -tans[0]), (ends[1], tans[1])):
            pairs += [(c, t, np.broadcast_to(end, c.shape), np.broadcast_to(u, c.shape))
                      for c, t in ((p0, -t0), (p1, t1))]
    return _half_disk_gap(*map(np.concatenate, zip(*pairs))).reshape(len(pairs), -1)


def fit_topped_substrip(curve: StripCurve, m: float, *,
                        scan_step: float | None = None) -> FitResult:
    """Scan anchor positions s0 at which the capped substrip fits the strip.

    The substrip itself is a subset of the strip by construction, so only the
    caps are tested, for all anchors in one ``_cap_gaps`` call.  They collide
    when their gap is below -1e-9; on an open spine a cap-to-end gap below
    -CONTAINMENT_RTOL * L fails the fit (the slack keeps caps feasible that
    touch an end tangentially, as they do along their flat sides).
    """
    if m < 0.0:
        raise ValueError(f"substrip length must be >= 0, got {m}")
    wrap = curve.kind is CurveKind.ANNULUS
    length = curve.length
    if scan_step is None:
        scan_step = max(curve.ds, length / 256.0)

    no_room = (m >= length - 1e-12) if wrap else (m > length + 1e-12)
    if no_room:
        return FitResult(np.array([0.0]), np.array([False]), float(scan_step))

    if wrap:
        n = max(int(round(length / scan_step)), 1)
        candidates = (length / n) * np.arange(n)
        scan_step = length / n
    else:
        span = length - m
        n = max(int(math.floor(span / scan_step + 1e-12)), 0)
        candidates = np.unique(np.concatenate([np.arange(n + 1) * scan_step,
                                               [span]]))

    gap = _cap_gaps(curve, candidates, m)
    feasible = (gap[0] >= -1e-9) & (gap[1:] >= -CONTAINMENT_RTOL * length).all(axis=0)
    return FitResult(candidates, feasible, float(scan_step))
