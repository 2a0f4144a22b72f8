"""Reference copies the package is tested against.

The all-pairs strip kernels as they were before the grid index: every
segment pair and every point against every edge; the fit scan one anchor
at a time, its caps sampled and tested against all spine segments near
them (the tube's distance test and end test) and against each other
(``caps_collide``), which is the sampled algorithm the exact half-disk
test replaced; a dense fill of two half-disks (``half_disks_meet``); the
corner crossing of the cut-corner strip scanned over the whole offset; and
the closed-form frames of the segment, arc and circle sources that the
one-piece paths replaced.  The bit-identity tests compare the indexed,
localized and batched kernels in ``alphacheeger`` with them.

The two extended-precision minimizers (``min_cut_corner_ratio``,
``min_stadium_ratio``) are the references for the corner-radius and
stadium-length closed forms: the double-precision golden-section noise
floor sqrt(eps * f / f'') sits near 5e-8, above the 1e-8 agreement
targets.  ``regular_polygon`` is a calibration shape.
"""

import functools
import math

import mpmath as mp
import numpy as np

from alphacheeger.analytic import _alpha_value
from alphacheeger.curves import CurveKind
from alphacheeger.geometry import PolyShape
from alphacheeger.oracle import golden_section_min
from alphacheeger.strips import CONTAINMENT_RTOL

_CHUNK = 4_000_000

# The sampled fit scan's resolutions: boundary points per cap in the end
# test, and per ring (radii 1, 1/2, 1/4) in the collision test.
SAMPLED_CAP_POINTS = 128
CAP_PROBE_POINTS = 64


def _crossing_inside(loop, pts):
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


def _dist_to_loop(loop, pts):
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


def contains_points(shape, pts, tol=0.0):
    pts = np.asarray(pts, dtype=float)
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


def _segments_cross(a0, a1, b0, b1):
    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    return (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & \
           (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))


def first_segment_intersection(path_a, path_b=None, closed_a=False, closed_b=False):
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


def segment_frame(s):
    """Points and tangents of the straight spine along +x from the origin."""
    s = np.asarray(s, dtype=float)
    return np.column_stack([s, np.zeros_like(s)]), np.tile([1.0, 0.0], (len(s), 1))


def circle_frame(radius, s):
    """The circle of radius R traversed CCW from (R, 0)."""
    ang = np.asarray(s, dtype=float) / radius
    return (radius * np.column_stack([np.cos(ang), np.sin(ang)]),
            np.column_stack([-np.sin(ang), np.cos(ang)]))


def arc_frame(radius, angle, s):
    """The arc of radius R and signed angle from the origin heading +x;
    its centre is (0, sgn R)."""
    sgn = 1.0 if angle >= 0 else -1.0
    phi = np.asarray(s, dtype=float) / radius
    return (np.column_stack([radius * np.sin(phi), sgn * radius * (1.0 - np.cos(phi))]),
            np.column_stack([np.cos(phi), sgn * np.sin(phi)]))


def _frame_at(curve, s):
    if curve.kind is CurveKind.ANNULUS:
        s = s % curve.length
    pts, tan = curve.source.frame(np.array([s]))
    t = tan[0] / np.hypot(*tan[0])
    return pts[0], t, np.array([-t[1], t[0]])


def end_offset_crossing(curve, end, base, tangent, level, depth):
    """strips._end_offset_crossing scanning the whole offset polyline."""
    pts = curve.offset(level)
    inward = tangent
    if end == 1:
        inward = -tangent
        pts = pts[::-1]
    g = (pts - base) @ inward
    idx = int(np.argmax(g >= depth))
    if g[idx] < depth:
        raise ValueError(f"spine too short to cut a corner of depth {depth}")
    if idx == 0:
        return 0.0 if end == 0 else curve.length
    g0, g1 = g[idx - 1], g[idx]
    w = (depth - g0) / (g1 - g0)
    s_from_end = (idx - 1 + w) * curve.ds
    return s_from_end if end == 0 else curve.length - s_from_end


def _cap_boundary(center, tangent, normal, outward, n_points):
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_points)
    return (center
            + outward * np.outer(np.cos(phi), tangent)
            + np.outer(np.sin(phi), normal))


def caps_collide(c_a: np.ndarray, u_a: np.ndarray, c_b: np.ndarray,
                 u_b: np.ndarray) -> bool:
    """Do two unit half-disk caps (centers c, outward flat-side directions u)
    overlap?  Probes each cap's sampled closure against the other's
    half-disk inequalities."""
    gap = float(np.hypot(*(c_a - c_b)))
    if gap >= 2.0:
        return False
    if gap <= 1e-12:
        # coincident centers: complementary half-disks (opposite flat
        # normals) share only their diameter, anything else overlaps
        return float(u_a @ u_b) > -1.0 + 1e-9
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, CAP_PROBE_POINTS)
    for c_this, u_this, c_other, u_other in ((c_a, u_a, c_b, u_b),
                                             (c_b, u_b, c_a, u_a)):
        nor = np.array([-u_this[1], u_this[0]])
        for rad in (1.0, 0.5, 0.25):
            pts = c_this + rad * (np.outer(np.cos(phi), u_this)
                                  + np.outer(np.sin(phi), nor))
            rel = pts - c_other
            inside = (np.hypot(rel[:, 0], rel[:, 1]) < 1.0 - 1e-9) \
                & (rel @ u_other > 1e-9)
            if inside.any():
                return True
    return False


@functools.lru_cache(maxsize=None)
def _unit_half_disk(spacing, fill):
    """Points of the unit half-disk D(0, (1, 0)) at most ``spacing`` apart:
    its boundary (the arc and the flat side), or with ``fill`` the whole
    half-disk on polar rings.  Each arc takes an odd count of angles on
    [-pi/2, pi/2], so the tip is among them."""
    steps = int(math.ceil(1.0 / spacing))
    radii = np.linspace(0.0, 1.0, steps + 1)[1:] if fill else [1.0]
    pts = [np.column_stack([np.zeros(2 * steps + 1), np.linspace(-1.0, 1.0, 2 * steps + 1)])]
    for r in radii:
        phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi,
                          2 * int(math.ceil(0.5 * math.pi * r / spacing)) + 1)
        pts.append(r * np.column_stack([np.cos(phi), np.sin(phi)]))
    return np.vstack(pts)


def _half_disk_points(center, u, spacing, fill):
    local = _unit_half_disk(spacing, fill)
    return center + np.outer(local[:, 0], u) + np.outer(local[:, 1], [-u[1], u[0]])


def half_disks_meet(c_a, u_a, c_b, u_b, spacing=1e-2):
    """Dense-fill reference for two closed unit half-disks D(c, u) =
    {x : |x - c| <= 1, (x - c) . u >= 0}: (overlap, distance).

    ``overlap``: a fill point of one lies inside the other by more than
    1e-9, so their interiors meet.  ``distance``: the least distance between
    the two sampled boundaries.  It is within ``spacing`` above the distance
    of disjoint half-disks, and at most ``spacing`` for half-disks that
    meet, since then their boundaries meet.
    """
    def inside(pts, c, u):
        rel = pts - c
        return (np.hypot(rel[:, 0], rel[:, 1]) < 1.0 - 1e-9) & (rel @ u > 1e-9)

    overlap = (inside(_half_disk_points(c_a, u_a, spacing, True), c_b, u_b).any()
               or inside(_half_disk_points(c_b, u_b, spacing, True), c_a, u_a).any())
    edge_a = _half_disk_points(c_a, u_a, spacing, False)
    edge_b = _half_disk_points(c_b, u_b, spacing, False)
    dx = edge_a[:, 0, None] - edge_b[None, :, 0]
    dy = edge_a[:, 1, None] - edge_b[None, :, 1]
    return bool(overlap), math.sqrt(float((dx * dx + dy * dy).min()))


class _TubeProbe:
    def __init__(self, curve, max_points):
        pts = curve.points
        closed = curve.kind is CurveKind.ANNULUS
        if closed:
            pts = pts[:-1]
        n = len(pts)
        stride = max(int(math.ceil(n / max_points)), 1)
        idx = np.arange(0, n, stride)
        if not closed and idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        sp = pts[idx]
        if closed:
            self.a, self.b = sp, np.roll(sp, -1, axis=0)
        else:
            self.a, self.b = sp[:-1], sp[1:]
        self.closed = closed
        self.eff_step = stride * curve.ds
        ab = self.b - self.a
        self.ab = ab
        self.ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
        self.mid = 0.5 * (self.a + self.b)
        self.half = 0.5 * np.sqrt(self.ab2)
        if not closed:
            self.p_start, self.t_start, _ = _frame_at(curve, 0.0)
            self.p_end, self.t_end, _ = _frame_at(curve, curve.length)

    def contains(self, pts, centers, tol):
        reach = 2.0 + float(self.half.max()) + 0.1
        local = np.zeros(len(self.a), dtype=bool)
        for c in centers:
            local |= np.hypot(*(self.mid - c).T) <= reach
        sel = np.flatnonzero(local)
        if len(sel) == 0:
            return False
        a, ab, ab2 = self.a[sel], self.ab[sel], self.ab2[sel]
        ap = pts[:, None, :] - a[None, :, :]
        tt = np.clip(np.einsum("pij,ij->pi", ap, ab) / ab2, 0.0, 1.0)
        closest = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
        d = np.hypot(*(pts[:, None, :] - closest).transpose(2, 0, 1)).min(axis=1)
        if (d > 1.0 + tol).any():
            return False
        if not self.closed:
            rel0 = pts - self.p_start
            in_d0 = (rel0 @ self.t_start < -tol) \
                & (np.hypot(rel0[:, 0], rel0[:, 1]) <= 1.0 + tol)
            rel1 = pts - self.p_end
            in_d1 = (rel1 @ self.t_end > tol) \
                & (np.hypot(rel1[:, 0], rel1[:, 1]) <= 1.0 + tol)
            if in_d0.any() or in_d1.any():
                return False
        return True


def fit_feasible(curve, m, *, scan_step=None, cap_points=SAMPLED_CAP_POINTS,
                 spine_points=2048):
    """(candidates, feasible) of the anchor-by-anchor fit scan."""
    wrap = curve.kind is CurveKind.ANNULUS
    length = curve.length
    if scan_step is None:
        scan_step = max(curve.ds, length / 256.0)
    no_room = (m >= length - 1e-12) if wrap else (m > length + 1e-12)
    if no_room:
        return np.array([0.0]), np.array([False])
    if wrap:
        n = max(int(round(length / scan_step)), 1)
        candidates = (length / n) * np.arange(n)
    else:
        span = length - m
        n = max(int(math.floor(span / scan_step + 1e-12)), 0)
        candidates = np.unique(np.concatenate([np.arange(n + 1) * scan_step, [span]]))
    probe = _TubeProbe(curve, spine_points)
    tol = CONTAINMENT_RTOL * length + probe.eff_step ** 2 / 8.0
    feasible = np.zeros(len(candidates), dtype=bool)
    for i, s0 in enumerate(candidates):
        p0, t0, n0 = _frame_at(curve, s0)
        p1, t1, n1 = _frame_at(curve, s0 + m)
        caps = np.vstack([_cap_boundary(p0, t0, n0, -1.0, cap_points),
                          _cap_boundary(p1, t1, n1, +1.0, cap_points)])
        if not probe.contains(caps, np.array([p0, p1]), tol):
            continue
        if caps_collide(p0, -t0, p1, t1):
            continue
        feasible[i] = True
    return candidates, feasible


def regular_polygon(sides: int, radius: float = 1.0) -> PolyShape:
    """Regular n-gon inscribed in a circle (CCW), handy for calibration tests."""
    if sides < 3:
        raise ValueError(f"need >= 3 sides, got {sides}")
    ang = 2.0 * math.pi * np.arange(sides) / sides
    verts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return PolyShape(verts)


def min_cut_corner_ratio(length: float, alpha, tol: float = 1e-10,
                         dps: int = 30) -> tuple[float, float]:
    """Golden-section minimum of the corner-cut ratio from its exact
    perimeter/area expressions, at ``dps`` decimal digits.

    Returns (t*, ratio*).  Serves as the reference for the corner-radius
    closed form; extended precision pushes the golden-section noise floor
    far below the 1e-8 comparisons made against it.
    """
    a = _alpha_value(alpha)
    if length < 2.0:
        raise ValueError(f"normalized length must be >= 2, got {length}")
    with mp.workdps(dps):
        L = mp.mpf(length)
        av = mp.mpf(a)
        pi = mp.pi

        def f(t):
            perim = 2 * L + 4 - (8 - 2 * pi) * t
            area = 2 * L - (4 - pi) * t * t
            return perim / area ** (1 / av)

        hi = min(mp.mpf(1), L / 2)
        t_star, f_star = golden_section_min(f, mp.mpf(0), hi, mp.mpf(tol))
        return float(t_star), float(f_star)


def min_stadium_ratio(alpha, tol: float = 1e-10, dps: int = 30,
                      upper: float = 100.0) -> tuple[float, float]:
    """Golden-section minimum of m -> (2m+2pi)/(2m+pi)^(1/alpha) at ``dps``
    digits, expanding the bracket upward until the minimum is interior.

    Returns (m*, ratio*); the reference for the optimal stadium length.
    """
    a = _alpha_value(alpha)
    with mp.workdps(dps):
        av = mp.mpf(a)
        pi = mp.pi

        def f(m):
            return (2 * m + 2 * pi) / (2 * m + pi) ** (1 / av)

        hi = mp.mpf(upper)
        while f(hi) <= f(hi * (1 - mp.mpf("1e-6"))) and hi < 1e9:
            hi *= 2
        m_star, f_star = golden_section_min(f, mp.mpf(0), hi, mp.mpf(tol))
        return float(m_star), float(f_star)
