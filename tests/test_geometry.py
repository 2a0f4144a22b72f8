"""Polygon measures, shape builders, containment, crossing detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alphacheeger import (
    PolyShape,
    build_cut_corner_rectangle,
    build_topped_substrip,
    contains_points,
    cut_corner_area,
    cut_corner_rectangle_measures,
    cut_corner_perimeter,
    measure,
    scale_shape,
    stadium_area,
    stadium_perimeter,
    topped_substrip_measures,
    translate_shape,
)
from alphacheeger import CurveKind, PathSpec, curve_from_source
from alphacheeger import geometry
from alphacheeger.geometry import _unit_arc, first_segment_intersection

import reference_kernels as ref
from reference_kernels import regular_polygon

SQUARE = PolyShape(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))


def test_measure_square():
    area, perim = measure(SQUARE)
    assert area == pytest.approx(4.0, abs=1e-15)
    assert perim == pytest.approx(8.0, abs=1e-15)


def test_measure_square_with_hole():
    hole = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
    shape = PolyShape(SQUARE.vertices, holes=(hole,))
    area, perim = measure(shape)
    assert area == pytest.approx(3.0, abs=1e-14)
    assert perim == pytest.approx(12.0, abs=1e-14)


def test_measure_rejects_clockwise_outer_loop():
    with pytest.raises(ValueError):
        measure(PolyShape(SQUARE.vertices[::-1]))


def test_regular_polygon_approaches_the_disk():
    area, perim = measure(regular_polygon(10_000))
    assert area == pytest.approx(math.pi, rel=1e-7)
    assert perim == pytest.approx(2 * math.pi, rel=1e-7)
    with pytest.raises(ValueError):
        regular_polygon(2)


def _convergence_order(errors, resolutions):
    return math.log(errors[0] / errors[-1]) / math.log(resolutions[-1] / resolutions[0])


@pytest.mark.parametrize("builder,exact", [
    (lambda n: build_cut_corner_rectangle(4.0, 0.7, n),
     (cut_corner_area(4.0, 0.7), cut_corner_perimeter(4.0, 0.7))),
    (lambda n: build_topped_substrip(2.0, n),
     (stadium_area(2.0), stadium_perimeter(2.0))),
])
def test_builder_convergence_is_second_order(builder, exact):
    resolutions = (100, 1000, 10_000)
    area_err, perim_err = [], []
    for n in resolutions:
        area, perim = measure(builder(n))
        area_err.append(abs(area - exact[0]))
        perim_err.append(abs(perim - exact[1]))
    assert _convergence_order(area_err, resolutions) >= 1.9
    assert _convergence_order(perim_err, resolutions) >= 1.9
    # and the finest resolution is already deep in closed-form agreement
    assert area_err[-1] <= 1e-7 * exact[0]
    assert perim_err[-1] <= 1e-7 * exact[1]


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_translation_leaves_measures_unchanged(dx, dy):
    shape = build_cut_corner_rectangle(5.0, 0.5, 400)
    area, perim = measure(shape)
    area_t, perim_t = measure(translate_shape(shape, dx, dy))
    assert area_t == pytest.approx(area, rel=1e-12)
    assert perim_t == pytest.approx(perim, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_scaling_law_on_measures(t):
    shape = build_topped_substrip(1.3, 400)
    area, perim = measure(shape)
    area_s, perim_s = measure(scale_shape(shape, t))
    assert area_s == pytest.approx(t * t * area, rel=1e-12)
    assert perim_s == pytest.approx(t * perim, rel=1e-12)


def _direct_arc(center, radius, a0, a1, segments):
    angles = np.linspace(a0, a1, segments + 1)
    return np.asarray(center) + radius * np.column_stack([np.cos(angles),
                                                          np.sin(angles)])


def _direct_dedupe(points, tol=1e-14):
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = np.hypot(*(points[1:] - points[:-1]).T) > tol
    pts = points[keep]
    if np.hypot(*(pts[0] - pts[-1])) <= tol:
        pts = pts[:-1]
    return pts


def _direct_cut_corner(length, t, segments):
    cx, cy = length / 2.0 - t, 1.0 - t
    return _direct_dedupe(np.vstack([
        _direct_arc((x, y), t, a0, a0 + 0.5 * math.pi, segments)
        for (x, y), a0 in zip(((cx, -cy), (cx, cy), (-cx, cy), (-cx, -cy)),
                              (-0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi))]))


def _direct_stadium(m, segments):
    return _direct_dedupe(np.vstack([
        _direct_arc((m / 2.0, 0.0), 1.0, -0.5 * math.pi, 0.5 * math.pi, segments),
        _direct_arc((-m / 2.0, 0.0), 1.0, 0.5 * math.pi, 1.5 * math.pi, segments),
    ]))


@pytest.mark.parametrize("length,t,segments", [
    (2.0, 1.0, 16), (2.0, 0.3, 64), (3.0, 1.0, 100), (5.0, 0.7, 1000),
    (50.0, 1e-9, 257), (2.5, 0.999, 4),
])
def test_cut_corner_builder_is_the_direct_formula_bit_for_bit(length, t, segments):
    expected = _direct_cut_corner(length, t, segments)
    got = build_cut_corner_rectangle(length, t, segments).vertices
    assert np.array_equal(got, expected)
    # coincident arc ends (an edge of length 2 - 2t or L - 2t vanishes) drop
    degenerate = t == 1.0 or t == length / 2.0
    assert (len(got) < 4 * (segments + 1)) == degenerate


@pytest.mark.parametrize("m,segments", [(0.0, 8), (0.0, 1000), (1e-12, 64),
                                        (3.0, 1000), (47.3, 333)])
def test_stadium_builder_is_the_direct_formula_bit_for_bit(m, segments):
    expected = _direct_stadium(m, segments)
    got = build_topped_substrip(m, segments).vertices
    assert np.array_equal(got, expected)
    assert (len(got) < 2 * (segments + 1)) == (m == 0.0)


@pytest.mark.parametrize("builder,direct,args,full_scan,dropped", [
    # within-arc chord 1.6e-15, below the 1e-14 tolerance: full scan
    (build_cut_corner_rectangle, _direct_cut_corner, (2.0, 1e-12, 1000), True, True),
    # chord 1.6e-12 against 64 ulps of 5e5: full scan, and at that
    # magnitude some within-arc vertices round together
    (build_cut_corner_rectangle, _direct_cut_corner, (1e6, 1e-9, 1000), True, True),
    # four arcs around one center: every join and the closing pair drop
    (build_cut_corner_rectangle, _direct_cut_corner, (2.0, 1.0, 4), False, True),
    # the join of the two caps is 5e-15 long, below tolerance, then 1e-13
    (build_topped_substrip, _direct_stadium, (5e-15, 1000), False, True),
    (build_topped_substrip, _direct_stadium, (1e-13, 1000), False, False),
])
def test_join_only_dedupe_is_the_full_scan_bit_for_bit(monkeypatch, builder, direct,
                                                       args, full_scan, dropped):
    scans = []
    full = geometry._dedupe
    monkeypatch.setattr(geometry, "_dedupe",
                        lambda *scan: scans.append(scan) or full(*scan))
    got = builder(*args).vertices
    assert (len(scans) == 1) == full_scan
    assert np.array_equal(got, direct(*args))
    arcs = 4 if builder is build_cut_corner_rectangle else 2
    assert (len(got) < arcs * (args[-1] + 1)) == dropped


# (u, t_frac, m_frac, segments): L = 2 * 5e5^u, t = t_frac min(1, L/2), m = m_frac L
@example(0.0, 1.0, 0.0, 4)  # L = 2, t = 1: every join drops; m = 0: the unit disk
@example(0.0, 1.0, 0.0, 10_000)
@example(0.5, 1.0, 1.0, 64)  # t = 1 < L/2: the two vertical joins drop
@example(0.0, 1e-12, 2.5e-15, 1000)  # full-scan fallback; the caps' 5e-15 join drops
@example(1.0, 1e-9, 0.0, 1000)  # L = 1e6, t = 1e-9: full-scan fallback
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-9, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0), st.sampled_from([4, 64, 1000, 10_000]))
def test_template_measures_are_the_built_polygons_measures(u, t_frac, m_frac, segments):
    length = 2.0 * 5e5 ** u  # log-uniform on [2, 1e6]
    t = t_frac * min(1.0, length / 2.0)
    assert (cut_corner_rectangle_measures(length, t, segments)
            == pytest.approx(measure(build_cut_corner_rectangle(length, t, segments)),
                             rel=1e-13))
    m = m_frac * length
    assert (topped_substrip_measures(m, segments)
            == pytest.approx(measure(build_topped_substrip(m, segments)), rel=1e-13))


@pytest.mark.parametrize("builder,measures,args", [
    (build_cut_corner_rectangle, cut_corner_rectangle_measures, (4.0, 0.0, 100)),
    (build_cut_corner_rectangle, cut_corner_rectangle_measures, (4.0, 1.2, 100)),
    (build_cut_corner_rectangle, cut_corner_rectangle_measures, (2.0, 1.0 + 1e-6, 100)),
    (build_cut_corner_rectangle, cut_corner_rectangle_measures, (4.0, 0.5, 3)),
    (build_topped_substrip, topped_substrip_measures, (-1e-9, 100)),
    (build_topped_substrip, topped_substrip_measures, (2.0, 3)),
])
def test_template_measures_refuse_what_the_builders_refuse(builder, measures, args):
    with pytest.raises(ValueError) as built:
        builder(*args)
    with pytest.raises(ValueError) as measured:
        measures(*args)
    assert str(measured.value) == str(built.value)


def _rolled_shoelace(loop):
    x, y = loop[:, 0], loop[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    length = float(np.sum(np.hypot(*(np.roll(loop, -1, axis=0) - loop).T)))
    return area, length


def test_measure_is_the_rolled_shoelace_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(11))
    for n in (3, 4, 17, 1000, 4004):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        radii = rng.uniform(0.5, 2.0, n) * rng.uniform(1e-3, 1e3)
        loop = (np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]
                + rng.uniform(-1e3, 1e3, 2))
        area, length = _rolled_shoelace(loop)
        assert measure(PolyShape(loop)) == (area, length)
    outer = build_topped_substrip(2.0, 500).vertices
    hole = 0.5 * regular_polygon(300).vertices[::-1]  # clockwise hole
    expected_area = _rolled_shoelace(outer)[0] - abs(_rolled_shoelace(hole)[0])
    expected_perim = _rolled_shoelace(outer)[1] + _rolled_shoelace(hole)[1]
    assert measure(PolyShape(outer, holes=(hole,))) == (expected_area, expected_perim)


def test_unit_arc_template_is_cached_and_read_only():
    arc = _unit_arc(0.0, 0.5 * math.pi, 32)
    assert _unit_arc(0.0, 0.5 * math.pi, 32) is arc
    assert np.array_equal(arc, _direct_arc((0.0, 0.0), 1.0, 0.0, 0.5 * math.pi, 32))
    with pytest.raises(ValueError):
        arc[0, 0] = 2.0
    with pytest.raises(ValueError):
        arc *= 2.0


def test_cut_corner_builder_validates_radius():
    with pytest.raises(ValueError):
        build_cut_corner_rectangle(4.0, 0.0, 100)
    with pytest.raises(ValueError):
        build_cut_corner_rectangle(4.0, 1.2, 100)
    with pytest.raises(ValueError):
        build_cut_corner_rectangle(2.0, 1.0 + 1e-6, 100)


def test_cut_corner_builder_full_radius_is_a_stadium():
    # t = 1 rounds the corners completely: same shape as the capped
    # substrip of length L - 2
    area, perim = measure(build_cut_corner_rectangle(5.0, 1.0, 2000))
    area_s, perim_s = measure(build_topped_substrip(3.0, 2000))
    assert area == pytest.approx(area_s, rel=1e-6)
    assert perim == pytest.approx(perim_s, rel=1e-6)


def test_contains_points_square_and_hole():
    hole = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
    shape = PolyShape(SQUARE.vertices, holes=(hole,))
    pts = np.array([
        [0.25, 0.25],   # in the solid part
        [1.0, 1.0],     # inside the hole
        [3.0, 1.0],     # outside
        [2.0 + 1e-12, 1.9],  # a hair outside the right edge
    ])
    assert contains_points(shape, pts).tolist() == [True, False, False, False]
    with pytest.raises(ValueError):
        contains_points(shape, np.zeros(3))


def test_contains_points_matches_disk_geometry():
    disk = regular_polygon(512)
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.uniform(-1.2, 1.2, size=(2000, 2))
    radii = np.hypot(pts[:, 0], pts[:, 1])
    clear = np.abs(radii - 1.0) > 1e-2  # keep away from the polygonized rim
    got = contains_points(disk, pts[clear])
    assert np.array_equal(got, radii[clear] < 1.0)


def test_first_segment_intersection_detects_a_bowtie():
    bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    pair = first_segment_intersection(bowtie, closed_a=True)
    assert pair == (0, 2)
    assert first_segment_intersection(bowtie, closed_a=True) is not None
    assert first_segment_intersection(SQUARE.vertices, closed_a=True) is None


def test_first_segment_intersection_between_paths():
    a = np.array([[0.0, 0.0], [4.0, 0.0]])
    b = np.array([[2.0, -1.0], [2.0, 1.0]])
    assert first_segment_intersection(a, b) == (0, 0)
    c = np.array([[0.0, 1.0], [4.0, 1.0]])
    assert first_segment_intersection(a, c) is None


def _random_walk_cases(count=600, seed=7):
    """Seeded (path_a, path_b, closed_a, closed_b): self and between-path."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        walk = np.cumsum(rng.normal(size=(int(rng.integers(3, 200)), 2))
                         * rng.uniform(0.01, 3.0), axis=0)
        if k % 2:
            other = (np.cumsum(rng.normal(size=(int(rng.integers(2, 150)), 2)), axis=0)
                     + 3.0 * rng.normal(size=2))
            yield walk, other, k % 3 == 0, k % 5 == 0
        else:
            yield walk, None, k % 3 == 0, False


def test_first_segment_intersection_matches_the_brute_force_pair():
    # the grid index must return the same first pair as every-pair testing
    crossed = 0
    for case in _random_walk_cases():
        want = ref.first_segment_intersection(*case)
        assert first_segment_intersection(*case) == want
        crossed += want is not None
    assert 0 < crossed < 600  # both outcomes are exercised
    t = np.linspace(0.0, 2.0 * math.pi, 1001)[:-1]
    eight = np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
    assert first_segment_intersection(eight, closed_a=True) == (500, 999)
    assert ref.first_segment_intersection(eight, closed_a=True) == (500, 999)
    g_shape = curve_from_source(PathSpec((("line", 4.0), ("arc", 1.5, 1.9 * math.pi))))
    ring = curve_from_source(PathSpec((("arc", 3.0, 2.0 * math.pi),), CurveKind.ANNULUS))
    for curve in (ring, g_shape):
        lo, hi = curve.offset(-1.0)[:-1], curve.offset(+1.0)[:-1]
        for case in ((lo, None, True, False), (hi, None, True, False),
                     (lo, hi, True, True), (lo, hi, False, False)):
            assert first_segment_intersection(*case) == ref.first_segment_intersection(*case)


def test_contains_points_matches_the_brute_force_mask():
    outer = regular_polygon(700, 5.0).vertices
    hole = regular_polygon(300, 2.0).vertices[::-1] + 0.3
    annulus = PolyShape(outer, holes=(hole,))
    rng = np.random.Generator(np.random.Philox(11))
    ang = rng.uniform(0.0, 2.0 * math.pi, 3000)
    rim = (np.column_stack([np.cos(ang), np.sin(ang)])
           * (5.0 + rng.normal(scale=0.02, size=3000))[:, None])
    pts = np.vstack([rng.uniform(-6.0, 6.0, size=(20_000, 2)), rim,
                     outer[:50], hole[:50]])
    want = ref.contains_points(annulus, pts)
    assert np.array_equal(contains_points(annulus, pts), want)
    assert 0 < want.sum() < len(pts)


def test_polyshape_requires_planar_loop():
    with pytest.raises(ValueError):
        PolyShape(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        PolyShape(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="hole needs >= 3 planar vertices"):
        PolyShape(SQUARE.vertices, holes=(np.array([[0.5, 0.5], [1.5, 0.5]]),))
