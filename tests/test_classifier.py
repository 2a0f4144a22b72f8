"""Decision procedures: rectangle cases, curved strips, annulus comparison."""

import json
import math
import re

import numpy as np
import pytest

import alphacheeger
from alphacheeger import (
    CaseTag,
    CurveKind,
    CurveValidationError,
    PathSpec,
    SolutionKind,
    classify_annulus,
    classify_open_strip,
    classify_rectangle,
    cli,
    curve_from_samples,
    curve_from_source,
    cut_corner_area,
    cut_corner_perimeter,
    cut_corner_strip_measures,
    diameter_bound,
    golden_section_min,
    h_alpha_strip_limit,
    m_of_alpha,
    oracle_strip,
    spine_window,
)

# Frozen from classify_rectangle at the listed cells; the radius and ratio
# agree with the 30-digit golden-section references in test_analytic to
# better than 1e-12.
FROZEN_CASE_I = {
    (2.0, 1.9): (0.959886514771317, 3.43873020136086),
    (3.0, 1.5): (0.937742496703473, 2.77924585883608),
}

# Frozen from fit_topped_substrip on the U-shaped spine (conftest) at
# m_of_alpha(1.5); the scan uses its own spine resolution, so the numbers
# are independent of the polygon segment count.
U_SPINE_FIT_INTERVAL = (1.0565541735288517, 12.443860266006476)
U_SPINE_FIT_STEP = 0.05869745408493621

# Frozen by bisection on annulus_substrip_wins at spine length 20; the two
# candidate ratios agree to 2.2e-16 relative there.
RING20_TIE_ALPHA = 1.23849914454155

# The cut-corner search runs on exact strip measures minus corner patches,
# so its stationarity residual does not depend on the test mode.
RESIDUAL_BOUND = 5e-7

# Case-(i) path spines of the radius tests.  The junction spine has line-arc
# joins inside its corner patches; the narrow-run spine reaches the bound
# t = 1 at alpha = 1.0938, where it is case iii with no fit.
CASE_I_PATHS = {
    "u": (("line", 6.0), ("arc", 1.6, math.pi), ("line", 4.0)),
    "s": (("arc", 4.0, 1.0), ("line", 7.5), ("arc", 4.0, -1.0)),
    "hook": (("arc", 1.05, 1.71), ("line", 10.64), ("arc", 1.05, 1.71)),
    "junction": (("line", 0.3), ("arc", 2.0, 1.5), ("line", 8.0),
                 ("arc", 2.0, -1.5), ("line", 0.3)),
    "narrow_run": (("arc", 3.7, 1.16), ("line", 12.94)),
}


# the fit scan over the full ring is the expensive part of classify_annulus,
# so each ring20 classification is computed once and shared
@pytest.fixture(scope="module")
def ring20_whole(ring20):
    return classify_annulus(ring20, 1.0001)


@pytest.fixture(scope="module")
def ring20_family(ring20):
    return classify_annulus(ring20, 1.95)


@pytest.fixture(scope="module")
def ring20_tie(ring20):
    return classify_annulus(ring20, RING20_TIE_ALPHA)


def replay_evidence(classification):
    """Re-derive the branch from the recorded evidence alone."""
    ev = classification.evidence
    if "decided_by" in ev:  # annulus
        if ev["decided_by"] == "fit_empty":
            return CaseTag.ANNULUS_WHOLE
        return {
            "annulus_better": CaseTag.ANNULUS_WHOLE,
            "substrip_better": CaseTag.ANNULUS_FAMILY,
            "tie": CaseTag.ANNULUS_TIE,
        }[ev["ordering"]]
    rtol = ev["boundary_rtol"]
    length = ev["length"]
    if "case_boundary" in ev:  # rectangle
        boundary = ev["case_boundary"]
        if not math.isinf(length) and abs(length - boundary) <= rtol * boundary:
            return CaseTag.UNIQUE_BOUNDARY_CASE
        if length < boundary:
            return CaseTag.UNIQUE_CUT_CORNERS
        return CaseTag.TOPPED_FAMILY
    if length < ev["case_boundary_low"] * (1.0 - rtol):
        return CaseTag.UNIQUE_CUT_CORNERS
    if length > ev["case_boundary_high"] * (1.0 + rtol):
        return CaseTag.TOPPED_FAMILY
    if ev["fit_intervals"]:
        return CaseTag.TOPPED_FAMILY
    return CaseTag.UNIQUE_CUT_CORNERS


def test_rectangle_short_cell_cuts_corners():
    for (length, alpha), (radius, h) in FROZEN_CASE_I.items():
        c = classify_rectangle(length, alpha)
        assert c.case_tag is CaseTag.UNIQUE_CUT_CORNERS
        assert c.evidence["case"] == "i"
        assert c.solution.kind is SolutionKind.CUT_CORNERS
        assert c.solution.unique
        assert c.solution.radius == pytest.approx(radius, abs=1e-12)
        assert c.solution.h_alpha == pytest.approx(h, rel=1e-12)
        assert c.solution.placements is None


def test_rectangle_boundary_cell_has_radius_one():
    alpha = 1.5
    length = m_of_alpha(alpha) + 2.0
    c = classify_rectangle(length, alpha)
    assert c.case_tag is CaseTag.UNIQUE_BOUNDARY_CASE
    assert c.evidence["case"] == "ii"
    assert c.solution.radius == 1.0
    assert c.solution.unique
    # at the boundary the fully cut rectangle IS the capped substrip, so the
    # two candidate ratios recorded in the evidence coincide
    assert c.evidence["h_cut_corners"] == pytest.approx(
        c.evidence["h_substrip_family"], rel=1e-12)
    h_direct = (cut_corner_perimeter(length, 1.0)
                / cut_corner_area(length, 1.0) ** (1.0 / alpha))
    assert c.solution.h_alpha == pytest.approx(h_direct, rel=1e-15)


def test_rectangle_long_cell_reports_translate_family():
    c = classify_rectangle(10.0, 1.5)
    m = m_of_alpha(1.5)
    assert c.case_tag is CaseTag.TOPPED_FAMILY
    assert c.evidence["case"] == "iii"
    assert c.solution.kind is SolutionKind.TOPPED_SUBSTRIP
    assert not c.solution.unique
    assert c.solution.stadium_length == pytest.approx(m, rel=1e-15)
    half = 0.5 * (10.0 - m - 2.0)
    assert c.solution.placements == pytest.approx((-half, half), abs=1e-12)
    assert c.evidence["placement_interval_length"] == pytest.approx(2 * half)
    assert c.solution.h_alpha == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-12)


def test_rectangle_infinite_sentinel():
    c = classify_rectangle(math.inf, 1.5)
    assert c.case_tag is CaseTag.TOPPED_FAMILY
    assert c.solution.placements == (-math.inf, math.inf)
    assert math.isinf(c.evidence["placement_interval_length"])
    assert c.solution.h_alpha == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-12)


def test_rectangle_rejects_width_violating_length():
    with pytest.raises(ValueError, match="must be >= 2"):
        classify_rectangle(1.9, 1.5)


def test_straight_finite_spine_delegates_to_rectangle(straight_spine):
    assert classify_open_strip(straight_spine, 1.4) == classify_rectangle(16.0, 1.4)


def test_straight_infinite_spine_delegates_to_sentinel():
    spine = curve_from_source(PathSpec((("line", 64.0),), CurveKind.INFINITE))
    assert classify_open_strip(spine, 1.5) == classify_rectangle(math.inf, 1.5)


def test_short_spines_are_refused_even_when_straight():
    # classify_rectangle(10, .) would answer, but the strip entry point
    # enforces the structural threshold 9 pi / 2 on every spine
    spine = curve_from_source(PathSpec((("line", 10.0),)))
    with pytest.raises(ValueError, match="below the supported threshold"):
        classify_open_strip(spine, 1.5)
    bent = curve_from_source(PathSpec((("arc", 2.0, 3.0),)))
    with pytest.raises(ValueError, match="below the supported threshold"):
        classify_open_strip(bent, 1.5)


def test_semi_infinite_spine_truncates_to_safe_window():
    alpha = 1.5
    runs = []
    for declared in (20.0, 80.0):
        spine = curve_from_source(PathSpec((("line", declared),), CurveKind.SEMI_INFINITE))
        runs.append(classify_open_strip(spine, alpha))
    first, second = runs
    # the declared sample length is irrelevant: both realize the same window
    assert first == second
    target = max(4.0 * diameter_bound(alpha), 4.5 * math.pi)
    assert first.evidence["truncation_target"] == pytest.approx(target, rel=1e-15)
    assert first.evidence["case"] == "ii"
    assert first.case_tag is CaseTag.TOPPED_FAMILY
    assert first.solution.h_alpha == pytest.approx(h_alpha_strip_limit(alpha), rel=1e-12)
    lo, hi = first.solution.placements
    assert 0.0 < lo < hi < first.evidence["truncation_target"]


def test_spine_window_is_the_window_classified(u_spine):
    assert spine_window(u_spine, 1.5) is u_spine
    ring = curve_from_source(PathSpec((("arc", 5.0, 2.0 * math.pi),), CurveKind.ANNULUS))
    assert spine_window(ring, 1.5) is ring
    bent = curve_from_source(PathSpec((("line", 30.0), ("arc", 3.0, 1.5), ("line", 60.0)),
                                      kind=CurveKind.SEMI_INFINITE))
    window = spine_window(bent, 1.5)
    assert window.kind is CurveKind.SEMI_INFINITE
    assert window.length < bent.length
    assert window.length == classify_open_strip(bent, 1.5).evidence["truncation_target"]


def test_curved_long_spine_family_matches_frozen_fit(u_spine):
    c = classify_open_strip(u_spine, 1.5)
    assert c.case_tag is CaseTag.TOPPED_FAMILY
    assert c.evidence["case"] == "ii"
    assert not c.solution.unique
    assert c.solution.h_alpha == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-12)
    assert c.evidence["fit_step"] == pytest.approx(U_SPINE_FIT_STEP, abs=1e-12)
    (interval,) = c.evidence["fit_intervals"]
    assert interval == pytest.approx(U_SPINE_FIT_INTERVAL, abs=1e-9)
    assert c.solution.placements == pytest.approx(U_SPINE_FIT_INTERVAL, abs=1e-9)


def test_curved_short_spine_searches_corner_radius(u_spine):
    # M(1.08) + 2 is about 20.1, the U spine is 15.0, so this is case i with
    # no closed-form radius; the free-boundary iteration must land on a
    # stationary point of the shape ratio
    c = classify_open_strip(u_spine, 1.08)
    assert c.case_tag is CaseTag.UNIQUE_CUT_CORNERS
    assert c.evidence["case"] == "i"
    assert c.solution.unique
    assert 0.97 < c.solution.radius < 0.98
    assert c.evidence["radius_relation_residual"] < RESIDUAL_BOUND


def test_tight_bends_block_the_family_and_gentle_bends_admit_it(
        hook_spine, gentle_spine):
    # same arclength decomposition, same alpha; only the bend radius differs.
    # alpha is tuned so the substrip needs all but 2.5 units of the spine:
    # radius-1.05 turns squeeze the caps into collision, radius-8 turns do
    # not, and the case-iii fit scan is what tells them apart.
    m = hook_spine.length - 2.5
    alpha = (2.0 + 2.0 * m / math.pi) / (1.0 + 2.0 * m / math.pi)
    assert m_of_alpha(alpha) == pytest.approx(m, rel=1e-12)

    blocked = classify_open_strip(hook_spine, alpha)
    assert blocked.evidence["case"] == "iii"
    assert blocked.case_tag is CaseTag.UNIQUE_CUT_CORNERS
    assert blocked.evidence["fit_empty"] is True
    assert blocked.evidence["fit_intervals"] == []
    assert blocked.solution.radius < 1.0
    assert blocked.evidence["radius_relation_residual"] < RESIDUAL_BOUND

    admitted = classify_open_strip(gentle_spine, alpha)
    assert admitted.evidence["case"] == "iii"
    assert admitted.case_tag is CaseTag.TOPPED_FAMILY
    lo, hi = admitted.solution.placements
    assert 0.0 < lo < hi < gentle_spine.length
    # when the family fits it wins: the blocked spine pays a ratio penalty
    assert admitted.solution.h_alpha < blocked.solution.h_alpha


@pytest.mark.parametrize("pieces", [
    (("arc", 4.0, 1.0), ("line", 7.5), ("arc", 4.0, -1.0)),
    (("arc", 1.05, 1.71), ("line", 10.64), ("arc", 1.05, 1.71)),
], ids=["s", "hook"])
def test_curved_case_i_builds_no_polygon(pieces, monkeypatch, segments, oracle_rtol):
    # case i on spines whose ends are arcs: the radius search runs on the
    # strip's exact measures minus corner patches, never on a polygon, and
    # the polygonal oracle (run first, unpatched) checks it independently
    spine = curve_from_source(PathSpec(pieces))
    m = spine.length - 2.0 + 3.0
    alpha = (m + math.pi) / (m + 0.5 * math.pi)
    assert m_of_alpha(alpha) == pytest.approx(m, rel=1e-12)
    oracle = oracle_strip(spine, alpha, segments)

    def refuse(*args, **kwargs):
        raise AssertionError("the case-i classifier built or measured a polygon")

    for module in (alphacheeger.classifier, alphacheeger.curves,
                   alphacheeger.geometry, alphacheeger.oracle, alphacheeger.strips):
        for name in ("build_cut_corner_strip", "measure", "densify"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    c = classify_open_strip(spine, alpha)
    assert c.case_tag is CaseTag.UNIQUE_CUT_CORNERS
    assert c.evidence["case"] == "i"
    assert 0.0 < c.solution.radius < 1.0
    assert c.evidence["radius_relation_residual"] < RESIDUAL_BOUND
    assert c.solution.h_alpha == pytest.approx(oracle.h_alpha, rel=oracle_rtol)


def _reversed_path(pieces):
    return tuple(p if p[0] == "line" else ("arc", p[1], -p[2])
                 for p in reversed(pieces))


@pytest.mark.parametrize("pieces", [
    (("line", 6.0), ("arc", 1.8, math.pi), ("line", 5.0)),
    (("line", 0.5), ("arc", 1.2, 2.0), ("line", 10.0), ("arc", 3.0, 0.7)),
    CASE_I_PATHS["narrow_run"],
], ids=["u", "two_bends", "narrow_run"])
def test_curved_case_i_radius_is_invariant_under_reversal_and_rotation(pieces):
    # the free-boundary fixed point belongs to the domain, so traversing the
    # spine backwards or rotating its samples keeps it; h is flat at its
    # minimum, so a golden search pins h but lets the radius move 5e-9-8e-8
    path = curve_from_source(PathSpec(pieces))
    samples = path.frames(np.linspace(0.0, path.length, 4097))[0]
    turn = 0.37 * math.pi
    rotation = np.array([[math.cos(turn), -math.sin(turn)],
                         [math.sin(turn), math.cos(turn)]])
    pairs = [(path, curve_from_source(PathSpec(_reversed_path(pieces)))),
             (curve_from_samples(samples, CurveKind.FINITE),
              curve_from_samples(samples @ rotation.T, CurveKind.FINITE))]
    for first, second in pairs:
        c1, c2 = classify_open_strip(first, 1.05), classify_open_strip(second, 1.05)
        assert c1.case_tag is c2.case_tag is CaseTag.UNIQUE_CUT_CORNERS
        assert c2.solution.radius == pytest.approx(c1.solution.radius, rel=1e-12)
        assert c2.solution.h_alpha == pytest.approx(c1.solution.h_alpha, rel=1e-13)


@pytest.mark.parametrize("name, alpha", [
    ("u", 1.05), ("s", 1.05), ("hook", 1.05), ("junction", 1.05),
    ("junction", 1.1035), ("narrow_run", 1.05), ("narrow_run", 1.0938)])
def test_curved_case_i_fixed_point_is_the_minimum_of_the_measures(name, alpha):
    # golden section over the same patch measures is the reference: the
    # fixed point of t = alpha A / P is its minimum, never above it
    spine = curve_from_source(PathSpec(CASE_I_PATHS[name]))
    measures = cut_corner_strip_measures(spine)

    def h_of(t):
        area, perim = measures(t)
        return perim / area ** (1.0 / alpha)

    _, h_golden = golden_section_min(h_of, 1e-9, 1.0, 1e-9)
    c = classify_open_strip(spine, alpha)
    assert c.case_tag is CaseTag.UNIQUE_CUT_CORNERS
    assert abs(c.solution.h_alpha - h_golden) <= 1e-13 * h_golden
    assert c.evidence["radius_iterations"] <= 20
    if c.solution.radius < 1.0:
        assert c.evidence["radius_relation_residual"] < RESIDUAL_BOUND


def test_curved_radius_stops_at_the_bound():
    # at alpha = 1.0938 the law asks for r > 1 already at t = 1, so the first
    # step is zero and the relation's gap is what holds the radius at 1
    spine = curve_from_source(PathSpec(CASE_I_PATHS["narrow_run"]))
    c = classify_open_strip(spine, 1.0938)
    assert c.case_tag is CaseTag.UNIQUE_CUT_CORNERS
    assert c.evidence["case"] == "iii" and c.evidence["fit_empty"] is True
    assert c.solution.radius == 1.0
    assert c.evidence["radius"] == 1.0
    assert c.evidence["radius_iterations"] == 1
    assert format(c.solution.h_alpha, ".12g") == "1.47812620167"


def test_unsettled_radius_iteration_exits_with_one_line(monkeypatch, tmp_path, capsys):
    # measures whose map alpha A / P contracts by only 0.99 per step toward
    # 1/2 cannot settle within the cap; the CLI names the last iterate
    alpha = 1.05

    def slow(curve):
        def measures(t):
            return 40.0 * (0.5 + 0.99 * (t - 0.5)) / alpha, 40.0
        return measures

    monkeypatch.setattr(alphacheeger.classifier, "cut_corner_strip_measures", slow)
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"primitive": "path",
                                "pieces": [list(p) for p in CASE_I_PATHS["u"]]}))
    code = cli.main(["strip", str(path), "--alpha", str(alpha)])
    err = capsys.readouterr().err
    assert code == 2
    (line,) = err.splitlines()
    steps = alphacheeger.classifier.RADIUS_MAX_ITER
    assert line.startswith("error: corner radius iteration did not settle")
    last = float(re.findall(r"[0-9.e+-]+", line)[-1])
    assert last == pytest.approx(0.5 + 0.5 * 0.99 ** steps, rel=1e-12)


def test_spine_validation_failures_propagate():
    spine = curve_from_source(PathSpec((("line", 14.0), ("arc", 0.8, 1.0))))
    with pytest.raises(CurveValidationError, match="curvature"):
        classify_open_strip(spine, 1.5)


def test_closed_and_open_spines_use_their_own_entry_points(ring20, straight_spine):
    with pytest.raises(ValueError, match="closed spine"):
        classify_open_strip(ring20, 1.5)
    with pytest.raises(ValueError, match="closed spine"):
        classify_annulus(straight_spine, 1.5)


def test_annulus_whole_domain_when_no_substrip_fits(ring20_whole):
    c = ring20_whole
    assert c.case_tag is CaseTag.ANNULUS_WHOLE
    assert c.evidence["decided_by"] == "fit_empty"
    assert not c.evidence["fit_any_feasible"]
    assert c.solution.kind is SolutionKind.WHOLE_DOMAIN
    assert c.solution.unique
    assert c.solution.area == pytest.approx(40.0, rel=1e-15)
    assert c.solution.perimeter == pytest.approx(40.0, rel=1e-15)
    assert c.solution.placements is None
    assert c.alternate is None


def test_annulus_family_when_substrip_wins(ring20_family):
    c = ring20_family
    assert c.case_tag is CaseTag.ANNULUS_FAMILY
    assert c.evidence["decided_by"] == "ratio_comparison"
    assert c.evidence["h_substrip_family"] < c.evidence["h_whole_domain"]
    assert c.solution.kind is SolutionKind.TOPPED_SUBSTRIP
    assert not c.solution.unique
    # every anchor on the circle works, so the family covers the full spine
    assert c.solution.placements == (0.0, 20.0)
    assert c.solution.h_alpha == pytest.approx(h_alpha_strip_limit(1.95), rel=1e-12)
    assert c.alternate is None


def test_annulus_tie_carries_both_solutions(ring20_tie):
    c = ring20_tie
    assert c.case_tag is CaseTag.ANNULUS_TIE
    assert c.evidence["ordering"] == "tie"
    gap = abs(c.evidence["h_substrip_family"] - c.evidence["h_whole_domain"])
    assert gap <= c.evidence["eps_tie"] * c.evidence["h_whole_domain"]
    assert c.solution.kind is SolutionKind.TOPPED_SUBSTRIP
    assert c.alternate is not None
    assert c.alternate.kind is SolutionKind.WHOLE_DOMAIN
    assert not c.solution.unique
    assert not c.alternate.unique


def test_annulus_spine_below_threshold_is_refused():
    with pytest.raises(ValueError, match="below the supported"):
        classify_annulus(curve_from_source(
            PathSpec((("arc", 2.0, 2.0 * math.pi),), CurveKind.ANNULUS)), 1.5)


def test_evidence_replays_to_the_reported_branch(u_spine, ring20_whole,
                                                 ring20_family, ring20_tie):
    cases = [
        classify_rectangle(2.5, 1.8),
        classify_rectangle(m_of_alpha(1.5) + 2.0, 1.5),
        classify_rectangle(30.0, 1.5),
        classify_open_strip(u_spine, 1.5),
        ring20_whole,
        ring20_family,
        ring20_tie,
    ]
    for c in cases:
        assert replay_evidence(c) is c.case_tag


def test_rectangle_sweep_transitions_once_and_radius_grows():
    alpha = 1.5
    tags = []
    radii = []
    ratios = []
    for i in range(60):
        length = 2.2 + i * (6.0 - 2.2) / 59
        c = classify_rectangle(length, alpha)
        tags.append(c.case_tag)
        ratios.append(c.solution.h_alpha)
        if c.case_tag is CaseTag.UNIQUE_CUT_CORNERS:
            radii.append(c.solution.radius)
    # one transition, never back: all cut-corner cells precede all family cells
    first_family = tags.index(CaseTag.TOPPED_FAMILY)
    assert all(t is CaseTag.UNIQUE_CUT_CORNERS for t in tags[:first_family])
    assert all(t is CaseTag.TOPPED_FAMILY for t in tags[first_family:])
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert all(r < 1.0 for r in radii)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    limit = h_alpha_strip_limit(alpha)
    assert all(h == pytest.approx(limit, rel=1e-12) for h in ratios[first_family:])
