"""Acceptance criteria: one test per criterion, one PASS/FAIL summary line each.

Every criterion pins its own tolerance and, where stated, its own runtime
budget.  The grid is alpha in {1.05, ..., 1.95 step 0.05} crossed with the
core lengths {2, 2.5, 3, 5, 8, 13}; ratio reproduction extends it with
L in {21, 50} and the crossover neighborhoods L = M(alpha) + 2 +- 1e-3.
The wall-clock criterion is reordered to the end of the session by conftest
so it observes everything else.
"""

import json
import math
import time

import pytest

from alphacheeger import (
    CaseTag,
    CurveKind,
    Ordering,
    PathSpec,
    alpha_bar,
    annulus_substrip_wins,
    build_cut_corner_rectangle,
    build_topped_substrip,
    classify_annulus,
    classify_rectangle,
    cli,
    corner_radius,
    curve_from_source,
    diameter_bound,
    free_boundary_radius,
    h_alpha_strip_limit,
    m_of_alpha,
    measure,
    oracle_rectangle,
    ratio,
    scale_shape,
    stadium_area,
    stadium_perimeter,
    translate_shape,
)
from reference_kernels import min_cut_corner_ratio, min_stadium_ratio

ALPHAS = tuple(round(1.05 + 0.05 * k, 12) for k in range(19))
CORE_LENGTHS = (2.0, 2.5, 3.0, 5.0, 8.0, 13.0)
ALL_LENGTHS = CORE_LENGTHS + (21.0, 50.0)

ANNULUS_RADII = (4.0, 6.0, 10.0)
ANNULUS_ALPHAS = (1.05, 1.3, 1.5, 1.7, 1.9)


def test_criterion_01_corner_radius_reproduction(criterion):
    t0 = time.monotonic()
    worst = 0.0
    cells = 0
    for alpha in ALPHAS:
        for length in CORE_LENGTHS:
            if length >= m_of_alpha(alpha) + 2.0:
                continue
            t_star, _ = min_cut_corner_ratio(length, alpha)
            worst = max(worst, abs(t_star - corner_radius(length, alpha)))
            cells += 1
    elapsed = time.monotonic() - t0
    criterion(1, worst <= 1e-8 and elapsed <= 5.0,
              f"{cells} cells, worst |dr| {worst:.2e} <= 1e-8, "
              f"{elapsed:.2f}s of 5s")


def test_criterion_02_stadium_length_reproduction(criterion):
    t0 = time.monotonic()
    worst = 0.0
    for alpha in ALPHAS:
        m_star, _ = min_stadium_ratio(alpha)
        worst = max(worst, abs(m_star - m_of_alpha(alpha)))
    elapsed = time.monotonic() - t0
    criterion(2, worst <= 1e-8 and elapsed <= 1.0,
              f"{len(ALPHAS)} alphas, worst |dM| {worst:.2e} <= 1e-8, "
              f"{elapsed:.2f}s of 1s")


def test_criterion_03_ratio_matches_polygonal_oracle(criterion, segments,
                                                     oracle_rtol):
    t0 = time.monotonic()
    worst = 0.0
    cells = 0
    for alpha in ALPHAS:
        crossover = m_of_alpha(alpha) + 2.0
        lengths = ALL_LENGTHS + (crossover - 1e-3, crossover + 1e-3)
        for length in lengths:
            expected = classify_rectangle(length, alpha).solution.h_alpha
            observed = oracle_rectangle(length, alpha, segments=segments).h_alpha
            worst = max(worst, abs(observed / expected - 1.0))
            cells += 1
    elapsed = time.monotonic() - t0
    criterion(3, worst <= oracle_rtol and elapsed <= 30.0,
              f"{cells} cells at {segments} segments, worst rel gap "
              f"{worst:.2e} <= {oracle_rtol:g}, {elapsed:.1f}s of 30s")


def test_criterion_04_case_flip_at_alpha_bar(criterion):
    # exact value at the square-ish end, then bisection versus the closed
    # form everywhere else, then strict decrease along the length axis
    violations = []
    if alpha_bar(2.0) != 2.0:
        violations.append(f"alpha_bar(2) = {alpha_bar(2.0)!r}")

    worst = 0.0
    for length in (2.5, 3.0, 5.0, 8.0, 13.0, 21.0, 50.0):
        lo, hi = 1.000001, 1.999999
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if classify_rectangle(length, mid).case_tag is CaseTag.TOPPED_FAMILY:
                hi = mid
            else:
                lo = mid
        flip = 0.5 * (lo + hi)
        gap = abs(flip - alpha_bar(length))
        worst = max(worst, gap)
        if gap > 1e-8:
            violations.append(f"L={length}: flip {flip!r} vs closed form")

    bars = [alpha_bar(length) for length in (2.0, 2.5, 3.0, 5.0, 8.0, 13.0,
                                             21.0, 50.0)]
    if not all(a > b for a, b in zip(bars, bars[1:])):
        violations.append("alpha_bar not strictly decreasing")

    criterion(4, not violations,
              f"7 bisections, worst |da| {worst:.2e} <= 1e-8, "
              f"alpha_bar(2) = 2 exactly, strictly decreasing"
              + (f"; {violations}" if violations else ""))


def test_criterion_05_classical_cheeger_limit(criterion):
    worst = 0.0
    for length in (2.0, 5.0, 10.0):
        near_one = corner_radius(length, 1.0 + 1e-9)
        classical = ((length + 2.0
                      - math.sqrt((length - 2.0) ** 2 + 2.0 * math.pi * length))
                     / (4.0 - math.pi))
        worst = max(worst, abs(near_one - classical))
    criterion(5, worst <= 1e-6,
              f"L in {{2, 5, 10}} at alpha = 1 + 1e-9, worst |dr| "
              f"{worst:.2e} <= 1e-6")


def test_criterion_06_nonuniqueness_and_margin(criterion, segments):
    alpha = 1.5
    m = m_of_alpha(alpha)
    length = 3.0 * m + 2.0

    # two extreme placements of the capped substrip, measured polygonally
    shape = build_topped_substrip(m, segments)
    half = 0.5 * (length - m - 2.0)
    ratios = []
    for center in (-half, half):
        area, perim = measure(translate_shape(shape, center, 0.0))
        ratios.append(perim / area ** (1.0 / alpha))
    placement_gap = abs(ratios[0] - ratios[1]) / ratios[0]

    # the best cut-corner competitor on this rectangle is the full rounding
    # t = 1, and it loses to the substrip family by a definite margin
    h_family = stadium_perimeter(m) / stadium_area(m) ** (1.0 / alpha)
    cut = build_cut_corner_rectangle(length, 1.0, segments)
    h_cut = ratio(cut, alpha)
    margin = h_cut / h_family - 1.0

    criterion(6, placement_gap <= 1e-9 and margin > 0.0,
              f"L = 3M+2, alpha = 1.5: placements differ by {placement_gap:.2e} "
              f"<= 1e-9, cut-corner ratio exceeds the family by "
              f"{100.0 * margin:.2f}%")


def test_criterion_07_property_suites(criterion):
    violations = []
    cells = 0

    # curvature relation, diameter bound, scaling law, cell by cell
    for alpha in ALPHAS:
        for length in ALL_LENGTHS:
            cells += 1
            c = classify_rectangle(length, alpha)
            sol = c.solution
            fbr = free_boundary_radius(sol.h_alpha, sol.area, alpha)
            if c.case_tag is CaseTag.UNIQUE_CUT_CORNERS:
                r = sol.radius
                if abs(fbr - r) > 1e-10 * r:
                    violations.append(f"curvature L={length} a={alpha}")
                diam = math.hypot(length - 2.0 * r, 2.0 - 2.0 * r) + 2.0 * r
                shape = build_cut_corner_rectangle(length, r, 64)
            else:
                if abs(fbr - 1.0) > 1e-10:
                    violations.append(f"curvature L={length} a={alpha}")
                diam = sol.stadium_length + 2.0
                shape = build_topped_substrip(sol.stadium_length, 64)
            if diam > diameter_bound(alpha) * (1.0 + 1e-12):
                violations.append(f"diameter L={length} a={alpha}")
            base = ratio(shape, alpha)
            for t in (0.5, 2.0):
                scaled = ratio(scale_shape(shape, t), alpha)
                if abs(scaled / (t ** (1.0 - 2.0 / alpha) * base) - 1.0) > 1e-12:
                    violations.append(f"scaling L={length} a={alpha} t={t}")

    # monotone in L at fixed alpha (flat once the family takes over)
    for alpha in ALPHAS:
        values = [classify_rectangle(length, alpha).solution.h_alpha
                  for length in sorted(ALL_LENGTHS)]
        if not all(a >= b * (1.0 - 1e-15) for a, b in zip(values, values[1:])):
            violations.append(f"L-monotonicity a={alpha}")

    # strictly increasing in alpha at fixed L (the area exponent weakens)
    for length in ALL_LENGTHS:
        values = [classify_rectangle(length, alpha).solution.h_alpha
                  for alpha in ALPHAS]
        if not all(a < b for a, b in zip(values, values[1:])):
            violations.append(f"alpha-monotonicity L={length}")

    criterion(7, not violations,
              f"5 property families over {cells} cells, "
              f"{len(violations)} violations" + (f": {violations[:3]}"
                                                 if violations else ""))


def _ring(radius, mode):
    # CI keeps the feasibility scan coarse; every tested cell sits far from
    # the feasibility threshold, so the decision is resolution-independent
    ds = 2.0 * math.pi * radius / 64.0 if mode == "ci" else None
    ring = PathSpec((("arc", radius, 2.0 * math.pi),), CurveKind.ANNULUS)
    return curve_from_source(ring, ds=ds)


def test_criterion_08_annulus_decision(criterion, mode):
    tag_for = {
        Ordering.ANNULUS_BETTER: CaseTag.ANNULUS_WHOLE,
        Ordering.SUBSTRIP_BETTER: CaseTag.ANNULUS_FAMILY,
        Ordering.TIE: CaseTag.ANNULUS_TIE,
    }
    violations = []
    cells = 0
    for radius in ANNULUS_RADII:
        ring = _ring(radius, mode)
        length = 2.0 * math.pi * radius
        for alpha in ANNULUS_ALPHAS + (1.0001, 1.9999):
            cells += 1
            c = classify_annulus(ring, alpha)
            if c.evidence["decided_by"] == "ratio_comparison":
                expected = tag_for[annulus_substrip_wins(length, alpha)]
                if c.case_tag is not expected:
                    violations.append(f"R={radius} a={alpha}: {c.case_tag}")
            else:
                # feasibility preempted the comparison; that is only
                # legitimate when the substrip cannot fit for lack of room
                available = length - 2.0 * radius * math.asin(1.0 / radius)
                if c.case_tag is not CaseTag.ANNULUS_WHOLE:
                    violations.append(f"R={radius} a={alpha}: empty fit but "
                                      f"{c.case_tag}")
                if m_of_alpha(alpha) <= available:
                    violations.append(f"R={radius} a={alpha}: fit empty with "
                                      f"room to spare")
        # sentinels: close to alpha = 1 the whole annulus always wins, close
        # to alpha = 2 the substrip family always wins
        if classify_annulus(ring, 1.0001).case_tag is not CaseTag.ANNULUS_WHOLE:
            violations.append(f"R={radius}: low-alpha sentinel")
        if classify_annulus(ring, 1.9999).case_tag is not CaseTag.ANNULUS_FAMILY:
            violations.append(f"R={radius}: high-alpha sentinel")

    # ties located by bisection on the closed-form comparison
    worst_tie = 0.0
    tie_alphas = {}
    for radius in ANNULUS_RADII:
        length = 2.0 * math.pi * radius
        lo, hi = 1.000001, 1.999999
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if annulus_substrip_wins(length, mid, eps_tie=0.0) is Ordering.ANNULUS_BETTER:
                lo = mid
            else:
                hi = mid
        tie = 0.5 * (lo + hi)
        tie_alphas[radius] = tie
        m = m_of_alpha(tie)
        h_family = stadium_perimeter(m) / stadium_area(m) ** (1.0 / tie)
        h_whole = (2.0 * length) ** (1.0 - 1.0 / tie)
        worst_tie = max(worst_tie, abs(h_family - h_whole) / h_whole)
    if worst_tie > 1e-9:
        violations.append(f"tie gap {worst_tie:.2e}")
    tie_check = classify_annulus(_ring(4.0, mode), tie_alphas[4.0])
    if tie_check.case_tag is not CaseTag.ANNULUS_TIE:
        violations.append(f"R=4 tie classifies as {tie_check.case_tag}")

    criterion(8, not violations,
              f"{cells} decision cells + sentinels, ties at rel gap "
              f"{worst_tie:.1e} <= 1e-9, {len(violations)} violations"
              + (f": {violations[:3]}" if violations else ""))


def test_criterion_09_straight_strip_degeneracy(criterion, tmp_path, capsys):
    samples = ((15.0, 1.05), (18.0, 1.3), (22.0, 1.5), (30.0, 1.7), (50.0, 1.9))
    mismatches = []
    for length, alpha in samples:
        spec = tmp_path / f"seg{length:g}.json"
        spec.write_text(json.dumps({"primitive": "segment", "length": length}),
                        encoding="utf-8")
        assert cli.main(["strip", str(spec), "--alpha", str(alpha)]) == 0
        strip_out = capsys.readouterr().out
        assert cli.main(["rect", "--length", str(length),
                         "--alpha", str(alpha)]) == 0
        rect_out = capsys.readouterr().out
        strip_block = strip_out[strip_out.index("case:"):strip_out.index("evidence:")]
        rect_block = rect_out[rect_out.index("case:"):]
        if strip_block.rstrip("\n") != rect_block.rstrip("\n"):
            mismatches.append(f"L={length} a={alpha}")
    criterion(9, not mismatches,
              f"{len(samples)} samples, strip report block == rectangle "
              f"report block byte for byte"
              + (f"; mismatches {mismatches}" if mismatches else ""))


def test_criterion_10_wall_clock(criterion, request, mode, wall_budget):
    elapsed = time.monotonic() - request.config._suite_t0
    criterion(10, elapsed <= wall_budget,
              f"suite wall clock {elapsed:.1f}s of {wall_budget:.0f}s "
              f"budget ({mode} mode)")
